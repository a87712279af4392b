"""HTTP/1.1 on a socket: the request head and the response reader of `HttpGenerator`.

`HttpGenerator.generate` imports this module, so a command that makes no
HTTP call (every command but `me-icpo` with `generator = http`) neither loads
nor compiles it.  Protocol errors raise `http.client`'s exception classes,
which `HttpGenerator` retries as transport errors.
"""

from __future__ import annotations

import http.client
import socket

# Longest status, header or chunk-size line, line ending included, and most header lines, as `http.client` allows.
MAX_LINE = 65536
MAX_HEADERS = 100


class RequestHeaders(dict):
    """One call's request header fields, and the head `HttpGenerator._send` writes before each body.

    The head is the request line and every field, encoded once, ending in
    `Content-Length: `, so a request appends only its length and its body.
    """

    def __init__(self, request_line: str, fields: dict):
        super().__init__(fields)
        for name, value in fields.items():
            if "\r" in value or "\n" in value:
                raise ValueError(f"the {name} header value holds a line break")
        lines = [request_line, *(f"{name}: {value}" for name, value in fields.items()), "Content-Length: "]
        self.head = "\r\n".join(lines).encode("latin-1")


class Fields(dict):
    """Response header fields under lower-cased names; `get` takes a name in any case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class Connection:
    """A socket to the endpoint, and the bytes read from it that no response has used yet.

    `sock` is None once closed.
    """

    def __init__(self, sock):
        self.sock = sock
        self.buffer = bytearray()

    @classmethod
    def open(cls, host: str, port: int, timeout: float, tls) -> Connection:
        """Connect, with TLS if `tls` is a context; `TCP_NODELAY` sends each request's one write at once."""
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return cls(sock)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _fill(self) -> bool:
        """Append what one read of the socket returns; False at end of file."""
        data = self.sock.recv(65536)
        self.buffer += data
        return bool(data)

    def _line(self) -> str:
        """The next line, without its line ending."""
        start = 0
        while (end := self.buffer.find(b"\n", start)) < 0:
            if len(self.buffer) >= MAX_LINE:
                raise http.client.LineTooLong("header line")
            start = len(self.buffer)
            if not self._fill():
                raise http.client.IncompleteRead(bytes(self.buffer))
        if end >= MAX_LINE:
            raise http.client.LineTooLong("header line")
        line = self.buffer[:end].decode("latin-1").rstrip("\r")
        del self.buffer[: end + 1]
        return line

    def _exactly(self, n: int) -> bytes:
        """The next `n` bytes."""
        while len(self.buffer) < n:
            if not self._fill():
                raise http.client.IncompleteRead(bytes(self.buffer), n - len(self.buffer))
        data = bytes(self.buffer[:n])
        del self.buffer[:n]
        return data

    def _fields(self) -> Fields:
        """Header (or trailer) lines up to the blank line; a repeated name joins its values with ", "."""
        fields = Fields()
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if not line:
                return fields
            name, colon, value = line.partition(":")
            if not colon:
                raise http.client.HTTPException(f"malformed header line {line!r}")
            name, value = name.strip().lower(), value.strip()
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")

    def _chunked(self) -> bytes:
        """A chunked body, its chunks joined; the trailer is read and dropped."""
        chunks = []
        while True:
            line = self._line()
            size = line.partition(";")[0].strip()
            if not (size and all(c in "0123456789abcdefABCDEF" for c in size)):
                raise http.client.HTTPException(f"bad chunk size line {line!r}")
            n = int(size, 16)
            if not n:
                break
            chunks.append(self._exactly(n))
            if self._line():
                raise http.client.HTTPException("chunk data not followed by a line ending")
        self._fields()  # the trailer
        return b"".join(chunks)

    def read_response(self) -> tuple[int, Fields, bytes, bool]:
        """Read one response: (status, header fields, body, whether the connection stays open).

        The body is framed by chunked transfer coding, else by `Content-Length`,
        else by the end of file; a 204 or 304 has none, and a 1xx reply is
        skipped.  An HTTP/1.1 reply keeps the connection open unless it says
        `Connection: close`; an HTTP/1.0 one only if it says `keep-alive`.
        """
        if not self.buffer and not self._fill():
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        status = 100
        while status < 200:
            line = self._line()
            version, _, rest = line.partition(" ")
            code = rest.partition(" ")[0]
            if not (version.startswith("HTTP/1.") and len(code) == 3 and code.isdecimal() and code >= "100"):
                raise http.client.BadStatusLine(line)
            status, fields = int(code), self._fields()
        connection = fields.get("connection", "").lower()
        keep_alive = "keep-alive" in connection if version == "HTTP/1.0" else "close" not in connection
        coding, length = fields.get("transfer-encoding"), fields.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None:
            if coding.lower() != "chunked":
                raise http.client.HTTPException(f"unsupported transfer coding {coding!r}")
            body = self._chunked()
        elif length is not None:
            if not length.isdecimal():
                raise http.client.HTTPException(f"bad Content-Length {length!r}")
            body = self._exactly(int(length))
        else:
            while self._fill():
                pass
            body, keep_alive = bytes(self.buffer), False
            self.buffer.clear()
        return status, fields, body, keep_alive
