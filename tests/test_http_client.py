"""`HttpGenerator`'s wire code against a loopback server that writes scripted raw bytes.

Each test scripts the bytes of every reply, so framing, keep-alive and
protocol-error cases are exact; the scheduler's rules are pinned in
`test_meicpo.py`.
"""

from __future__ import annotations

import contextlib
import datetime
import ipaddress
import json
import os
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
from pathlib import Path
from time import sleep as pause  # bound before tests patch `time.sleep`

import pytest

import icpo_lab
from icpo_lab.errors import GeneratorError, InvalidConfigError
from icpo_lab.meicpo.generator import GeneratorRequest, HttpGenerator, Message
from icpo_lab.meicpo.wire import MAX_HEADERS, MAX_LINE

CLOSE = "close"  # a reply part: close the connection here
HANG = "hang"  # a reply part: write nothing more until the test ends, then close


class _RawHandler(socketserver.StreamRequestHandler):
    """Reads each request on a connection and answers it with the next scripted reply, part by part."""

    disable_nagle_algorithm = True  # each part is its own segment

    def handle(self):
        while True:
            head = []
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                head.append(line)
            if not head:
                return
            fields = dict(line.decode("latin-1").rstrip("\r\n").split(": ", 1) for line in head[1:])
            body = self.rfile.read(int(fields["Content-Length"]))
            self.server.requests.append((self.client_address, json.loads(body)["messages"][0]["content"]))
            for part in self.server.replies.pop(0):
                if part == CLOSE:
                    return
                if part == HANG:
                    self.server.release.wait(10)
                    return
                self.wfile.write(part)
                pause(0.005)  # the next part arrives in a later read


@contextlib.contextmanager
def _raw_server(replies):
    """A threaded loopback TCP server answering requests, in arrival order, with `replies`."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawHandler)
    server.daemon_threads = True
    server.replies, server.requests, server.release = list(replies), [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _client(server, scheme="http", **kwargs) -> HttpGenerator:
    kwargs = {"max_retries": 0, "backoff": 0.0, "timeout": 5.0, **kwargs}
    return HttpGenerator(f"{scheme}://127.0.0.1:{server.server_address[1]}/v1/chat", "m", **kwargs)


def _request(text="hi"):
    return GeneratorRequest(messages=(Message("user", text),), n=1)


def _body(text):
    return json.dumps({"choices": [{"text": text}]}).encode()


def _ok(text, headers=b"", version=b"HTTP/1.1"):
    """A complete reply carrying `text`, framed by `Content-Length`."""
    body = _body(text)
    return [version + b" 200 OK\r\n" + headers + b"Content-Length: %d\r\n\r\n" % len(body) + body]


def _texts(gen, *texts):
    return [r.texts[0] for r in gen.generate([_request(t) for t in texts])]


def _peers(server):
    return [peer for peer, _ in server.requests]


def test_chunked_body_is_joined_and_the_connection_reused():
    body = _body("chunked")
    chunks = [body[:5], body[5:17], body[17:]]
    reply = [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"]
    reply += [b"%x;ext=1\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks]
    reply += [b"0\r\nX-Trailer: yes\r\n\r\n"]
    with _raw_server([reply, _ok("again")]) as server:
        gen = _client(server)
        try:
            assert _texts(gen, "a") == ["chunked"]
            assert _texts(gen, "b") == ["again"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 1


def test_status_line_and_header_block_split_across_writes():
    body = _body("split")
    parts = [b"HT", b"TP/1.1 2", b"00 OK\r", b"\nContent-Ty", b"pe: application/json\r\nContent-", b"Length: "]
    parts += [b"%d\r\n" % len(body), b"\r", b"\n" + body[:4], body[4:]]
    with _raw_server([parts, _ok("again")]) as server:
        gen = _client(server)
        try:
            assert _texts(gen, "a") == ["split"]
            assert _texts(gen, "b") == ["again"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 1


@pytest.mark.parametrize(
    "reply, reused",
    [
        (_ok("x", b"Connection: close\r\n"), False),
        (_ok("x", b"Connection: Close\r\n"), False),
        (_ok("x", version=b"HTTP/1.0"), False),
        (_ok("x", b"Connection: keep-alive\r\n", b"HTTP/1.0"), True),
        (_ok("x", b"Connection: keep-alive\r\n"), True),
    ],
    ids=["close", "close-any-case", "http-1.0", "http-1.0-keep-alive", "keep-alive"],
)
def test_a_reply_that_ends_the_connection_is_not_queued(reply, reused):
    with _raw_server([reply + [CLOSE] * (not reused), _ok("y")]) as server:
        gen = _client(server)
        try:
            assert _texts(gen, "a") == ["x"]
            assert len(gen._idle) == reused
            assert _texts(gen, "b") == ["y"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == (1 if reused else 2)


def test_body_without_length_is_read_to_the_end_of_file():
    body = _body("to eof")
    reply = [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n", body[:7], body[7:], CLOSE]
    with _raw_server([reply, _ok("y")]) as server:
        gen = _client(server)
        try:
            assert _texts(gen, "a") == ["to eof"]
            assert gen._idle == []
            assert _texts(gen, "b") == ["y"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 2


def test_no_content_reply_has_no_body():
    with _raw_server([[b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 204 No Content\r\n\r\n"], _ok("y")]) as server:
        gen = _client(server)
        try:
            with pytest.raises(GeneratorError, match="malformed response body"):
                gen.generate([_request("a")])
            assert _texts(gen, "b") == ["y"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 1


def test_body_cut_short_is_a_transient_error_and_resent(monkeypatch):
    slept = []
    monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
    body = _body("whole")
    short = [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body), body[:-3], CLOSE]
    with _raw_server([short, _ok("whole")]) as server:
        gen = _client(server, max_retries=1, backoff=0.5)
        try:
            assert _texts(gen, "a") == ["whole"]
        finally:
            gen.close()
    assert [text for _, text in server.requests] == ["a", "a"] and slept == [0.5]


def test_header_block_that_never_ends_times_out_and_is_resent(monkeypatch):
    slept = []
    monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
    stalled = [b"HTTP/1.1 200 OK\r\n", b"Content-Type: application/json\r\n", HANG]
    with _raw_server([stalled, _ok("late")]) as server:
        gen = _client(server, timeout=0.2, max_retries=1, backoff=0.0)
        try:
            assert _texts(gen, "a") == ["late"]
        finally:
            gen.close()
    assert [text for _, text in server.requests] == ["a", "a"] and len(set(_peers(server))) == 2
    assert slept == [0.0]


@pytest.mark.parametrize(
    "reply, message",
    [
        pytest.param(
            b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n",
            "got more than 100 headers",
            id="headers",
        ),
        pytest.param(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * MAX_LINE + b"\r\n\r\n", "header line", id="long-line"),
        pytest.param(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * MAX_LINE, "header line", id="long-unended-line"),
        pytest.param(b"HTTX/1.1 200 OK\r\n\r\n", "HTTX/1.1 200 OK", id="protocol"),
        pytest.param(b"HTTP/1.1 2000 OK\r\n\r\n", "HTTP/1.1 2000 OK", id="status-digits"),
        pytest.param(b"HTTP/1.1 20\r\n\r\n", "HTTP/1.1 20", id="status-short"),
        pytest.param(b"HTTP/1.1 099 Low\r\n\r\n", "HTTP/1.1 099 Low", id="status-low"),
        pytest.param(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n", "malformed header line", id="no-colon"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad Content-Length", id="length"),
        pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", "unsupported transfer coding", id="coding"),
        pytest.param(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n", "bad chunk size line", id="chunk"
        ),
    ],
)
def test_protocol_error_is_transient_and_drops_the_connection(reply, message):
    with _raw_server([[reply, CLOSE], _ok("y")]) as server:
        gen = _client(server)
        try:
            with pytest.raises(GeneratorError, match=f"request failed after 1 attempts: .*{message}"):
                gen.generate([_request("a")])
            assert gen._idle == []
            assert _texts(gen, "b") == ["y"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 2


def test_bytes_after_a_response_keep_the_connection_out_of_reuse():
    with _raw_server([[_ok("x")[0] + b"HTTP/1.1 200 OK\r\n"], _ok("y")]) as server:
        gen = _client(server)
        try:
            assert _texts(gen, "a") == ["x"]
            assert gen._idle == []
            assert _texts(gen, "b") == ["y"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 2


def test_retry_after_is_read_whatever_the_case_of_its_name(monkeypatch):
    slept = []
    monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
    busy = [b"HTTP/1.1 503 Busy\r\nretry-after: 2.5\r\nContent-Length: 0\r\n\r\n"]
    with _raw_server([busy, _ok("y")]) as server:
        gen = _client(server, max_retries=1, backoff=1.0)
        try:
            assert _texts(gen, "a") == ["y"]
        finally:
            gen.close()
    assert slept == [2.5] and len(set(_peers(server))) == 1


@pytest.mark.parametrize("path", ["/v1 chat", "/v1/\x00chat", "/v1/\x7f"])
def test_endpoint_path_with_a_space_or_control_character_is_a_config_error(path):
    with pytest.raises(InvalidConfigError, match="endpoint path"):
        HttpGenerator(f"http://127.0.0.1:8000{path}", "m")


def test_api_key_with_a_line_break_is_refused_before_any_request(monkeypatch):
    monkeypatch.setenv("ICPO_API_KEY", "sekret\r\nX-Injected: 1")
    with _raw_server([]) as server:
        gen = _client(server)
        with pytest.raises(ValueError, match="Authorization header value holds a line break"):
            gen.generate([_request("a")])
    assert server.requests == []


def test_each_post_is_one_write_on_a_no_delay_socket(monkeypatch):
    """Every POST is one `sendall`, on a socket the client opened with `TCP_NODELAY`."""
    k = 3
    opened, writes = [], []
    create, sendall = socket.create_connection, socket.socket.sendall

    def recorded_create(*args, **kwargs):
        opened.append(create(*args, **kwargs))
        return opened[-1]

    def recorded_sendall(sock, data, *flags):
        writes.append((sock, bytes(data)))
        return sendall(sock, data, *flags)

    monkeypatch.setattr(socket, "create_connection", recorded_create)
    monkeypatch.setattr(socket.socket, "sendall", recorded_sendall)
    with _raw_server([_ok(f"r{i}") for i in range(2 * k)]) as server:
        gen = _client(server)
        try:
            for wave in range(2):
                texts = _texts(gen, *(f"q{i}" for i in range(k)))
                assert sorted(texts) == [f"r{i}" for i in range(wave * k, wave * k + k)]
            assert opened and all(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for sock in opened)
        finally:
            gen.close()
    posts = [data for sock, data in writes if any(sock is mine for mine in opened)]
    assert len(posts) == len(server.requests) == 2 * k
    for data in posts:
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /v1/chat HTTP/1.1\r\n")
        assert b"\r\nContent-Length: %d" % len(body) in head and json.loads(body)["model"] == "m"


@pytest.fixture
def certificate(tmp_path):
    """A self-signed certificate for 127.0.0.1: (certificate file, key file)."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False)
        .sign(key, hashes.SHA256())
    )
    cert_file, key_file = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, serialization.NoEncryption()
        )
    )
    return cert_file, key_file


@contextlib.contextmanager
def _tls_server(replies, certificate):
    with _raw_server(replies) as server:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(*certificate)
        server.socket = context.wrap_socket(server.socket, server_side=True)
        yield server


def test_https_reply_is_read_over_tls(certificate):
    with _tls_server([_ok("secure"), _ok("again")], certificate) as server:
        gen = _client(server, "https")
        gen._tls = ssl.create_default_context(cafile=str(certificate[0]))
        try:
            assert _texts(gen, "a") == ["secure"]
            assert _texts(gen, "b") == ["again"]
        finally:
            gen.close()
    assert len(set(_peers(server))) == 1


def test_untrusted_certificate_fails_without_a_retry(certificate, monkeypatch):
    slept = []
    monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
    with _tls_server([_ok("never")], certificate) as server:
        gen = _client(server, "https", max_retries=2, backoff=1.0)
        try:
            with pytest.raises(GeneratorError, match="TLS certificate check failed"):
                gen.generate([_request("a")])
        finally:
            gen.close()
    assert server.requests == [] and slept == []


def test_startup_neither_loads_nor_compiles_the_wire_code():
    """`import icpo_lab.cli` leaves `meicpo.wire` unloaded; the first HTTP call loads it."""
    src = str(Path(icpo_lab.__file__).resolve().parents[1])
    code = "import sys, icpo_lab.cli; print('icpo_lab.meicpo.wire' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
