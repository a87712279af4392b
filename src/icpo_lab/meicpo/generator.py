"""Text-generation backends behind one request/response interface.

Two deterministic mocks cover the test surface (a strict FIFO script and a
pure function of the request, which also backs the offline demo generator);
the HTTP client speaks the common JSON chat-completion shape with bearer
auth, timeouts, and retries, over its own small HTTP/1.1 reader and writer.

`Generator.generate(requests, then=None)` is the one way to request text.
Slot i of its result answers `requests[i]`; with `then`, slot n + i answers
the follow-up `then(i, response_i)`, built from that response alone.  The
mocks answer every request in order, then every follow-up; the HTTP client,
in the calling thread, writes the requests, then writes follow-up i as soon
as it has read response i.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from ..errors import GeneratorError, InvalidConfigError

if TYPE_CHECKING:
    from .wire import Connection


def count_tokens(text: str) -> int:
    """Whitespace token count, the package-wide accounting proxy."""
    return len(text.split())


@dataclass(frozen=True)
class Message:
    role: str
    text: str


@dataclass(frozen=True)
class GeneratorRequest:
    messages: tuple[Message, ...]
    temperature: float = 0.6
    top_p: float = 0.95
    max_tokens: int = 1024
    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        object.__setattr__(self, "messages", tuple(self.messages))

    def prompt_tokens(self) -> int:
        return sum(count_tokens(m.text) for m in self.messages)


@dataclass
class GeneratorResponse:
    texts: list[str]
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if any(t is None for t in self.texts):
            raise ValueError("generated texts must not be null")


class Generator(Protocol):
    def generate(
        self,
        requests: Sequence[GeneratorRequest],
        then: Callable[[int, GeneratorResponse], GeneratorRequest] | None = None,
    ) -> list[GeneratorResponse]:
        """Slot i answers `requests[i]`; with `then`, slot n + i answers `then(i, responses[i])`."""
        ...

    def close(self) -> None:
        """Release what the generator holds open; the mocks hold nothing."""


def _as_response(request: GeneratorRequest, texts: Sequence[str]) -> GeneratorResponse:
    texts = list(texts)
    if len(texts) != request.n:
        raise GeneratorError(f"backend returned {len(texts)} texts for n={request.n}")
    return GeneratorResponse(
        texts=texts,
        prompt_tokens=request.prompt_tokens(),
        completion_tokens=sum(count_tokens(t) for t in texts),
    )


class FunctionGenerator(Generator):
    """Answers each request with a function of it; deterministic when the function is pure.

    Every request is answered in order before any follow-up is built, and
    each is recorded in `requests` for assertions.
    """

    def __init__(self, fn: Callable[[GeneratorRequest], Sequence[str]]):
        self._fn = fn
        self.requests: list[GeneratorRequest] = []

    def _answer(self, request: GeneratorRequest) -> GeneratorResponse:
        self.requests.append(request)
        return _as_response(request, self._fn(request))

    def generate(
        self,
        requests: Sequence[GeneratorRequest],
        then: Callable[[int, GeneratorResponse], GeneratorRequest] | None = None,
    ) -> list[GeneratorResponse]:
        responses = [self._answer(request) for request in requests]
        if then is None:
            return responses
        return responses + [self._answer(then(i, response)) for i, response in enumerate(responses)]


class ScriptedGenerator(FunctionGenerator):
    """Pops pre-scripted response batches in FIFO order.

    Each script entry is the list of texts for one request.  Requests are
    recorded for assertions; running past the script raises.
    """

    def __init__(self, script: Sequence[Sequence[str]]):
        if not isinstance(script, (list, tuple)):
            raise InvalidConfigError(f"a script is a list of lists of strings, got a {type(script).__name__}")
        for i, batch in enumerate(script):
            if not isinstance(batch, (list, tuple)) or not all(isinstance(text, str) for text in batch):
                raise InvalidConfigError(f"a script is a list of lists of strings; entry {i} is {batch!r}")
        batches = iter([list(batch) for batch in script])

        def pop(request: GeneratorRequest) -> list[str]:
            batch = next(batches, None)
            if batch is None:
                raise GeneratorError(f"script exhausted after {len(script)} requests")
            return batch

        super().__init__(pop)


def demo_generator() -> FunctionGenerator:
    """Self-contained deterministic stand-in used by `generator = mock`.

    Produces distinct boxed numeric answers keyed on a stable hash of the
    prompt and the sample index, so the loop mechanics can be exercised
    offline; it does not attempt to be a plausible mathematician.
    """

    def respond(request: GeneratorRequest) -> list[str]:
        prompt = "\n".join(m.text for m in request.messages)
        digest = hashlib.sha256(prompt.encode()).digest()
        texts = []
        for j in range(request.n):
            if request.temperature == 0.0:
                value = digest[0] % 10
            else:
                value = (digest[j % len(digest)] + j) % 10
            if prompt.startswith("Provide a concise summary"):
                texts.append(f"Deterministic demo idea. boxed{{{value}}}")
            else:
                texts.append(f"Deterministic demo reasoning. boxed{{{value}}}")
        return texts

    return FunctionGenerator(respond)


# Most requests one `HttpGenerator` has written and not yet read; the rest wait for a read.
MAX_IN_FLIGHT = 32


def _retry_after_s(value: str | None) -> float:
    """Seconds from a delta-seconds `Retry-After`; 0 when absent, an HTTP date, or junk."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) and seconds >= 0 else 0.0


class HttpGenerator(Generator):
    """JSON-over-HTTP chat-completion client with bearer auth and retries.

    The API key is read from the environment variable named by
    `api_key_env`.  Transport errors (`OSError`, including timeouts, and
    `http.client.HTTPException`), HTTP 5xx, and 429 are retried with linear
    backoff up to `max_retries` times, then surfaced; a 429 or 5xx carrying
    `Retry-After` in seconds waits at least that long.  A failed certificate
    check, a 3xx (redirects are not followed), any other 4xx, and a body that
    is not JSON or lacks the chat-completion fields raise `GeneratorError`
    without a retry.  `timeout` bounds each socket operation.  Proxy
    variables are not honoured.

    The wire code, in `wire`, is HTTP/1.1 on a socket with `TCP_NODELAY`
    (wrapped by `ssl` for `https://`).  Each POST is one `sendall` of a head
    encoded once per call, its `Content-Length` and its body.  A response is
    read as a status line, header fields under lower-cased names, then a
    chunked, `Content-Length` or read-to-close body.  Protocol errors raise
    `http.client`'s exception classes, so they are retried as transport
    errors.

    Everything runs in the calling thread.  A request takes an idle keep-alive
    connection, or opens one, and its response puts the connection back in the
    idle queue unless the server will close it or sent bytes past the
    response; `close` closes the idle ones.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "ICPO_API_KEY",
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        from urllib.parse import urlsplit

        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise InvalidConfigError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        if not (math.isfinite(timeout) and timeout > 0):
            raise InvalidConfigError(f"timeout must be a finite number of seconds > 0, got {timeout}")
        if max_retries < 0:
            raise InvalidConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        default_port = 443 if url.scheme == "https" else 80
        self._host, self._port = url.hostname, url.port or default_port
        self._netloc = f"[{self._host}]" if ":" in self._host else self._host
        if self._port != default_port:
            self._netloc += f":{self._port}"
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if any(c <= " " or c == "\x7f" for c in self._path):
            raise InvalidConfigError(f"endpoint path must not hold spaces or control characters, got {self._path!r}")
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        self._idle: list[Connection] = []

    def _head(self) -> bytes:
        """This call's request head, which `_send` writes before each body."""
        headers = {
            "Host": self._netloc,
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
            "User-Agent": "icpo-lab",
        }
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        from .wire import request_head

        return request_head(f"POST {self._path} HTTP/1.1", headers)

    def _payload(self, request: GeneratorRequest) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.text} for m in request.messages],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
            "n": request.n,
        }

    def _connection(self) -> Connection:
        """An idle keep-alive connection the peer has not closed, else a new one.

        A socket the peer closed polls readable (end of file), as does one
        holding bytes no request asked for; either is discarded before a
        request is spent on it.
        """
        import select

        while self._idle:
            conn = self._idle.pop()
            poll = select.poll()
            poll.register(conn.sock, select.POLLIN)
            if not poll.poll(0):
                return conn
            conn.close()
        from .wire import Connection

        return Connection.open(self._host, self._port, self.timeout, self._tls)

    def _send(self, body: bytes, head: bytes) -> Connection:
        """Write one POST of `body` with one `sendall` and return its connection, for `_receive`; or raise."""
        conn = self._connection()
        try:
            conn.sock.sendall(b"%s%d\r\n\r\n%s" % (head, len(body), body))
        except BaseException:
            conn.close()
            raise
        return conn

    def _receive(self, conn: Connection) -> tuple[int, Mapping, bytes]:
        """Read (status, headers, body) from `conn`, then queue it as idle unless it is done.

        It is done when the server will close it, or when it holds bytes past
        the response, which no request asked for.
        """
        try:
            status, headers, body, keep_alive = conn.read_response()
        except BaseException:
            conn.close()
            raise
        if keep_alive and not conn.buffer:
            self._idle.append(conn)
        else:
            conn.close()
        return status, headers, body

    def close(self) -> None:
        """Close the idle connections; a later request opens new ones."""
        while self._idle:
            self._idle.pop().close()

    def generate(
        self,
        requests: Sequence[GeneratorRequest],
        then: Callable[[int, GeneratorResponse], GeneratorRequest] | None = None,
    ) -> list[GeneratorResponse]:
        """Answer the requests, and each response's follow-up, from the calling thread.

        Slot i < n is `requests[i]`; slot n + i is its follow-up `then(i, response_i)`, built and
        written as soon as response i is read, on the connection that read freed.  A `then` of
        None sends no follow-ups.  At most `MAX_IN_FLIGHT` requests are written and not yet
        read, and responses are read in the order written.  A pass's transient failures, of
        either stage, are resent together after one wait; `then` is called once per index.
        Once a first-stage request has failed for good, no further follow-up is built or
        written.  Once every request is done, the lowest-slot error is raised.
        """
        import http.client

        head = self._head()
        n = len(requests)
        requests = list(requests) + [None] * (n if then is not None else 0)
        bodies: list = [None] * len(requests)
        outcomes: list = [None] * len(requests)  # a response, or the latest error
        attempts = [0] * len(requests)
        pending = list(range(n))
        doomed = False  # a first-stage request failed for good
        while pending:
            waits = {}  # slot -> Retry-After seconds if the request is to be resent, else None
            queue, sent = deque(pending), {}  # sent: slot -> connection written and not yet read
            try:
                while queue or sent:
                    while queue and len(sent) < MAX_IN_FLIGHT:
                        slot = queue.popleft()
                        if doomed and slot >= n:
                            continue
                        if bodies[slot] is None:
                            bodies[slot] = json.dumps(self._payload(requests[slot]), allow_nan=False).encode()
                        attempts[slot] += 1
                        try:
                            sent[slot] = self._send(bodies[slot], head)
                        except (OSError, http.client.HTTPException) as exc:
                            outcomes[slot], waits[slot] = self._judge(requests[slot], exc)
                            doomed |= slot < n and waits[slot] is None
                    if not sent:
                        break
                    slot = next(iter(sent))
                    try:
                        reply = self._receive(sent[slot])
                    except (OSError, http.client.HTTPException) as exc:
                        reply = exc
                    del sent[slot]
                    outcomes[slot], waits[slot] = self._judge(requests[slot], reply)
                    doomed |= slot < n and waits[slot] is None and isinstance(outcomes[slot], Exception)
                    if then is not None and not doomed and slot < n and isinstance(outcomes[slot], GeneratorResponse):
                        requests[n + slot] = then(slot, outcomes[slot])
                        queue.appendleft(n + slot)
            finally:
                for conn in sent.values():
                    conn.close()
            pending = []
            for slot in sorted(slot for slot, wait in waits.items() if wait is not None):
                if doomed and slot >= n:
                    continue
                if attempts[slot] <= self.max_retries:
                    pending.append(slot)
                else:
                    outcomes[slot] = GeneratorError(f"request failed after {attempts[slot]} attempts: {outcomes[slot]}")
                    doomed |= slot < n
            if pending:
                retry = max(attempts[slot] for slot in pending)
                time.sleep(max(self.backoff * retry, *(waits[slot] for slot in pending)))
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes

    def _judge(self, request: GeneratorRequest, reply) -> tuple[GeneratorResponse | Exception, float | None]:
        """One attempt's outcome, and the `Retry-After` seconds if it is to be resent, else None."""
        import ssl

        if isinstance(reply, ssl.SSLCertVerificationError):
            return GeneratorError(f"TLS certificate check failed: {reply}"), None
        if isinstance(reply, Exception):
            return reply, 0.0
        status, resp_headers, data = reply
        text = data[:200].decode("utf-8", "replace")
        if status == 429 or status >= 500:
            return GeneratorError(f"HTTP {status}: {text}"), _retry_after_s(resp_headers.get("Retry-After"))
        if 300 <= status < 400:
            location = resp_headers.get("Location")
            return GeneratorError(f"HTTP {status} redirect to {location!r}; redirects are not followed"), None
        if status >= 400:
            return GeneratorError(f"HTTP {status}: {text}"), None
        try:
            response = self._parse(request, json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            return GeneratorError(f"malformed response body: {exc!r}"), None
        if len(response.texts) != request.n:
            return GeneratorError(f"endpoint returned {len(response.texts)} choices for n={request.n}"), None
        return response, None

    @staticmethod
    def _parse(request: GeneratorRequest, body: dict) -> GeneratorResponse:
        texts = [c["message"]["content"] if "message" in c else c["text"] for c in body["choices"]]
        usage = body.get("usage", {})
        # Counted only where the endpoint's usage block leaves a count out.
        prompt = usage["prompt_tokens"] if "prompt_tokens" in usage else request.prompt_tokens()
        completion = usage["completion_tokens"] if "completion_tokens" in usage else sum(map(count_tokens, texts))
        return GeneratorResponse(texts=texts, prompt_tokens=int(prompt), completion_tokens=int(completion))


@dataclass
class CallAccounting:
    """Call and token counts per call purpose, accumulated over a run; the totals are their sums."""

    by_purpose: dict = field(default_factory=dict)

    def add(self, purpose: str, response: GeneratorResponse) -> None:
        slot = self.by_purpose.setdefault(purpose, {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0})
        slot["calls"] += 1
        slot["prompt_tokens"] += response.prompt_tokens
        slot["completion_tokens"] += response.completion_tokens

    def _total(self, key: str) -> int:
        return sum(slot[key] for slot in self.by_purpose.values())

    calls = property(lambda self: self._total("calls"))
    prompt_tokens = property(lambda self: self._total("prompt_tokens"))
    completion_tokens = property(lambda self: self._total("completion_tokens"))

    def to_dict(self) -> dict:
        totals = {key: self._total(key) for key in ("calls", "prompt_tokens", "completion_tokens")}
        return {**totals, "by_purpose": self.by_purpose}
