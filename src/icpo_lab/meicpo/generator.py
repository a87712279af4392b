"""Text-generation backends behind one request/response interface.

Two deterministic mocks cover the test surface (a strict FIFO script and a
pure function of the request, which also backs the offline demo generator);
the HTTP client speaks the common JSON chat-completion shape with bearer
auth, timeouts, and retries.

`generate_many` answers a wave of independent requests, `responses[i]` for
`requests[i]`.  The mocks serve a wave in order; the HTTP client sends it
concurrently, so results never depend on completion order.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import requests

from ..errors import GeneratorError


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
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
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
    def generate(self, request: GeneratorRequest) -> GeneratorResponse: ...

    def generate_many(self, requests: Sequence[GeneratorRequest]) -> list[GeneratorResponse]:
        """Answer each request in turn; `responses[i]` answers `requests[i]`."""
        return [self.generate(request) for request in requests]


def _as_response(request: GeneratorRequest, texts: Sequence[str]) -> GeneratorResponse:
    texts = list(texts)
    if len(texts) != request.n:
        raise GeneratorError(f"backend returned {len(texts)} texts for n={request.n}")
    return GeneratorResponse(
        texts=texts,
        prompt_tokens=request.prompt_tokens(),
        completion_tokens=sum(count_tokens(t) for t in texts),
    )


class ScriptedGenerator(Generator):
    """Pops pre-scripted response batches in FIFO order.

    Each script entry is the list of texts for one request.  Requests are
    recorded for assertions; running past the script raises.
    """

    def __init__(self, script: Sequence[Sequence[str]]):
        self._script = [list(batch) for batch in script]
        self._cursor = 0
        self.requests: list[GeneratorRequest] = []

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        self.requests.append(request)
        if self._cursor >= len(self._script):
            raise GeneratorError(f"script exhausted after {self._cursor} requests")
        batch = self._script[self._cursor]
        self._cursor += 1
        return _as_response(request, batch)


class FunctionGenerator(Generator):
    """Delegates to a pure function of the request; deterministic by construction."""

    def __init__(self, fn: Callable[[GeneratorRequest], Sequence[str]]):
        self._fn = fn
        self.requests: list[GeneratorRequest] = []

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        self.requests.append(request)
        return _as_response(request, self._fn(request))


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
    `api_key_env`.  Transport errors (connection failures and timeouts),
    HTTP 5xx, and 429 are retried with linear backoff up to `max_retries`
    times, then surfaced; a 429 or 5xx carrying `Retry-After` in seconds
    waits at least that long.  Any other 4xx, and a body that is not JSON or
    lacks the chat-completion fields, raise `GeneratorError` at once.

    `generate_many` posts a whole wave at once from a thread pool as wide as
    the wave.  A session built here grows its keep-alive pool to the widest
    wave; a session passed in is used as given.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "ICPO_API_KEY",
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._owns_session = session is None
        self._session = session or requests.Session()
        self._pool_size = requests.adapters.DEFAULT_POOLSIZE

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, request: GeneratorRequest) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.text} for m in request.messages],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
            "n": request.n,
        }

    def _fit_pool(self, width: int) -> None:
        """Keep `width` pooled connections per host, so no wave reconnects."""
        if not self._owns_session or width <= self._pool_size:
            return
        for prefix in ("https://", "http://"):
            self._session.adapters[prefix].close()
            self._session.mount(prefix, requests.adapters.HTTPAdapter(pool_maxsize=width))
        self._pool_size = width

    def generate_many(self, requests: Sequence[GeneratorRequest]) -> list[GeneratorResponse]:
        """Post the whole wave concurrently and wait for all of it.

        If any request fails, the error of the lowest-index failure is raised
        once every request in the wave has finished.
        """
        if len(requests) <= 1:
            return super().generate_many(requests)
        from concurrent.futures import ThreadPoolExecutor

        self._fit_pool(len(requests))
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            futures = [pool.submit(self.generate, request) for request in requests]
        return [future.result() for future in futures]

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self.backoff * attempt, retry_after))
                retry_after = 0.0
            try:
                resp = self._session.post(
                    self.endpoint,
                    json=self._payload(request),
                    headers=self._headers(),
                    timeout=self.timeout,
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                raise GeneratorError(f"request failed: {exc}") from exc
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = GeneratorError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                retry_after = _retry_after_s(resp.headers.get("Retry-After"))
                continue
            if resp.status_code >= 400:
                raise GeneratorError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                return self._parse(request, resp.json())
            except (ValueError, KeyError, TypeError) as exc:
                raise GeneratorError(f"malformed response body: {exc!r}") from exc
        raise GeneratorError(f"request failed after {self.max_retries + 1} attempts: {last_error}")

    @staticmethod
    def _parse(request: GeneratorRequest, body: dict) -> GeneratorResponse:
        choices = body["choices"]
        texts = []
        for choice in choices:
            if "message" in choice:
                texts.append(choice["message"]["content"])
            else:
                texts.append(choice["text"])
        usage = body.get("usage", {})
        response = GeneratorResponse(
            texts=texts,
            prompt_tokens=int(usage.get("prompt_tokens", request.prompt_tokens())),
            completion_tokens=int(usage.get("completion_tokens", sum(count_tokens(t) for t in texts))),
        )
        if len(response.texts) != request.n:
            raise GeneratorError(f"endpoint returned {len(response.texts)} choices for n={request.n}")
        return response


@dataclass
class CallAccounting:
    """Plain token and call counters accumulated over a run."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    by_purpose: dict = field(default_factory=dict)

    def add(self, purpose: str, response: GeneratorResponse) -> None:
        self.calls += 1
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        slot = self.by_purpose.setdefault(
            purpose, {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0}
        )
        slot["calls"] += 1
        slot["prompt_tokens"] += response.prompt_tokens
        slot["completion_tokens"] += response.completion_tokens

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "by_purpose": self.by_purpose,
        }
