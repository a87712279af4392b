"""Loopback fake of a chat-completion server for the me-icpo workload.

A single-threaded asyncio HTTP/1.1 server on 127.0.0.1 with keep-alive.
`POST` (any path) takes the JSON body `HttpGenerator` sends and answers with
`n` choices, each a pure function of the request and the workload seed: a
few filler words and a boxed numeric answer drawn from a small skewed set, so
votes and entropies vary.  Before answering it waits
`BASE_S + PER_TOKEN_S * longest completion` with `asyncio.sleep`, so
concurrent requests overlap as on a batched server and the wait uses no core.

`GET /stats` returns the request count and the summed service time (request
parsed to response flushed).  Every request's service time is also appended
to the log file.

Usage: python3 backend.py --seed N --log PATH
Prints `READY <port>` once listening; stops on SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import time

BASE_S = 0.002
PER_TOKEN_S = 50e-6
ANSWERS = ("12", "12", "12", "12", "13", "13", "14", "15")
FILLER = ("so", "the", "sum", "is", "then", "we", "check", "each", "term", "again")


def completion(key: bytes, j: int) -> str:
    h = hashlib.sha256(key + j.to_bytes(4, "little")).digest()
    words = [FILLER[b % len(FILLER)] for b in h[2 : 2 + 6 + h[0] % 20]]
    return " ".join(words) + " \\boxed{" + ANSWERS[h[1] % len(ANSWERS)] + "}"


def answer(body: dict, seed: int) -> tuple[dict, int]:
    """Response body for one request plus its longest completion in tokens."""
    request_key = json.dumps(
        [body["messages"], body["temperature"], body["max_tokens"], body["n"]], sort_keys=True
    )
    key = hashlib.sha256(f"{seed}\n{request_key}".encode()).digest()
    texts = [completion(key, j) for j in range(int(body["n"]))]
    lengths = [len(t.split()) for t in texts]
    prompt_tokens = sum(len(m["content"].split()) for m in body["messages"])
    payload = {
        "object": "chat.completion",
        "model": body.get("model", ""),
        "choices": [
            {"index": j, "message": {"role": "assistant", "content": t}, "finish_reason": "stop"}
            for j, t in enumerate(texts)
        ],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": sum(lengths)},
    }
    return payload, max(lengths)


class Backend:
    def __init__(self, seed: int, log):
        self.seed = seed
        self.log = log
        self.requests = 0
        self.busy_s = 0.0

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                method, path, _ = request_line.decode("latin-1").split(" ", 2)
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                body = await reader.readexactly(length) if length else b""
                started = time.perf_counter()
                if method == "GET" and path == "/stats":
                    status, payload = 200, {"requests": self.requests, "busy_s": self.busy_s}
                elif method == "POST":
                    payload, longest = answer(json.loads(body), self.seed)
                    await asyncio.sleep(BASE_S + PER_TOKEN_S * longest)
                    status = 200
                else:
                    status, payload = 404, {"error": f"no route {method} {path}"}
                data = json.dumps(payload).encode()
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                    "Connection: keep-alive\r\n\r\n".encode()
                    + data
                )
                await writer.drain()
                if method == "POST":
                    service = time.perf_counter() - started
                    self.requests += 1
                    self.busy_s += service
                    self.log.write(f"{self.requests} {service:.9f}\n")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def serve(seed: int, log_path: str) -> None:
    with open(log_path, "a", buffering=1) as log:
        backend = Backend(seed, log)
        server = await asyncio.start_server(backend.handle, "127.0.0.1", 0)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        async with server:
            port = server.sockets[0].getsockname()[1]
            print(f"READY {port}", flush=True)
            await stop.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log", required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.seed, args.log))


if __name__ == "__main__":
    main()
