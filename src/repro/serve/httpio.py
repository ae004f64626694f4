"""Minimal HTTP/1.1 over asyncio streams: just enough for repro-serve.

The daemon deliberately has **zero third-party dependencies** — no
aiohttp, no uvicorn — so it runs wherever the simulator runs.  This
module is the wire layer both sides share: request parsing and response
writing for the server, and a small JSON client (plain and chunked-
streaming) for the load generator, the tests, and the CI smoke job.

Scope intentionally small: ``Content-Length`` bodies on requests,
fixed-length or chunked (NDJSON event stream) bodies on responses,
and HTTP/1.1 persistent connections — the server answers requests in
sequence on one connection until a side says ``Connection: close``
(HTTP/1.0 requests close by default, per the spec), and
:class:`JsonClient` is the matching reusable client.  Streaming
responses still end the connection: the chunked terminator doubles as
the end-of-response signal and streams are long-lived anyway.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional, Tuple

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "send_json",
    "ChunkedJsonWriter",
    "JsonClient",
    "request_json",
    "stream_json_events",
]

#: Ceiling on request bodies: advisor queries are small JSON documents.
MAX_BODY_BYTES = 1 << 20
#: Ceiling on one request/status/header line.
MAX_LINE_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or oversized HTTP message (either direction)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def wants_keep_alive(self) -> bool:
        """Whether the connection should survive this request.

        HTTP/1.1 keeps the connection unless the client says
        ``Connection: close``; HTTP/1.0 closes unless the client says
        ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> object:
        """The request body decoded as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(f"request body is not valid JSON: {exc}") from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    line = await reader.readline()
    if len(line) > MAX_LINE_BYTES:
        raise HttpError("header line too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; None on a clean EOF."""
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(f"malformed request line: {line!r}")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        if not sep:
            raise HttpError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise HttpError(f"malformed Content-Length: {length_raw!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(f"request body of {length} bytes out of bounds")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def _status_head(status: int, headers: Dict[str, str]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> None:
    """Write one complete JSON response and flush it."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    writer.write(_status_head(status, headers) + body)
    await writer.drain()


class ChunkedJsonWriter:
    """Chunked NDJSON event stream: one JSON object per chunk per line.

    The server's streaming responses (``"stream": true`` advisor
    queries) send an event object per chunk so clients render progress
    as it happens; :func:`stream_json_events` is the matching reader.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.started = False

    async def start(self, status: int = 200) -> None:
        headers = {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
            "Connection": "close",
        }
        self._writer.write(_status_head(status, headers))
        await self._writer.drain()
        self.started = True

    async def send(self, event: object) -> None:
        assert self.started, "start() must run before send()"
        line = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
        self._writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
        await self._writer.drain()

    async def close(self) -> None:
        if self.started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()


# -- client side --------------------------------------------------------------


def _request_head(method: str, path: str, host: str, body: bytes) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], List[object]]:
    """Read one full response: status, headers, and its JSON documents.

    A fixed-length body is one JSON document; a chunked body is NDJSON,
    one document per line (the event stream's ``accepted`` …
    ``result``/``error``).
    """
    line = await _read_line(reader)
    if not line:
        raise HttpError("connection closed before the status line")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(f"malformed status line: {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raw = b"".join([chunk async for chunk in _iter_chunks(reader)])
        documents = [json.loads(line) for line in raw.splitlines() if line.strip()]
    else:
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        documents = [json.loads(raw)] if raw else []
    return status, headers, documents


async def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[object] = None,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, str], object]:
    """One JSON round trip on a fresh connection (a one-shot :class:`JsonClient`)."""
    async with JsonClient(host, port) as client:
        return await client.request(method, path, payload, timeout=timeout)


class JsonClient:
    """A JSON client that keeps one connection alive across requests.

    Requests are sent with ``Connection: keep-alive`` and the socket is
    reused until the server answers ``Connection: close`` (streaming
    responses do) or drops an idle connection — a reused connection
    that turns out to be stale is reopened and the request retried
    once, which is safe because advisor queries are idempotent reads.
    Not safe for concurrent use; the load generator holds one client
    per in-flight slot.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Round trips that reused an already-open connection.
        self.reused = 0

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        timeout: float = 60.0,
    ) -> Tuple[int, Dict[str, str], object]:
        """One JSON round trip: ``(status, headers, decoded body)``.

        A chunked (streamed) reply decodes as its *last* event — the final
        ``result``/``error`` — so callers that do not care about
        streaming can issue the same queries streaming clients do.
        """
        status, headers, documents = await asyncio.wait_for(
            self._roundtrip(method, path, payload), timeout
        )
        return status, headers, documents[-1] if documents else None

    async def _roundtrip(
        self, method: str, path: str, payload: Optional[object]
    ) -> Tuple[int, Dict[str, str], List[object]]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = _request_head(method, path, f"{self.host}:{self.port}", body)
        while True:
            reusing = self._writer is not None
            if not reusing:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            try:
                self._writer.write(head + body)
                await self._writer.drain()
                status, headers, documents = await _read_response(self._reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, HttpError):
                await self.aclose()
                if reusing:
                    continue  # stale keep-alive connection; retry once fresh
                raise
            if reusing:
                self.reused += 1
            if headers.get("connection", "").lower() == "close":
                await self.aclose()
            return status, headers, documents

    async def aclose(self) -> None:
        """Close the underlying connection (reopened on the next request)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass

    async def __aenter__(self) -> "JsonClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


async def _iter_chunks(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
    """Decode a chunked body, yielding each chunk's payload."""
    while True:
        size_line = await _read_line(reader)
        if not size_line:
            raise HttpError("connection closed mid chunked body")
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError:
            raise HttpError(f"malformed chunk size: {size_line!r}") from None
        if size == 0:
            await reader.readline()  # trailing CRLF (or trailers; none sent)
            return
        yield await reader.readexactly(size)
        await reader.readexactly(2)  # chunk-terminating CRLF


async def stream_json_events(
    host: str,
    port: int,
    path: str,
    payload: object,
    timeout: float = 120.0,
) -> Tuple[int, list]:
    """POST a query and collect every NDJSON event of the chunked reply.

    Returns ``(status, events)``; non-chunked error replies come back as
    a single-event list so callers handle both shapes uniformly.
    """
    async with JsonClient(host, port) as client:
        status, _, events = await asyncio.wait_for(
            client._roundtrip("POST", path, payload), timeout
        )
    return status, events
