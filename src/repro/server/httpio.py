"""Minimal asyncio HTTP/1.1 framing for the solving server.

The server speaks just enough HTTP for curl, load balancers and the
bundled clients: request-line + headers + ``Content-Length`` bodies,
keep-alive by default for HTTP/1.1 (``Connection: close`` honoured),
default-close for HTTP/1.0 (``Connection: keep-alive`` honoured). No
external dependencies — everything rides on :mod:`asyncio` streams.

Size enforcement happens **at the socket layer**: the header block is read
through a bounded ``readuntil`` and the body is only read after its
declared ``Content-Length`` has been checked against the configured
maximum, so an oversized payload is rejected with a typed ``too_large``
response *before* its bytes are buffered. Requests without a length
declaration are read through a hard cap and rejected the moment they
exceed it.

Client side, :func:`round_trip` is the one asyncio request on a fresh
connection that the shard router and :class:`~repro.server.client.
AsyncSolverClient` both use. It fails with one of two typed errors:
:class:`ConnectFailed` (nothing was sent, so another server may be tried)
or :class:`ExchangeFailed` (the request may have arrived).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "ConnectFailed",
    "ExchangeFailed",
    "HttpRequest",
    "ProtocolError",
    "RequestTooLarge",
    "RoundTripError",
    "read_request",
    "read_response",
    "render_request",
    "render_response",
    "round_trip",
]

#: Upper bound on the request line + header block, independent of the body.
MAX_HEADER_BYTES = 16384

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """Malformed HTTP framing (bad request line, bad Content-Length, ...)."""


class RoundTripError(ConnectionError):
    """A client round trip (:func:`round_trip`) failed."""


class ConnectFailed(RoundTripError):
    """The connection could not be opened: nothing was sent."""


class ExchangeFailed(RoundTripError):
    """The connection was open and the exchange then failed: the peer may
    have received the request."""


class RequestTooLarge(ValueError):
    """The request exceeded the configured maximum size."""

    def __init__(self, declared: Optional[int], limit: int) -> None:
        what = (
            f"declared Content-Length {declared}"
            if declared is not None
            else "request body"
        )
        super().__init__(f"{what} exceeds the {limit}-byte request limit")
        self.declared = declared
        self.limit = limit


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lowercased headers, body."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "")

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per the request's HTTP version.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close`` is
        sent; HTTP/1.0 defaults to *close* unless the client explicitly
        opts in with ``Connection: keep-alive``.
        """
        token = self.headers.get("connection", "").lower()
        if self.version.upper() == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The request/response head up to the blank line; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise ProtocolError("connection closed mid-header") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            f"header block exceeds {MAX_HEADER_BYTES} bytes"
        ) from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header block exceeds {MAX_HEADER_BYTES} bytes")
    return head


def _parse_headers(lines: list) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for raw in lines:
        if not raw:
            continue
        name, sep, value = raw.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    raw = headers.get("content-length")
    if raw is None:
        return None
    try:
        length = int(raw)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise ProtocolError(f"negative Content-Length {length}")
    return length


async def read_request(
    reader: asyncio.StreamReader, max_request_bytes: int
) -> Optional[HttpRequest]:
    """Read one request; ``None`` on clean EOF.

    Raises :class:`RequestTooLarge` before buffering an oversized body and
    :class:`ProtocolError` on malformed framing.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers = _parse_headers(lines[1:])
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer encoding is not supported")

    declared = _content_length(headers)
    if declared is not None:
        # Socket-layer gate: check the declaration *before* reading bytes.
        if declared > max_request_bytes:
            raise RequestTooLarge(declared, max_request_bytes)
        body = await reader.readexactly(declared) if declared else b""
    elif method in ("POST", "PUT"):
        # No declared length (HTTP/1.0-style close-delimited body): read up
        # to the cap plus one sentinel byte, rejecting the moment the limit
        # is crossed instead of buffering an unbounded stream.
        chunks = []
        received = 0
        while received <= max_request_bytes:
            chunk = await reader.read(max_request_bytes + 1 - received)
            if not chunk:
                break
            chunks.append(chunk)
            received += len(chunk)
        if received > max_request_bytes:
            raise RequestTooLarge(None, max_request_bytes)
        body = b"".join(chunks)
    else:
        body = b""
    return HttpRequest(
        method=method, target=target, headers=headers, body=body, version=version
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    close: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    content_type: str = "text/plain",
    close: bool = False,
) -> bytes:
    """Serialize one client-side HTTP/1.1 request."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Client side: read one response → ``(status, headers, body)``."""
    head = await _read_head(reader)
    if head is None:
        raise ProtocolError("connection closed before a response arrived")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError(f"malformed status line {lines[0]!r}") from None
    headers = _parse_headers(lines[1:])
    length = _content_length(headers)
    if length is None:
        body = await reader.read()
    else:
        body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def round_trip(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    *,
    content_type: str = "text/plain",
    connect_timeout: float,
    timeout: float,
) -> Tuple[int, bytes]:
    """One request on a fresh connection → ``(status, body)``.

    The request says ``Connection: close`` and the connection is closed
    after the response. Raises :class:`ConnectFailed` if the connection
    cannot be opened within *connect_timeout* and :class:`ExchangeFailed`
    for any failure after that (send, a truncated or malformed response,
    no response within *timeout*).
    """
    address = f"{host}:{port}"
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=connect_timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectFailed(f"{address}: {type(exc).__name__}: {exc}") from exc
    try:
        writer.write(
            render_request(
                method, path, body, host=address, content_type=content_type, close=True
            )
        )
        await writer.drain()
        status, _headers, payload = await asyncio.wait_for(
            read_response(reader), timeout=timeout
        )
        return status, payload
    # EOFError: the peer closed mid-response; ValueError: bad framing.
    except (OSError, EOFError, ValueError, asyncio.TimeoutError) as exc:
        raise ExchangeFailed(f"{address}: {type(exc).__name__}: {exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # pragma: no cover
            pass
