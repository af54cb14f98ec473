"""HTTP framing tests: size gate at the socket layer, malformed framing."""

from __future__ import annotations

import asyncio

import pytest

from repro.server.httpio import (
    ConnectFailed,
    ExchangeFailed,
    HttpRequest,
    ProtocolError,
    RequestTooLarge,
    read_request,
    read_response,
    render_request,
    render_response,
    round_trip,
)

from tests.server.conftest import answer_once

pytestmark = pytest.mark.server


def _read(raw: bytes, max_request_bytes: int = 1024):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_request_bytes)

    return asyncio.run(run())


class TestReadRequest:
    def test_post_with_content_length(self):
        raw = render_request("POST", "/solve", b"(check-sat)")
        request = _read(raw)
        assert isinstance(request, HttpRequest)
        assert request.method == "POST"
        assert request.path == "/solve"
        assert request.body == b"(check-sat)"
        assert request.keep_alive

    def test_get_without_body(self):
        request = _read(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.body == b""

    def test_query_string_stripped_from_path(self):
        request = _read(b"GET /metrics?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.path == "/metrics"

    def test_clean_eof_returns_none(self):
        assert _read(b"") is None

    def test_declared_oversize_rejected_before_body_read(self):
        head = (
            b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 5000\r\n\r\n"
        )
        # Only the head is fed: the reject must not wait for body bytes.
        with pytest.raises(RequestTooLarge) as info:
            _read(head, max_request_bytes=100)
        assert info.value.declared == 5000
        assert info.value.limit == 100

    def test_undeclared_oversize_rejected_at_cap(self):
        body = b"x" * 300
        raw = b"POST /solve HTTP/1.1\r\nHost: x\r\n\r\n" + body
        with pytest.raises(RequestTooLarge):
            _read(raw, max_request_bytes=100)

    def test_bad_content_length_rejected(self):
        raw = b"POST /solve HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        with pytest.raises(ProtocolError):
            _read(raw)

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolError):
            _read(b"NOT-HTTP\r\n\r\n")

    def test_chunked_rejected(self):
        raw = b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ProtocolError):
            _read(raw)

    def test_connection_close_header(self):
        raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert _read(raw).keep_alive is False

    def test_http10_defaults_to_close(self):
        # HTTP/1.0's default is close; only an explicit opt-in keeps the
        # connection open.
        raw = b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n"
        request = _read(raw)
        assert request.version == "HTTP/1.0"
        assert request.keep_alive is False

    def test_http10_explicit_keep_alive_honoured(self):
        raw = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        assert _read(raw).keep_alive is True

    def test_http11_defaults_to_keep_alive(self):
        request = _read(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.version == "HTTP/1.1"
        assert request.keep_alive is True


class TestResponses:
    def test_render_and_read_round_trip(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(render_response(200, b'{"ok":true}'))
            reader.feed_eof()
            return await read_response(reader)

        status, headers, body = asyncio.run(run())
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body == b'{"ok":true}'

    def test_read_response_eof_raises(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_response(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(run())

    def test_non_numeric_status_is_protocol_error(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n")
            reader.feed_eof()
            return await read_response(reader)

        with pytest.raises(ProtocolError, match="malformed status line"):
            asyncio.run(run())


def _post(port: int):
    return round_trip(
        "127.0.0.1", port, "POST", "/solve", b"(check-sat)",
        connect_timeout=2.0, timeout=5.0,
    )


class TestRoundTrip:
    def test_answer_passes_through(self):
        response = render_response(200, b'{"ok":true}')
        status, body = asyncio.run(answer_once(response, _post))
        assert (status, body) == (200, b'{"ok":true}')

    def test_nothing_listening_is_connect_failed(self):
        with pytest.raises(ConnectFailed):
            asyncio.run(_post(1))  # nothing listens on port 1

    def test_truncated_body_is_exchange_failed(self):
        response = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\":true"
        with pytest.raises(ExchangeFailed, match="IncompleteReadError"):
            asyncio.run(answer_once(response, _post))

    def test_bad_status_line_is_exchange_failed(self):
        response = b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n"
        with pytest.raises(ExchangeFailed, match="ProtocolError"):
            asyncio.run(answer_once(response, _post))
