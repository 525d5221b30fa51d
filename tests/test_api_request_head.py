"""The service's request-head parser against the stdlib's.

``_Handler.parse_request`` reads header fields with a line loop instead
of the stdlib's ``email`` parser.  On every well-formed head it must
leave the handler exactly as ``BaseHTTPRequestHandler.parse_request``
does; on heads RFC 9112 section 5 calls malformed it answers 400 where
the stdlib guesses.  Both run on in-memory streams, with no socket.
"""

from __future__ import annotations

import http.client
import io
from http.server import BaseHTTPRequestHandler

import pytest

from repro.api.service import _Handler


class _Capture(http.client.HTTPConnection):
    """An ``HTTPConnection`` that records the bytes it would send."""

    sent = b""

    def send(self, data):
        self.sent += data


def _client_head(path: str, headers: dict | None = None) -> bytes:
    """The request head ``http.client`` sends for a GET of ``path``."""
    conn = _Capture("127.0.0.1", 8731)
    conn.request("GET", path, headers=headers or {})
    return conn.sent


def _parse(parse, raw: bytes):
    """Run ``parse`` on a handler reading ``raw``; return what it leaves."""
    handler = _Handler.__new__(_Handler)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.raw_requestline = handler.rfile.readline(65537)
    ok = parse(handler)
    written = [line for line in handler.wfile.getvalue().split(b"\r\n")
               if not line.startswith(b"Date: ")]
    return {
        "ok": ok,
        "command": handler.command,
        "path": handler.path if ok else None,
        "request_version": handler.request_version,
        "close_connection": handler.close_connection,
        "headers": list(handler.headers.items()) if ok else None,
        "written": written,
    }


def _headers(n: int) -> bytes:
    return b"".join(b"X-Field-%d: value %d\r\n" % (i, i) for i in range(n))


#: Heads both parsers must leave in the same state (the stdlib's
#: verdict on each, accept or refuse, is part of what is compared).
WELL_FORMED = {
    "client-default": _client_head("/tables/4"),
    "client-query": _client_head("/influence?category=alternative"),
    "inm-quoted": _client_head("/tables/4", {"If-None-Match": '"abc:1"'}),
    "inm-weak": _client_head("/tables/4", {"If-None-Match": 'W/"abc"'}),
    "inm-star": _client_head("/tables/4", {"If-None-Match": "*"}),
    "inm-list": _client_head("/tables/4",
                             {"If-None-Match": '"a", W/"b" ,"c"'}),
    "duplicate-mixed-case": (
        b"GET /healthz HTTP/1.1\r\nhost: a\r\nACCEPT: x\r\n"
        b"Accept: y\r\nX-Dup: 1\r\nx-dup: 2\r\n\r\n"),
    "value-whitespace": (
        b"GET / HTTP/1.1\r\nX-A:   spaced   \r\nX-B:\t\ttabbed\t\r\n"
        b"X-C:\r\nX-D: \r\nX-E:inner  space\r\n\r\n"),
    "obs-text-value": (
        b"GET / HTTP/1.1\r\nX-Name: caf\xe9 \x80\x85\xff\r\n\r\n"),
    "lf-only": b"GET / HTTP/1.1\nHost: a\nAccept: */*\n\n",
    "eof-without-blank-line": b"GET / HTTP/1.1\r\nHost: a\r\n",
    "eof-mid-line": b"GET / HTTP/1.1\r\nHost: a",
    "http10": b"GET /healthz HTTP/1.0\r\nHost: a\r\n\r\n",
    "http10-keep-alive": (
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
    "http10-keep-alive-mixed-case": (
        b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"),
    "http11-close": b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    "http11-close-upper": (
        b"GET /healthz HTTP/1.1\r\nConnection: CLOSE\r\n\r\n"),
    "expect-100": (
        b"GET /healthz HTTP/1.1\r\nExpect: 100-continue\r\n\r\n"),
    "expect-100-http10": (
        b"GET /healthz HTTP/1.0\r\nExpect: 100-Continue\r\n\r\n"),
    "double-slash-path": b"GET //tables//4 HTTP/1.1\r\nHost: a\r\n\r\n",
    "many-slashes-path": b"GET ////evil.example/x HTTP/1.1\r\n\r\n",
    "version-leading-zeros": b"GET / HTTP/01.01\r\n\r\n",
    "head-method": b"HEAD /tables/2 HTTP/1.1\r\nHost: a\r\n\r\n",
    "99-headers": b"GET / HTTP/1.1\r\n" + _headers(99) + b"\r\n",
    "100-headers": b"GET / HTTP/1.1\r\n" + _headers(100) + b"\r\n",
    "101-headers": b"GET / HTTP/1.1\r\n" + _headers(101) + b"\r\n",
    "65536-byte-line": (b"GET / HTTP/1.1\r\nX-Long: "
                        + b"a" * (65536 - 10) + b"\r\n\r\n"),
    "65537-byte-line": (b"GET / HTTP/1.1\r\nX-Long: "
                        + b"a" * (65537 - 10) + b"\r\n\r\n"),
    "http2": b"GET / HTTP/2.0\r\nHost: a\r\n\r\n",
    "http1x": b"GET / HTTP/1.x\r\nHost: a\r\n\r\n",
    "three-part-version": b"GET / HTTP/1.1.1\r\n\r\n",
    "long-version": b"GET / HTTP/1.12345678901\r\n\r\n",
    "not-http": b"GET / FTP/1.1\r\n\r\n",
    "http09-get": b"GET /healthz\r\n",
    "http09-post": b"POST /healthz\r\n",
    "one-word": b"GET\r\n",
    "four-words": b"GET / x HTTP/1.1\r\n\r\n",
    "empty-request-line": b"\r\n",
}


@pytest.mark.parametrize("raw", list(WELL_FORMED.values()),
                         ids=list(WELL_FORMED))
def test_matches_stdlib(raw):
    assert (_parse(_Handler.parse_request, raw)
            == _parse(BaseHTTPRequestHandler.parse_request, raw))


def test_limits_are_the_stdlib_limits():
    # The stdlib counts the blank line that ends the head towards its
    # 100-line limit, so 99 header fields is the most it accepts.
    def status(raw):
        written = _parse(_Handler.parse_request, raw)["written"]
        return written[0] if written else b""

    assert _parse(_Handler.parse_request,
                  WELL_FORMED["99-headers"])["ok"] is True
    for name in ("100-headers", "101-headers"):
        assert status(WELL_FORMED[name]) == (
            b"HTTP/1.1 431 Too many headers"), name
    assert _parse(_Handler.parse_request,
                  WELL_FORMED["65536-byte-line"])["ok"] is True
    assert status(WELL_FORMED["65537-byte-line"]) == (
        b"HTTP/1.1 431 Line too long")


def test_client_head_fields():
    parsed = _parse(_Handler.parse_request, WELL_FORMED["inm-weak"])
    assert parsed["headers"] == [("Host", "127.0.0.1:8731"),
                                 ("Accept-Encoding", "identity"),
                                 ("If-None-Match", 'W/"abc"')]


#: Heads RFC 9112 section 5 calls malformed; the stdlib's email parser
#: folds, skips or ends the head at these lines, the service answers 400.
MALFORMED = {
    "no-colon": b"GET / HTTP/1.1\r\nHost a\r\n\r\n",
    "space-before-colon": b"GET / HTTP/1.1\r\nHost : a\r\n\r\n",
    "tab-before-colon": b"GET / HTTP/1.1\r\nHost\t: a\r\n\r\n",
    "space-in-name": b"GET / HTTP/1.1\r\nX Name: a\r\n\r\n",
    "empty-name": b"GET / HTTP/1.1\r\n: a\r\n\r\n",
    "obs-fold-space": b"GET / HTTP/1.1\r\nX-A: a\r\n b\r\n\r\n",
    "obs-fold-tab": b"GET / HTTP/1.1\r\nX-A: a\r\n\tb\r\n\r\n",
    "leading-space-first-line": b"GET / HTTP/1.1\r\n Host: a\r\n\r\n",
    "bare-cr-in-value": b"GET / HTTP/1.1\r\nX-A: a\rb\r\n\r\n",
    "bare-cr-line-end": b"GET / HTTP/1.1\r\nX-A: a\r\r\n\r\n",
    "nul-in-value": b"GET / HTTP/1.1\r\nX-A: a\x00b\r\n\r\n",
    "nul-in-name": b"GET / HTTP/1.1\r\nX\x00A: b\r\n\r\n",
    "unix-from-line": b"GET / HTTP/1.1\r\nFrom nobody\r\n\r\n",
}


@pytest.mark.parametrize("raw", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_field_line_is_400(raw):
    parsed = _parse(_Handler.parse_request, raw)
    assert parsed["ok"] is False
    assert parsed["written"][0] == b"HTTP/1.1 400 Bad header line"
    assert b"Connection: close" in parsed["written"]
    assert parsed["close_connection"] is True
