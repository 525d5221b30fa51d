"""HTTP query service over a :class:`~repro.api.study.Study` session.

A stdlib ``ThreadingHTTPServer`` exposing the reproduction's products
as JSON::

    GET /healthz                         liveness + version
    GET /experiments                     the paper-experiment index
    GET /scenarios                       the scenario-preset index
    GET /tables/<1-11>                   one paper table
    GET /influence                       Hawkes means / percentages
        ?category=alternative|mainstream
        ?source=<process>&destination=<process>   (matrix-cell filters)
        ?view=live                       latest live-engine refit
    GET /stages                          stage -> key map + store stats
    GET /metrics                         Prometheus text (?format=json)

Process-name filters validate against the study's ecosystem, so a
K-platform scenario's service accepts exactly its K process names.

Every cacheable response carries an ``ETag`` derived from the backing
artifact's content key (a pure hash — conditional requests never
compute anything), and ``If-None-Match`` hits return ``304`` with no
body.  Rendered response bytes are cached per ETag, so repeated warm
queries are dictionary lookups that never touch NumPy.

The HTTP layer is kept lean, since on a warm hit it costs more than
the service's own work.  The request line follows the stdlib's rules.
Header fields are read by a plain line loop, not the stdlib's ``email``
parser, and must be RFC 9112 section 5 field lines: a line with no
colon, whitespace before the colon, obs-fold (a leading space or tab)
or a bare CR, NUL or other control character is answered ``400``, and
the stdlib's limits still give ``431`` (a line over 65,536 bytes, or
100 or more header fields).  Each response head is
formatted once, with a ``Date`` formatted once per second, and leaves
with its body in one write.  Once :meth:`StudyService.drain` has begun,
responses carry ``Connection: close``.
"""

from __future__ import annotations

import hashlib
import logging
import re
import threading
from collections import OrderedDict
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, time
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..obs import (
    CONTENT_TYPE_PROMETHEUS,
    DEFAULT_TIME_BUCKETS,
    get_registry,
    render_prometheus,
)
from .serialize import (
    CONTENT_TYPE_JSON,
    canonical_bytes,
    experiments_payload,
    filter_influence,
    influence_payload,
    scenarios_payload,
)
from .study import Study

#: Ref name under which the live engine publishes its windowed refits.
LIVE_INFLUENCE_REF = "live/influence"

logger = logging.getLogger("repro.api.service")

#: Path heads the service routes; anything else is labelled "other" so
#: scanners can't mint unbounded metric label values.
_KNOWN_ROUTES = frozenset(
    {"healthz", "experiments", "scenarios", "stages", "tables", "influence",
     "metrics"})


def _route_label(path: str) -> str:
    head = path.strip("/").split("/", 1)[0]
    return f"/{head}" if head in _KNOWN_ROUTES else "other"


class _Response(tuple):
    """(status, etag or None, body, content type, extra headers) tuple."""

    __slots__ = ()

    def __new__(cls, status: int, etag: str | None, body: bytes,
                content_type: str = CONTENT_TYPE_JSON,
                extra_headers: tuple[tuple[str, str], ...] = ()):
        return super().__new__(
            cls, (status, etag, body, content_type, extra_headers))


#: RFC 7234 header attached to stale-while-revalidate responses.
_STALE_WARNING = ("Warning", '110 repro-serve "Response is Stale"')


def _error(status: int, message: str) -> _Response:
    return _Response(status, None, canonical_bytes({"error": message}))


def _body_etag(body: bytes) -> str:
    """Quoted ETag of canonical JSON bytes: the payload's ``payload_key``."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


def _etag_matches(etag: str, if_none_match: str | None) -> bool:
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [c.strip().removeprefix("W/")
                  for c in if_none_match.split(",")]
    return etag in candidates


class StudyService:
    """The service: routing, ETag handling, and the response-byte cache."""

    def __init__(self, study: Study, host: str = "127.0.0.1",
                 port: int = 8731, registry=None) -> None:
        self.study = study
        self.metrics = registry if registry is not None else get_registry()
        self._stats_lock = threading.Lock()
        self._n_requests = 0
        self._n_not_modified = 0
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        #: Rendered bodies keyed by ETag, LRU-bounded: a live engine
        #: publishing refits mints a fresh ETag per refit x filter, so
        #: an unbounded cache would grow forever in a long-lived server.
        self._body_cache: OrderedDict[str, bytes] = OrderedDict()
        self._body_cache_max = 256
        self._cache_lock = threading.Lock()
        #: Last successfully built (etag, body) per logical resource,
        #: served stale (with a Warning header) when a rebuild raises.
        self._last_good: dict[str, tuple[str, bytes]] = {}
        #: component -> failure description; populated when a resource
        #: falls back to a stale body, cleared on the next clean build.
        self._degraded: dict[str, str] = {}
        #: In-flight request accounting for graceful drain().
        self._in_flight = 0
        self._in_flight_zero = threading.Condition(self._stats_lock)
        self._draining = False
        self._version = _package_version()
        self._experiments_body = canonical_bytes(experiments_payload())
        self._experiments_etag = _body_etag(self._experiments_body)

    # -- lifecycle ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()

    def close(self) -> None:
        self.httpd.server_close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Marks the service as draining (responses written from then on
        carry ``Connection: close``, and the handler closes the socket
        after them, so keep-alive clients release their sockets), stops
        the accept loop, waits up to ``timeout``
        seconds for in-flight requests to finish, then closes the
        listening socket.  Returns ``True`` if everything drained in
        time.
        """
        with self._stats_lock:
            self._draining = True
        self.httpd.shutdown()
        with self._in_flight_zero:
            drained = self._in_flight_zero.wait_for(
                lambda: self._in_flight == 0, timeout=timeout)
        self.close()
        if not drained:
            logger.warning("drain timed out with %d requests in flight",
                           self._in_flight)
        return drained

    # -- in-flight accounting (called by the HTTP handler) ------------------

    def _request_started(self) -> None:
        with self._stats_lock:
            self._in_flight += 1

    def _request_finished(self) -> bool:
        """Decrement in-flight; returns True when the service is draining."""
        with self._in_flight_zero:
            self._in_flight -= 1
            draining = self._draining
            if self._in_flight == 0:
                self._in_flight_zero.notify_all()
        return draining

    # -- routing ------------------------------------------------------------

    def respond(self, path: str, query: dict[str, list[str]],
                if_none_match: str | None = None) -> _Response:
        """Pure request handling; the HTTP handler only does I/O."""
        start = perf_counter()
        response = self._route(path, query, if_none_match)
        status = response[0]
        route = _route_label(path)
        self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status.",
            route=route, status=str(status)).inc()
        self.metrics.histogram(
            "repro_http_request_seconds",
            "Request handling latency (routing through body render).",
            edges=DEFAULT_TIME_BUCKETS,
            route=route).observe(perf_counter() - start)
        with self._stats_lock:
            self._n_requests += 1
            if status == 304:
                self._n_not_modified += 1
        return response

    def _route(self, path: str, query: dict[str, list[str]],
               if_none_match: str | None = None) -> _Response:
        if path in ("/healthz", "/healthz/"):
            return _Response(200, None, self._health_payload())
        if path in ("/experiments", "/experiments/"):
            if _etag_matches(self._experiments_etag.strip('"'),
                             _strip_quotes(if_none_match)):
                return _Response(304, self._experiments_etag, b"")
            return _Response(200, self._experiments_etag,
                             self._experiments_body)
        if path in ("/scenarios", "/scenarios/"):
            body = canonical_bytes(scenarios_payload())
            etag = _body_etag(body)
            if _etag_matches(etag.strip('"'), _strip_quotes(if_none_match)):
                return _Response(304, etag, b"")
            return _Response(200, etag, body)
        if path in ("/stages", "/stages/"):
            return _Response(200, None, canonical_bytes(
                {"stages": self.study.keys(),
                 "store": self.study.store.stats()}))
        if path in ("/metrics", "/metrics/"):
            return self._respond_metrics(query)
        if path.startswith("/tables/"):
            return self._respond_table(path, if_none_match)
        if path in ("/influence", "/influence/"):
            return self._respond_influence(query, if_none_match)
        return _error(404, f"no route for {path}")

    def _respond_metrics(self, query: dict[str, list[str]]) -> _Response:
        """The scrape endpoint: Prometheus text, or JSON on request.

        Derived gauges (cache hit ratio, 304 ratio) are refreshed here,
        once per scrape, instead of on every request.
        """
        fmt = _single(query, "format") or "prometheus"
        if fmt not in ("prometheus", "json"):
            return _error(400, f"unknown format {fmt!r}")
        registry = self.metrics
        registry.gauge(
            "repro_store_hit_ratio",
            "Artifact store hits over total gets, process lifetime.",
        ).set(self.study.store.stats()["hit_ratio"])
        with self._stats_lock:
            total, not_modified = self._n_requests, self._n_not_modified
        if total:
            registry.gauge(
                "repro_http_not_modified_ratio",
                "Fraction of requests answered 304 Not Modified.",
            ).set(not_modified / total)
        snapshot = registry.snapshot()
        if fmt == "json":
            return _Response(200, None, canonical_bytes(snapshot))
        return _Response(200, None,
                         render_prometheus(snapshot).encode("utf-8"),
                         CONTENT_TYPE_PROMETHEUS)

    def _health_payload(self) -> bytes:
        """Liveness body; reports components serving stale results."""
        with self._cache_lock:
            degraded = dict(self._degraded)
        if not degraded:
            return canonical_bytes(
                {"status": "ok", "version": self._version})
        return canonical_bytes({"status": "degraded",
                                "version": self._version,
                                "degraded": degraded})

    def _build_fresh(self, component: str, etag: str,
                     build: Callable[[], bytes]) -> _Response:
        """Build a cacheable body, falling back to the last-good copy.

        On a build failure the most recent successful body for
        ``component`` is served with HTTP 200 plus a ``Warning: 110``
        header (stale-while-revalidate): readers keep getting answers
        while the operator sees the component flagged degraded on
        ``/healthz`` and in ``repro_serve_stale_total``.  With no
        last-good copy the error propagates as before.
        """
        try:
            body = self._body(etag, build)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
            with self._cache_lock:
                stale = self._last_good.get(component)
                self._degraded[component] = failure
            if stale is None:
                raise
            self.metrics.counter(
                "repro_serve_stale_total",
                "Responses served from the last-good body after a "
                "rebuild failure.", component=component).inc()
            logger.warning("serving stale %s after rebuild failure (%s)",
                           component, failure)
            stale_etag, stale_body = stale
            return _Response(200, stale_etag, stale_body,
                             extra_headers=(_STALE_WARNING,))
        with self._cache_lock:
            self._last_good[component] = (etag, body)
            self._degraded.pop(component, None)
        return _Response(200, etag, body)

    def _respond_table(self, path: str,
                       if_none_match: str | None) -> _Response:
        suffix = path.removeprefix("/tables/").rstrip("/")
        try:
            table_id = int(suffix)
        except ValueError:
            return _error(404, f"bad table id {suffix!r}")
        if not 1 <= table_id <= 11:
            return _error(404, f"unknown table {table_id} (expected 1-11)")
        etag = self.study.etag(f"table:{table_id}")
        if _etag_matches(etag.strip('"'), _strip_quotes(if_none_match)):
            return _Response(304, etag, b"")
        return self._build_fresh(
            f"table:{table_id}", etag,
            lambda: canonical_bytes(self.study.table(table_id).to_payload()))

    def _respond_influence(self, query: dict[str, list[str]],
                           if_none_match: str | None) -> _Response:
        category = _single(query, "category")
        source = _single(query, "source")
        destination = _single(query, "destination")
        view = _single(query, "view") or "batch"
        if category is not None and category not in (
                "alternative", "mainstream"):
            return _error(400, f"unknown category {category!r}")
        known = self.study.ecosystem.processes
        for process in (source, destination):
            if process is not None and process not in known:
                return _error(400, f"unknown process {process!r}")
        if view == "live":
            key = self.study.store.get_ref(LIVE_INFLUENCE_REF)
            if key is None:
                return _error(404, "no live influence result published")
            load: Callable[[], dict] = lambda: self.study.store.get(key)
        elif view == "batch":
            key = self.study.stage_key("fits")
            load = lambda: influence_payload(self.study.influence(),
                                             self.study.aggregate)
        else:
            return _error(400, f"unknown view {view!r}")
        etag = f'"{key}:{view}:{category}:{source}:{destination}"'
        if _etag_matches(etag.strip('"'), _strip_quotes(if_none_match)):
            return _Response(304, etag, b"")

        def build() -> bytes:
            payload = load()
            if payload is None:
                raise LookupError("published live artifact vanished")
            filtered = filter_influence(
                dict(payload), category=category, source=source,
                destination=destination)
            filtered["view"] = view  # present in filtered and full bodies
            return canonical_bytes(filtered)

        component = f"influence:{view}:{category}:{source}:{destination}"
        try:
            return self._build_fresh(component, etag, build)
        except LookupError as exc:
            return _error(404, str(exc))

    def _body(self, etag: str, build: Callable[[], bytes]) -> bytes:
        with self._cache_lock:
            cached = self._body_cache.get(etag)
            if cached is not None:
                self._body_cache.move_to_end(etag)
                return cached
        body = build()
        with self._cache_lock:
            self._body_cache.setdefault(etag, body)
            self._body_cache.move_to_end(etag)
            while len(self._body_cache) > self._body_cache_max:
                self._body_cache.popitem(last=False)
        return body


def _single(query: dict[str, list[str]], name: str) -> str | None:
    values = query.get(name)
    return values[-1] if values else None


def _strip_quotes(header: str | None) -> str | None:
    if header is None:
        return None
    return header.replace('"', "")


def _package_version() -> str:
    from .. import __version__
    return __version__


#: The stdlib's request-head limits (``http.client``): a line of more
#: than 65,536 bytes, or a 101st line counting the blank line that ends
#: the head, is answered 431.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: One RFC 9112 section 5 field line: a token name, the colon right
#: after it, optional leading whitespace, and a value of visible
#: characters, obs-text, SP and HTAB up to the line ending.  Anything
#: else (no colon, whitespace before the colon, obs-fold, a bare CR,
#: NUL or another control character) does not match and gets a 400.
_FIELD_LINE = re.compile(
    rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t]*([^\x00-\x08\x0a-\x1f\x7f]*)"
    rb"\r?\n?")
_END_OF_HEAD = (b"\r\n", b"\n", b"")

_date_cache: tuple[int, str] = (-1, "")


def _http_date() -> str:
    """The ``Date`` value for now, formatted once per whole second."""
    global _date_cache
    now = int(time())
    second, text = _date_cache
    if second != now:
        text = formatdate(now, usegmt=True)
        _date_cache = (now, text)
    return text


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"  # keep-alive; every reply is length-framed
    # One flush per response: headers+body leave in a single segment,
    # and no Nagle wait on the body write (40 ms/req otherwise).
    wbufsize = -1
    disable_nagle_algorithm = True
    _server_line = (f"Server: {server_version} "
                    f"{BaseHTTPRequestHandler.sys_version}\r\n")

    def parse_request(self) -> bool:
        """Parse the request line and the header fields.

        The request line follows the stdlib's rules exactly.  The header
        fields are read by a line loop instead of the stdlib's ``email``
        parser, under the same limits, into the same ``HTTPMessage``;
        a line that is not an RFC 9112 field line gets a 400.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                if (len(version_number) != 2
                        or not all(part.isdigit() for part in version_number)
                        or any(len(part) > 10 for part in version_number)):
                    raise ValueError
                major, minor = int(version_number[0]), int(version_number[1])
            except (ValueError, IndexError):
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            if (major, minor) >= (1, 1):
                self.close_connection = False
            if major >= 2:
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({base_version_number})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command, self.path = command, path
        if path.startswith("//"):  # gh-87389: no scheme-relative paths
            self.path = "/" + path.lstrip("/")

        headers = self.MessageClass()
        readline = self.rfile.readline
        n_lines = 0
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading "
                    "header line")
                return False
            n_lines += 1
            if n_lines > _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAX_HEADERS} headers")
                return False
            if line in _END_OF_HEAD:
                break
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            headers[field[1].decode("ascii")] = field[2].decode("iso-8859-1")
        self.headers = headers

        conntype = headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if (headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _handle(self, send_body: bool) -> None:
        split = urlsplit(self.path)
        service: StudyService = self.server.service  # type: ignore[attr-defined]
        service._request_started()
        try:
            try:
                status, etag, body, content_type, extra = service.respond(
                    split.path, parse_qs(split.query),
                    self.headers.get("If-None-Match"))
            except Exception as exc:  # never kill the worker thread
                status, etag, body, content_type, extra = _error(
                    500, f"{type(exc).__name__}: {exc}")
            self.log_request(status)
            length = len(body)
            if not send_body or status == 304:
                body = b""
            if self.request_version == "HTTP/0.9":  # no head before 1.0
                self.wfile.write(body)
                return
            head = [f"{self.protocol_version} {status} "
                    f"{self.responses[status][0]}\r\n{self._server_line}"
                    f"Date: {_http_date()}\r\n"]
            if etag:
                head.append(f"ETag: {etag}\r\nCache-Control: no-cache\r\n")
            for header, value in extra:
                head.append(f"{header}: {value}\r\n")
            if status != 304:
                head.append(f"Content-Type: {content_type}\r\n"
                            f"Content-Length: {length}\r\n")
            if service._draining:
                # Keep-alive clients release their sockets after this.
                head.append("Connection: close\r\n")
                self.close_connection = True
            head.append("\r\n")
            self.wfile.write("".join(head).encode("latin-1") + body)
        finally:
            if service._request_finished():
                # Draining began while this request ran.
                self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle(send_body=True)

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle(send_body=False)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Route through stdlib logging instead of stderr: silent under
        # the default WARNING level, visible with ``repro -v serve``.
        # The line is formatted only when it is logged.
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s - %s", self.address_string(), format % args)


def serve(study: Study, host: str = "127.0.0.1", port: int = 8731,
          registry=None) -> StudyService:
    """Create a service bound to ``host:port`` (``port=0`` → ephemeral)."""
    return StudyService(study, host=host, port=port, registry=registry)
