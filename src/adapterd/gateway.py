"""Live HTTP serving mode and the closed-loop benchmarking client.

The live server runs the same event-driven engine core as the simulator, but
paces it against the wall clock: a dispatcher thread sleeps until the next
scheduled event is due, then processes everything at or before "now".  Token
emissions are fanned out to per-request queues that HTTP handler threads
drain, so a streamed response delivers each token at the instant the engine
model says it exists.

Protocol, all under one port:

* ``POST /v1/generate`` -- JSON body with ``input_tokens`` (or ``prompt``,
  whose whitespace-separated token count is used), ``max_new_tokens``,
  optional ``adapter`` (defaults to the base model), optional ``stream``.
  Streaming responses are server-sent events, one ``data: {"token_index": i}``
  line per token followed by ``data: [DONE]``.  A malformed body, and a
  ``Content-Length`` that is not a non-negative integer, get a 400 with the
  full violation list, each ``field: rule (got value)``; an unknown body key
  is a violation, as in a scenario.  A body over ``_MAX_BODY_BYTES`` gets a
  413 unread; unknown adapters get a 404.  Every reply quotes an input back
  cut to 500 characters (``core.clip``), and every 400 and 404 body fits in
  ``_ERROR_BODY_BYTES`` (:func:`_fit`).  A connection that stalls for
  ``_READ_TIMEOUT_S`` is closed without a reply.
* ``GET /healthz`` -- liveness probe, plain ``ok``.
* ``GET /v1/metrics`` -- the run-so-far report as JSON.

The server speaks HTTP/1.1 with ``TCP_NODELAY``.  A reply that leaves request
bytes unread closes the connection: a POST to an unknown path, the 413, the
400 for a bad ``Content-Length``, a GET with a body, any ``Transfer-Encoding``.
A stream is chunked, one chunk per event, except to an HTTP/1.0 client,
which gets the bare events and then the connection's close; every generate
reply names the server's request id in ``X-Request-Id``.  Once the server is
stopped, a generate call on a kept connection gets a 503 and the close.  A
call still in flight at the stop is cut: the engine abandons it and its
handler gets the cut marker, so a stream closes with no ``[DONE]`` and no
last chunk, and a JSON call gets the 503 and the close.

The bench client drives one thread per closed-loop user against a replica
set, assigning each request to the next endpoint in strict rotation over one
kept connection per endpoint.  All timestamps are taken client side on one
shared clock, so the resulting records measure what a caller actually
observed, including any scheduling or transport jitter.  Failed requests
close their connection, are counted and retried after a short backoff rather
than silently dropped, and never enter the latency summary.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Annotated, Sequence
from urllib.parse import urlsplit

from .core import (
    BASE_ADAPTER,
    Bound,
    EngineConfig,
    Request,
    WorkloadConfig,
    clip,
    field_violations,
    validate_config,
)
from .engine import EngineCore
from .metrics import RequestRecord, RunReport, merge, summarize
from .workload import User, sample_payload

__all__ = [
    "LiveEngine",
    "LiveServer",
    "ReplicaSet",
    "bench",
    "serve",
    "start_server",
]

_DEFAULT_PORT = 8000
_PORT_ENV_VAR = "ADAPTERD_PORT"
_FAILURE_BACKOFF_S = 0.05
_REQUEST_TIMEOUT_S = 30.0
_MAX_BODY_BYTES = 1 << 20
# http.server quietly drops a connection whose socket read or write stalls this long.
_READ_TIMEOUT_S = 10.0
# core.clip bounds each quoted value by characters, but one reply may quote
# several, and JSON writes a non-ASCII character as up to 12 bytes.
_ERROR_BODY_BYTES = 1000


# -- replica rotation --------------------------------------------------------


@dataclass(frozen=True)
class ReplicaSet:
    """An ordered set of replica base URLs; ``bench`` rotates through them in order."""

    endpoints: tuple[str, ...]


# -- live engine --------------------------------------------------------------


class LiveEngine:
    """Wall-clock pacing around :class:`EngineCore`.

    One dispatcher thread owns the engine; it sleeps on a condition variable
    until either the next scheduled event is due or a handler thread submits
    new work.  Each request's tag is its token queue, where the token and
    finish callbacks put their events (on the dispatcher, under the lock), so
    HTTP handler threads stream entirely outside the engine lock.
    """

    def __init__(
        self,
        config: EngineConfig,
        adapters: Sequence[str] = (),
        *,
        prewarm: bool = False,
    ) -> None:
        self._adapters = {name: name for name in (BASE_ADAPTER, *adapters)}
        self._cond = threading.Condition()
        self._core = EngineCore(
            config,
            adapters,
            prewarm=prewarm,
            deadline=None,
            on_token=lambda token_queue, index, _now: token_queue.put(index),
            on_finish=lambda token_queue, record: token_queue.put(record),
        )
        self._ids = itertools.count(1)
        self._origin = time.monotonic()
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="adapterd-engine", daemon=True
        )
        self._thread.start()

    def now_ms(self) -> float:
        return _now_ms(self._origin)

    def adapter(self, name: str) -> str | None:
        """The engine's own string for adapter `name` (the base model too), or None."""
        return self._adapters.get(name)

    def submit(
        self, adapter: str, input_tokens: int, max_new_tokens: int
    ) -> tuple[str, queue.SimpleQueue] | None:
        """Enqueue a request; returns its id and the token-event queue.

        The queue yields one token index (an int) per emitted token and then
        the request's finished :class:`RequestRecord`, or None where
        :meth:`stop` cut the request.  A stopped engine enqueues nothing and
        returns None.
        """
        with self._cond:
            if not self._running:
                return None
            request_id = f"live{next(self._ids):06d}"
            request = Request(request_id, adapter, input_tokens, max_new_tokens, self.now_ms())
            token_queue: queue.SimpleQueue = queue.SimpleQueue()
            self._core.schedule_submit(request, token_queue)
            self._cond.notify_all()
        return request_id, token_queue

    def report(self) -> RunReport:
        """Snapshot the run so far as a report over the elapsed wall time."""
        with self._cond:
            return self._core.report(None, self.now_ms(), 0)

    def stop(self) -> None:
        """Stop the dispatcher; each request not yet finished gets the cut marker, None."""
        with self._cond:
            self._running = False
            for token_queue in self._core.abandon():
                token_queue.put(None)
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    def _dispatch_loop(self) -> None:
        with self._cond:
            while self._running:
                next_time = self._core.process_due(self.now_ms())
                wait_s = 0.25 if next_time is None else (next_time - self.now_ms()) / 1000.0
                self._cond.wait(timeout=min(wait_s, 0.25))


# -- HTTP server ---------------------------------------------------------------


@dataclass(frozen=True)
class _GenerateBody:
    """A ``/v1/generate`` body; it holds exactly one of ``input_tokens`` and ``prompt``."""

    max_new_tokens: Annotated[int, Bound(1)]
    input_tokens: Annotated[int, Bound(1)] = 0
    prompt: str = ""
    adapter: str = BASE_ADAPTER
    stream: bool = False


def _body_violations(body: object) -> list[str]:
    """Every rule a generate body breaks; none means ``_GenerateBody(**body)`` is valid."""
    if not isinstance(body, dict):
        return ["body: must be a JSON object"]  # not echoed: a body may be 1 MiB
    violations = field_violations(_GenerateBody, body, "body")
    if ("input_tokens" in body) == ("prompt" in body):
        violations.append("body: must hold exactly one of input_tokens or prompt")
    if isinstance(body.get("prompt"), str) and not body["prompt"].split():
        violations.append("prompt: must hold at least one token")
    if body.get("adapter") == "":
        violations.append("adapter: must not be empty")
    return violations


def _fit(messages: list[str]) -> list[str]:
    """``messages`` cut so that a 400 or 404 body holding them is under ``_ERROR_BODY_BYTES``.

    Whole messages are kept while they fit, then one line says how many were
    left out; a first message too long to fit alone is cut and ends in ``...``.
    """
    kept, end = len(messages), len(messages[0])
    while True:
        left = len(messages) - kept
        first = messages[0][:end] + "..." * (end < len(messages[0]))
        shown = [first, *messages[1:kept]] + [f"{left} more left out"] * (left > 0)
        if len(json.dumps({"violations": shown})) + 1 < _ERROR_BODY_BYTES:  # 1: the newline
            return shown
        kept, end = (kept - 1, end) if kept > 1 else (kept, end - 1)


class _GatewayHandler(BaseHTTPRequestHandler):
    server: LiveServer
    timeout = _READ_TIMEOUT_S
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else a token on a kept connection waits ~40 ms for an ACK

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # Keep the serving path quiet; metrics carry the signal.

    def _send_head(self, status: int, *headers: tuple[str, str]) -> None:
        self.close_connection |= "Transfer-Encoding" in self.headers  # a body we cannot frame
        self.send_response(status)
        for header in headers:
            self.send_header(*header)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def _send_json(self, status: int, payload: dict, *headers: tuple[str, str]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        length = ("Content-Length", str(len(body)))
        self._send_head(status, ("Content-Type", "application/json"), length, *headers)
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.close_connection |= "Content-Length" in self.headers  # a body is never read
        if self.path == "/healthz":
            self._send_head(200, ("Content-Type", "text/plain"), ("Content-Length", "2"))
            self.wfile.write(b"ok")
        elif self.path == "/v1/metrics":
            self._send_json(200, self.server.engine.report().to_json_dict())
        else:
            self._send_json(404, {"error": _fit([f"no such path: {clip(self.path)}"])[0]})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        close_after_body, self.close_connection = self.close_connection, True
        if self.path != "/v1/generate":
            self._send_json(404, {"error": _fit([f"no such path: {clip(self.path)}"])[0]})
            return
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            violation = f"Content-Length: must be an integer >= 0 (got {clip(repr(raw_length))})"
            self._send_json(400, {"violations": _fit([violation])})
            return
        digits = raw_length.lstrip("0") or "0"
        # int() refuses 4,301 digits or more; more digits than the limit has is over it.
        length = int(digits) if len(digits) <= len(str(_MAX_BODY_BYTES)) else _MAX_BODY_BYTES + 1
        if length > _MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body exceeds {_MAX_BODY_BYTES} bytes"})
            return
        self.close_connection = close_after_body  # the replies above left the body unread
        try:
            body = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, RecursionError) as error:  # also not UTF-8, or nested too deep
            self._send_json(400, {"violations": _fit([f"body is not valid JSON: {error}"])})
            return
        violations = _body_violations(body)
        if violations:
            self._send_json(400, {"violations": _fit(violations)})
            return
        request = _GenerateBody(**body)
        input_tokens = request.input_tokens or len(request.prompt.split())
        engine = self.server.engine
        adapter = engine.adapter(request.adapter)  # so each record shares one string per name
        if adapter is None:
            self._send_json(404, {"error": _fit([f"unknown adapter: {clip(request.adapter)}"])[0]})
            return
        submitted = engine.submit(adapter, input_tokens, request.max_new_tokens)
        if submitted is None:
            self._send_stopping()
            return
        request_id, token_queue = submitted
        if request.stream:
            self._stream_response(request_id, token_queue)
            return
        while isinstance(item := token_queue.get(), int):
            pass
        if item is None:  # cut by stop
            self._send_stopping()
            return
        self._send_json(
            200,
            {
                "request_id": request_id,
                "adapter": adapter,
                "input_tokens": input_tokens,
                "output_tokens": item.output_tokens_emitted,
            },
            ("X-Request-Id", request_id),
        )

    def _send_stopping(self) -> None:
        self.close_connection = True
        self._send_json(503, {"error": "server is stopping"})

    def _stream_response(self, request_id: str, token_queue: queue.SimpleQueue) -> None:
        # An HTTP/1.0 client knows no transfer coding (RFC 9112 section 6.1), so its
        # stream is sent bare and ends where the connection closes.
        chunked = self.request_version >= "HTTP/1.1"
        self.close_connection |= not chunked
        framing = [("Transfer-Encoding", "chunked")] if chunked else []
        self._send_head(200, ("Content-Type", "text/event-stream"), ("Cache-Control", "no-store"),
                        *framing, ("X-Request-Id", request_id))
        # Chunked: one chunk per event, each in one write; then the [DONE] chunk and the empty one.
        while isinstance(item := token_queue.get(), int):
            event = b'data: {"token_index": %d}\n\n' % item
            self.wfile.write(b"%x\r\n%s\r\n" % (len(event), event) if chunked else event)
        if item is None:  # cut by stop: no [DONE] and no last chunk, so the stream ends short
            self.close_connection = True
            return
        self.wfile.write(b"e\r\ndata: [DONE]\n\n\r\n0\r\n\r\n" if chunked else b"data: [DONE]\n\n")


class LiveServer(ThreadingHTTPServer):
    """A running live server: its engine, its address and an orderly stop."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: LiveEngine) -> None:
        super().__init__(address, _GatewayHandler)
        self.engine = engine
        self._thread = threading.Thread(
            target=self.serve_forever, name="adapterd-http", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self.engine.stop()
        self._thread.join(timeout=5.0)


def _resolve_port(port: int | None) -> int:
    source = "--port"
    if port is None:
        raw = os.environ.get(_PORT_ENV_VAR)
        if raw is None:
            return _DEFAULT_PORT
        source = _PORT_ENV_VAR
        try:
            port = int(raw)
        except ValueError:
            raise ValueError(f"{_PORT_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{source} must be in 0-65535, got {port}")
    return port


def start_server(
    engine_config: EngineConfig,
    port: int | None = None,
    adapters: Sequence[str] = (),
    prewarm: bool = False,
) -> LiveServer:
    """Start a live server in the background; port 0 binds an ephemeral port.

    When ``port`` is None the ``ADAPTERD_PORT`` environment variable is
    consulted before falling back to 8000.
    """
    address = ("127.0.0.1", _resolve_port(port))
    engine = LiveEngine(engine_config, adapters, prewarm=prewarm)
    try:
        return LiveServer(address, engine)
    except BaseException:
        engine.stop()
        raise


def serve(
    engine_config: EngineConfig,
    port: int | None = None,
    adapters: Sequence[str] = (),
    prewarm: bool = False,
) -> None:
    """Run a live server in the foreground until interrupted."""
    server = start_server(engine_config, port=port, adapters=adapters, prewarm=prewarm)
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


# -- bench client --------------------------------------------------------------


def _now_ms(origin: float) -> float:
    return (time.monotonic() - origin) * 1000.0


def _connect(endpoint: str) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(urlsplit(endpoint).netloc, timeout=_REQUEST_TIMEOUT_S)


def _stream_request(
    endpoint: str, adapter: str, input_tokens: int, max_new_tokens: int,
    request_id: str, origin: float, connections: dict[str, http.client.HTTPConnection],
) -> RequestRecord:
    """Send one streaming generate call on ``connections[endpoint]``, timing tokens client side."""
    body: dict = {
        "input_tokens": input_tokens,
        "max_new_tokens": max_new_tokens,
        "stream": True,
    }
    if adapter != BASE_ADAPTER:
        body["adapter"] = adapter
    if (connection := connections.get(endpoint)) is None:
        connection = connections[endpoint] = _connect(endpoint)
    submit_ms = _now_ms(origin)
    first_ms: float | None = None
    last_ms = submit_ms
    emitted = 0
    try:
        connection.request(
            "POST", "/v1/generate", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        if response.status != 200:
            raise http.client.HTTPException(f"HTTP {response.status} {response.reason}")
        for raw in response:
            line = raw.strip()
            if not line.startswith(b"data: "):
                continue
            data = line[len(b"data: "):]
            if data == b"[DONE]":
                break
            int(json.loads(data)["token_index"])  # shape check
            stamp = _now_ms(origin)
            if first_ms is None:
                first_ms = stamp
            last_ms = stamp
            emitted += 1
        else:  # http.client ends a cut chunked body quietly, as it ends a bare one
            raise ValueError("stream closed before [DONE]")
        response.read()  # the rest of the body, so the connection can carry the next request
        if first_ms is None:
            raise ValueError("stream closed before the first token")
    except BaseException:
        connections.pop(endpoint).close()  # the next request reconnects
        raise
    return RequestRecord(
        request_id=request_id,
        adapter=adapter,
        input_tokens=input_tokens,
        output_tokens_emitted=emitted,
        submit_ms=submit_ms,
        first_token_ms=first_ms,
        last_token_ms=last_ms,
    )


def _fetch_engine_echo(endpoint: str) -> dict | None:
    connection = _connect(endpoint)
    try:
        connection.request("GET", "/v1/metrics")
        return json.loads(connection.getresponse().read())["config"]["engine"]
    except (OSError, ValueError, KeyError, http.client.HTTPException):
        return None
    finally:
        connection.close()


def bench(replicas: ReplicaSet, workload: WorkloadConfig) -> RunReport:
    """Drive a closed-loop workload against live replicas and report.

    One thread per user; each request goes to the next replica in strict
    rotation, starting from the first endpoint.  Users resubmit immediately
    after a completion and stop submitting once the configured duration
    elapses, so the protocol matches the simulator's closed loop.  Transport
    failures are counted, retried after a short backoff, and excluded from
    latency.
    """
    if not replicas.endpoints:
        raise ValueError("bench needs at least one replica endpoint")
    # The replicas check their own engines; a default one lets the workload rules run.
    validate_config(EngineConfig(), workload)
    origin = time.monotonic()
    rotation = itertools.cycle(replicas.endpoints)
    rotation_lock = threading.Lock()

    # Per endpoint, under the rotation lock: requests sent, failed and served.
    sent = dict.fromkeys(replicas.endpoints, 0)
    failed = dict.fromkeys(replicas.endpoints, 0)
    served: dict[str, list[RequestRecord]] = {endpoint: [] for endpoint in sent}

    def worker(user_index: int) -> None:
        user = User(user_index, workload)
        sequence = 0
        connections: dict[str, http.client.HTTPConnection] = {}  # kept, one per endpoint
        try:
            while _now_ms(origin) < workload.duration_ms:
                payload, user.rng = sample_payload(
                    user.rng, workload, fixed_adapter=user.pinned_adapter
                )
                with rotation_lock:
                    endpoint = next(rotation)
                    sent[endpoint] += 1
                sequence += 1
                request_id = f"u{user_index:03d}-{sequence:05d}"
                try:
                    record = _stream_request(
                        endpoint, payload.adapter, payload.input_tokens, payload.output_tokens,
                        request_id, origin, connections,
                    )
                except (OSError, ValueError, KeyError, http.client.HTTPException):
                    with rotation_lock:
                        failed[endpoint] += 1
                    time.sleep(_FAILURE_BACKOFF_S)
                    continue
                with rotation_lock:
                    served[endpoint].append(record)
        finally:
            for connection in connections.values():
                connection.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-user-{i}", daemon=True)
        for i in range(workload.users)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    echoes = {endpoint: _fetch_engine_echo(endpoint) for endpoint in served}
    # A replica that died after serving still owes its records to the merge;
    # reuse a surviving replica's engine echo so the merge precondition
    # (identical engines) can still be checked across the ones that answered.
    fallback = next((echo for echo in echoes.values() if echo is not None), None)
    merged = merge([
        RunReport(
            config={
                "engine": echoes[endpoint] if echoes[endpoint] is not None else fallback,
                "workload": workload.to_dict(),
            },
            summary={
                **summarize(records, workload.duration_ms),
                "submitted": sent[endpoint],
                "completed": len(records),
                "discarded": 0,
                "failure_count": failed[endpoint],
            },
            cache={},
            records=tuple(records),
        )
        for endpoint, records in served.items()
    ])
    return replace(merged, per_replica={e: len(records) for e, records in served.items()})
