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
  line per token followed by ``data: [DONE]``.  Malformed bodies, and a
  ``Content-Length`` that is not a non-negative integer, get a 400 with the
  full violation list; a body over ``_MAX_BODY_BYTES`` gets a 413 unread;
  unknown adapters get a 404.  A connection that stalls for
  ``_READ_TIMEOUT_S`` is closed without a reply.
* ``GET /healthz`` -- liveness probe, plain ``ok``.
* ``GET /v1/metrics`` -- the run-so-far report as JSON.

The bench client drives one thread per closed-loop user against a replica
set, assigning each request to the next endpoint in strict rotation.  All
timestamps are taken client side on one shared clock, so the resulting
records measure what a caller actually observed, including any scheduling or
transport jitter.  Failed requests are counted and retried after a short
backoff rather than silently dropped, and never enter the latency summary.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from .core import BASE_ADAPTER, EngineConfig, Request, WorkloadConfig, validate_config
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

_FINISHED = object()


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
    new work.  Token and finish callbacks land on per-request queues, which
    keeps HTTP handler threads entirely outside the engine lock while they
    stream.
    """

    def __init__(
        self,
        config: EngineConfig,
        adapters: Sequence[str] = (),
        *,
        prewarm: bool = False,
    ) -> None:
        self._config = config
        self._adapters = frozenset(adapters)
        self._cond = threading.Condition()
        self._core = EngineCore(
            config,
            adapters,
            prewarm=prewarm,
            deadline=None,
            on_token=self._emit_token,
            on_finish=self._emit_finish,
        )
        self._queues: dict[str, queue.SimpleQueue] = {}
        self._ids = itertools.count(1)
        self._origin = time.monotonic()
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="adapterd-engine", daemon=True
        )
        self._thread.start()

    def now_ms(self) -> float:
        return (time.monotonic() - self._origin) * 1000.0

    def knows_adapter(self, adapter: str) -> bool:
        return adapter == BASE_ADAPTER or adapter in self._adapters

    def submit(
        self, adapter: str, input_tokens: int, max_new_tokens: int
    ) -> tuple[str, queue.SimpleQueue]:
        """Enqueue a request; returns its id and the token-event queue.

        The queue yields one token index per emitted token and then a
        final sentinel (compare against queue items with ``is``).
        """
        with self._cond:
            request_id = f"live{next(self._ids):06d}"
            token_queue: queue.SimpleQueue = queue.SimpleQueue()
            self._queues[request_id] = token_queue
            now = self.now_ms()
            self._core.schedule_submit(
                Request(
                    id=request_id,
                    adapter=adapter,
                    input_tokens=input_tokens,
                    max_new_tokens=max_new_tokens,
                    submit_time=now,
                ),
                now,
            )
            self._cond.notify_all()
        return request_id, token_queue

    def report(self) -> RunReport:
        """Snapshot the run so far as a report over the elapsed wall time."""
        with self._cond:
            summary = self._core.build_summary(self.now_ms(), 0)
            return RunReport(
                config={"engine": self._config.to_dict(), "workload": None},
                summary=summary,
                per_adapter=self._core.per_adapter_counts(),
                cache=self._core.cache.residency_stats(),
                records=tuple(self._core.records),
            )

    def stop(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    # Callbacks run on the dispatcher thread with the condition held.

    def _emit_token(self, request_id: str, token_index: int, _now: float) -> None:
        token_queue = self._queues.get(request_id)
        if token_queue is not None:
            token_queue.put(token_index)

    def _emit_finish(self, record: RequestRecord) -> None:
        token_queue = self._queues.pop(record.request_id, None)
        if token_queue is not None:
            token_queue.put(_FINISHED)

    def _dispatch_loop(self) -> None:
        with self._cond:
            while self._running:
                next_time = self._core.next_event_time()
                if next_time is None:
                    self._cond.wait(timeout=0.25)
                    continue
                now = self.now_ms()
                if now < next_time:
                    self._cond.wait(timeout=min((next_time - now) / 1000.0, 0.25))
                    continue
                self._core.process_due(now)


# -- HTTP server ---------------------------------------------------------------


def _request_violations(body: object) -> tuple[list[str], str, int, int, bool]:
    """Validate a generate-request body; returns (violations, fields...)."""
    violations: list[str] = []
    if not isinstance(body, dict):
        return ["request body must be a JSON object"], BASE_ADAPTER, 0, 0, False

    adapter = body.get("adapter", BASE_ADAPTER)
    if not isinstance(adapter, str) or not adapter:
        violations.append("adapter must be a non-empty string")
        adapter = BASE_ADAPTER

    input_tokens = 0
    if "input_tokens" in body:
        raw = body["input_tokens"]
        if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
            input_tokens = raw
        else:
            violations.append(f"input_tokens must be an integer >= 1, got {raw!r}")
    elif "prompt" in body:
        raw = body["prompt"]
        if isinstance(raw, str) and raw.split():
            input_tokens = len(raw.split())
        else:
            violations.append("prompt must be a string with at least one token")
    else:
        violations.append("one of input_tokens or prompt is required")

    max_new_tokens = 0
    raw = body.get("max_new_tokens")
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        max_new_tokens = raw
    else:
        violations.append(f"max_new_tokens must be an integer >= 1, got {raw!r}")

    stream = body.get("stream", False)
    if not isinstance(stream, bool):
        violations.append("stream must be a boolean")
        stream = False

    return violations, adapter, input_tokens, max_new_tokens, stream


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: LiveEngine) -> None:
        super().__init__(address, _GatewayHandler)
        self.engine = engine


class _GatewayHandler(BaseHTTPRequestHandler):
    server: _GatewayServer
    timeout = _READ_TIMEOUT_S

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # Keep the serving path quiet; metrics carry the signal.

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            body = b"ok"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/v1/metrics":
            self._send_json(200, self.server.engine.report().to_json_dict())
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/v1/generate":
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            violation = f"Content-Length must be an integer >= 0, got {raw_length!r}"
            self._send_json(400, {"violations": [violation]})
            return
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body exceeds {_MAX_BODY_BYTES} bytes"})
            return
        try:
            body = json.loads(self.rfile.read(length) or b"null")
        except json.JSONDecodeError as error:
            self._send_json(400, {"violations": [f"body is not valid JSON: {error}"]})
            return
        violations, adapter, input_tokens, max_new_tokens, stream = _request_violations(body)
        if violations:
            self._send_json(400, {"violations": violations})
            return
        engine = self.server.engine
        if not engine.knows_adapter(adapter):
            self._send_json(404, {"error": f"unknown adapter: {adapter}"})
            return
        request_id, token_queue = engine.submit(adapter, input_tokens, max_new_tokens)
        if stream:
            self._stream_response(token_queue)
        else:
            emitted = 0
            while True:
                item = token_queue.get()
                if item is _FINISHED:
                    break
                emitted += 1
            self._send_json(
                200,
                {
                    "request_id": request_id,
                    "adapter": adapter,
                    "input_tokens": input_tokens,
                    "output_tokens": emitted,
                },
            )

    def _stream_response(self, token_queue: queue.SimpleQueue) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        while True:
            item = token_queue.get()
            if item is _FINISHED:
                self.wfile.write(b"data: [DONE]\n\n")
                self.wfile.flush()
                return
            event = json.dumps({"token_index": item})
            self.wfile.write(f"data: {event}\n\n".encode("utf-8"))
            self.wfile.flush()


class LiveServer:
    """Handle for a running live server: address plus orderly shutdown."""

    def __init__(self, engine: LiveEngine, httpd: _GatewayServer) -> None:
        self.engine = engine
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="adapterd-http", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
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
        httpd = _GatewayServer(address, engine)
    except BaseException:
        engine.stop()
        raise
    return LiveServer(engine, httpd)


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


def _stream_request(
    endpoint: str, adapter: str, input_tokens: int, max_new_tokens: int,
    request_id: str, origin: float,
) -> RequestRecord:
    """Issue one streaming generate call, timing each token client side."""
    body: dict = {
        "input_tokens": input_tokens,
        "max_new_tokens": max_new_tokens,
        "stream": True,
    }
    if adapter != BASE_ADAPTER:
        body["adapter"] = adapter
    request = urllib.request.Request(
        endpoint.rstrip("/") + "/v1/generate",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    submit_ms = _now_ms(origin)
    first_ms: float | None = None
    last_ms = submit_ms
    emitted = 0
    with urllib.request.urlopen(request, timeout=_REQUEST_TIMEOUT_S) as response:
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
    if first_ms is None:
        raise ValueError("stream closed before the first token")
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
    try:
        with urllib.request.urlopen(
            endpoint.rstrip("/") + "/v1/metrics", timeout=_REQUEST_TIMEOUT_S
        ) as response:
            return json.loads(response.read())["config"]["engine"]
    except (OSError, ValueError, KeyError, http.client.HTTPException):
        return None


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

    users = workload.users
    results: list[list[tuple[str, RequestRecord]]] = [[] for _ in range(users)]
    attempts = [0] * users
    failures = [0] * users

    def worker(user_index: int) -> None:
        user = User(user_index, workload)
        sequence = 0
        while _now_ms(origin) < workload.duration_ms:
            payload, user.rng = sample_payload(
                user.rng, workload, fixed_adapter=user.pinned_adapter
            )
            with rotation_lock:
                endpoint = next(rotation)
            sequence += 1
            attempts[user_index] += 1
            request_id = f"u{user_index:03d}-{sequence:05d}"
            try:
                record = _stream_request(
                    endpoint,
                    payload.adapter,
                    payload.input_tokens,
                    payload.output_tokens,
                    request_id,
                    origin,
                )
            except (OSError, ValueError, KeyError, http.client.HTTPException):
                failures[user_index] += 1
                time.sleep(_FAILURE_BACKOFF_S)
                continue
            results[user_index].append((endpoint, record))

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-user-{i}", daemon=True)
        for i in range(users)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    by_endpoint: dict[str, list[RequestRecord]] = {e: [] for e in replicas.endpoints}
    for bucket in results:
        for endpoint, record in bucket:
            by_endpoint[endpoint].append(record)

    echoes = {endpoint: _fetch_engine_echo(endpoint) for endpoint in replicas.endpoints}
    # A replica that died after serving still owes its records to the merge;
    # reuse a surviving replica's engine echo so the merge precondition
    # (identical engines) can still be checked across the ones that answered.
    fallback = next((echo for echo in echoes.values() if echo is not None), None)

    sub_reports = []
    for endpoint in replicas.endpoints:
        records = sorted(by_endpoint[endpoint], key=lambda r: (r.submit_ms, r.request_id))
        per_adapter: dict[str, int] = {}
        for record in records:
            per_adapter[record.adapter] = per_adapter.get(record.adapter, 0) + 1
        sub_reports.append(
            RunReport(
                config={
                    "engine": echoes[endpoint] if echoes[endpoint] is not None else fallback,
                    "workload": workload.to_dict(),
                },
                summary=summarize(records, workload.duration_ms),
                per_adapter=per_adapter,
                cache={},
                records=tuple(records),
            )
        )

    merged = merge(sub_reports)
    summary = dict(merged.summary)
    summary["submitted"] = sum(attempts)
    summary["completed"] = sum(len(by_endpoint[e]) for e in replicas.endpoints)
    summary["discarded"] = 0
    summary["failure_count"] = sum(failures)
    per_replica = {endpoint: len(by_endpoint[endpoint]) for endpoint in replicas.endpoints}
    return replace(merged, summary=summary, per_replica=per_replica)
