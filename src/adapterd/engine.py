"""Discrete-event serving engine with continuous multi-adapter batching.

The engine models one GPU replica serving a base model plus many low-rank
adapters.  Requests prefill concurrently (``prefill_base_ms +
prefill_per_token_ms * input_tokens``), then decode token by token.  Decode
gaps are priced *at schedule time* against the streaming set -- the sequences
that have emitted at least one token and are not yet finished -- at
``decode_base_ms + decode_per_seq_ms * |streaming set|``.  That gap is
repriced only when the streaming set changes (a first token joins it, a
finish leaves it), which gives the same values as pricing it per token.  A
request's first token additionally pays a small switch penalty when it brings
a new non-base adapter into an already-streaming batch.

Everything runs off a single event heap.  Events at the same instant are
ordered by kind: adapter-fetch completions, then token emissions, then
submissions, then prefill completions, then admission planning.  That order
makes same-instant interactions deterministic: a sequence finishing at time t
leaves the streaming set before another sequence's first token at t is
priced, and all submissions landing at t are admitted by one planning pass.

Admission planning runs whenever something changes (a submission, a finished
request freeing a batch slot, an adapter fetch completing) and re-arms itself
one decode step later while a backlog remains, so a saturated engine plans at
its own cadence instead of busy-looping.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Sequence

from .cache import AdapterCache
from .core import (
    BASE_ADAPTER,
    EngineConfig,
    Request,
    WorkloadConfig,
    adapter_name,
    validate_config,
)
from .metrics import RequestRecord, RunReport, summarize
from .scheduler import Scheduler
from .workload import User, user_tick

__all__ = [
    "EngineCore",
    "decode_gap",
    "prefill_time",
    "run",
    "single_request_timeline",
]

# Same-instant event ordering (lower runs first).
_PRIO_CACHE = 0
_PRIO_TOKEN = 1
_PRIO_SUBMIT = 2
_PRIO_PREFILL = 3
_PRIO_PLAN = 4


def prefill_time(config: EngineConfig, input_tokens: int) -> float:
    """Milliseconds to prefill one request's prompt."""
    if input_tokens < 1:
        raise ValueError(f"input_tokens must be >= 1, got {input_tokens}")
    return config.prefill_base_ms + config.prefill_per_token_ms * input_tokens


def decode_gap(config: EngineConfig, streaming: int) -> float:
    """Milliseconds until a sequence's next token while `streaming` sequences stream."""
    return config.decode_base_ms + config.decode_per_seq_ms * streaming


def single_request_timeline(
    config: EngineConfig, input_tokens: int, output_tokens: int
) -> tuple[float, float, float]:
    """Closed-form (ttft, streaming, total) for one request on an idle engine."""
    if output_tokens < 1:
        raise ValueError(f"output_tokens must be >= 1, got {output_tokens}")
    gap = decode_gap(config, 1)
    ttft = prefill_time(config, input_tokens) + gap
    streaming = (output_tokens - 1) * gap
    return ttft, streaming, ttft + streaming


class _Flight:
    """Mutable per-sequence decode state, carried as its prefill and token events' payload."""

    __slots__ = ("request", "emitted", "first_ms", "streaming")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.emitted = 0
        self.first_ms = 0.0
        self.streaming = False


class EngineCore:
    """Event-driven replica core shared by the simulator and the live server.

    The core owns the event heap, the admission scheduler, and the tiered
    adapter cache.  Drivers push submissions with :meth:`schedule_submit` and
    advance time with :meth:`run_until_idle` (virtual time) or
    :meth:`process_due` (wall time).  ``on_token`` fires for every emitted
    token; ``on_finish`` fires after a request's record is appended.
    """

    def __init__(
        self,
        config: EngineConfig,
        adapters: Sequence[str],
        *,
        prewarm: bool = False,
        deadline: float | None = None,
        on_token: Callable[[str, int, float], None] | None = None,
        on_finish: Callable[[RequestRecord], None] | None = None,
    ) -> None:
        self._config = config
        self._deadline = deadline
        self._on_token = on_token
        self._on_finish = on_finish
        self.cache = AdapterCache(config, adapters, prewarm=prewarm)
        self.scheduler = Scheduler()
        self.records: list[RequestRecord] = []
        self.submitted = 0
        self.clock = 0.0
        self._heap: list[tuple[float, int, int, object]] = []
        self._counter = itertools.count()
        self._streaming_count = 0
        self._gap = decode_gap(config, 0)
        self._streaming_adapters: dict[str, int] = {}
        self._plan_times: set[float] = set()
        self._wake_times: set[float] = set()
        self._step = 0

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_: float, prio: int, payload: object = None) -> None:
        heappush(self._heap, (time_, prio, next(self._counter), payload))

    def schedule_submit(self, request: Request, at: float) -> None:
        self._push(at, _PRIO_SUBMIT, request)

    def next_event_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def run_until_idle(self) -> None:
        heap = self._heap
        while heap:
            time_, prio, _seq, payload = heappop(heap)
            self._dispatch(time_, prio, payload)

    def process_due(self, now: float) -> float | None:
        """Run every event due at or before `now`; return the next event time."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            time_, prio, _seq, payload = heappop(heap)
            self._dispatch(time_, prio, payload)
        return heap[0][0] if heap else None

    def _dispatch(self, time_: float, prio: int, payload: object) -> None:
        self.clock = time_
        if prio == _PRIO_TOKEN:
            self._handle_token(payload, time_)
        elif prio == _PRIO_PREFILL:
            self._handle_prefill_done(payload, time_)
        elif prio == _PRIO_PLAN:
            self._handle_plan(time_)
        elif prio == _PRIO_SUBMIT:
            self._handle_submit(payload, time_)
        else:
            self._handle_cache_ready(time_)

    def _request_plan(self, at: float) -> None:
        if at not in self._plan_times:
            self._plan_times.add(at)
            self._push(at, _PRIO_PLAN)

    def _request_wake(self, at: float) -> None:
        if at not in self._wake_times:
            self._wake_times.add(at)
            self._push(at, _PRIO_CACHE)

    # -- handlers ------------------------------------------------------------

    def _handle_submit(self, request: Request, now: float) -> None:
        self.scheduler.enqueue(request)
        self.submitted += 1
        self._request_plan(now)

    def _handle_plan(self, now: float) -> None:
        self._plan_times.discard(now)
        if self._deadline is not None and now >= self._deadline:
            return
        self.cache.on_clock(now)
        config = self._config
        free = config.max_batch_size - self.scheduler.in_flight_count
        admitted = False
        if free > 0 and self.scheduler.has_backlog():
            self._step += 1
            plan = self.scheduler.plan_admission(
                self.cache, now, free, config.admission_per_step, self._step
            )
            for request in plan.admitted:
                self._push(
                    now + prefill_time(config, request.input_tokens),
                    _PRIO_PREFILL,
                    _Flight(request),
                )
                admitted = True
        next_ready = self.cache.next_ready_at()
        if next_ready is not None:
            self._request_wake(next_ready)
        if admitted and self.scheduler.has_backlog():
            self._request_plan(now + decode_gap(config, max(1, self._streaming_count)))

    def _handle_cache_ready(self, now: float) -> None:
        self._wake_times.discard(now)
        self.cache.on_clock(now)
        if self.scheduler.has_backlog():
            self._request_plan(now)
        next_ready = self.cache.next_ready_at()
        if next_ready is not None:
            self._request_wake(next_ready)

    def _handle_prefill_done(self, flight: _Flight, now: float) -> None:
        config = self._config
        gap = decode_gap(config, self._streaming_count + 1)
        adapter = flight.request.adapter
        if (
            adapter != BASE_ADAPTER
            and self._streaming_count > 0
            and adapter not in self._streaming_adapters
        ):
            gap += config.switch_overhead_ms
        self._push(now + gap, _PRIO_TOKEN, flight)

    def _handle_token(self, flight: _Flight, now: float) -> None:
        flight.emitted += 1
        emitted = flight.emitted
        request = flight.request
        if emitted == 1:
            flight.first_ms = now
            if request.max_new_tokens > 1:
                flight.streaming = True
                self._streaming_count += 1
                self._gap = decode_gap(self._config, self._streaming_count)
                counts = self._streaming_adapters
                counts[request.adapter] = counts.get(request.adapter, 0) + 1
        if self._on_token is not None:
            self._on_token(request.id, emitted - 1, now)
        if emitted >= request.max_new_tokens:
            self._finish(flight, now)
        else:
            heappush(self._heap, (now + self._gap, _PRIO_TOKEN, next(self._counter), flight))

    def _finish(self, flight: _Flight, now: float) -> None:
        request = flight.request
        if flight.streaming:
            self._streaming_count -= 1
            self._gap = decode_gap(self._config, self._streaming_count)
            counts = self._streaming_adapters
            counts[request.adapter] -= 1
            if counts[request.adapter] == 0:
                del counts[request.adapter]
        self.scheduler.on_complete(request.id)
        record = RequestRecord(
            request.id,
            request.adapter,
            request.input_tokens,
            flight.emitted,
            request.submit_time,
            flight.first_ms,
            now,
        )
        self.records.append(record)
        if self.scheduler.has_backlog():
            self._request_plan(now)
        if self._on_finish is not None:
            self._on_finish(record)

    # -- reporting -----------------------------------------------------------

    def build_summary(self, duration_ms: float, discarded: int) -> dict:
        summary = summarize(self.records, duration_ms)
        summary["submitted"] = self.submitted
        summary["completed"] = len(self.records)
        summary["discarded"] = discarded
        return summary

    def per_adapter_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.adapter] = counts.get(record.adapter, 0) + 1
        return dict(sorted(counts.items()))


def run(
    engine_config: EngineConfig,
    workload_config: WorkloadConfig,
    *,
    prewarm_adapters: bool = False,
    user_index_offset: int = 0,
    request_id_prefix: str = "r",
) -> RunReport:
    """Simulate one replica serving a closed-loop workload in virtual time.

    Users submit from t=0 and stop submitting at ``duration_ms``; requests in
    flight at the deadline run to completion, while requests still queued are
    discarded and counted in the summary.  ``user_index_offset`` shifts the
    global user indices (used to split one user population across replicas)
    without perturbing any other user's random stream.
    """
    validate_config(engine_config, workload_config)
    deadline = workload_config.duration_ms
    adapters = [adapter_name(i) for i in range(workload_config.n_adapters)]
    users = [User(user_index_offset + i, workload_config) for i in range(workload_config.users)]
    rid_to_user: dict[str, int] = {}
    id_counter = itertools.count(1)

    core = EngineCore(
        engine_config,
        adapters,
        prewarm=prewarm_adapters,
        deadline=deadline,
        on_finish=lambda record: _next(rid_to_user.pop(record.request_id), record.last_token_ms),
    )

    def _next(user_index: int, now: float) -> None:
        """Let an idle user submit its next request at `now`, or stop."""
        payload = user_tick(users[user_index], now, deadline, workload_config)
        if payload is None:
            return
        request_id = f"{request_id_prefix}{next(id_counter):06d}"
        rid_to_user[request_id] = user_index
        request = Request(
            request_id, payload.adapter, payload.input_tokens, payload.output_tokens, now
        )
        core.schedule_submit(request, now)

    for user_index in range(len(users)):
        _next(user_index, 0.0)

    core.run_until_idle()
    # The callback closes over `_next`, which closes over `core`: drop it so the
    # finished engine is freed by reference counting, not by a later cycle scan.
    core._on_finish = None
    discarded = core.scheduler.drain_queued()

    return RunReport(
        config={"engine": engine_config.to_dict(), "workload": workload_config.to_dict()},
        summary=core.build_summary(deadline, len(discarded)),
        per_adapter=core.per_adapter_counts(),
        cache=core.cache.residency_stats(),
        records=tuple(core.records),
    )
