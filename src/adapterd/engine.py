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
ordered by kind: token emissions, then submissions, then prefill completions,
then admission planning.  Events of one kind at one instant run in the order
they were pushed.  That order makes same-instant interactions deterministic:
a sequence finishing at time t leaves the streaming set before another
sequence's first token at t is priced, and all submissions landing at t are
admitted by one planning pass.

Planning is the only place where the engine's clock reaches the adapter
cache: a plan first lands every fetch due by its instant, then admits, then
re-arms itself at the next fetch's ready time.  After the deadline plans still
land fetches but admit nothing.  Planning also runs whenever a submission
arrives or a finish frees a batch slot, and re-arms one decode step later
while a backlog remains, so a saturated engine plans at its own cadence
instead of busy-looping.  At most one plan is pending per instant; a second
plan runs at the same instant only when the first started a zero-latency
fetch, which is then due at once.

One registry, ``EngineCore._flights``, holds each request by id from its
submit event to its finish, queued or in flight; a submit whose id is in it
raises :class:`DuplicateRequestError`, and a finished id may be used again.
Each request carries its submitter's tag, which the token and finish
callbacks receive, so no driver keeps a map of its own.
:meth:`EngineCore.abandon` ends a run: ``run`` counts its discards with it,
and the live server's stop cuts each unfinished request with it.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

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
]

# Same-instant event ordering (lower runs first).
_PRIO_TOKEN = 0
_PRIO_SUBMIT = 1
_PRIO_PREFILL = 2
_PRIO_PLAN = 3


def prefill_time(config: EngineConfig, input_tokens: int) -> float:
    """Milliseconds to prefill one request's prompt."""
    if input_tokens < 1:
        raise ValueError(f"input_tokens must be >= 1, got {input_tokens}")
    return config.prefill_base_ms + config.prefill_per_token_ms * input_tokens


def decode_gap(config: EngineConfig, streaming: int) -> float:
    """Milliseconds until a sequence's next token while `streaming` sequences stream."""
    return config.decode_base_ms + config.decode_per_seq_ms * streaming


class DuplicateRequestError(ValueError):
    """A request was submitted under an id that is still queued or in flight."""


class _Flight:
    """One request from its submit event to its finish; the payload of each of its events."""

    __slots__ = ("request", "tag", "emitted", "first_ms")

    def __init__(self, request: Request, tag: Any) -> None:
        self.request = request
        self.tag = tag
        self.emitted = 0
        self.first_ms = 0.0


class EngineCore:
    """Event-driven replica core shared by the simulator and the live server.

    The core owns the event heap, the admission scheduler, the tiered adapter
    cache and the request registry: ``_flights`` holds each submitted,
    unfinished request by id, and ``_batch_size`` counts the admitted ones,
    at most ``max_batch_size``.  Drivers push submissions with
    :meth:`schedule_submit` and advance time with :meth:`run_until_idle`
    (virtual time) or :meth:`process_due` (wall time).  ``on_token(tag,
    index, time)`` fires for every emitted token; ``on_finish(tag, record)``
    fires after a request's record is appended.
    """

    def __init__(
        self,
        config: EngineConfig,
        adapters: Sequence[str],
        *,
        prewarm: bool = False,
        deadline: float | None = None,
        on_token: Callable[[Any, int, float], None] | None = None,
        on_finish: Callable[[Any, RequestRecord], None] | None = None,
    ) -> None:
        self._config = config
        self._deadline = float("inf") if deadline is None else deadline
        self._on_token = on_token
        self._on_finish = on_finish
        self.cache = AdapterCache(config, adapters, prewarm=prewarm)
        self.scheduler = Scheduler()
        self.records: list[RequestRecord] = []
        self.submitted = 0
        self._flights: dict[str, _Flight] = {}
        self._batch_size = 0
        self._heap: list[tuple[float, int, int, object]] = []
        self._counter = itertools.count()
        self._streaming_count = 0
        self._gap = decode_gap(config, 0)
        self._streaming_adapters: dict[str, int] = {}
        self._plan_times: set[float] = set()
        self._step = 0

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_: float, prio: int, payload: object = None) -> None:
        heappush(self._heap, (time_, prio, next(self._counter), payload))

    def schedule_submit(self, request: Request, tag: Any = None) -> None:
        self._push(request.submit_time, _PRIO_SUBMIT, _Flight(request, tag))

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
        if prio == _PRIO_TOKEN:
            self._handle_token(payload, time_)
        elif prio == _PRIO_PREFILL:
            self._handle_prefill_done(payload, time_)
        elif prio == _PRIO_PLAN:
            self._handle_plan(time_)
        else:
            self._handle_submit(payload, time_)

    def _request_plan(self, at: float) -> None:
        if at not in self._plan_times:
            self._plan_times.add(at)
            self._push(at, _PRIO_PLAN)

    # -- handlers ------------------------------------------------------------

    def _handle_submit(self, flight: _Flight, now: float) -> None:
        request = flight.request
        if self._flights.setdefault(request.id, flight) is not flight:
            raise DuplicateRequestError(request.id)
        self.scheduler.enqueue(request)
        self.submitted += 1
        self._request_plan(now)

    def _handle_plan(self, now: float) -> None:
        self._plan_times.discard(now)
        self.cache.on_clock(now)
        config = self._config
        free = config.max_batch_size - self._batch_size
        admitted: tuple[Request, ...] = ()
        if now < self._deadline and free > 0 and self.scheduler.has_backlog():
            self._step += 1
            admitted = self.scheduler.plan_admission(
                self.cache, now, free, config.admission_per_step, self._step
            ).admitted
            self._batch_size += len(admitted)
            for request in admitted:
                flight = self._flights[request.id]
                self._push(now + prefill_time(config, request.input_tokens), _PRIO_PREFILL, flight)
        next_ready = self.cache.next_ready_at()
        if next_ready is not None:
            self._request_plan(next_ready)
        if admitted and self.scheduler.has_backlog():
            self._request_plan(now + decode_gap(config, max(1, self._streaming_count)))

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
                self._streaming_count += 1
                self._gap = decode_gap(self._config, self._streaming_count)
                counts = self._streaming_adapters
                counts[request.adapter] = counts.get(request.adapter, 0) + 1
        if self._on_token is not None:
            self._on_token(flight.tag, emitted - 1, now)
        if emitted >= request.max_new_tokens:
            self._finish(flight, now)
        else:
            heappush(self._heap, (now + self._gap, _PRIO_TOKEN, next(self._counter), flight))

    def _finish(self, flight: _Flight, now: float) -> None:
        request = flight.request
        if request.max_new_tokens > 1:  # it joined the streaming set at its first token
            self._streaming_count -= 1
            self._gap = decode_gap(self._config, self._streaming_count)
            counts = self._streaming_adapters
            counts[request.adapter] -= 1
            if counts[request.adapter] == 0:
                del counts[request.adapter]
        del self._flights[request.id]
        self._batch_size -= 1
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
            self._on_finish(flight.tag, record)

    def abandon(self) -> list[Any]:
        """End the run: drop every unfinished request and its events; return their tags."""
        pending = [payload for _t, prio, _s, payload in self._heap if prio == _PRIO_SUBMIT]
        tags = [flight.tag for flight in (*self._flights.values(), *pending)]
        self._flights.clear()
        self._heap.clear()
        self.scheduler.drain_queued()
        return tags

    # -- reporting -----------------------------------------------------------

    def report(
        self, workload: WorkloadConfig | None, duration_ms: float, discarded: int
    ) -> RunReport:
        """The run so far over `duration_ms`, with `discarded` requests dropped unserved.

        The config echo holds this engine's config and `workload` (None for a live run).
        """
        workload_echo = None if workload is None else workload.to_dict()
        summary = summarize(self.records, duration_ms)
        summary["submitted"] = self.submitted
        summary["completed"] = len(self.records)
        summary["discarded"] = discarded
        return RunReport(
            config={"engine": self._config.to_dict(), "workload": workload_echo},
            summary=summary,
            cache=self.cache.residency_stats(),
            records=tuple(self.records),
        )


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
    id_counter = itertools.count(1)

    core = EngineCore(
        engine_config,
        adapters,
        prewarm=prewarm_adapters,
        deadline=deadline,
        on_finish=lambda user, record: _next(user, record.last_token_ms),
    )

    def _next(user: User, now: float) -> None:
        """Let an idle user submit its next request at `now`, or stop."""
        payload = user_tick(user, now, deadline, workload_config)
        if payload is None:
            return
        request_id = f"{request_id_prefix}{next(id_counter):06d}"
        core.schedule_submit(
            Request(request_id, payload.adapter, payload.input_tokens, payload.output_tokens, now),
            user,
        )

    for i in range(workload_config.users):
        _next(User(user_index_offset + i, workload_config), 0.0)

    core.run_until_idle()
    # The callback closes over `_next`, which closes over `core`: drop it so the
    # finished engine is freed by reference counting, not by a later cycle scan.
    core._on_finish = None
    return core.report(workload_config, deadline, len(core.abandon()))
