"""Admission policy: per-adapter FIFO queues and the least-recently-served sweep."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterd.cache import AdapterCache, CacheOutcome
from adapterd.core import BASE_ADAPTER, EngineConfig, Request, adapter_name
from adapterd.scheduler import DuplicateRequestError, Scheduler, UnknownRequestError


def _req(rid, adapter, submit=0.0):
    return Request(id=rid, adapter=adapter, input_tokens=10, max_new_tokens=5, submit_time=submit)


def _warm_cache(n=4):
    return AdapterCache(
        EngineConfig(gpu_slots=32), [adapter_name(i) for i in range(n)], prewarm=True
    )


def _cold_cache(n=4):
    return AdapterCache(
        EngineConfig(gpu_slots=32), [adapter_name(i) for i in range(n)], prewarm=False
    )


def test_enqueue_fifo_order():
    sched = Scheduler()
    sched.enqueue(_req("r1", adapter_name(0)))
    sched.enqueue(_req("r2", adapter_name(0)))
    plan = sched.plan_admission(_warm_cache(), 0.0, free_slots=8, budget=8, step=0)
    assert [req.id for req in plan.admitted] == ["r1", "r2"]


def test_enqueue_duplicate_id_rejected():
    sched = Scheduler()
    sched.enqueue(_req("r1", adapter_name(0)))
    with pytest.raises(DuplicateRequestError):
        sched.enqueue(_req("r1", adapter_name(1)))


def test_plan_normative_example():
    # Queues A:[a1,a2], B:[b1], C:[c1 not resident]; free=3, budget=3.
    # Sweep order A, B, C; one head per adapter per sweep.
    sched = Scheduler()
    cache = _cold_cache(3)
    a, b, c = adapter_name(0), adapter_name(1), adapter_name(2)
    cache.touch(a, 0.0)
    cache.touch(b, 0.0)
    cache.on_clock(2205.0)
    sched.enqueue(_req("a1", a))
    sched.enqueue(_req("a2", a))
    sched.enqueue(_req("b1", b))
    sched.enqueue(_req("c1", c))
    plan = sched.plan_admission(cache, 2205.0, free_slots=3, budget=3, step=1)
    assert [req.id for req in plan.admitted] == ["a1", "b1", "a2"]
    # The skipped adapter's load was triggered by the plan.
    assert cache.snapshot()[c].tier == "in_transit"


def test_plan_empty_queues():
    sched = Scheduler()
    plan = sched.plan_admission(_warm_cache(), 0.0, free_slots=8, budget=8, step=0)
    assert plan.admitted == ()


def test_plan_least_recently_served_order():
    sched = Scheduler()
    cache = _warm_cache()
    a, b = adapter_name(0), adapter_name(1)
    sched.enqueue(_req("a1", a))
    sched.enqueue(_req("b1", b))
    sched.plan_admission(cache, 0.0, free_slots=1, budget=1, step=3)  # admits a1 (tie by id)
    sched.enqueue(_req("a2", a))
    plan = sched.plan_admission(cache, 1.0, free_slots=1, budget=1, step=5)
    # b was never served (last_served -1 < 3), so b1 goes first.
    assert [req.id for req in plan.admitted] == ["b1"]
    plan = sched.plan_admission(cache, 2.0, free_slots=1, budget=1, step=6)
    assert [req.id for req in plan.admitted] == ["a2"]


def test_plan_respects_free_slots():
    sched = Scheduler()
    for i in range(5):
        sched.enqueue(_req(f"r{i}", adapter_name(0)))
    plan = sched.plan_admission(_warm_cache(), 0.0, free_slots=2, budget=8, step=0)
    assert len(plan.admitted) == 2


def test_plan_admits_base_adapter():
    sched = Scheduler()
    sched.enqueue(_req("r1", BASE_ADAPTER))
    plan = sched.plan_admission(_cold_cache(), 0.0, free_slots=8, budget=8, step=0)
    assert [req.id for req in plan.admitted] == ["r1"]


def test_plan_mask_binds_request_to_own_adapter():
    sched = Scheduler()
    sched.enqueue(_req("r1", adapter_name(1)))
    sched.enqueue(_req("r2", adapter_name(0)))
    plan = sched.plan_admission(_warm_cache(), 0.0, free_slots=8, budget=8, step=0)
    # Sweep order is by adapter id, and each request keeps the adapter it was queued under.
    assert [(req.id, req.adapter) for req in plan.admitted] == [
        ("r2", adapter_name(0)),
        ("r1", adapter_name(1)),
    ]


def test_on_complete_lifecycle():
    sched = Scheduler()
    sched.enqueue(_req("r1", adapter_name(0)))
    sched.plan_admission(_warm_cache(), 0.0, free_slots=8, budget=8, step=0)
    assert sched.in_flight_count == 1
    sched.on_complete("r1")
    assert sched.in_flight_count == 0
    with pytest.raises(UnknownRequestError):
        sched.on_complete("r1")


def test_on_complete_unknown_id():
    with pytest.raises(UnknownRequestError):
        Scheduler().on_complete("ghost")


def test_interleaved_lifecycle_replay():
    sched = Scheduler()
    cache = _warm_cache()
    sched.enqueue(_req("r1", adapter_name(0)))
    sched.enqueue(_req("r2", adapter_name(1)))
    sched.enqueue(_req("r3", adapter_name(0)))
    plan = sched.plan_admission(cache, 0.0, free_slots=2, budget=2, step=0)
    assert [req.id for req in plan.admitted] == ["r1", "r2"]
    sched.on_complete("r1")
    plan = sched.plan_admission(cache, 1.0, free_slots=2, budget=2, step=1)
    assert [req.id for req in plan.admitted] == ["r3"]
    sched.on_complete("r2")
    sched.on_complete("r3")
    assert sched.in_flight_count == 0
    assert not sched.has_backlog()


def test_drain_queued_reports_leftovers():
    sched = Scheduler()
    sched.enqueue(_req("r1", adapter_name(0)))
    sched.enqueue(_req("r2", adapter_name(1)))
    leftovers = sched.drain_queued()
    assert sorted(r.id for r in leftovers) == ["r1", "r2"]
    assert not sched.has_backlog()


_ADAPTERS = [BASE_ADAPTER] + [adapter_name(i) for i in range(3)]
# At least 15 operations, so plans over several queued adapters, evictions
# and drains after partial plans are reached in most examples; a shorter
# sequence is a prefix of some longer one.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(_ADAPTERS)),
        st.tuples(st.just("plan"), st.integers(0, 3), st.integers(1, 3)),
        st.tuples(st.just("complete"), st.integers(0, 50)),
        st.tuples(st.just("drain")),
    ),
    min_size=15,
    max_size=60,
)


@given(_OPS)
def test_has_backlog_iff_some_request_is_queued(ops):
    """Over any mix of operations, has_backlog() says whether some queue holds a request."""
    sched = Scheduler()
    # Two GPU slots for three adapters, so plans meet loads in transit and evictions.
    cache = AdapterCache(
        EngineConfig(gpu_slots=2, cpu_slots=1), [adapter_name(i) for i in range(3)], prewarm=False
    )
    queued: set[str] = set()
    in_flight: list[str] = []
    for step, op in enumerate(ops):
        now = 1000.0 * step
        if op[0] == "enqueue":
            rid = f"r{step}"
            sched.enqueue(_req(rid, op[1], submit=now))
            queued.add(rid)
        elif op[0] == "plan":
            cache.on_clock(now)
            plan = sched.plan_admission(cache, now, free_slots=op[1], budget=op[2], step=step)
            for request in plan.admitted:
                queued.remove(request.id)
                in_flight.append(request.id)
        elif op[0] == "complete" and in_flight:
            sched.on_complete(in_flight.pop(op[1] % len(in_flight)))
        elif op[0] == "drain":
            assert {request.id for request in sched.drain_queued()} == queued
            queued.clear()
        assert sched.has_backlog() == bool(queued)


class _ReferenceScheduler:
    """The admission sweep written plainly: sort every queued adapter on each plan.

    ``Scheduler`` keeps the same ``(last_served, name)`` order in a heap and
    must admit the same requests and touch the cache in the same order.
    """

    def __init__(self) -> None:
        self.queues: dict[str, deque[Request]] = {}
        self.last_served: dict[str, int] = {}

    def enqueue(self, request: Request) -> None:
        self.queues.setdefault(request.adapter, deque()).append(request)

    def plan_admission(self, cache, now, free_slots, budget, step) -> list[Request]:
        order = sorted(
            (a for a, q in self.queues.items() if q),
            key=lambda a: (self.last_served.get(a, -1), a),
        )
        admitted: list[Request] = []
        contributed: set[str] = set()
        resident: dict[str, bool] = {}
        progress = True
        while budget > 0 and free_slots > 0 and progress:
            progress = False
            for adapter in order:
                if budget <= 0 or free_slots <= 0:
                    break
                queue = self.queues.get(adapter)
                if not queue:
                    continue
                if adapter not in resident:
                    resident[adapter] = cache.touch(adapter, now).resident
                if not resident[adapter]:
                    continue
                admitted.append(queue.popleft())
                contributed.add(adapter)
                budget -= 1
                free_slots -= 1
                progress = True
        for adapter in contributed:
            self.last_served[adapter] = step
        for adapter in [a for a, q in self.queues.items() if not q]:
            del self.queues[adapter]
        return admitted

    def drain_queued(self) -> list[Request]:
        leftovers = [req for queue in self.queues.values() for req in queue]
        self.queues.clear()
        return leftovers


class _RecordingCache:
    """Answers every adapter outside ``cold`` as resident and records each touch in order."""

    def __init__(self, cold: frozenset[str]) -> None:
        self.cold = cold
        self.touches: list[str] = []

    def touch(self, adapter: str, now: float) -> CacheOutcome:
        self.touches.append(adapter)
        return CacheOutcome(now + 1.0 if adapter in self.cold else None)


_MANY_ADAPTERS = [BASE_ADAPTER] + [adapter_name(i) for i in range(8)]
# Enqueue is drawn twice as often, and a sequence has at least 20 operations,
# so several adapters hold several requests when a plan runs; with shorter,
# sparser draws a heap that never records `last_served` went unnoticed.
_ENQUEUE = st.tuples(st.just("enqueue"), st.sampled_from(_MANY_ADAPTERS))
_SWEEP_OPS = st.lists(
    st.one_of(
        _ENQUEUE,
        _ENQUEUE,
        st.tuples(
            st.just("plan"),
            st.integers(0, 6),
            st.integers(0, 6),
            st.integers(0, 40),
            st.frozensets(st.sampled_from(_MANY_ADAPTERS)),
        ),
        st.tuples(st.just("complete"), st.integers(0, 50)),
        st.tuples(st.just("drain")),
    ),
    min_size=20,
    max_size=100,
)


@settings(max_examples=300)
@given(_SWEEP_OPS)
def test_heap_sweep_matches_the_sorted_reference(ops):
    """Admitted requests, touch order and leftovers equal the sorted sweep's."""
    sched = Scheduler()
    reference = _ReferenceScheduler()
    in_flight: list[str] = []
    for index, op in enumerate(ops):
        if op[0] == "enqueue":
            request = _req(f"r{index}", op[1])
            sched.enqueue(request)
            reference.enqueue(request)
        elif op[0] == "plan":
            _, free_slots, budget, step, cold = op
            cache, reference_cache = _RecordingCache(cold), _RecordingCache(cold)
            plan = sched.plan_admission(cache, 0.0, free_slots, budget, step)
            expected = reference.plan_admission(reference_cache, 0.0, free_slots, budget, step)
            assert [r.id for r in plan.admitted] == [r.id for r in expected]
            assert cache.touches == reference_cache.touches
            in_flight.extend(r.id for r in plan.admitted)
        elif op[0] == "complete" and in_flight:
            sched.on_complete(in_flight.pop(op[1] % len(in_flight)))
        elif op[0] == "drain":
            leftovers = sched.drain_queued()
            assert [r.id for r in leftovers] == [r.id for r in reference.drain_queued()]
