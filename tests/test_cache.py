"""Tiered adapter cache: LRU eviction, async promotion, and replay-oracle equivalence."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterd.cache import AdapterCache, ClockRegressionError, UnknownAdapterError
from adapterd.core import BASE_ADAPTER, EngineConfig, adapter_name

# Default per-hop latencies sum to 2205 ms for a remote adapter.
_REMOTE_READY_MS = 2000.0 + 200.0 + 5.0


def _cache(gpu_slots=2, cpu_slots=4, n=4, prewarm=False):
    config = EngineConfig(gpu_slots=gpu_slots, cpu_slots=cpu_slots)
    return AdapterCache(config, [adapter_name(i) for i in range(n)], prewarm=prewarm)


def test_remote_touch_pending_sum_of_hops():
    cache = _cache()
    outcome = cache.touch(adapter_name(0), 0.0)
    assert not outcome.resident
    assert outcome.ready_at == _REMOTE_READY_MS


def test_touch_base_sentinel_always_resident():
    cache = _cache()
    assert cache.touch(BASE_ADAPTER, 0.0).resident


def test_unknown_adapter_rejected():
    cache = _cache()
    with pytest.raises(UnknownAdapterError):
        cache.touch("adapter-99", 0.0)


def test_repeat_touch_same_ready_at():
    cache = _cache()
    first = cache.touch(adapter_name(0), 0.0)
    again = cache.touch(adapter_name(0), 100.0)
    assert again.ready_at == first.ready_at
    assert cache.residency_stats()["in_transit"] == 1


def test_on_clock_boundary_inclusive_and_fixpoint():
    cache = _cache()
    before = cache.snapshot()
    cache.on_clock(5.0)
    assert cache.snapshot() == before

    cache.touch(adapter_name(0), 0.0)
    cache.on_clock(_REMOTE_READY_MS)
    assert cache.snapshot()[adapter_name(0)].tier == "gpu"


def test_on_clock_completes_only_due_entries():
    cache = _cache()
    cache.touch(adapter_name(0), 0.0)
    cache.touch(adapter_name(1), 10.0)
    cache.on_clock(_REMOTE_READY_MS)
    stats = cache.residency_stats()
    assert stats["gpu"] == 1
    assert stats["in_transit"] == 1


def test_on_clock_time_regression_rejected():
    cache = _cache()
    cache.on_clock(10.0)
    with pytest.raises(ClockRegressionError):
        cache.on_clock(9.0)


def test_touch_time_regression_rejected():
    # The LRU heaps are exact only while recency never moves backwards.
    cache = _cache(prewarm=True)
    cache.touch(adapter_name(0), 10.0)
    cache.touch(adapter_name(1), 10.0)
    with pytest.raises(ClockRegressionError):
        cache.touch(adapter_name(2), 9.0)
    assert cache.snapshot()[adapter_name(2)].last_used == -1.0


def test_lru_eviction_touch_order_a_b_a_c():
    # gpu capacity 2: A and B resident, A touched again, then C arrives.
    # B is least recently used, so B demotes to cpu when C lands.
    cache = _cache(gpu_slots=2, cpu_slots=4, n=3, prewarm=False)
    a, b, c = adapter_name(0), adapter_name(1), adapter_name(2)
    cache.touch(a, 0.0)
    cache.touch(b, 1.0)
    cache.on_clock(_REMOTE_READY_MS + 1.0)
    assert cache.snapshot()[a].tier == "gpu"
    assert cache.snapshot()[b].tier == "gpu"

    cache.touch(a, 3000.0)
    pending = cache.touch(c, 3001.0)
    assert not pending.resident
    cache.on_clock(pending.ready_at)
    assert cache.snapshot()[c].tier == "gpu"
    assert cache.snapshot()[b].tier == "cpu"
    assert cache.snapshot()[a].tier == "gpu"


def test_gpu_hit_changes_only_recency():
    cache = _cache(prewarm=True, n=2)
    before = cache.snapshot()
    outcome = cache.touch(adapter_name(0), 50.0)
    assert outcome.resident
    after = cache.snapshot()
    assert after[adapter_name(0)].last_used == 50.0
    assert after[adapter_name(0)].tier == before[adapter_name(0)].tier
    assert after[adapter_name(1)] == before[adapter_name(1)]


def test_cpu_to_gpu_promotion_latency():
    cache = _cache(gpu_slots=1, cpu_slots=2, n=2)
    a, b = adapter_name(0), adapter_name(1)
    cache.touch(a, 0.0)
    cache.on_clock(_REMOTE_READY_MS)
    # b lands on gpu, evicting a to cpu; touching a then needs one 5 ms hop.
    cache.touch(b, 2300.0)
    cache.on_clock(2300.0 + _REMOTE_READY_MS)
    assert cache.snapshot()[a].tier == "cpu"
    outcome = cache.touch(a, 5000.0)
    assert outcome.ready_at == 5005.0


def test_demotion_cascade_cpu_full_spills_to_disk():
    cache = _cache(gpu_slots=1, cpu_slots=1, n=3)
    names = [adapter_name(i) for i in range(3)]
    for i, name in enumerate(names):
        outcome = cache.touch(name, float(i))
        cache.on_clock(outcome.ready_at)
    tiers = {name: cache.snapshot()[name].tier for name in names}
    assert tiers == {names[0]: "disk", names[1]: "cpu", names[2]: "gpu"}


def test_in_transit_not_evicted():
    cache = _cache(gpu_slots=1, cpu_slots=4, n=3)
    a, b, c = adapter_name(0), adapter_name(1), adapter_name(2)
    cache.touch(a, 0.0)
    cache.touch(b, 1.0)
    cache.touch(c, 2.0)
    # a completes first and takes the only slot; b and c stay in transit.
    cache.on_clock(_REMOTE_READY_MS)
    stats = cache.residency_stats()
    assert stats["gpu"] == 1
    assert stats["in_transit"] == 2
    assert cache.snapshot()[a].tier == "gpu"


def test_prewarm_starts_resident():
    cache = _cache(prewarm=True, n=4, gpu_slots=4)
    stats = cache.residency_stats()
    assert stats["gpu"] == 4
    assert cache.touch(adapter_name(3), 0.0).resident


def test_residency_stats_shapes():
    cache = _cache(n=4)
    assert cache.residency_stats() == {
        "gpu": 0,
        "cpu": 0,
        "disk": 0,
        "remote": 4,
        "in_transit": 0,
    }
    cache = _cache(n=3, gpu_slots=3)
    for i in range(3):
        outcome = cache.touch(adapter_name(i), 0.0)
    cache.on_clock(outcome.ready_at)
    assert cache.residency_stats()["gpu"] == 3


def test_next_ready_at():
    cache = _cache()
    assert cache.next_ready_at() is None
    cache.touch(adapter_name(1), 7.0)
    assert cache.next_ready_at() == 7.0 + _REMOTE_READY_MS


class BruteForceCache:
    """Reference replay: re-scans recency lists every operation.

    Mirrors the pinned semantics: only touch updates recency; eviction happens
    at load completion, demoting the least-recently-used non-in-transit entry
    one tier (gpu to cpu to disk, disk unbounded); in-transit promotions hold
    no intermediate tier.
    """

    def __init__(self, config, adapters, prewarm=False):
        self.config = config
        self.tier = {}
        self.last_used = {}
        self.ready_at = {}
        for index, name in enumerate(sorted(adapters)):
            if prewarm and index < config.gpu_slots:
                self.tier[name] = "gpu"
            else:
                self.tier[name] = "remote"
            self.last_used[name] = -1.0

    def touch(self, adapter, now):
        tier = self.tier[adapter]
        self.last_used[adapter] = now
        if tier == "gpu":
            return None
        if tier == "in_transit":
            return self.ready_at[adapter]
        hops = {
            "remote": self.config.t_download_ms
            + self.config.t_disk_to_cpu_ms
            + self.config.t_cpu_to_gpu_ms,
            "disk": self.config.t_disk_to_cpu_ms + self.config.t_cpu_to_gpu_ms,
            "cpu": self.config.t_cpu_to_gpu_ms,
        }[tier]
        self.tier[adapter] = "in_transit"
        self.ready_at[adapter] = now + hops
        return self.ready_at[adapter]

    def _lru_victim(self, tier):
        candidates = [a for a, t in self.tier.items() if t == tier]
        return min(candidates, key=lambda a: (self.last_used[a], a))

    def on_clock(self, now):
        due = sorted(
            (a for a, t in self.tier.items() if t == "in_transit" and self.ready_at[a] <= now),
            key=lambda a: (self.ready_at[a], a),
        )
        for adapter in due:
            if sum(1 for t in self.tier.values() if t == "gpu") >= self.config.gpu_slots:
                victim = self._lru_victim("gpu")
                if self.config.cpu_slots == 0:
                    self.tier[victim] = "disk"
                else:
                    if sum(1 for t in self.tier.values() if t == "cpu") >= self.config.cpu_slots:
                        self.tier[self._lru_victim("cpu")] = "disk"
                    self.tier[victim] = "cpu"
            self.tier[adapter] = "gpu"
            del self.ready_at[adapter]

    def state(self):
        return {
            a: (self.tier[a], self.last_used[a], self.ready_at.get(a))
            for a in self.tier
        }


def _run_trace(ops, gpu_slots, cpu_slots, n_adapters, *, prewarm=False, hops=None):
    config = EngineConfig(gpu_slots=gpu_slots, cpu_slots=cpu_slots, **(hops or {}))
    names = [adapter_name(i) for i in range(n_adapters)]
    cache = AdapterCache(config, names, prewarm=prewarm)
    oracle = BruteForceCache(config, names, prewarm=prewarm)
    now = 0.0
    for kind, value in ops:
        if kind in ("touch", "burst"):
            # A burst touches several adapters at one instant, so recency ties
            # between them fall to the name.
            for k in range(1 if kind == "touch" else 2 + value % 4):
                adapter = names[(value + 7 * k) % n_adapters]
                got = cache.touch(adapter, now)
                want = oracle.touch(adapter, now)
                assert (got.ready_at if not got.resident else None) == want
        else:
            now += float(value)
            cache.on_clock(now)
            oracle.on_clock(now)
        got_state = {
            name: (entry.tier, entry.last_used, entry.ready_at)
            for name, entry in cache.snapshot().items()
        }
        assert got_state == oracle.state()


@given(
    st.lists(
        st.tuples(st.sampled_from(["touch", "clock"]), st.integers(0, 5000)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_cache_matches_brute_force_replay(ops):
    _run_trace(ops, gpu_slots=2, cpu_slots=3, n_adapters=8)


@given(
    st.lists(
        st.tuples(st.sampled_from(["touch", "clock"]), st.integers(0, 5000)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 4),
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_cache_capacity_invariants(ops, gpu_slots, cpu_slots):
    config = EngineConfig(gpu_slots=gpu_slots, cpu_slots=cpu_slots)
    names = [adapter_name(i) for i in range(10)]
    cache = AdapterCache(config, names, prewarm=False)
    now = 0.0
    for kind, value in ops:
        if kind == "touch":
            cache.touch(names[value % 10], now)
        else:
            now += float(value)
            cache.on_clock(now)
        stats = cache.residency_stats()
        assert stats["gpu"] <= gpu_slots
        assert stats["cpu"] <= cpu_slots
        assert sum(stats.values()) == 10


# Touches favour a hot set of 8 adapters and a trace repeats one pattern, so
# adapters cycle out of the CPU tier and back as under a steady workload; clock
# advances are mostly zero or small, so loads land together, and at the
# instant they are touched when hops cost nothing.
_OVERSUBSCRIBED_OPS = st.one_of(
    st.tuples(st.sampled_from(["touch", "burst"]), st.integers(0, 7) | st.integers(0, 49)),
    st.tuples(st.just("clock"), st.just(0) | st.integers(0, 50) | st.integers(0, 5000)),
)


@given(
    st.lists(_OVERSUBSCRIBED_OPS, min_size=1, max_size=40),
    st.integers(1, 12),
    st.integers(2, 4),
    st.integers(0, 4),
    st.booleans(),
    st.booleans(),
)
@example(  # a steady cycle through GPU and CPU: the CPU heap fills and is rebuilt
    pattern=[op for i in range(8) for op in (("touch", i), ("clock", 5000))],
    repeats=12,
    gpu_slots=4,
    cpu_slots=4,
    prewarm=True,
    zero_hops=False,
)
@settings(max_examples=100, deadline=None)
def test_cache_matches_brute_force_replay_oversubscribed(
    pattern, repeats, gpu_slots, cpu_slots, prewarm, zero_hops
):
    # 50 adapters through 2-4 GPU slots: LRU heaps collect entries of adapters
    # that left their tier and get rebuilt, while the replay must not change.
    hops = dict.fromkeys(("t_download_ms", "t_disk_to_cpu_ms", "t_cpu_to_gpu_ms"), 0.0)
    _run_trace(
        pattern * repeats,
        gpu_slots,
        cpu_slots,
        n_adapters=50,
        prewarm=prewarm,
        hops=hops if zero_hops else None,
    )


def _gpu_hits(cache, now, count):
    hot = sorted(a for a, entry in cache.snapshot().items() if entry.tier == "gpu")
    for i in range(count):
        now += 1.0
        assert cache.touch(hot[i % len(hot)], now).resident
    return now


def _promotion_churn(cache, names, now, count):
    # Round-robin over as many adapters as GPU and CPU hold together: every
    # touch promotes an adapter out of the CPU tier and every landing demotes
    # the GPU's least recently used one into it, so the CPU tier never spills
    # and nothing evicts from it.
    for i in range(count):
        now += 1.0
        outcome = cache.touch(names[i % len(names)], now)
        if not outcome.resident:
            now = outcome.ready_at
            cache.on_clock(now)
    return now


def test_cache_memory_stays_bounded_over_a_long_run():
    # A live server keeps one cache for its whole life.
    config = EngineConfig(gpu_slots=4, cpu_slots=4)
    names = [adapter_name(i) for i in range(50)]
    cache = AdapterCache(config, names, prewarm=True)
    churned = names[: config.gpu_slots + config.cpu_slots]
    tracemalloc.start()
    try:
        now = _gpu_hits(cache, 0.0, 1_000)
        now = _promotion_churn(cache, churned, now, 1_000)
        now = _gpu_hits(cache, now, 1_000)
        before = tracemalloc.get_traced_memory()[0]
        now = _gpu_hits(cache, now, 100_000)
        now = _promotion_churn(cache, churned, now, 20_000)
        now = _gpu_hits(cache, now, 1_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"cache grew by {grown} bytes"
    stats = cache.residency_stats()
    assert (stats["gpu"], stats["cpu"], stats["remote"]) == (4, 4, 42)
