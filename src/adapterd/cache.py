"""Tiered adapter weight cache with asynchronous promotion and LRU eviction.

Adapters live on one of four tiers (remote, disk, cpu, gpu) or are in transit
toward the GPU. A touch on a non-resident adapter starts a background load
whose completion time is the sum of the remaining per-hop latencies; the
serving loop is never blocked. Eviction is LRU per tier with a demotion
cascade (gpu to cpu to disk; disk and remote are unbounded), applied when a
load completes. In-transit entries are never eviction victims, only ``touch``
updates recency, and repeated touches during transit are idempotent.

Every operation is O(1) or amortised O(log n) in the number of adapters. The
gpu and cpu tiers each keep a heap of ``(last_used, name)`` entries, pushed
when an adapter enters the tier; a GPU hit only records the new time, and
eviction lazily drops entries of adapters that left the tier and re-keys
entries older than their adapter's last use before taking the least recently
used one, ties broken by name. That is exact only while recency never moves
backwards, so touches must come at nondecreasing times; an earlier touch
raises :class:`ClockRegressionError`. In-transit loads sit in a
``(ready_at, name)`` heap, since ``ready_at`` is fixed until the load lands.

The cache has a single logical owner (the engine loop); operations mutate in
place and are not thread-safe on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterable

from .core import BASE_ADAPTER, EngineConfig, VirtualTime

_TIERS = ("gpu", "cpu", "disk", "remote")
_NEVER_USED = -1.0
# A tier's LRU heap is rebuilt from its live members once it holds more than
# twice the tier's count plus this many entries, so entries left behind by
# adapters promoted out of the tier cannot pile up in a long-running server.
_HEAP_SLACK = 8


class UnknownAdapterError(KeyError):
    pass


class ClockRegressionError(ValueError):
    pass


@dataclass(frozen=True)
class CacheOutcome:
    """Result of a touch: resident now, or pending until ``ready_at``."""

    ready_at: VirtualTime | None = None

    @property
    def resident(self) -> bool:
        return self.ready_at is None


_RESIDENT = CacheOutcome()


@dataclass(frozen=True)
class AdapterEntry:
    """Snapshot of one adapter's residency state."""

    tier: str
    last_used: VirtualTime
    ready_at: VirtualTime | None


class AdapterCache:
    def __init__(
        self,
        config: EngineConfig,
        adapters: Iterable[str],
        *,
        prewarm: bool = False,
    ):
        self._config = config
        self._tier: dict[str, str] = {}
        self._last_used: dict[str, float] = {}
        self._ready_at: dict[str, float] = {}
        self._counts = dict.fromkeys((*_TIERS, "in_transit"), 0)
        self._lru: dict[str, list[tuple[float, str]]] = {"gpu": [], "cpu": []}
        self._in_transit: list[tuple[float, str]] = []
        self._clock = float("-inf")
        self._touched_at = _NEVER_USED
        for index, name in enumerate(sorted(adapters)):
            if name in self._tier:
                raise ValueError(f"duplicate adapter id {name!r}")
            tier = "gpu" if prewarm and index < config.gpu_slots else "remote"
            self._tier[name] = tier
            self._last_used[name] = _NEVER_USED
            self._counts[tier] += 1
            if tier == "gpu":
                self._lru["gpu"].append((_NEVER_USED, name))

    def _remaining_hops_ms(self, tier: str) -> float:
        cfg = self._config
        if tier == "remote":
            return cfg.t_download_ms + cfg.t_disk_to_cpu_ms + cfg.t_cpu_to_gpu_ms
        if tier == "disk":
            return cfg.t_disk_to_cpu_ms + cfg.t_cpu_to_gpu_ms
        return cfg.t_cpu_to_gpu_ms

    def touch(self, adapter: str, now: VirtualTime) -> CacheOutcome:
        """Record use of ``adapter`` and begin/continue promotion toward the GPU."""
        if adapter == BASE_ADAPTER:
            return _RESIDENT
        tier = self._tier.get(adapter)
        if tier is None:
            raise UnknownAdapterError(adapter)
        if now < self._touched_at:
            raise ClockRegressionError(f"touch moved backwards: {now} < {self._touched_at}")
        self._touched_at = now
        self._last_used[adapter] = now
        if tier == "gpu":
            return _RESIDENT
        if tier == "in_transit":
            return CacheOutcome(self._ready_at[adapter])
        ready_at = now + self._remaining_hops_ms(tier)
        self._move(adapter, "in_transit")
        self._ready_at[adapter] = ready_at
        heappush(self._in_transit, (ready_at, adapter))
        return CacheOutcome(ready_at)

    def _move(self, adapter: str, tier: str) -> None:
        """Put ``adapter`` on ``tier``: the one place tier counts and LRU heaps change."""
        counts = self._counts
        counts[self._tier[adapter]] -= 1
        counts[tier] += 1
        self._tier[adapter] = tier
        heap = self._lru.get(tier)
        if heap is None:
            return
        heappush(heap, (self._last_used[adapter], adapter))
        if len(heap) > 2 * counts[tier] + _HEAP_SLACK:
            live = {name for _, name in heap if self._tier[name] == tier}
            heap[:] = [(self._last_used[name], name) for name in live]
            heapify(heap)

    def _pop_lru(self, tier: str) -> str:
        """Remove and return the member of ``tier`` with the least (last_used, name)."""
        heap = self._lru[tier]
        while True:
            key, name = heap[0]
            if self._tier[name] != tier:
                heappop(heap)
            elif key < self._last_used[name]:
                heapreplace(heap, (self._last_used[name], name))
            else:
                heappop(heap)
                return name

    def _place_on_gpu(self, adapter: str) -> None:
        cfg = self._config
        if self._counts["gpu"] >= cfg.gpu_slots:
            victim = self._pop_lru("gpu")
            if cfg.cpu_slots == 0:
                self._move(victim, "disk")
            else:
                if self._counts["cpu"] >= cfg.cpu_slots:
                    self._move(self._pop_lru("cpu"), "disk")
                self._move(victim, "cpu")
        self._move(adapter, "gpu")
        del self._ready_at[adapter]

    def on_clock(self, now: VirtualTime) -> None:
        """Complete every in-transit load whose ready_at <= now (inclusive)."""
        if now < self._clock:
            raise ClockRegressionError(f"on_clock moved backwards: {now} < {self._clock}")
        self._clock = now
        due = self._in_transit
        while due and due[0][0] <= now:
            self._place_on_gpu(heappop(due)[1])

    def residency_stats(self) -> dict[str, int]:
        return dict(self._counts)

    def next_ready_at(self) -> VirtualTime | None:
        return self._in_transit[0][0] if self._in_transit else None

    def snapshot(self) -> dict[str, AdapterEntry]:
        return {
            a: AdapterEntry(self._tier[a], self._last_used[a], self._ready_at.get(a))
            for a in self._tier
        }
