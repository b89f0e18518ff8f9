"""Continuous multi-adapter batching: fair admission across per-adapter queues.

Requests wait in per-adapter FIFO queues. Admission sweeps adapters in
least-recently-served order (ties by adapter id), taking one head-of-queue
request per resident adapter per sweep, repeating until the admission budget
or the free batch slots run out. Non-resident adapters encountered during the
sweep get their background load triggered once and are skipped for this plan.
The policy is deterministic and starvation-free: an adapter that contributed
this step moves to the back of the next step's order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cache import AdapterCache
from .core import Request, VirtualTime


class DuplicateRequestError(ValueError):
    pass


class UnknownRequestError(KeyError):
    pass


@dataclass(frozen=True)
class AdmissionPlan:
    """Requests admitted this step; each decodes under its own ``request.adapter``."""

    admitted: tuple[Request, ...]


class Scheduler:
    def __init__(self) -> None:
        self._queues: dict[str, deque[Request]] = {}
        self._last_served: dict[str, int] = {}
        self._queued_ids: set[str] = set()
        self._in_flight: set[str] = set()

    def enqueue(self, request: Request) -> None:
        if request.id in self._queued_ids or request.id in self._in_flight:
            raise DuplicateRequestError(request.id)
        self._queues.setdefault(request.adapter, deque()).append(request)
        self._queued_ids.add(request.id)

    def plan_admission(
        self,
        cache: AdapterCache,
        now: VirtualTime,
        free_slots: int,
        budget: int,
        step: int,
    ) -> AdmissionPlan:
        order = sorted(
            (a for a, q in self._queues.items() if q),
            key=lambda a: (self._last_served.get(a, -1), a),
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
                queue = self._queues.get(adapter)
                if not queue:
                    continue
                if adapter not in resident:
                    resident[adapter] = cache.touch(adapter, now).resident
                if not resident[adapter]:
                    continue
                request = queue.popleft()
                admitted.append(request)
                self._queued_ids.discard(request.id)
                self._in_flight.add(request.id)
                contributed.add(adapter)
                budget -= 1
                free_slots -= 1
                progress = True
        for adapter in contributed:
            self._last_served[adapter] = step
        for adapter in [a for a, q in self._queues.items() if not q]:
            del self._queues[adapter]
        return AdmissionPlan(tuple(admitted))

    def on_complete(self, request_id: str) -> None:
        if request_id not in self._in_flight:
            raise UnknownRequestError(request_id)
        self._in_flight.remove(request_id)

    def has_backlog(self) -> bool:
        return bool(self._queued_ids)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def drain_queued(self) -> list[Request]:
        """Remove and return every still-queued request (end-of-run discard)."""
        leftovers = [req for queue in self._queues.values() for req in queue]
        self._queues.clear()
        self._queued_ids.clear()
        return leftovers
