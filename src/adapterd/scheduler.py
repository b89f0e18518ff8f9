"""Continuous multi-adapter batching: fair admission across per-adapter queues.

Requests wait in per-adapter FIFO queues. Admission sweeps adapters in
least-recently-served order (ties by adapter id), taking one head-of-queue
request per resident adapter per sweep, repeating until the admission budget
or the free batch slots run out. Non-resident adapters encountered during the
sweep get their background load triggered once and are skipped for this plan.
The policy is deterministic and starvation-free: an adapter that contributed
this step moves to the back of the next step's order.  The scheduler holds
only what waits: the queues, their order and the queued ids.  An admitted
request leaves it; the engine holds the batch and caps its size.

The order lives in a heap holding one ``(last_served, name)`` entry per
adapter with a non-empty queue.  The first sweep pops entries only as far as
it gets, and only the adapters it popped are pushed back afterwards, so a
plan costs O(visited * log queued) however many adapters wait.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .cache import AdapterCache
from .core import Request, VirtualTime


class DuplicateRequestError(ValueError):
    pass


@dataclass(frozen=True)
class AdmissionPlan:
    """Requests admitted this step; each decodes under its own ``request.adapter``."""

    admitted: tuple[Request, ...]


class Scheduler:
    def __init__(self) -> None:
        self._queues: dict[str, deque[Request]] = {}
        self._order: list[tuple[int, str]] = []
        self._last_served: dict[str, int] = {}
        self._queued_ids: set[str] = set()

    def enqueue(self, request: Request) -> None:
        if request.id in self._queued_ids:
            raise DuplicateRequestError(request.id)
        adapter = request.adapter
        queue = self._queues.get(adapter)
        if queue is None:
            queue = self._queues[adapter] = deque()
            heappush(self._order, (self._last_served.get(adapter, -1), adapter))
        queue.append(request)
        self._queued_ids.add(request.id)

    def plan_admission(
        self,
        cache: AdapterCache,
        now: VirtualTime,
        free_slots: int,
        budget: int,
        step: int,
    ) -> AdmissionPlan:
        queues = self._queues
        heap = self._order
        room = min(budget, free_slots)
        admitted: list[Request] = []
        visited: list[str] = []
        served: list[str] = []
        # First sweep: every popped adapter has a non-empty queue and is touched once.
        while room > 0 and heap:
            adapter = heappop(heap)[1]
            visited.append(adapter)
            if cache.touch(adapter, now).resident:
                served.append(adapter)
                admitted.append(queues[adapter].popleft())
                room -= 1
        # Later sweeps revisit the resident adapters in the same order.
        progress = bool(served)
        while room > 0 and progress:
            progress = False
            for adapter in served:
                if room <= 0:
                    break
                queue = queues[adapter]
                if queue:
                    admitted.append(queue.popleft())
                    room -= 1
                    progress = True
        for request in admitted:
            self._queued_ids.discard(request.id)
        last_served = self._last_served
        for adapter in served:
            last_served[adapter] = step
        for adapter in visited:
            if queues[adapter]:
                heappush(heap, (last_served.get(adapter, -1), adapter))
            else:
                del queues[adapter]
        return AdmissionPlan(tuple(admitted))

    def has_backlog(self) -> bool:
        return bool(self._queued_ids)

    def drain_queued(self) -> list[Request]:
        """Remove and return every still-queued request (end-of-run discard)."""
        leftovers = [req for queue in self._queues.values() for req in queue]
        self._queues.clear()
        self._order.clear()
        self._queued_ids.clear()
        return leftovers
