"""Continuous multi-adapter batching: fair admission across per-adapter queues.

Requests wait in per-adapter FIFO queues. Admission sweeps adapters in
least-recently-served order (ties by adapter id), taking one head-of-queue
request per resident adapter per sweep, repeating until the admission budget
or the free batch slots run out. Non-resident adapters encountered during the
sweep get their background load triggered once and are skipped for this plan.
The policy is deterministic and starvation-free: an adapter that contributed
this step moves to the back of the next step's order.  The scheduler holds
only what waits: the queues and their order.  The engine's registry holds
each request from submit to finish, rejects a duplicate id and caps the
batch; an admitted request leaves the scheduler.  A queue emptied by a plan
or a drain is deleted there, so a backlog is exactly a non-empty queue map.

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


@dataclass(frozen=True)
class AdmissionPlan:
    """Requests admitted this step; each decodes under its own ``request.adapter``."""

    admitted: tuple[Request, ...]


class Scheduler:
    def __init__(self) -> None:
        self._queues: dict[str, deque[Request]] = {}
        self._order: list[tuple[int, str]] = []
        self._last_served: dict[str, int] = {}

    def enqueue(self, request: Request) -> None:
        adapter = request.adapter
        queue = self._queues.get(adapter)
        if queue is None:
            queue = self._queues[adapter] = deque()
            heappush(self._order, (self._last_served.get(adapter, -1), adapter))
        queue.append(request)

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
        return bool(self._queues)

    def drain_queued(self) -> list[Request]:
        """Remove and return every still-queued request (end-of-run discard)."""
        leftovers = [req for queue in self._queues.values() for req in queue]
        self._queues.clear()
        self._order.clear()
        return leftovers
