"""Shared-resource primitives built on the simulation kernel.

These mirror the concurrency primitives the real Olympian implementation
uses on the host side:

* :class:`Resource` — counted resource with FIFO queueing (models CPU
  cores and the bounded inter-op thread pool).
* :class:`Store` — unbounded FIFO of items with blocking ``get`` (models
  the GPU driver's kernel submission queue).
* :class:`ConditionVariable` — wait/notify for process gangs (models the
  pthread condition variables Olympian uses to suspend and resume the
  CPU thread gang of a DNN job).

Hot-path notes: waiter events come from the simulator's object pool
(``sim.event()``), request cancellation is a lazy O(1) flag resolved at
hand-off time (a ``deque.remove`` scan used to make cancel O(queue)),
and :meth:`ConditionVariable.notify_all` wakes the whole gang through
``Simulator.succeed_many`` — one calendar operation for the batch
instead of one per waiter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Store", "ConditionVariable"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Yielded by a process; fires once the resource grants a slot.  Must be
    released via :meth:`Resource.release` when done.

    ``cancelled`` marks a lazily withdrawn request: it stays in the
    resource's FIFO but is skipped (and forgotten) when its turn comes.
    """

    __slots__ = ("resource", "cancelled")

    def __init__(self, sim: Simulator, resource: "Resource"):
        super().__init__(sim)
        self.resource = resource
        self.cancelled = False


class Resource:
    """A counted resource with FIFO granting.

    >>> sim = Simulator()
    >>> cores = Resource(sim, capacity=2)
    >>> def use():
    ...     req = cores.request()
    ...     yield req
    ...     yield sim.timeout(1.0)
    ...     cores.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Request] = deque()
        self._cancelled = 0  # lazily cancelled requests still in _waiters

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters) - self._cancelled

    def request(self) -> Request:
        """Claim one slot; the returned event fires when granted."""
        req = Request(self.sim, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def try_request(self) -> Optional[Request]:
        """Claim a slot only if one is free right now, else ``None``."""
        if self._in_use < self.capacity:
            self._in_use += 1
            req = Request(self.sim, self)
            req.succeed()
            return req
        return None

    def release(self, request: Request) -> None:
        """Return the slot held by ``request``."""
        if request.resource is not self:
            raise SimulationError("release of a request from another resource")
        self.release_slot()

    def release_slot(self) -> None:
        """Return one slot, however it was claimed.

        The release half of a slot claimed inline (``_in_use`` bumped
        while a slot was free, no :class:`Request`), and the body of
        :meth:`release`: the slot goes straight to the next live waiter,
        or back to the pool.
        """
        waiters = self._waiters
        while waiters:
            nxt = waiters.popleft()
            if nxt.cancelled:
                # Lazily withdrawn; drop it and keep looking.
                self._cancelled -= 1
                continue
            # Hand the slot straight to the next waiter; _in_use unchanged.
            nxt.succeed()
            return
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError("resource released more than acquired")

    def cancel(self, request: Request) -> None:
        """Withdraw a queued request that has not been granted yet.

        O(1): the request is flagged and skipped when its turn comes,
        instead of scanned out of the FIFO at cancel time.
        """
        if request.triggered:
            raise SimulationError("cannot cancel a granted request")
        # An untriggered request of this resource is in the FIFO unless
        # it was already cancelled; no scan needed to validate.
        if request.resource is not self or request.cancelled:
            raise SimulationError("request not queued on this resource")
        request.cancelled = True
        self._cancelled += 1


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    next item as soon as one is available.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Pop the next item if present, else ``None`` (non-blocking)."""
        if self._items:
            return self._items.popleft()
        return None


class ConditionVariable:
    """Wait/notify primitive for suspending process gangs.

    Olympian parks every CPU thread of a de-scheduled DNN job on a
    condition variable and wakes the whole gang when the job regains the
    token.  The simulated analogue: processes yield :meth:`wait`; the
    scheduler calls :meth:`notify_all` with an optional wake latency that
    models the cost of the OS actually getting the threads running again.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        """Return an event that fires at the next notify."""
        event = self.sim.event()
        self._waiters.append(event)
        return event

    def notify_all(self, wake_latency: float = 0.0) -> int:
        """Wake every waiter after ``wake_latency`` seconds.

        Returns the number of processes woken.  The whole gang is
        triggered through ``succeed_many`` — same wake order as
        sequential ``succeed`` calls, one calendar operation total.  A
        delayed wake is one timed callback, not a process.
        """
        waiters, self._waiters = self._waiters, deque()
        if wake_latency > 0.0:
            self.sim.call_later(wake_latency, self.sim.succeed_many, waiters)
        else:
            self.sim.succeed_many(waiters)
        return len(waiters)

    def notify_one(self) -> bool:
        """Wake a single waiter (FIFO).  Returns True if one was woken."""
        if not self._waiters:
            return False
        self._waiters.popleft().succeed()
        return True
