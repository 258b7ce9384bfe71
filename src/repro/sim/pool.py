"""Slot-reuse object pools for the simulation kernel's dominant cycle.

The hot loop of the rewritten kernel (:mod:`repro.sim.wheel`) recycles
:class:`~repro.sim.core.Timeout` and :class:`~repro.sim.core.Event`
instances instead of allocating fresh ones, so the dominant
create-fire-resume cycle performs no object allocation at all once the
pools are warm.  Timed callbacks (``Simulator.call_later``) recycle the
same way through their own free list.

Recycling is gated on ``sys.getrefcount``: an event is returned to its
pool only when the dispatch loop holds the *only* remaining references
(the bucket slot, the loop variable, and the ``getrefcount`` argument
itself).  Any event the user program still holds — stored in a local,
captured by a combinator, parked on a resource queue — keeps a higher
refcount and is simply dropped to the garbage collector instead.  That
makes pooling semantically invisible: a pooled object can never be
observed in its recycled state, because recycling only happens when
nobody can observe it.

Invariants (relied on by :func:`repro.sim.wheel.build_kernel`):

* Only *exact* ``Timeout`` / ``Event`` instances are pooled.  Subclasses
  (``Process``, ``Request``, combinators, ``_Interruption``) are never
  recycled — their extra state makes reset too easy to get wrong, and
  they are rare on the hot path.
* A recycled ``Timeout`` needs only ``_cb`` reset (its ``_exc`` is
  always ``None`` and ``_value``/``delay`` are overwritten on reuse).
* A recycled ``Event`` must have ``_value``/``_exc``/``_cb``/
  ``_scheduled`` all reset so it passes the double-schedule guard and
  reads as untriggered.
* A timed callback never escapes the kernel (``call_later`` returns
  nothing), so it is recycled unconditionally once dispatched; its
  ``_value`` is dropped so the pool pins no payload.
* The pool lists are plain ``list`` objects captured directly by the
  kernel closures; :class:`KernelPools` is the bookkeeping wrapper, not
  an indirection layer on the hot path.

Pool sizes are not capped per-recycle (that would put a length check on
the hot path); :meth:`KernelPools.trim` is called at cold points —
``Simulator.run`` entry — to bound retained memory after bursts.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["KernelPools", "DEFAULT_MAX_POOL"]

# Upper bound applied by trim(): generous enough that steady-state
# workloads never lose warm objects, small enough that a one-off burst
# of a million timeouts does not pin a million objects forever.
DEFAULT_MAX_POOL = 4096


class KernelPools:
    """Free lists for recycled kernel objects.

    Attributes
    ----------
    timeouts / events / calls:
        The raw free lists.  The kernel closures capture these lists
        directly (``pop()`` on allocation, ``append()`` on recycle);
        treat them as owned by the kernel.
    timeout_allocs / event_allocs:
        Number of genuine allocations (pool misses).  Counted on the
        cold allocation branch only, so the hot recycled path pays
        nothing for the statistic.  ``timeout_allocs`` counts every
        timed event: timeouts and timed callbacks.
    """

    __slots__ = (
        "timeouts",
        "events",
        "calls",
        "max_pool",
        "timeout_allocs",
        "event_allocs",
    )

    def __init__(self, max_pool: int = DEFAULT_MAX_POOL):
        self.timeouts: List = []
        self.events: List = []
        self.calls: List = []
        self.max_pool = max_pool
        self.timeout_allocs = 0
        self.event_allocs = 0

    def trim(self) -> None:
        """Drop pooled objects beyond ``max_pool`` per class (cold path)."""
        limit = self.max_pool
        if len(self.timeouts) > limit:
            del self.timeouts[limit:]
        if len(self.events) > limit:
            del self.events[limit:]
        if len(self.calls) > limit:
            del self.calls[limit:]

    def stats(self) -> Dict[str, int]:
        """Snapshot for diagnostics and the performance docs."""
        return {
            "pooled_timeouts": len(self.timeouts),
            "pooled_events": len(self.events),
            "pooled_calls": len(self.calls),
            "timeout_allocs": self.timeout_allocs,
            "event_allocs": self.event_allocs,
            "max_pool": self.max_pool,
        }
