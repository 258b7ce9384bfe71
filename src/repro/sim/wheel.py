"""The bucketed calendar-queue kernel behind :class:`repro.sim.core.Simulator`.

This module owns the event calendar and the dispatch loop.  It replaces
the flat per-event binary heap (``heapq`` over ``(time, seq, event)``
tuples) with a **bucketed calendar**: events that share a deadline live
in one list (*bucket*), and the heap orders buckets, not events.  The
dominant workload — many processes advancing on the same tick — then
pays one heap operation per *deadline* instead of one per *event*, and
a whole same-deadline batch advances with a single pop (the
"vectorised batch advancement" of homogeneous streams).

Layout
------
* ``times`` — a ``heapq`` of ``(t, seq, bucket)`` tuples.  ``seq`` is a
  monotonically increasing bucket-creation counter, so two buckets with
  equal ``t`` pop in creation order.  Every pending bucket, however far
  its deadline, sits in this one heap: serving runs keep at most a few
  dozen buckets pending, so a heap operation stays a handful of
  comparisons.
* insertion cache — the most recently touched ``(t, bucket)`` pair.
  Consecutive inserts at one deadline append straight to the cached
  bucket with no heap traffic.  When a bucket at ``t`` pops, the cache
  becomes that bucket (the *open bucket*) unless another bucket at
  ``t`` still waits in the heap.  Events scheduled *during* dispatch at
  the current time then append to the bucket being dispatched, and the
  dispatch loop reaches them after its older events: a ``done`` fired
  mid-dispatch costs no heap push, pop or bucket.  If another bucket at
  ``t`` waits, the cache is invalidated instead and such events open a
  fresh bucket, which pops after every older same-time bucket.  A
  retired bucket never stays cached.
* buckets are fresh lists — an insert that opens one builds ``[ev]``
  (``succeed_many`` a copy of its batch), and a dispatched bucket is
  dropped.  There is no free list: reusing a list cost a pop, an
  append and a ``clear`` per bucket, more interpreter work than the
  allocation CPython's own list free list serves.
* pools — see :mod:`repro.sim.pool`.  The dispatch loop recycles exact
  ``Timeout``/``Event`` instances whose refcount proves the program
  holds no other reference, and every dispatched timed callback
  (``call_later``), which the program never sees.

Ordering guarantee
------------------
Events dispatch in ``(deadline, insertion order)`` order — bit-identical
to the per-event heap the kernel replaced, which is what keeps every
scheduler trace digest unchanged.  For equal deadlines, bucket creation
order equals event insertion order: once a bucket at time ``t`` leaves
the insertion cache, no *older* bucket at ``t`` can re-enter it, so
same-``t`` events always land in creation-ordered buckets.  The open
bucket keeps this: an event appended to it is younger than every event
already in it, and no other bucket at ``t`` is waiting, so the
per-event heap would dispatch it right after them too.

Two process rules remove events no waiter observes, without changing
the order of the ones that remain:

* a process started with a delay (``Simulator.process(..., delay=)``)
  puts its bootstrap at ``now + delay``, where ``timeout(delay)`` would
  go, instead of at ``now`` followed by a sleep;
* a process whose generator returns while nobody waits on it is
  marked processed in place instead of completing through the
  calendar; a later ``yield`` of it resumes at once, as any yield of a
  processed event does.  A waited process still completes through the
  calendar.

The kernel is built as a closure nest (:func:`build_kernel`) rather
than a class: the hot state — clock, heap, cache, pools — lives in
closure cells, which CPython reads faster than instance attributes,
and the event classes arrive as parameters so this module never
imports :mod:`repro.sim.core` (no cycle, and ``LOAD_DEREF`` beats
``LOAD_GLOBAL`` in the loop).

This is the **only** module under ``src/repro`` allowed to import
``heapq`` (enforced by lint rule PERF002): every other queue must go
through the simulator so ordering and pooling stay centralised.
"""

from __future__ import annotations

from heapq import heappop, heappush  # lint: disable=PERF002
from sys import getrefcount
from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = ["SimKernel", "build_kernel"]

_INF = float("inf")


class SimKernel:
    """Bundle of kernel entry points returned by :func:`build_kernel`.

    Every attribute is a closure over one shared calendar; the
    :class:`~repro.sim.core.Simulator` facade re-exports them.
    """

    __slots__ = (
        "timeout",
        "call_later",
        "insert",
        "schedule_now",
        "event",
        "succeed_many",
        "timeout_chain",
        "run",
        "run_guarded",
        "run_reference",
        "step",
        "peek",
        "queue_empty",
        "get_now",
        "get_active",
        "stats",
    )


def build_kernel(
    sim: Any,
    pools: Any,
    *,
    event_t: type,
    timeout_t: type,
    call_t: type,
    process_t: type,
    bootstrap_t: type,
    interruption_t: type,
    interrupt_exc: type,
    error_t: type,
    pending: Any,
    processed: Any,
) -> SimKernel:
    """Construct the calendar + dispatch closures for one simulator.

    ``pending``/``processed`` are the core module's sentinels;
    ``processed`` doubles as the fired-event marker in each event's
    ``_cb`` slot (see ``Event.add_callback``).
    """
    now = 0.0
    seq = 0  # bucket creation counter: same-t buckets pop in creation order
    times: List = []  # heap of (t, seq, bucket)
    cache_t = -1.0  # insertion cache: time of the last bucket touched
    cache_b: Optional[List] = None
    cursor_b: Optional[List] = None  # bucket partially consumed by step()
    cursor_i = 0
    active_proc = None
    t_pool = pools.timeouts
    e_pool = pools.events
    c_pool = pools.calls
    getref = getrefcount

    # ------------------------------------------------------------------
    # Calendar: insertion paths
    # ------------------------------------------------------------------

    def insert(ev: Any, t: float) -> None:
        nonlocal seq, cache_t, cache_b
        if t == cache_t:
            cache_b.append(ev)
            return
        b = [ev]
        cache_t = t
        cache_b = b
        heappush(times, (t, seq, b))
        seq += 1

    def schedule_now(ev: Any) -> None:
        # insert(ev, now) with the body inlined: this is the succeed()/
        # fail() path, hot enough that the nested call shows up.
        nonlocal seq, cache_t, cache_b
        t = now
        if t == cache_t:
            cache_b.append(ev)
            return
        b = [ev]
        cache_t = t
        cache_b = b
        heappush(times, (t, seq, b))
        seq += 1

    # The keyword-only defaults freeze never-rebound cells as argument
    # locals: LOAD_FAST instead of LOAD_DEREF on the hottest call in
    # the simulator.  Callers never pass them.
    def timeout(
        delay: float,
        value: Any = None,
        *,
        _t_pool: Any = t_pool,
        _t_pop: Any = t_pool.pop,
    ) -> Any:
        nonlocal seq, cache_t, cache_b
        if not delay >= 0.0:  # NaN fails this test, not ``< 0.0``
            raise error_t(f"negative timeout delay: {delay!r}")
        if _t_pool:
            ev = _t_pop()
            ev._value = value
        else:
            ev = timeout_t.__new__(timeout_t)
            ev.sim = sim
            ev._cb = None
            ev._value = value
            ev._exc = None
            ev._scheduled = True
            pools.timeout_allocs += 1
        ev.delay = delay
        t = now + delay
        if t == cache_t:
            cache_b.append(ev)
            return ev
        b = [ev]
        cache_t = t
        cache_b = b
        heappush(times, (t, seq, b))
        seq += 1
        return ev

    def call_later(
        delay: float,
        fn: Callable[[Any], None],
        value: Any = None,
        *,
        _c_pool: Any = c_pool,
        _c_pop: Any = c_pool.pop,
    ) -> None:
        # timeout() with a callback in the waiter slot: same deadline
        # arithmetic and insertion path, so it takes exactly the
        # calendar position a timeout created here would.
        nonlocal seq, cache_t, cache_b
        if not delay >= 0.0:  # NaN fails this test, not ``< 0.0``
            raise error_t(f"negative timeout delay: {delay!r}")
        if _c_pool:
            ev = _c_pop()
        else:
            ev = call_t.__new__(call_t)
            ev.sim = sim
            ev._exc = None
            ev._scheduled = True
            pools.timeout_allocs += 1
        ev._cb = fn
        ev._value = value
        t = now + delay
        if t == cache_t:
            cache_b.append(ev)
            return
        b = [ev]
        cache_t = t
        cache_b = b
        heappush(times, (t, seq, b))
        seq += 1

    def event() -> Any:
        if e_pool:
            return e_pool.pop()
        pools.event_allocs += 1
        return event_t(sim)

    def succeed_many(
        events: Iterable[Any], values: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        """Trigger a batch of events at the current time, in order.

        Equivalent to calling ``ev.succeed(value)`` on each event in
        sequence (same schedule, same tie-break order), but the whole
        gang lands in one calendar bucket with a single heap operation —
        the batch-advancement fast path for same-deadline wake-ups.
        """
        nonlocal seq, cache_t, cache_b
        evs = list(events)
        if not evs:
            return evs
        # The whole batch validates before anything mutates, so a
        # duplicate must be caught here by identity: it would pass the
        # already-triggered pre-check twice, land in the bucket twice,
        # and the second dispatch would crash on the processed
        # sentinel instead of raising the contract error.
        seen = set()
        for ev in evs:
            if (
                ev._value is not pending
                or ev._exc is not None
                or id(ev) in seen
            ):
                raise error_t("event already triggered")
            seen.add(id(ev))
        if values is None:
            for ev in evs:
                ev._value = None
                ev._scheduled = True
        else:
            if len(values) != len(evs):
                raise error_t(
                    f"succeed_many: {len(evs)} events but "
                    f"{len(values)} values"
                )
            for ev, value in zip(evs, values):
                ev._value = value
                ev._scheduled = True
        t = now
        if t == cache_t:
            cache_b.extend(evs)
            return evs
        b = evs[:]
        cache_t = t
        cache_b = b
        heappush(times, (t, seq, b))
        seq += 1
        return evs

    def timeout_chain(
        delays: Sequence[float], value: Any = None
    ) -> List[Any]:
        """Schedule a run of chained timeouts in one pass.

        Timeout ``i`` fires at ``now + delays[0] + ... + delays[i]``,
        accumulated strictly left to right in float64 — bit-identical
        to the scalar loop ``t += d; timeout(...)`` it replaces (and to
        ``numpy.cumsum`` seeded with the clock), so chains can be
        precomputed without digest drift.
        """
        ds = list(delays)
        for d in ds:
            if not d >= 0.0:
                raise error_t(f"negative timeout delay: {d!r}")
        t = now
        out = []
        for d in ds:
            if t_pool:
                ev = t_pool.pop()
                ev._value = value
            else:
                ev = timeout_t.__new__(timeout_t)
                ev.sim = sim
                ev._cb = None
                ev._value = value
                ev._exc = None
                ev._scheduled = True
                pools.timeout_allocs += 1
            ev.delay = d
            t += d
            insert(ev, t)
            out.append(ev)
        return out

    # ------------------------------------------------------------------
    # Dispatch: process resume (cold, full-fidelity path)
    # ------------------------------------------------------------------

    def _resume_proc(proc: Any, ev: Any) -> None:
        # Out-of-line twin of the inline resume in run(): used for
        # step()/run_reference(), list-overflow waiters, and synchronous
        # requeue on already-processed targets.  Skips pooling (callers
        # own the event's lifetime) but is otherwise identical.
        nonlocal active_proc
        if proc._waiting_on is not ev:
            # Stale resume: the process moved on since this event was
            # scheduled.  The only stale event still delivered is a
            # pending interrupt wake-up — the Interrupt must reach the
            # process's *new* yield point (matching the reference
            # semantics where every scheduled interrupt lands).
            if type(ev) is not interruption_t:
                return
            if proc._value is not pending or proc._exc is not None:
                return
            boot = proc._waiting_on
            if type(boot) is bootstrap_t:
                # The interrupt overtook a delayed kick-off: start the
                # generator now, so the Interrupt lands at its first
                # yield point as it would behind an immediate kick-off.
                # The bootstrap left on the calendar fires stale.
                _resume_proc(proc, boot)
                if proc._value is not pending or proc._exc is not None:
                    return
        active_proc = proc
        try:
            if ev._exc is None:
                target = proc._send(ev._value)
            else:
                target = proc._throw(ev._exc)
        except StopIteration as stop:
            proc._waiting_on = None
            proc._value = stop.value
            proc._scheduled = True
            if proc._cb is None:
                # Nobody waits: complete in place, no calendar event.
                proc._cb = processed
            else:
                insert(proc, now)
            return
        except interrupt_exc as exc:
            proc._waiting_on = None
            proc._exc = exc
            proc._value = None
            proc._scheduled = True
            insert(proc, now)
            return
        finally:
            active_proc = None
        try:
            tcb = target._cb
        except AttributeError:
            raise error_t(
                f"process {proc.name!r} yielded {target!r}; "
                "processes must yield Event instances"
            ) from None
        if target.sim is not sim:
            raise error_t("yielded event belongs to another simulator")
        if tcb is None:
            proc._waiting_on = target
            target._cb = proc
        elif tcb is processed:
            # Target already fired: resume again immediately with its
            # outcome (add_callback-after-processed semantics).
            proc._waiting_on = target
            _resume_proc(proc, target)
        elif type(tcb) is list:
            proc._waiting_on = target
            tcb.append(proc)
        else:
            proc._waiting_on = target
            target._cb = [tcb, proc]

    def _dispatch_one(ev: Any) -> None:
        # Single-event dispatch for step()/run_reference(): one event's
        # callbacks, nothing else.  The fast run() loop inlines this.
        nonlocal active_proc
        cb = ev._cb
        ev._cb = processed
        if type(ev) is call_t:
            active_proc = None
            value = ev._value
            ev._value = None
            c_pool.append(ev)
            cb(value)
            return
        if cb is None:
            return
        if type(cb) is process_t:
            _resume_proc(cb, ev)
            return
        if type(cb) is list:
            active_proc = None
            for c in cb:
                if type(c) is process_t:
                    _resume_proc(c, ev)
                else:
                    c(ev)
            return
        active_proc = None
        cb(ev)

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------

    def run(until: Optional[float] = None) -> None:
        nonlocal now, cache_t, cache_b, active_proc, cursor_b, cursor_i
        # Finish a bucket left half-consumed by step() before entering
        # the batch loop (its events are due at the current time, which
        # the caller has already checked is <= until).
        b = cursor_b
        if b is not None:
            while cursor_i < len(b):
                ev = b[cursor_i]
                cursor_i += 1
                _dispatch_one(ev)
            if cache_b is b:
                cache_t = -1.0
            cursor_b = None
        limit = _INF if until is None else until
        # Hot-loop locals: every name below is read per event (or per
        # bucket) and never rebound, so LOAD_FAST replaces LOAD_DEREF /
        # LOAD_GLOBAL for the duration of the run.  The mutable cells
        # (now, cache_t, cache_b, active_proc) stay nonlocal.
        times_l = times
        t_pool_l = t_pool
        e_pool_l = e_pool
        c_pool_l = c_pool
        processed_l = processed
        pending_l = pending
        process_c = process_t
        timeout_c = timeout_t
        call_c = call_t
        event_c = event_t
        interruption_c = interruption_t
        getref_l = getref
        pop = heappop
        sim_l = sim
        push = heappush
        try:
            while True:
                if not times_l:
                    break
                # Pop eagerly: the early exit below is rare (once per
                # bounded run), so pushing the bucket back then is
                # cheaper than peeking the heap top before every pop.
                t, s, b = pop(times_l)
                if t > limit:
                    push(times_l, (t, s, b))
                    now = until
                    sim_l.now = until
                    return
                now = t
                sim_l.now = t
                if times_l and times_l[0][0] == t:
                    # Another bucket at t waits: same-time events
                    # scheduled during dispatch queue behind it, in a
                    # fresh bucket.
                    cache_t = -1.0
                else:
                    # Open bucket: they append to b, and the loop below
                    # reaches them after b's older events.
                    cache_t = t
                    cache_b = b
                for ev in b:
                    cb = ev._cb
                    ev._cb = processed_l
                    if type(cb) is process_c:
                        # ----- inline process resume (dominant path) --
                        if cb._waiting_on is not ev:
                            if type(ev) is interruption_c:
                                _resume_proc(cb, ev)
                            continue
                        active_proc = cb
                        is_to = type(ev) is timeout_c
                        try:
                            if is_to:
                                target = cb._send(ev._value)
                            elif ev._exc is None:
                                target = cb._send(ev._value)
                            else:
                                target = cb._throw(ev._exc)
                        except StopIteration as stop:
                            cb._waiting_on = None
                            cb._value = stop.value
                            cb._scheduled = True
                            if cb._cb is None:
                                cb._cb = processed_l
                            else:
                                insert(cb, now)
                            if is_to:
                                if getref_l(ev) == 3:
                                    ev._cb = None
                                    t_pool_l.append(ev)
                            elif type(ev) is event_c and getref_l(ev) == 3:
                                ev._value = pending_l
                                ev._exc = None
                                ev._cb = None
                                ev._scheduled = False
                                e_pool_l.append(ev)
                            continue
                        except interrupt_exc as exc:
                            cb._waiting_on = None
                            cb._exc = exc
                            cb._value = None
                            cb._scheduled = True
                            insert(cb, now)
                            continue
                        try:
                            tcb = target._cb
                        except AttributeError:
                            raise error_t(
                                f"process {cb.name!r} yielded {target!r}; "
                                "processes must yield Event instances"
                            ) from None
                        if target.sim is not sim_l:
                            raise error_t(
                                "yielded event belongs to another simulator"
                            )
                        if tcb is None:
                            cb._waiting_on = target
                            target._cb = cb
                        elif tcb is processed_l:
                            cb._waiting_on = target
                            _resume_proc(cb, target)
                        elif type(tcb) is list:
                            cb._waiting_on = target
                            tcb.append(cb)
                        else:
                            cb._waiting_on = target
                            target._cb = [tcb, cb]
                        # Recycle when the only refs left are the bucket
                        # slot, the loop variable, and getref's argument.
                        if is_to:
                            if getref_l(ev) == 3:
                                ev._cb = None
                                t_pool_l.append(ev)
                        elif type(ev) is event_c and getref_l(ev) == 3:
                            ev._value = pending_l
                            ev._exc = None
                            ev._cb = None
                            ev._scheduled = False
                            e_pool_l.append(ev)
                        continue
                    if type(ev) is call_c:
                        # ----- timed callback (serial GPU engine) -----
                        # Recycled before the call: the callback may
                        # schedule the next one straight from the pool.
                        active_proc = None
                        value = ev._value
                        ev._value = None
                        c_pool_l.append(ev)
                        cb(value)
                        continue
                    if cb is None:
                        if type(ev) is timeout_c:
                            if getref_l(ev) == 3:
                                ev._cb = None
                                t_pool_l.append(ev)
                        elif type(ev) is event_c and getref_l(ev) == 3:
                            ev._value = pending_l
                            ev._exc = None
                            ev._cb = None
                            ev._scheduled = False
                            e_pool_l.append(ev)
                        continue
                    if type(cb) is list:
                        active_proc = None
                        for c in cb:
                            if type(c) is process_c:
                                _resume_proc(c, ev)
                            else:
                                c(ev)
                        continue
                    active_proc = None
                    cb(ev)
                active_proc = None
                if cache_b is b:
                    cache_t = -1.0
            if until is not None:
                now = until
                sim.now = until
        finally:
            active_proc = None
            # A dispatch that raised leaves its bucket open; forget it.
            cache_t = -1.0

    def queue_empty() -> bool:
        return cursor_b is None and not times

    def step() -> None:
        nonlocal now, cache_t, cache_b, cursor_b, cursor_i
        b = cursor_b
        if b is None:
            if not times:
                raise error_t("step() on an empty event queue")
            tup = heappop(times)
            t = tup[0]
            now = t
            sim.now = t
            b = tup[2]
            # The open-bucket rule of run().
            if times and times[0][0] == t:
                cache_t = -1.0
            else:
                cache_t = t
                cache_b = b
            cursor_b = b
            cursor_i = 0
        ev = b[cursor_i]
        cursor_i += 1
        try:
            _dispatch_one(ev)
        finally:
            # Retire the bucket only once the dispatch is over: it may
            # have appended same-time events to the open bucket.
            if cursor_b is b and cursor_i >= len(b):
                cursor_b = None
                if cache_b is b:
                    cache_t = -1.0

    def peek() -> float:
        if cursor_b is not None:
            # Remaining events in the open bucket fire at the current time.
            return now
        return times[0][0] if times else _INF

    def run_guarded(until: Optional[float], max_steps: int) -> None:
        nonlocal now
        if max_steps < 1:
            raise error_t(f"max_steps must be >= 1: {max_steps}")
        steps = 0
        while not queue_empty():
            if until is not None and peek() > until:
                now = until
                sim.now = until
                return
            if steps >= max_steps:
                raise error_t(
                    f"run() exceeded max_steps={max_steps} at t={now!r}"
                    " — livelock? (zero-delay event cycle keeps the queue"
                    " non-empty without advancing the clock)"
                )
            steps += 1
            step()
        if until is not None:
            now = until
            sim.now = until

    def run_reference(until: Optional[float] = None) -> None:
        nonlocal now
        while not queue_empty():
            if until is not None and peek() > until:
                now = until
                sim.now = until
                return
            step()
        if until is not None:
            now = until
            sim.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def get_now() -> float:
        return now

    def get_active() -> Any:
        return active_proc

    def stats() -> dict:
        snapshot = {
            "now": now,
            # Buckets ever opened: one heap entry each, the calendar's
            # unit of cost.
            "buckets": seq,
            "pending_buckets": len(times),
            "cursor_open": cursor_b is not None,
        }
        snapshot.update(pools.stats())
        return snapshot

    kernel = SimKernel()
    kernel.timeout = timeout
    kernel.call_later = call_later
    kernel.insert = insert
    kernel.schedule_now = schedule_now
    kernel.event = event
    kernel.succeed_many = succeed_many
    kernel.timeout_chain = timeout_chain
    kernel.run = run
    kernel.run_guarded = run_guarded
    kernel.run_reference = run_reference
    kernel.step = step
    kernel.peek = peek
    kernel.queue_empty = queue_empty
    kernel.get_now = get_now
    kernel.get_active = get_active
    kernel.stats = stats
    return kernel
