"""Discrete-event simulation kernel.

This module is the substrate for every other subsystem in the
reproduction.  It implements a small, deterministic, SimPy-style
process-based simulator:

* :class:`Simulator` owns the virtual clock and the event calendar.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a Python generator; the generator *yields*
  events (or other processes) and is resumed when they fire.
* :class:`Timeout` is an event that fires after a fixed delay.
* :meth:`Simulator.call_later` runs a plain callback after a delay —
  the primitive for hot-path components that never suspend, so they
  need no process (and pay no generator resume) at all.

All times are floats in **simulated seconds**.  The kernel is fully
deterministic: ties in the event calendar are broken by insertion
order, so two runs of the same program produce identical schedules.

Performance
-----------
The kernel is the hottest code in the repository (a single Figure 16
replication pumps ~2.5 million events through it), so the clock, the
calendar, and the dispatch loop live in :mod:`repro.sim.wheel` as a
closure nest built once per :class:`Simulator`:

* The calendar is a **bucketed calendar queue** — events sharing a
  deadline share one bucket, and a small heap orders buckets, so a
  same-tick batch of events costs one heap operation instead of one
  per event (see the :mod:`repro.sim.wheel` docstring for the layout
  and the insertion cache and its open bucket).
* The dominant create-fire-resume cycle recycles :class:`Timeout` and
  :class:`Event` instances — and the timed callbacks behind
  :meth:`Simulator.call_later` — through
  :class:`repro.sim.pool.KernelPools`, so a warmed-up run allocates
  nothing per event.
* ``Simulator.run`` dispatches callbacks inline (the fixed body of
  what ``Event._fire`` used to be).  This is only sound because the
  dispatch sequence is fixed; :class:`Event` therefore *forbids*
  subclasses from defining ``_fire`` (enforced in
  ``__init_subclass__``).

:meth:`Simulator.run_reference` keeps the naive ``step()``-per-event
loop alive as an oracle; ``tests/sim/`` asserts both loops produce
identical traces.  ``python -m repro bench --check`` guards the
throughput and the schedule digests.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("a", 2.0))
>>> _ = sim.process(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from .pool import KernelPools
from .wheel import build_kernel

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from a triggered None value.
_PENDING = object()

# Sentinel stored in an event's callback slot once its callbacks have
# run.  Doubles as the ``processed`` flag — see ``Event._cb`` below.
_PROCESSED = object()


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) triggers it, schedules it on the simulator calendar,
    and eventually runs its callbacks — resuming any process that
    yielded it.

    Callback storage is a single adaptive slot (``_cb``) instead of an
    always-allocated list: ``None`` (no waiters), a lone callback or
    waiting :class:`Process`, a list of several, or the ``_PROCESSED``
    sentinel once the event has fired.  The common cases — zero or one
    waiter — allocate nothing.
    """

    __slots__ = ("sim", "_cb", "_value", "_exc", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb: Any = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._scheduled = False

    def __init_subclass__(cls, **kwargs):
        # Simulator.run() dispatches callbacks inline without a
        # per-event virtual call; an override would silently be skipped
        # on the fast path.
        if "_fire" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} must not override Event._fire: the "
                "simulator's fast path dispatches callbacks inline"
            )
        super().__init_subclass__(**kwargs)

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._cb is _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` at the current sim time."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event already triggered")
        self._value = value
        # An untriggered event is never on the calendar, so schedule
        # directly (the _schedule double-schedule guard cannot fire).
        self._scheduled = True
        self.sim._schedule_now(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event has ``exc`` raised at its yield
        point.
        """
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exc = exc
        self._value = None
        self._scheduled = True
        self.sim._schedule_now(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately.
        """
        cb = self._cb
        if cb is _PROCESSED:
            callback(self)
        elif cb is None:
            self._cb = callback
        elif type(cb) is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Direct construction is the cold path; ``Simulator.timeout`` is the
    pooled kernel factory and bypasses ``__init__`` entirely.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0.0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Flattened Event.__init__: a fresh timeout cannot already be
        # queued, so it inserts straight into the calendar.
        self.sim = sim
        self._cb = None
        self._value = value
        self._exc = None
        self._scheduled = True
        self.delay = delay
        sim._insert(self, sim.now + delay)


class _Call(Event):
    """A timed callback: runs ``_cb(_value)`` when its deadline comes.

    Created only by the pooled :meth:`Simulator.call_later` factory and
    never handed out, so the dispatch loop recycles it unconditionally.
    A distinct type because dispatch passes the stored value, not the
    event, to the callback.
    """

    __slots__ = ()


class _Bootstrap(Event):
    """The kick-off event that starts a freshly created process.

    A distinct type so :meth:`Process.interrupt` can recognise it and
    leave the registration attached: interrupting a process before its
    first resume still *starts* the generator — the interrupt lands at
    its first yield point, where the process can catch it.  When the
    kick-off is delayed and the interrupt arrives first, the kernel
    starts the generator at the interrupt.
    """

    __slots__ = ()


class _Interruption(Event):
    """Wake-up event that carries an :class:`Interrupt` into a process.

    A distinct type because interrupt deliveries are exempt from the
    kernel's stale-resume guard: a process that moved to a new yield
    point between the interrupt call and its delivery must still
    receive the exception (and stacked interrupts must each arrive).
    """

    __slots__ = ()


class Process(Event):
    """A running simulation process.

    Wraps a generator that yields :class:`Event` instances.  The process
    itself is an event that fires with the generator's return value, so
    processes can wait for one another by yielding them.

    ``_waiting_on`` is the identity of the event whose firing should
    resume the process next; the kernel ignores any other (stale)
    registration, except pending :class:`_Interruption` deliveries.

    ``delay`` postpones the kick-off: the generator starts ``delay``
    seconds from now, at the calendar position ``sim.timeout(delay)``
    created here would take.  A process that returns while nobody waits
    on it is processed in place, with no completion event; a later
    ``yield`` of it resumes at once with its value.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send", "_throw")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
        delay: float = 0.0,
    ):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator)!r}"
            )
        if not delay >= 0.0:
            raise SimulationError(f"negative process delay: {delay!r}")
        # Event.__init__ flattened, here and for the bootstrap: gang
        # threads make this a per-node path.
        self.sim = sim
        self._cb = None
        self._value = _PENDING
        self._exc = None
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._send = generator.send
        self._throw = generator.throw
        bootstrap = _Bootstrap.__new__(_Bootstrap)
        bootstrap.sim = sim
        bootstrap._cb = self
        bootstrap._value = None
        bootstrap._exc = None
        bootstrap._scheduled = True
        self._waiting_on: Optional[Event] = bootstrap
        sim._insert(bootstrap, sim.now + delay)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.triggered:
            return
        sim = self.sim
        target = self._waiting_on
        if (
            target is not None
            and type(target) is not _Interruption
            and type(target) is not _Bootstrap
            and target._cb is not _PROCESSED
        ):
            # Detach from whatever the process was waiting on.  Pending
            # interruptions stay attached so stacked interrupts each
            # deliver; the bootstrap stays attached so the generator
            # still starts and sees the interrupt at its first yield.
            tcb = target._cb
            if tcb is self:
                target._cb = None
            elif type(tcb) is list:
                try:
                    tcb.remove(self)
                except ValueError:
                    pass
        wakeup = _Interruption(sim)
        wakeup._exc = Interrupt(cause)
        wakeup._value = None
        wakeup._scheduled = True
        wakeup._cb = self
        if type(target) is not _Bootstrap:
            # Pre-start interrupts leave ``_waiting_on`` on the
            # bootstrap: the generator must still start (throwing into
            # a never-started generator raises before any body code
            # runs).  An immediate bootstrap was scheduled first, so it
            # fires first; the interruption queued behind it then
            # reaches the first yield point through the stale-resume
            # exemption, where the process can catch it.  A delayed
            # bootstrap fires later, so the kernel starts the
            # generator when the interruption arrives instead.
            self._waiting_on = wakeup
        sim._schedule_now(wakeup)


class AnyOf(Event):
    """Fires when any of the given events fires.

    The value is a dict mapping each fired event to its value.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self._value = {}
            sim._schedule(self, 0.0)
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            # Fail fast: a failed constituent fails the combinator.
            self._exc = event._exc
            self._value = None
            self.sim._schedule(self, 0.0)
            return
        self._value = {
            e: e._value for e in self.events if e.processed
        }
        self.sim._schedule(self, 0.0)


class AllOf(Event):
    """Fires when all of the given events have fired."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self._value = {}
            sim._schedule(self, 0.0)
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            # Fail fast: a failed constituent fails the combinator.
            self._exc = event._exc
            self._value = None
            self.sim._schedule(self, 0.0)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._value = {e: e._value for e in self.events}
            self.sim._schedule(self, 0.0)


class Simulator:
    """The simulation environment: virtual clock plus event calendar.

    The calendar and dispatch loop are closures built by
    :func:`repro.sim.wheel.build_kernel`; the hottest entry points —
    ``timeout``, ``call_later``, ``event``, ``step``, ``peek``,
    ``succeed_many``, ``timeout_chain`` — are bound directly as instance
    attributes so a call costs one attribute load plus the closure call,
    with no method-descriptor indirection.

    ``now`` is the current simulated time in seconds: a plain attribute
    the kernel writes at every clock advance, so reading it costs one
    attribute load.  Treat it as read-only.
    """

    def __init__(self):
        self.now = 0.0
        self.pools = KernelPools()
        kernel = build_kernel(
            self,
            self.pools,
            event_t=Event,
            timeout_t=Timeout,
            call_t=_Call,
            process_t=Process,
            bootstrap_t=_Bootstrap,
            interruption_t=_Interruption,
            interrupt_exc=Interrupt,
            error_t=SimulationError,
            pending=_PENDING,
            processed=_PROCESSED,
        )
        self._kernel = kernel
        # Hot factories / calendar primitives (documented stubs below
        # are shadowed by these bindings).
        self.process = partial(Process, self)
        self.timeout = kernel.timeout
        self.call_later = kernel.call_later
        self.event = kernel.event
        self.succeed_many = kernel.succeed_many
        self.timeout_chain = kernel.timeout_chain
        self.step = kernel.step
        self.peek = kernel.peek
        self._insert = kernel.insert
        self._schedule_now = kernel.schedule_now
        self._get_active = kernel.get_active

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._get_active()

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    #
    # ``event``, ``timeout`` and ``call_later`` are rebound per-instance
    # to the kernel's pooled factories in ``__init__``, and ``process``
    # straight to the :class:`Process` constructor; the defs below only
    # provide the class-level API surface (signatures, docstrings,
    # introspection).

    def event(self) -> Event:
        """Create a fresh, untriggered event (pool-recycled)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, callback: Callable[[Any], None], value: Any = None
    ) -> None:
        """Run ``callback(value)`` at ``now + delay``.

        The timed-callback primitive: it is ordered in the calendar
        exactly like ``timeout(delay)`` created at the same moment, but
        fires a plain call instead of resuming a process, and its event
        is pooled and never exposed.  A component that only reacts to
        deadlines (the serial GPU engine, a delayed kernel launch) runs
        on this without owning a generator.
        """
        self._kernel.call_later(delay, callback, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str = "",
        delay: float = 0.0,
    ) -> Process:
        """Start a new process running ``generator``, ``delay`` seconds
        from now (at the calendar position of ``timeout(delay)``)."""
        return Process(self, generator, name, delay)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def succeed_many(
        self, events: Iterable[Event], values: Optional[Sequence[Any]] = None
    ) -> List[Event]:
        """Trigger a batch of events now, in order (single calendar op).

        Equivalent to ``for ev in events: ev.succeed(value)`` — same
        schedule, same tie-break order — but the whole batch shares one
        calendar bucket.  ``values`` may be ``None`` (every event gets
        ``None``) or a sequence with one value per event.
        """
        return self._kernel.succeed_many(events, values)

    def timeout_chain(
        self, delays: Sequence[float], value: Any = None
    ) -> List[Timeout]:
        """Create a chain of timeouts at cumulative offsets of ``delays``.

        Deadlines are accumulated left to right from the current clock
        in one pass, so the schedule is bit-identical to sequential
        ``timeout`` calls made back-to-back.
        """
        return self._kernel.timeout_chain(delays, value)

    # ------------------------------------------------------------------
    # Scheduling / running
    # ------------------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        self._insert(event, self.now + delay)

    def step(self) -> None:
        """Process the next event on the calendar.

        Raises :class:`SimulationError` when the calendar is empty — an
        explicit contract instead of a bare ``IndexError``.

        (Rebound per-instance to the kernel's cursor-based step in
        ``__init__``; this def documents the API.)
        """
        self._kernel.step()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._kernel.peek()

    def stats(self) -> dict:
        """Calendar and pool counters.

        ``buckets`` counts the calendar buckets opened so far (each is
        one heap entry); the pools' allocation counters ride along.
        Deterministic for a fixed program, so a cost gate can pin them.
        """
        return self._kernel.stats()

    def run(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        """Run until the calendar drains or the clock passes ``until``.

        ``max_steps`` is a livelock guard: a bug that schedules
        zero-delay events in a cycle never drains the calendar and never
        advances the clock, so neither stop condition can trigger.
        When set, the run aborts with :class:`SimulationError` after
        that many events.

        The unguarded path is the kernel's batch dispatch loop;
        :meth:`run_reference` is the readable equivalent — both produce
        bit-identical schedules.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self.now!r})"
            )
        self.pools.trim()
        if max_steps is not None:
            self._kernel.run_guarded(until, max_steps)
            return
        self._kernel.run(until)

    def run_reference(self, until: Optional[float] = None) -> None:
        """Reference event loop: the plain ``step()``-per-event version.

        Kept as the oracle for the fast path in :meth:`run` — the
        determinism suite asserts both produce identical trace digests.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self.now!r})"
            )
        self._kernel.run_reference(until)
