"""Randomized differential testing: ``run`` vs the ``run_reference`` oracle.

The calendar-queue kernel (``sim/wheel.py``) promises bit-identical
behaviour to a naive per-event binary heap with FIFO tie-breaking —
that is exactly what ``Simulator.run_reference`` executes.  These tests
build seeded random workloads twice, drive one copy through the pooled
fast path and the other through the oracle, and require the full
``(now, tag, payload)`` traces to match exactly (float equality: same
ordering implies same arithmetic, so any divergence shows up as a hard
mismatch, not a tolerance question).

Each generator stresses a specific kernel risk surface:

* mixed same-tick / far-future timeouts — bucket tie-breaking, and a
  calendar tens of thousands of buckets deep;
* interrupts (including interrupt-before-start and same-tick double
  interrupts) — the identity resume guard and detach rules;
* AnyOf/AllOf over shared events plus failures — the combinator
  callback-list path;
* resource churn with random cancellations — lazy O(1) cancel and
  pooled-event slot reuse after a cancelled wait;
* same-instant cascades, unwaited process completions and delayed
  kick-offs — the open-bucket rule, in-place completion and the
  overtaken-bootstrap interrupt.  Because both loops share one
  calendar, this generator also checks the calendar's own promise
  independently: every dispatch it observes must arrive in
  ``(time, insertion order)`` order.
"""

import itertools
import random

import pytest

from repro.sim.core import AllOf, AnyOf, Interrupt, Simulator


def run_pair(build, seed, until=None):
    """Run ``build``'s workload under both engines; return the traces."""
    traces = []
    for runner in ("run", "run_reference"):
        sim = Simulator()
        trace = []
        build(sim, random.Random(seed), trace)
        getattr(sim, runner)(until)
        trace.append(("final-now", sim.now))
        traces.append(trace)
    assert traces[0] == traces[1]
    return traces[0]


# ----------------------------------------------------------------------
# Timeout storms: ties, zero delays, and far-future deadlines
# ----------------------------------------------------------------------

def build_timeout_storm(sim, rng, trace):
    # A few shared delay values force same-tick collisions across
    # processes; the occasional huge delay leaves a deadline far behind
    # the near ticks.
    palette = [0.0, 1e-6, 1e-6, 2e-6, 5e-6, 1e-3, 75.0]

    def worker(wid, steps):
        for i in range(steps):
            delay = rng_choices[wid][i]
            value = sim.timeout(delay, value=(wid, i))
            got = yield value
            trace.append((sim.now, "tick", wid, i, got))

    rng_choices = [
        [rng.choice(palette) for _ in range(rng.randrange(5, 25))]
        for _ in range(12)
    ]
    for wid, delays in enumerate(rng_choices):
        sim.process(worker(wid, len(delays)), name=f"storm-{wid}")


@pytest.mark.parametrize("seed", range(5))
def test_timeout_storm_matches_reference(seed):
    trace = run_pair(build_timeout_storm, seed)
    assert len(trace) > 10


@pytest.mark.parametrize("seed", range(3))
def test_timeout_storm_bounded_run_matches_reference(seed):
    # A finite horizon leaves far-future events undispatched in both
    # engines and pins final-now to the bound.
    trace = run_pair(build_timeout_storm, seed, until=0.5)
    assert trace[-1] == ("final-now", 0.5)


# ----------------------------------------------------------------------
# Interrupt storms: double interrupts, interrupt-before-start
# ----------------------------------------------------------------------

def build_interrupt_storm(sim, rng, trace):
    sleepers = []

    def sleeper(sid):
        remaining = 5
        while remaining:
            try:
                yield sim.timeout(10.0, value=sid)
                trace.append((sim.now, "slept", sid))
            except Interrupt as exc:
                trace.append((sim.now, "interrupted", sid, exc.cause))
            remaining -= 1

    for sid in range(6):
        sleepers.append(sim.process(sleeper(sid), name=f"sleeper-{sid}"))

    def agitator():
        # Early interrupt on a sleeper that is already parked at its
        # first yield (its bootstrap fired before this body ran).  The
        # genuine pre-start path — interrupt() before run() — cannot be
        # exercised differentially and is pinned directly by
        # test_interrupt_before_run_starts_generator below.
        sleepers[0].interrupt(cause="pre-start")
        for i in range(30):
            yield sim.timeout(rng.choice([0.0, 0.5, 1.0, 1.0]))
            target = rng.choice(sleepers)
            if target.is_alive:
                target.interrupt(cause=("hit", i))
                # Same-tick double interrupt on a random subset: both
                # deliveries must arrive, in order.
                if rng.random() < 0.3 and target.is_alive:
                    target.interrupt(cause=("hit-again", i))

    sim.process(agitator(), name="agitator")


@pytest.mark.parametrize("seed", range(5))
def test_interrupt_storm_matches_reference(seed):
    trace = run_pair(build_interrupt_storm, seed)
    assert any(entry[1] == "interrupted" for entry in trace)


@pytest.mark.parametrize("runner", ["run", "run_reference"])
def test_interrupt_before_run_starts_generator(runner):
    # interrupt() before run(): the bootstrap fires first and must
    # still *start* the generator; the Interrupt queued behind it then
    # lands at the first yield point, where the process can catch it
    # (the documented _Bootstrap semantics).  This cannot be caught
    # differentially — run and run_reference share the kernel — so the
    # body's execution is asserted directly.
    sim = Simulator()
    log = []

    def body():
        log.append("started")
        try:
            yield sim.timeout(1.0)
            log.append("slept")
        except Interrupt as exc:
            log.append(("caught", exc.cause))

    proc = sim.process(body(), name="pre-start-target")
    proc.interrupt(cause="pre-start")
    getattr(sim, runner)()
    assert log == ["started", ("caught", "pre-start")]
    assert proc.ok


def test_stacked_interrupts_before_run_all_arrive():
    # Two interrupts stacked before run(): the generator still starts,
    # and both deliveries arrive in order at successive yield points.
    sim = Simulator()
    log = []

    def body():
        log.append("started")
        for _ in range(2):
            try:
                yield sim.timeout(1.0)
                log.append("slept")
            except Interrupt as exc:
                log.append(("caught", exc.cause))

    proc = sim.process(body(), name="stacked-target")
    proc.interrupt(cause="first")
    proc.interrupt(cause="second")
    sim.run()
    assert log == ["started", ("caught", "first"), ("caught", "second")]
    assert proc.ok


# ----------------------------------------------------------------------
# Combinators and failures
# ----------------------------------------------------------------------

def build_combinator_storm(sim, rng, trace):
    def racer(rid):
        for i in range(rng.randrange(3, 8)):
            events = [
                sim.timeout(rng.choice([1e-6, 2e-6, 3e-6]), value=(rid, i, k))
                for k in range(rng.randrange(2, 5))
            ]
            combo = AnyOf(sim, events) if rng.random() < 0.5 else AllOf(
                sim, events
            )
            result = yield combo
            trace.append(
                (sim.now, "combo", rid, i, sorted(result.values()))
            )

    def faulty(fid):
        for i in range(rng.randrange(2, 6)):
            ev = sim.event()
            delay = rng.choice([1e-6, 5e-6])
            if rng.random() < 0.5:
                sim.process(_fail_later(ev, delay, (fid, i)))
                try:
                    yield ev
                except RuntimeError as exc:
                    trace.append((sim.now, "caught", fid, i, str(exc)))
            else:
                sim.process(_succeed_later(ev, delay, (fid, i)))
                got = yield ev
                trace.append((sim.now, "ok", fid, i, got))

    def _fail_later(ev, delay, tag):
        yield sim.timeout(delay)
        ev.fail(RuntimeError(f"boom-{tag}"))

    def _succeed_later(ev, delay, tag):
        yield sim.timeout(delay)
        ev.succeed(tag)

    for rid in range(5):
        sim.process(racer(rid), name=f"racer-{rid}")
    for fid in range(5):
        sim.process(faulty(fid), name=f"faulty-{fid}")


@pytest.mark.parametrize("seed", range(5))
def test_combinator_storm_matches_reference(seed):
    trace = run_pair(build_combinator_storm, seed)
    kinds = {entry[1] for entry in trace}
    assert "combo" in kinds


# ----------------------------------------------------------------------
# Resource churn with cancellations and pooled-slot reuse
# ----------------------------------------------------------------------

def build_resource_churn(sim, rng, trace):
    from repro.sim.resources import ConditionVariable, Resource, Store

    res = Resource(sim, capacity=2)
    store = Store(sim)
    cv = ConditionVariable(sim)

    def contender(cid):
        for i in range(rng.randrange(3, 9)):
            req = res.request()
            if not req.triggered and rng.random() < 0.3:
                # Cancel a queued request, then immediately schedule a
                # pooled timeout: the recycled Event slot must come
                # back clean (stale callbacks would fire here).
                res.cancel(req)
                trace.append((sim.now, "cancelled", cid, i))
                yield sim.timeout(1e-6)
                continue
            yield req
            trace.append((sim.now, "granted", cid, i))
            yield sim.timeout(rng.choice([1e-6, 2e-6, 4e-6]))
            res.release(req)

    def producer():
        for i in range(15):
            yield sim.timeout(rng.choice([1e-6, 3e-6]))
            store.put(("item", i))
            cv.notify_all()

    def consumer(cid):
        for _ in range(5):
            got = yield store.get()
            trace.append((sim.now, "consumed", cid, got))

    for cid in range(6):
        sim.process(contender(cid), name=f"contender-{cid}")
    sim.process(producer(), name="producer")
    for cid in range(3):
        sim.process(consumer(cid), name=f"consumer-{cid}")


@pytest.mark.parametrize("seed", range(5))
def test_resource_churn_matches_reference(seed):
    trace = run_pair(build_resource_churn, seed)
    kinds = {entry[1] for entry in trace}
    assert "granted" in kinds and "consumed" in kinds


# ----------------------------------------------------------------------
# Deep calendars and batch-trigger contracts
# ----------------------------------------------------------------------

BIMODAL_PROCS = 10
BIMODAL_FAR_PER_PROC = 5000


def build_bimodal_depth(sim, rng, trace):
    """The bimodal event-loop bench's shape, observed.

    Each near tick leaves one far deadline behind, and the far frontier
    recedes quadratically, so tens of thousands of buckets are pending
    at the deepest point.  Every insertion draws a ticket from one
    counter and every dispatch logs ``(now, ticket)``: dispatch order
    is ``(deadline, insertion)`` order exactly when the log is sorted.
    """
    tickets = itertools.count()

    def observe(ticket):
        trace.append((sim.now, ticket))

    def mixed(n, jitter):
        for i in range(n):
            sim.call_later(
                50.0 + i * i * 1e-3 + jitter, observe, next(tickets)
            )
            observe((yield sim.timeout(1e-6, value=next(tickets))))

    for p in range(BIMODAL_PROCS):
        sim.process(
            mixed(BIMODAL_FAR_PER_PROC, rng.random() * 1e-6),
            name=f"mixed-{p}",
        )


def test_deep_bimodal_calendar_matches_reference():
    trace = run_pair(build_bimodal_depth, 0)[:-1]
    assert len(trace) == 2 * BIMODAL_PROCS * BIMODAL_FAR_PER_PROC
    assert trace == sorted(trace)


def test_deep_bimodal_calendar_step_and_peek_agree():
    # Driven one step at a time, each step dispatches at the time peek()
    # announced, in the order run() dispatches; the calendar gets deeper
    # than 2,048 pending buckets on the way.
    sim = Simulator()
    stepped = []
    build_bimodal_depth(sim, random.Random(0), stepped)
    deepest = 0
    while sim.peek() != float("inf"):
        due = sim.peek()
        sim.step()
        assert sim.now == due
        deepest = max(deepest, sim.stats()["pending_buckets"])
    assert deepest > 2048
    ran = []
    sim = Simulator()
    build_bimodal_depth(sim, random.Random(0), ran)
    sim.run()
    assert stepped == ran


def _build_huge_deadline_behind_dense_block(sim, trace):
    # 2,500 buckets at microsecond spacing, then a deadline near 1e15
    # scheduled from inside the block (float64 spacing there is 0.125,
    # coarser than the whole block).
    def log(_value):
        trace.append(sim.now)

    def driver():
        yield sim.timeout(0.5e-6)
        sim.call_later(1e15, log)

    for i in range(2500):
        sim.call_later(1e-6 * (i + 1), log)
    sim.process(driver(), name="far-driver")


@pytest.mark.parametrize("runner", ["run", "run_reference"])
def test_huge_deadline_behind_dense_block_dispatches_in_order(runner):
    sim = Simulator()
    trace = []
    _build_huge_deadline_behind_dense_block(sim, trace)
    getattr(sim, runner)()
    assert len(trace) == 2501
    assert trace == sorted(trace)
    assert sim.now == trace[-1] == 1e15
    assert sim.peek() == float("inf")


def test_huge_deadline_behind_dense_block_under_step():
    sim = Simulator()
    trace = []
    _build_huge_deadline_behind_dense_block(sim, trace)
    steps = 0
    while sim.peek() != float("inf"):
        sim.step()
        steps += 1
        assert steps < 10000
    assert trace == sorted(trace)
    assert sim.now == trace[-1] == 1e15


def test_succeed_many_rejects_duplicate_events():
    from repro.sim.core import SimulationError

    sim = Simulator()
    first, dup = sim.event(), sim.event()
    with pytest.raises(SimulationError, match="already triggered"):
        sim.succeed_many([first, dup, dup])
    # Validation precedes mutation: nothing in the batch was triggered,
    # so every event is still usable.
    assert not first.triggered and not dup.triggered
    sim.succeed_many([first, dup], values=["a", "b"])
    sim.run()
    assert (first.value, dup.value) == ("a", "b")


def test_pool_reuse_after_cancellation_is_clean():
    # Deterministic distillation of the pooled-slot-reuse property: a
    # cancelled waiter's Event goes back to the pool; the next pooled
    # fetch must not observe the dead waiter's callback or value.
    from repro.sim.resources import Resource

    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def flaky():
        yield sim.timeout(1.0)
        req = res.request()
        assert not req.triggered
        res.cancel(req)
        log.append(("cancelled", sim.now))
        got = yield sim.timeout(1.0, value="clean")
        log.append((got, sim.now))

    sim.process(holder())
    sim.process(flaky())
    sim.run()
    assert log == [("cancelled", 1.0), ("clean", 2.0)]


# ----------------------------------------------------------------------
# Same-instant cascades, unwaited completions, delayed kick-offs
# ----------------------------------------------------------------------

def build_cascade_storm(sim, rng, trace):
    """Actors that cascade work at the current instant while other
    buckets at that instant may already be waiting.

    Each calendar insertion the storm can observe draws a ticket from
    one counter at the moment it is made, and its dispatch logs an
    ``("ord", now, ticket, tag)`` entry.  Ties break by insertion order,
    so those entries must come out sorted.  Observations that are not
    one dispatch (a join of an already finished process, a generator
    started by an overtaking interrupt) log under other tags.
    """
    tickets = itertools.count()

    def observe(tag, ticket):
        trace.append(("ord", sim.now, ticket, tag))

    def child(steps):
        for _ in range(steps):
            ticket = next(tickets)
            got = yield sim.timeout(rng.choice([0.0, 1e-6]), value=ticket)
            observe("child-tick", got)
        # Stamped as the return inserts the completion (when waited).
        return next(tickets)

    def kicked(kid):
        trace.append(("started", sim.now, kid))
        try:
            got = yield sim.timeout(1e-6, value=next(tickets))
            observe("kicked-slept", got)
        except Interrupt as exc:
            observe("kicked-caught", exc.cause)

    def join(proc):
        alive = proc.is_alive
        got = yield proc
        if alive:
            observe("join", got)
        else:
            trace.append(("late-join", sim.now, got))

    def actor(aid):
        unwaited = []
        for i in range(rng.randrange(8, 20)):
            action = rng.random()
            if action < 0.2:
                ev = sim.event()
                ev.succeed(next(tickets))
                observe("succeed", (yield ev))
            elif action < 0.35:
                got = yield sim.timeout(0.0, value=next(tickets))
                observe("timeout0", got)
            elif action < 0.45:
                sim.call_later(
                    0.0, lambda got: observe("call0", got), next(tickets)
                )
            elif action < 0.65:
                delay = rng.choice([1e-6, 2e-6, 3e-6])
                got = yield sim.timeout(delay, value=next(tickets))
                observe("tick", got)
            elif action < 0.8:
                proc = sim.process(
                    child(rng.randrange(0, 3)), name=f"child-{aid}-{i}"
                )
                if rng.random() < 0.5:
                    yield from join(proc)
                else:
                    unwaited.append(proc)
            elif action < 0.9:
                delay = rng.choice([0.0, 1e-6, 2e-6])
                proc = sim.process(
                    kicked((aid, i)), name=f"kicked-{aid}-{i}", delay=delay
                )
                if rng.random() < 0.4:
                    proc.interrupt(next(tickets))
                    if delay > 0.0:
                        trace.append(("overtaken", sim.now, (aid, i)))
            elif unwaited:
                yield from join(unwaited.pop(0))
        for proc in unwaited:
            yield from join(proc)
        trace.append(("done", aid))

    for aid in range(CASCADE_ACTORS):
        sim.process(actor(aid), name=f"actor-{aid}")


CASCADE_ACTORS = 8


@pytest.mark.parametrize("seed", range(8))
def test_cascade_storm_matches_reference(seed):
    trace = run_pair(build_cascade_storm, seed)
    observed = [(entry[1], entry[2]) for entry in trace if entry[0] == "ord"]
    assert observed == sorted(set(observed))
    done = [entry for entry in trace if entry[0] == "done"]
    assert len(done) == CASCADE_ACTORS
    tags = {entry[3] for entry in trace if entry[0] == "ord"}
    assert {"succeed", "timeout0", "call0", "join"} <= tags
    assert any(entry[0] == "late-join" for entry in trace)


def test_cascade_storm_covers_overtaken_kickoffs():
    # An interrupt that overtakes a delayed kick-off starts the
    # generator in the interrupt's instant, not at the deadline.
    overtaken = 0
    for seed in range(8):
        trace = run_pair(build_cascade_storm, seed)
        started = {e[2]: e[1] for e in trace if e[0] == "started"}
        for entry in trace:
            if entry[0] == "overtaken":
                overtaken += 1
                assert started[entry[2]] == entry[1]
    assert overtaken > 0
