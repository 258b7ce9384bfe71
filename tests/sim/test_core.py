"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    Timeout,
)


class TestClockAndRun:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_queue_returns(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_event_time(self, sim):
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        log = []

        def proc():
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [2.5]

    def test_timeout_value_passed_to_process(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, sim):
        log = []

        def proc():
            yield sim.timeout(0.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0.0]

    def test_timeouts_fire_in_order(self, sim):
        log = []

        def proc(delay):
            yield sim.timeout(delay)
            log.append(delay)

        for delay in (3.0, 1.0, 2.0):
            sim.process(proc(delay))
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_ties_break_by_creation_order(self, sim):
        log = []

        def proc(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]


def _mixed_program(sim, log):
    """Sleepers and timed callbacks interleaved at shared deadlines."""

    def sleeper(tag, delay):
        yield sim.timeout(delay)
        log.append((sim.now, "sleep", tag))
        sim.call_later(0.0, lambda value: log.append((sim.now, "cb0", value)), tag)

    def call(tag):
        log.append((sim.now, "call", tag))
        if tag < 40:
            sim.call_later(0.5 * (tag % 3), call, tag + 3)

    for tag in range(3):
        sim.call_later(1.0, call, tag)
        sim.process(sleeper(tag, 1.0))
        sim.process(sleeper(tag + 10, 1.5))


class TestCallLater:
    def test_runs_callback_with_value_at_deadline(self, sim):
        seen = []
        sim.call_later(2.5, lambda value: seen.append((sim.now, value)), "x")
        sim.run()
        assert seen == [(2.5, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, print)

    def test_orders_like_a_timeout_made_at_the_same_moment(self, sim):
        log = []

        def sleeper(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        sim.process(sleeper("a"))
        sim.run(until=0.5)
        # Both are created at t=0.5: the timeout first, then the call.
        sim.process(sleeper("b"))
        sim.step()  # starts b: its timeout enters the calendar
        sim.call_later(1.0, log.append, "call")
        sim.process(sleeper("c"))
        sim.run()
        assert log == ["a", "b", "call", "c"]

    def test_active_process_is_none_inside_callback(self, sim):
        seen = []

        def proc():
            sim.call_later(0.0, lambda _: seen.append(sim.active_process))
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert seen == [None]

    @pytest.mark.parametrize("runner", ["run_reference", "guarded"])
    def test_every_dispatch_loop_agrees(self, runner):
        logs = {}
        for name in ("run", runner):
            sim = Simulator()
            log = []
            _mixed_program(sim, log)
            if name == "guarded":
                sim.run(max_steps=10_000)
            else:
                getattr(sim, name)()
            logs[name] = log
        assert logs[runner] == logs["run"]
        assert len(logs["run"]) > 20

    @pytest.mark.parametrize("runner", ["run", "run_reference"])
    def test_dispatched_calls_are_recycled(self, runner):
        sim = Simulator()
        count = [0]

        def tick(n):
            count[0] += 1
            if n:
                sim.call_later(1e-6, tick, n - 1)

        sim.call_later(0.0, tick, 10_000)
        getattr(sim, runner)()
        assert count[0] == 10_001
        assert sim.pools.timeout_allocs == 1
        assert sim.pools.stats()["pooled_calls"] == 1


class TestEvent:
    def test_succeed_wakes_waiter_with_value(self, sim):
        event = sim.event()
        got = []

        def waiter():
            value = yield event
            got.append((sim.now, value))

        def trigger():
            yield sim.timeout(4.0)
            event.succeed(42)

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == [(4.0, 42)]

    def test_succeed_twice_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        event.fail(ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_multiple_waiters_all_wake(self, sim):
        event = sim.event()
        woken = []

        def waiter(tag):
            yield event
            woken.append(tag)

        for tag in range(5):
            sim.process(waiter(tag))
        event.succeed()
        sim.run()
        assert woken == [0, 1, 2, 3, 4]

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        got = []
        event.add_callback(lambda e: got.append(e.value))
        assert got == ["x"]

    def test_triggered_and_ok_flags(self, sim):
        event = sim.event()
        assert not event.triggered
        event.succeed(1)
        assert event.triggered and event.ok


class TestProcess:
    def test_process_return_value_is_event_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        got = []

        def parent():
            value = yield sim.process(child())
            got.append(value)

        sim.process(parent())
        sim.run()
        assert got == ["done"]

    def test_process_is_alive_until_finished(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def body():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append((sim.now, exc.cause))

        proc = sim.process(body())

        def interrupter():
            yield sim.timeout(2.0)
            proc.interrupt("reason")

        sim.process(interrupter())
        sim.run()
        assert caught == [(2.0, "reason")]

    def test_interrupt_finished_process_is_noop(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        sim.run()
        proc.interrupt()  # must not raise
        sim.run()

    def test_uncaught_interrupt_terminates_cleanly(self, sim):
        def body():
            yield sim.timeout(100.0)

        proc = sim.process(body())
        proc.interrupt()
        sim.run()
        assert proc.triggered

    def test_nested_processes(self, sim):
        order = []

        def leaf(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)
            return tag

        def branch():
            a = yield sim.process(leaf("a", 1.0))
            b = yield sim.process(leaf("b", 1.0))
            return a + b

        result = []

        def root():
            value = yield sim.process(branch())
            result.append((sim.now, value))

        sim.process(root())
        sim.run()
        assert order == ["a", "b"]
        assert result == [(2.0, "ab")]


RUNNERS = ["run", "run_reference"]


class TestDelayedKickoff:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_starts_at_its_deadline(self, runner):
        sim = Simulator()
        log = []

        def body():
            log.append(("started", sim.now))
            yield sim.timeout(1.0)

        sim.process(body(), delay=2.5)
        getattr(sim, runner)()
        assert log == [("started", 2.5)]
        assert sim.now == 3.5

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_takes_the_calendar_position_of_a_timeout(self, runner):
        # A timeout made just before the spawn fires first, one made
        # just after fires second: the kick-off sits between them.
        sim = Simulator()
        log = []

        def waiter(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        def body():
            log.append("kicked")
            yield sim.timeout(0.0)

        def spawner():
            sim.process(waiter("before"))
            yield sim.timeout(0.0)
            sim.timeout(1.0).add_callback(lambda ev: log.append("cb-before"))
            sim.process(body(), delay=1.0)
            sim.timeout(1.0).add_callback(lambda ev: log.append("cb-after"))

        sim.process(spawner())
        getattr(sim, runner)()
        assert log == ["before", "cb-before", "kicked", "cb-after"]

    def test_negative_delay_rejected(self, sim):
        def body():
            yield sim.timeout(1.0)

        with pytest.raises(SimulationError, match="negative process delay"):
            sim.process(body(), delay=-1e-9)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_interrupt_before_deadline_starts_generator(self, runner):
        # The delayed twin of test_interrupt_before_run_starts_generator
        # (tests/sim/test_differential.py): the interrupt overtakes the
        # kick-off, so the generator starts when the interrupt arrives
        # and the Interrupt lands at its first yield, where it is caught.
        sim = Simulator()
        log = []

        def body():
            log.append(("started", sim.now))
            try:
                yield sim.timeout(1.0)
                log.append("slept")
            except Interrupt as exc:
                log.append(("caught", exc.cause, sim.now))
            yield sim.timeout(0.5)
            log.append(("resumed", sim.now))

        def agitator(proc):
            yield sim.timeout(1.0)
            proc.interrupt(cause="early")

        proc = sim.process(body(), name="late-target", delay=3.0)
        sim.process(agitator(proc))
        getattr(sim, runner)()
        # The stale kick-off at t=3.0 and the stale timeout at t=2.0 are
        # both ignored.
        assert log == [
            ("started", 1.0),
            ("caught", "early", 1.0),
            ("resumed", 1.5),
        ]
        assert proc.ok
        assert sim.now == 3.0

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_interrupt_before_run_on_delayed_kickoff(self, runner):
        sim = Simulator()
        log = []

        def body():
            log.append("started")
            try:
                yield sim.timeout(1.0)
            except Interrupt as exc:
                log.append(("caught", exc.cause, sim.now))

        proc = sim.process(body(), delay=2.0)
        proc.interrupt(cause="pre-start")
        getattr(sim, runner)()
        assert log == ["started", ("caught", "pre-start", 0.0)]
        assert proc.ok


class TestUnwaitedCompletion:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_late_join_resumes_in_the_same_instant(self, runner):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(1.0)
            return "result"

        def parent(proc):
            yield sim.timeout(2.0)
            assert not proc.is_alive
            got = yield proc
            log.append((sim.now, got))
            yield sim.timeout(0.0)
            log.append((sim.now, "after"))

        proc = sim.process(child())
        sim.process(parent(proc))
        getattr(sim, runner)()
        assert log == [(2.0, "result"), (2.0, "after")]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_flags_read_as_before(self, runner):
        sim = Simulator()
        seen = []

        def child():
            yield sim.timeout(1.0)
            return 42

        proc = sim.process(child())
        seen.append((proc.is_alive, proc.triggered, proc.processed))
        getattr(sim, runner)(until=0.5)
        seen.append((proc.is_alive, proc.triggered, proc.processed))
        getattr(sim, runner)()
        assert seen == [(True, False, False), (True, False, False)]
        assert not proc.is_alive
        assert proc.triggered and proc.processed and proc.ok
        assert proc.value == 42
        late = []
        proc.add_callback(lambda ev: late.append(ev.value))
        assert late == [42]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_completion_puts_nothing_on_the_calendar(self, runner):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)

        sim.process(child())
        getattr(sim, runner)(until=1.0)
        # The bootstrap bucket and the timeout's: nothing at t=1.0 after.
        assert sim.stats()["buckets"] == 2
        assert sim.peek() == float("inf")

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_waited_process_still_completes_through_the_calendar(
        self, runner
    ):
        # The joiner waits, so the completion is an event at t=1.0 that
        # queues behind the callback registered at the same instant.
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(1.0)
            sim.timeout(0.0).add_callback(lambda ev: log.append("cb"))
            return "done"

        def joiner():
            got = yield sim.process(child())
            log.append(got)

        sim.process(joiner())
        getattr(sim, runner)()
        assert log == ["cb", "done"]


class TestCombinators:
    def test_any_of_fires_on_first(self, sim):
        got = []

        def proc():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(5.0, value="slow")
            result = yield sim.any_of([t1, t2])
            got.append((sim.now, list(result.values())))

        sim.process(proc())
        sim.run()
        assert got[0][0] == 1.0
        assert got[0][1] == ["fast"]

    def test_all_of_waits_for_all(self, sim):
        got = []

        def proc():
            t1 = sim.timeout(1.0)
            t2 = sim.timeout(5.0)
            yield sim.all_of([t1, t2])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [5.0]

    def test_empty_any_of_fires_immediately(self, sim):
        got = []

        def proc():
            yield sim.any_of([])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [0.0]

    def test_empty_all_of_fires_immediately(self, sim):
        got = []

        def proc():
            yield sim.all_of([])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [0.0]


class TestDeterminism:
    def test_identical_programs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(tag, delay):
                yield sim.timeout(delay)
                log.append((sim.now, tag))
                yield sim.timeout(delay / 2)
                log.append((sim.now, tag))

            for i in range(10):
                sim.process(worker(i, 0.1 * (i + 1)))
            sim.run()
            return log

        assert build_and_run() == build_and_run()

    def test_run_until_stops_midway(self, sim):
        log = []

        def worker():
            for _ in range(10):
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.process(worker())
        sim.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 4.5
        sim.run()
        assert len(log) == 10


class TestCombinatorEdgeCases:
    def test_any_of_with_failed_event_raises(self, sim):
        caught = []

        def proc():
            bad = sim.event()
            good = sim.timeout(10.0)
            combo = sim.any_of([bad, good])
            bad.fail(RuntimeError("boom"))
            try:
                yield combo
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        sim.run()
        # AnyOf fires when the failed event fires; reading its dict of
        # values raises the failure at the waiter.
        assert caught == ["boom"]

    def test_all_of_collects_every_value(self, sim):
        got = {}

        def proc():
            a = sim.timeout(1.0, value="a")
            b = sim.timeout(2.0, value="b")
            result = yield sim.all_of([a, b])
            got.update({v for v in result.values()} and result)

        sim.process(proc())
        sim.run()
        assert sorted(got.values()) == ["a", "b"]

    def test_interrupt_while_waiting_on_resource(self, sim):
        from repro.sim import Resource, Interrupt

        resource = Resource(sim, capacity=1)
        holder_req = resource.request()
        outcomes = []

        def waiter():
            req = resource.request()
            try:
                yield req
            except Interrupt:
                resource.cancel(req)
                outcomes.append("interrupted")

        proc = sim.process(waiter())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(interrupter())
        sim.run()
        assert outcomes == ["interrupted"]
        # The queue was cleaned up: releasing the holder leaves the
        # resource fully free.
        resource.release(holder_req)
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_process_exception_propagates_to_run(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inside process")

        sim.process(bad())
        with pytest.raises(ValueError, match="inside process"):
            sim.run()

    def test_joining_failed_process_raises_at_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                caught.append(str(exc))

        # The child's exception propagates out of the simulator run; the
        # parent never observes it (fail-fast semantics, matching real
        # crashed threads taking the program down).
        sim.process(parent())
        with pytest.raises(ValueError):
            sim.run()
