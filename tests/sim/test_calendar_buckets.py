"""Calendar buckets are fresh lists, and every delay entry point refuses NaN.

A bucket is opened as a new list and dropped once dispatched; no list
is recycled, so a retired bucket must never stay the insertion cache.
A delay is checked as ``not delay >= 0.0``: NaN fails that test, where
``delay < 0.0`` let it through to put a ``nan`` deadline on the
calendar (which then fired first, set the clock to ``nan``, and let
it go back to the next finite deadline).
"""

import pytest

from repro.gpu.kernel import Kernel
from repro.host.cpu import HostCpu
from repro.sim import Simulator, SimulationError, Timeout

NAN = float("nan")


class TestFreshBuckets:
    def test_run_until_ends_after_the_last_bucket_at_until(self):
        sim = Simulator()
        log = []
        sim.call_later(1.0, log.append, "a")
        sim.call_later(1.0, log.append, "b")
        sim.call_later(2.0, log.append, "late")
        sim.run(until=1.0)
        assert log == ["a", "b"]
        assert sim.now == 1.0
        buckets = sim.stats()["buckets"]
        # The dispatched bucket is gone: a zero-delay call at the same
        # instant opens a new bucket and waits for the next run.
        sim.call_later(0.0, log.append, "again")
        assert sim.stats()["buckets"] == buckets + 1
        assert log == ["a", "b"]
        assert sim.peek() == 1.0
        sim.run(until=1.5)
        assert log == ["a", "b", "again"]
        sim.run()
        assert log == ["a", "b", "again", "late"]

    def test_succeed_many_returns_a_list_that_is_not_the_bucket(self):
        sim = Simulator()
        events = [sim.event() for _ in range(3)]
        woken = []
        for i, ev in enumerate(events):
            ev.add_callback(lambda ev, i=i: woken.append(i))
        returned = sim.succeed_many(events)
        assert returned == events
        returned.clear()
        returned.append(sim.event())
        sim.run()
        assert woken == [0, 1, 2]

    def test_succeed_many_into_the_cached_bucket(self):
        sim = Simulator()
        woken = []
        first = sim.event()
        first.add_callback(lambda ev: woken.append("first"))
        first.succeed()
        events = [sim.event() for _ in range(2)]
        for i, ev in enumerate(events):
            ev.add_callback(lambda ev, i=i: woken.append(i))
        returned = sim.succeed_many(events)
        returned.reverse()
        sim.run()
        assert woken == ["first", 0, 1]
        assert sim.stats()["buckets"] == 1

    def test_stats_keys(self):
        sim = Simulator()
        sim.timeout(1.0)
        stats = sim.stats()
        assert set(stats) == {
            "now",
            "buckets",
            "pending_buckets",
            "cursor_open",
            "pooled_timeouts",
            "pooled_events",
            "pooled_calls",
            "timeout_allocs",
            "event_allocs",
            "max_pool",
        }
        assert stats["buckets"] == 1
        assert stats["pending_buckets"] == 1
        assert stats["cursor_open"] is False

    def test_step_retires_its_bucket(self):
        sim = Simulator()
        log = []
        sim.call_later(1.0, log.append, 1)
        sim.call_later(1.0, log.append, 2)
        sim.step()
        assert sim.stats()["cursor_open"] is True
        sim.step()
        assert sim.stats()["cursor_open"] is False
        sim.call_later(0.0, log.append, 3)
        sim.run()
        assert log == [1, 2, 3]


class TestNanDelays:
    def test_timeout(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(NAN)
        with pytest.raises(SimulationError):
            Timeout(sim, NAN)
        assert sim.stats()["buckets"] == 0

    def test_call_later_leaves_the_clock_alone(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, 1.0)
        sim.call_later(2.0, fired.append, 2.0)
        with pytest.raises(SimulationError):
            sim.call_later(NAN, fired.append, "nan")
        times = []
        sim.call_later(1.0, lambda _: times.append(sim.now))
        sim.call_later(2.0, lambda _: times.append(sim.now))
        sim.run()
        assert fired == [1.0, 2.0]
        assert times == [1.0, 2.0]

    def test_timeout_chain(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout_chain([0.5, NAN, 0.5])
        assert sim.stats()["buckets"] == 0

    def test_process_delay(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)

        with pytest.raises(SimulationError):
            sim.process(body(), delay=NAN)
        assert sim.stats()["buckets"] == 0

    def test_kernel_duration(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Kernel(sim, "j", 1, NAN)

    def test_cpu_duration(self):
        sim = Simulator()
        cpu = HostCpu(sim, n_cores=2)
        errors = []

        def body():
            try:
                yield from cpu.execute(NAN)
            except ValueError as exc:
                errors.append(exc)

        sim.process(body())
        sim.run()
        assert len(errors) == 1
        assert cpu.busy_time == 0.0
        assert cpu.cores._in_use == 0
