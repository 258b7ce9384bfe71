"""Unit tests for the host CPU model and the inter-op thread pool."""

import pytest

from repro.host import HostCpu, ThreadPool, ThreadPoolExhausted


class TestHostCpu:
    def test_execute_takes_duration(self, sim):
        cpu = HostCpu(sim, n_cores=1)
        done = []

        def worker():
            yield from cpu.execute(1.0)
            done.append(sim.now)

        sim.process(worker())
        sim.run()
        assert done == [1.0]

    def test_cores_limit_parallelism(self, sim):
        cpu = HostCpu(sim, n_cores=2)
        done = []

        def worker(tag):
            yield from cpu.execute(1.0)
            done.append((sim.now, tag))

        for tag in range(4):
            sim.process(worker(tag))
        sim.run()
        assert [t for t, _ in done] == [1.0, 1.0, 2.0, 2.0]

    def test_busy_time_accumulates(self, sim):
        cpu = HostCpu(sim, n_cores=4)

        def worker():
            yield from cpu.execute(0.5)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert cpu.busy_time == pytest.approx(1.5)

    def test_negative_duration_rejected(self, sim):
        cpu = HostCpu(sim, n_cores=1)

        def worker():
            yield from cpu.execute(-1.0)

        sim.process(worker())
        with pytest.raises(ValueError):
            sim.run()

    def test_free_core_is_claimed_inline(self, sim):
        # A free core is taken without a Request: the node's only
        # calendar event is its compute timeout.  The second node finds
        # every core busy and queues behind the first.
        cpu = HostCpu(sim, n_cores=1)
        seen = []

        def worker(tag):
            yield from cpu.execute(1.0)
            seen.append((sim.now, tag, cpu.cores.in_use))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.step()  # a's kick-off: claims the core, sleeps
        assert cpu.cores.in_use == 1 and cpu.cores.queue_length == 0
        sim.step()  # b's kick-off: every core busy, queues
        assert cpu.cores.queue_length == 1
        # No grant event at t=0: next is a's compute timeout.
        assert sim.peek() == 1.0
        sim.run()
        # a hands its core straight to b; b gives it back.
        assert seen == [(1.0, "a", 1), (2.0, "b", 0)]


class TestThreadPool:
    def test_fetch_and_release(self):
        pool = ThreadPool(size=2)
        ticket = pool.fetch()
        assert pool.in_use == 1
        ticket.release()
        assert pool.in_use == 0

    def test_double_release_is_idempotent(self):
        pool = ThreadPool(size=2)
        ticket = pool.fetch()
        ticket.release()
        ticket.release()
        assert pool.in_use == 0

    def test_exhaustion_try_fetch_returns_none(self):
        pool = ThreadPool(size=1)
        assert pool.try_fetch() is not None
        assert pool.try_fetch() is None
        assert pool.saturation_events == 1

    def test_exhaustion_fetch_raises(self):
        pool = ThreadPool(size=1)
        pool.fetch()
        with pytest.raises(ThreadPoolExhausted):
            pool.fetch()

    def test_peak_tracking(self):
        pool = ThreadPool(size=10)
        tickets = [pool.fetch() for _ in range(7)]
        for ticket in tickets[:5]:
            ticket.release()
        pool.fetch()
        assert pool.peak_in_use == 7

    def test_saturated_flag(self):
        pool = ThreadPool(size=1)
        ticket = pool.fetch()
        assert pool.saturated
        ticket.release()
        assert not pool.saturated

    def test_total_fetches_counts_failures(self):
        pool = ThreadPool(size=1)
        pool.try_fetch()
        pool.try_fetch()
        assert pool.total_fetches == 2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ThreadPool(size=0)
