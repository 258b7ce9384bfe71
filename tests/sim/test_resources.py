"""Unit tests for Resource, Store, ConditionVariable."""

import pytest

from repro.sim import ConditionVariable, Resource, SimulationError, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_grant_when_free(self, sim):
        res = Resource(sim, capacity=2)
        req = res.request()
        assert req.triggered
        assert res.in_use == 1
        assert res.available == 1

    def test_queue_when_full(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        assert first.triggered
        assert not second.triggered
        assert res.queue_length == 1

    def test_release_grants_next_waiter_fifo(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        res.release(first)
        assert second.triggered
        assert not third.triggered

    def test_release_foreign_request_raises(self, sim):
        res_a = Resource(sim, capacity=1)
        res_b = Resource(sim, capacity=1)
        req = res_a.request()
        with pytest.raises(SimulationError):
            res_b.release(req)

    def test_over_release_raises(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_release_slot_hands_off_and_checks_underflow(self, sim):
        # The release half of a slot claimed inline, without a Request.
        res = Resource(sim, capacity=1)
        res._in_use += 1
        waiter = res.request()
        assert not waiter.triggered
        res.release_slot()
        assert waiter.triggered and res.in_use == 1
        res.release(waiter)
        assert res.in_use == 0
        with pytest.raises(SimulationError, match="more than acquired"):
            res.release_slot()

    def test_try_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.try_request()
        assert first is not None
        assert res.try_request() is None
        res.release(first)
        assert res.try_request() is not None

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        queued = res.request()
        res.cancel(queued)
        assert res.queue_length == 0

    def test_cancel_granted_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        granted = res.request()
        with pytest.raises(SimulationError):
            res.cancel(granted)

    def test_contention_serialises_work(self, sim):
        res = Resource(sim, capacity=1)
        done = []

        def worker(tag):
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            done.append((sim.now, tag))
            res.release(req)

        for tag in range(3):
            sim.process(worker(tag))
        sim.run()
        assert done == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_capacity_two_runs_pairs(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def worker(tag):
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            done.append((sim.now, tag))
            res.release(req)

        for tag in range(4):
            sim.process(worker(tag))
        sim.run()
        assert [t for t, _ in done] == [1.0, 1.0, 2.0, 2.0]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["a"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        def putter():
            yield sim.timeout(2.0)
            store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [(2.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        got = []

        def getter():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        assert store.try_get() == 1
        assert store.try_get() is None

    def test_len_and_items(self, sim):
        store = Store(sim)
        store.put("x")
        store.put("y")
        assert len(store) == 2
        assert store.items == ["x", "y"]

    def test_multiple_getters_fifo(self, sim):
        store = Store(sim)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(getter("first"))
        sim.process(getter("second"))
        sim.run()
        store.put(1)
        store.put(2)
        sim.run()
        assert got == [("first", 1), ("second", 2)]


class TestConditionVariable:
    def test_notify_all_wakes_everyone(self, sim):
        cv = ConditionVariable(sim)
        woken = []

        def waiter(tag):
            # Exercises the bare primitive, no predicate by design.
            yield cv.wait()  # lint: disable=CON001
            woken.append((sim.now, tag))

        for tag in range(3):
            sim.process(waiter(tag))
        sim.run()
        assert cv.waiting == 3
        count = cv.notify_all()
        assert count == 3
        sim.run()
        assert sorted(tag for _, tag in woken) == [0, 1, 2]

    def test_notify_with_wake_latency(self, sim):
        cv = ConditionVariable(sim)
        woken = []

        def waiter():
            # Exercises the bare primitive, no predicate by design.
            yield cv.wait()  # lint: disable=CON001
            woken.append(sim.now)

        sim.process(waiter())
        sim.run()
        cv.notify_all(wake_latency=0.5)
        sim.run()
        assert woken == [0.5]

    def test_delayed_wake_is_one_timer_not_a_process(self, sim):
        cv = ConditionVariable(sim)
        woken = []

        def waiter(tag):
            # Exercises the bare primitive, no predicate by design.
            yield cv.wait()  # lint: disable=CON001
            woken.append((sim.now, tag))

        for tag in range(3):
            sim.process(waiter(tag))
        sim.run()

        def no_process(*args, **kwargs):
            raise AssertionError("a delayed wake started a process")

        sim.process = no_process
        assert cv.notify_all(wake_latency=0.5) == 3
        sim.run()
        assert woken == [(0.5, 0), (0.5, 1), (0.5, 2)]

    def test_notify_one_fifo(self, sim):
        cv = ConditionVariable(sim)
        woken = []

        def waiter(tag):
            # Exercises the bare primitive, no predicate by design.
            yield cv.wait()  # lint: disable=CON001
            woken.append(tag)

        for tag in range(2):
            sim.process(waiter(tag))
        sim.run()
        assert cv.notify_one()
        sim.run()
        assert woken == [0]
        assert cv.waiting == 1

    def test_notify_one_empty_returns_false(self, sim):
        cv = ConditionVariable(sim)
        assert not cv.notify_one()

    def test_waiters_after_notify_wait_for_next(self, sim):
        cv = ConditionVariable(sim)
        cv.notify_all()
        woken = []

        def late_waiter():
            # Exercises the bare primitive, no predicate by design.
            yield cv.wait()  # lint: disable=CON001
            woken.append(sim.now)

        sim.process(late_waiter())
        sim.run()
        assert woken == []  # missed the earlier notify
        cv.notify_all()
        sim.run()
        assert woken == [0.0]
