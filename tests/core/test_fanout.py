"""The ordered process fan-out: input order, and its serial fallbacks."""

import multiprocessing
import multiprocessing.pool
import threading

import pytest

from repro.core.fanout import ordered_map, usable_cpus


def _square(x):
    return x * x


def _pid(_item):
    import os

    return os.getpid()


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a pool")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)


class TestOrderedMap:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_results_come_back_in_input_order(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        items = list(range(7, -1, -1))
        assert ordered_map(_square, items, 2, method) == [x * x for x in items]
        assert multiprocessing.active_children() == []

    def test_pool_workers_run_the_items(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method here")
        import os

        assert os.getpid() not in ordered_map(_pid, range(4), 2, "fork")

    def test_usable_cpus_is_positive(self):
        assert usable_cpus() >= 1


class TestSerialFallbacks:
    def test_one_process(self, no_pool):
        assert ordered_map(_square, [1, 2, 3], 1, "fork") == [1, 4, 9]

    def test_one_item(self, no_pool):
        assert ordered_map(_square, [3], 8, "fork") == [9]

    def test_unknown_start_method(self, no_pool):
        assert ordered_map(_square, [1, 2], 2, "no-such-method") == [1, 4]

    def test_daemonic_caller(self, no_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert ordered_map(_square, [1, 2], 2, "fork") == [1, 4]

    def test_fork_with_other_threads_running(self, no_pool):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert ordered_map(_square, [1, 2], 2, "fork") == [1, 4]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
