"""Unit tests for the session executor (Algorithm 1)."""

import pytest

from repro.graph import GraphBuilder
from repro.serving import Job, ModelServer, ServerConfig, Session
from repro.sim import Simulator


def run_job(graph, batch=100, config=None):
    sim = Simulator()
    server = ModelServer(sim, config or ServerConfig(track_memory=False))
    server.load_model(graph)
    job = server.make_job("t", graph.name, batch)
    server.submit(job)
    sim.run()
    return sim, server, job


class TestExecution:
    def test_all_nodes_execute_exactly_once(self, diamond_graph):
        _, _, job = run_job(diamond_graph)
        assert job.complete
        assert job.nodes_executed == diamond_graph.num_nodes

    def test_gpu_node_count_tracked(self, diamond_graph):
        _, _, job = run_job(diamond_graph)
        assert job.gpu_nodes_executed == diamond_graph.num_gpu_nodes

    def test_done_event_fires_with_job(self, diamond_graph):
        sim = Simulator()
        server = ModelServer(sim, ServerConfig(track_memory=False))
        server.load_model(diamond_graph)
        job = server.make_job("t", diamond_graph.name, 100)
        got = []

        def waiter():
            result = yield server.submit(job)
            got.append(result)

        sim.process(waiter())
        sim.run()
        assert got == [job]

    def test_finish_after_all_kernels(self, diamond_graph):
        sim, server, job = run_job(diamond_graph)
        gpu_total = server.gpu_duration_of(job)
        assert job.finished_at >= gpu_total

    def test_zoo_graph_executes_fully(self, tiny_graph):
        _, server, job = run_job(tiny_graph)
        assert job.complete
        assert server.device.kernels_executed == tiny_graph.num_gpu_nodes

    def test_dependencies_respected(self):
        """A child kernel must start only after all parents finished."""
        b = GraphBuilder("deps")
        root = b.add("root", "decode", 1e-6, 100)
        slow = b.add("slow", "conv2d", 5e-3, 100, parents=[root])
        fast = b.add("fast", "elementwise", 1e-6, 100, parents=[root])
        join = b.add("join", "matmul", 1e-6, 100, parents=[slow, fast])
        graph = b.build()
        sim, server, job = run_job(graph)
        intervals = {iv.tag: iv for iv in server.tracer.intervals(job.job_id)}
        assert intervals[join.node_id].start >= intervals[slow.node_id].end

    def test_gang_threads_peak_reflects_width(self):
        b = GraphBuilder("wide")
        root = b.add("root", "decode", 1e-6, 100)
        branches = [
            b.add(f"br{i}", "conv2d", 1e-3, 100, parents=[root]) for i in range(6)
        ]
        b.add("join", "elementwise", 1e-6, 100, parents=branches)
        graph = b.build()
        _, _, job = run_job(graph)
        # main thread + spawned branch threads (first branch continues
        # inline on the parent's thread)
        assert job.gang_threads_peak >= 2

    def test_deep_chain_executes(self):
        b = GraphBuilder("chain")
        root = b.add("root", "decode", 1e-6, 100)
        b.chain("c", "conv2d", [1e-5] * 200, 100, root)
        _, _, job = run_job(b.build())
        assert job.complete

    def test_wide_fanout_executes(self):
        b = GraphBuilder("fan")
        root = b.add("root", "decode", 1e-6, 100)
        for i in range(100):
            b.add(f"leaf{i}", "elementwise", 1e-5, 100, parents=[root])
        _, _, job = run_job(b.build())
        assert job.complete


class TestPoolExhaustion:
    def test_tiny_pool_still_completes_inline(self, tiny_graph):
        """Algorithm 1: with no free threads, execution is delayed but
        correct — children run inline on the current thread."""
        config = ServerConfig(track_memory=False, pool_size=1)
        _, server, job = run_job(tiny_graph, config=config)
        assert job.complete
        assert server.pool.saturation_events > 0

    def test_pool_released_after_completion(self, tiny_graph):
        _, server, job = run_job(tiny_graph)
        assert server.pool.in_use == 0


class TestOnlineProfiling:
    def test_instrumentation_slows_execution(self, tiny_graph):
        _, _, clean = run_job(tiny_graph)
        config = ServerConfig(track_memory=False, online_profiling=True)
        _, _, online = run_job(tiny_graph, config=config)
        assert online.latency > clean.latency

    def test_observations_recorded(self, tiny_graph):
        config = ServerConfig(track_memory=False, online_profiling=True)
        _, server, job = run_job(tiny_graph, config=config)
        profile = server.observed_profile(tiny_graph.name, 100)
        assert len(profile.node_costs) == tiny_graph.num_gpu_nodes

    def test_no_observations_without_online(self, tiny_graph):
        _, server, _ = run_job(tiny_graph)
        with pytest.raises(KeyError):
            server.observed_profile(tiny_graph.name, 100)


class TestCompiledWalkerState:
    @staticmethod
    def branching_graph():
        b = GraphBuilder("branchy")
        root = b.add("root", "decode", 1e-6, 100)
        branches = [
            b.add(f"br{i}", "conv2d", 1e-4, 100, parents=[root]) for i in range(5)
        ]
        b.add("join", "elementwise", 1e-6, 100, parents=branches)
        return b.build()

    @pytest.mark.parametrize("online", [False, True])
    def test_slowdown_is_resolved_once_per_session(self, monkeypatch, online):
        """The walker's constant state is built with the session, not in
        every gang thread it spawns."""
        calls = []
        original = ModelServer.instrumentation_slowdown

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ModelServer, "instrumentation_slowdown", counted)
        graph = self.branching_graph()
        config = ServerConfig(track_memory=False, online_profiling=online)
        _, _, job = run_job(graph, config=config)
        assert job.complete
        # Four branches ran on spawned gang threads besides the session's.
        assert job.gang_threads_peak >= 3
        assert len(calls) == 1

    def test_trace_equals_the_reference_walker(self):
        """Same kernels, same bounds, same finish time (the job ids
        differ: they come from one process-wide counter)."""
        graph = self.branching_graph()
        traces = []
        for compiled in (True, False):
            config = ServerConfig(track_memory=False, compiled=compiled, seed=4)
            _, server, job = run_job(graph, config=config)
            assert job.complete
            starts, ends, tags = server.tracer.columns(job.job_id)
            traces.append(
                (list(starts), list(ends), list(tags), job.finished_at)
            )
        assert traces[0] == traces[1]
