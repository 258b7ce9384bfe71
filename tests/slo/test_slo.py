"""Tests for the SLO estimator and the gate's predictive SLO check."""

import pytest

from repro.core import (
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.graph import CostModel
from repro.serving import AdmissionConfig, AdmissionGate, ModelServer, ServerConfig
from repro.sim import Simulator
from repro.slo import FairShareEstimator


@pytest.fixture
def stack(tiny_graph):
    sim = Simulator()
    costs = CostModel(noise=0.0).exact(tiny_graph, 100)
    profile = OlympianProfile.from_cost_profile(
        costs, gpu_duration=tiny_graph.gpu_duration(100)
    )
    store = ProfileStore()
    store.add(profile)
    scheduler = OlympianScheduler(sim, FairSharing(), 0.5e-3, store)
    server = ModelServer(
        sim, ServerConfig(track_memory=False, seed=2), scheduler=scheduler
    )
    server.load_model(tiny_graph)
    # overhead matches the Overhead-Q curve at the operating Q=0.5ms
    estimator = FairShareEstimator(store, overhead=0.10, host_fraction=0.20)
    # A ceiling that never binds: only the estimator rejects.
    gate = AdmissionGate(
        AdmissionConfig(max_active=64, defer=False), estimator=estimator
    ).attach(server)
    return sim, server, gate, estimator, profile


class TestEstimator:
    def test_solo_estimate_close_to_demand(self, stack, tiny_graph):
        _, _, _, estimator, profile = stack
        estimate = estimator.estimate_latency(tiny_graph.name, 100, 0)
        assert estimate >= profile.gpu_duration
        assert estimate < 1.5 * profile.gpu_duration

    def test_estimate_scales_with_load(self, stack, tiny_graph):
        _, _, _, estimator, _ = stack
        solo = estimator.estimate_latency(tiny_graph.name, 100, 0)
        loaded = estimator.estimate_latency(tiny_graph.name, 100, 4)
        assert loaded > 4 * solo

    def test_estimate_is_an_upper_bound_solo(self, stack, tiny_graph):
        """The actual solo latency never exceeds the estimate."""
        sim, server, _, estimator, _ = stack
        estimate = estimator.estimate_latency(tiny_graph.name, 100, 0)
        job = server.make_job("c", tiny_graph.name, 100)
        server.submit(job)
        sim.run()
        assert job.latency <= estimate

    def test_estimate_is_an_upper_bound_loaded(self, stack, tiny_graph):
        """With N concurrent jobs the bound still holds."""
        sim, server, _, estimator, _ = stack
        n = 4
        estimate = estimator.estimate_latency(tiny_graph.name, 100, n - 1)
        jobs = [server.make_job(f"c{i}", tiny_graph.name, 100) for i in range(n)]
        for job in jobs:
            server.submit(job)
        sim.run()
        for job in jobs:
            assert job.latency <= estimate * 1.02

    def test_validation(self, stack, tiny_graph):
        _, _, _, estimator, _ = stack
        with pytest.raises(ValueError):
            estimator.estimate_latency(tiny_graph.name, 100, -1)
        store = ProfileStore()
        with pytest.raises(ValueError):
            FairShareEstimator(store, overhead=-0.1)


class TestAdmission:
    def test_admits_when_slo_attainable(self, stack, tiny_graph):
        sim, server, gate, _, profile = stack
        job = server.make_job("c", tiny_graph.name, 100)
        slo = profile.gpu_duration * 3
        decision = gate.submit(job, slo=slo)
        assert decision.action == "admit"
        sim.run()
        assert job.latency <= slo

    def test_rejects_hopeless_slo(self, stack, tiny_graph):
        _, server, gate, _, profile = stack
        job = server.make_job("c", tiny_graph.name, 100)
        decision = gate.submit(job, slo=profile.gpu_duration / 100)
        assert decision.action == "reject"
        assert decision.reason == "slo-hopeless"
        assert gate.rejected == 1
        assert gate.admitted == 0

    def test_rejected_job_never_reaches_server(self, stack, tiny_graph):
        sim, server, gate, _, profile = stack
        job = server.make_job("c", tiny_graph.name, 100)
        decision = gate.submit(job, slo=profile.gpu_duration / 100)
        assert decision.done is None
        assert server.active_jobs == 0
        sim.run()
        assert job.submitted_at is None
        assert job.latency is None

    def test_no_slo_skips_the_estimator(self, stack, tiny_graph):
        """Without an SLO there is nothing to miss: only load decides."""
        sim, server, gate, _, _ = stack
        job = server.make_job("c", tiny_graph.name, 100)
        decision = gate.submit(job)
        assert (decision.action, decision.reason) == ("admit", "headroom-ok")
        sim.run()
        assert job.latency is not None

    def test_load_dependent_rejection(self, stack, tiny_graph):
        """An SLO attainable when idle is rejected under load."""
        sim, server, gate, _, profile = stack
        slo = profile.gpu_duration * 2.1
        first = server.make_job("a", tiny_graph.name, 100)
        assert gate.submit(first, slo=slo).action == "admit"
        # Second arrival while the first is active: share halves.
        second = server.make_job("b", tiny_graph.name, 100)
        assert gate.submit(second, slo=slo).reason == "slo-hopeless"
        sim.run()
        assert first.latency <= slo

    def test_decisions_logged(self, stack, tiny_graph):
        sim, server, gate, _, profile = stack
        attainable = server.make_job("a", tiny_graph.name, 100)
        gate.submit(attainable, slo=profile.gpu_duration * 3)
        hopeless = server.make_job("b", tiny_graph.name, 100)
        gate.submit(hopeless, slo=profile.gpu_duration / 100)
        assert gate.decisions_by_reason() == {
            "admit:headroom-ok": 1,
            "reject:slo-hopeless": 1,
        }
        sim.run()

    def test_slo_validation(self, stack, tiny_graph):
        _, server, gate, _, _ = stack
        job = server.make_job("c", tiny_graph.name, 100)
        with pytest.raises(ValueError, match="SLO must be positive"):
            gate.submit(job, slo=0.0)

    def test_admitted_jobs_meet_slo_under_sustained_load(self, stack, tiny_graph):
        """The gate's promise: whatever it admits, it delivers."""
        sim, server, gate, _, profile = stack
        slo = profile.gpu_duration * 4
        admitted = []

        def arrivals():
            for i in range(12):
                job = server.make_job(f"r{i}", tiny_graph.name, 100)
                if gate.submit(job, slo=slo).action == "admit":
                    admitted.append(job)
                yield sim.timeout(profile.gpu_duration / 2)

        sim.process(arrivals())
        sim.run()
        assert len(admitted) >= 3
        assert gate.rejected >= 1
        assert all(job.latency <= slo for job in admitted)
