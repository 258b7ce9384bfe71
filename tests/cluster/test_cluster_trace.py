"""Integration: a recorded trace driven into a multi-GPU cluster."""

import pytest

from repro.cluster import LeastLoadedPlacement, MultiGpuServer
from repro.core import (
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.graph import CostModel
from repro.serving import ServerConfig
from repro.sim import Simulator
from repro.workloads import drive, poisson_trace


@pytest.fixture
def cluster_stack(tiny_graph):
    sim = Simulator()
    costs = CostModel(noise=0.0).exact(tiny_graph, 100)
    profile = OlympianProfile.from_cost_profile(
        costs, gpu_duration=tiny_graph.gpu_duration(100)
    )
    store = ProfileStore()
    store.add(profile)

    def factory(sim_, server):
        return OlympianScheduler(sim_, FairSharing(), 0.5e-3, store)

    cluster = MultiGpuServer(
        sim,
        2,
        config=ServerConfig(track_memory=False, seed=6),
        scheduler_factory=factory,
        placement=LeastLoadedPlacement(),
    )
    cluster.load_model(tiny_graph)
    return sim, cluster, profile


class TestClusterTraceDrive:
    def test_drive_completes_and_spreads_load(self, cluster_stack, tiny_graph):
        sim, cluster, profile = cluster_stack
        rate = 1.5 / profile.gpu_duration  # needs >1 GPU to keep up
        trace = poisson_trace(
            rate, profile.gpu_duration * 30, tiny_graph.name, 100, seed=11
        )
        outcome = drive(sim, cluster, trace)
        sim.run()
        assert outcome.completed == len(trace)
        counts = cluster.routing_counts()
        assert all(count > 0 for count in counts)
        # Least-loaded keeps the split roughly even.
        assert max(counts) - min(counts) <= max(4, len(trace) // 3)

    def test_two_gpus_cut_latency_under_load(self, cluster_stack, tiny_graph):
        """The same overloaded trace has lower mean latency on 2 GPUs
        than on 1."""
        from repro.serving import ModelServer

        _, _, profile = cluster_stack
        rate = 1.5 / profile.gpu_duration
        trace = poisson_trace(
            rate, profile.gpu_duration * 20, tiny_graph.name, 100, seed=12
        )

        def mean_latency_single():
            sim = Simulator()
            costs = CostModel(noise=0.0).exact(tiny_graph, 100)
            store = ProfileStore()
            store.add(OlympianProfile.from_cost_profile(
                costs, gpu_duration=tiny_graph.gpu_duration(100)
            ))
            scheduler = OlympianScheduler(sim, FairSharing(), 0.5e-3, store)
            server = ModelServer(
                sim, ServerConfig(track_memory=False, seed=6),
                scheduler=scheduler,
            )
            server.load_model(tiny_graph)
            outcome = drive(sim, server, trace)
            sim.run()
            return sum(outcome.latencies) / len(outcome.latencies)

        sim, cluster, _ = cluster_stack
        outcome = drive(sim, cluster, trace)
        sim.run()
        cluster_mean = sum(outcome.latencies) / len(outcome.latencies)
        assert cluster_mean < 0.8 * mean_latency_single()
