"""Tests for trace-driven workloads: generation, persistence, driving."""

import hashlib

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
from repro.workloads import (
    RequestTrace,
    TraceRequest,
    bursty_trace,
    diurnal_trace,
    iter_bursty,
    iter_diurnal,
    iter_poisson,
    drive,
    poisson_trace,
)


def _stream_digest(requests):
    return hashlib.sha256(repr(requests).encode()).hexdigest()


class TestTraceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRequest(-1.0, "m", 10)
        with pytest.raises(ValueError):
            TraceRequest(0.0, "m", 0)
        with pytest.raises(ValueError):
            TraceRequest(0.0, "m", 10, slo=0.0)


class TestRequestTrace:
    def test_sorts_on_construction(self):
        trace = RequestTrace([
            TraceRequest(2.0, "m", 10),
            TraceRequest(1.0, "m", 10),
        ])
        assert [r.arrival for r in trace] == [1.0, 2.0]

    def test_duration_and_models(self):
        trace = RequestTrace([
            TraceRequest(1.0, "a", 10),
            TraceRequest(4.0, "b", 10),
        ])
        assert trace.duration == 3.0
        assert trace.models == ["a", "b"]

    def test_mean_rate(self):
        trace = RequestTrace(
            [TraceRequest(float(i), "m", 10) for i in range(11)]
        )
        assert trace.mean_rate() == pytest.approx(1.0)

    def test_mean_rate_needs_two(self):
        with pytest.raises(ValueError):
            RequestTrace([TraceRequest(0.0, "m", 1)]).mean_rate()

    def test_json_round_trip(self, tmp_path):
        trace = poisson_trace(5.0, 3.0, "m", 32, seed=2, slo=0.5)
        path = tmp_path / "trace.json"
        trace.save(path)
        restored = RequestTrace.load(path)
        assert len(restored) == len(trace)
        assert restored.requests[0] == trace.requests[0]
        assert restored.requests[-1].slo == 0.5


class TestGenerators:
    def test_poisson_rate_approximately_met(self):
        trace = poisson_trace(50.0, 10.0, "m", 10, seed=3)
        assert trace.mean_rate() == pytest.approx(50.0, rel=0.25)

    def test_poisson_deterministic_given_seed(self):
        a = poisson_trace(10.0, 5.0, "m", 10, seed=4)
        b = poisson_trace(10.0, 5.0, "m", 10, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 1.0, "m", 10)

    def test_diurnal_peak_heavier_than_trough(self):
        # Trough at t=0 and t=duration; peak in the middle.
        trace = diurnal_trace(5.0, 60.0, 10.0, "m", 10, seed=5)
        first_quarter = sum(1 for r in trace if r.arrival < 2.5)
        middle = sum(1 for r in trace if 3.75 <= r.arrival < 6.25)
        assert middle > 1.5 * first_quarter

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(10.0, 5.0, 1.0, "m", 10)  # base > peak

    def test_bursty_alternates_density(self):
        trace = bursty_trace(
            burst_rate=200.0, idle_rate=1.0, mean_burst=0.5, mean_idle=0.5,
            duration=20.0, model="m", batch_size=10, seed=6,
        )
        # Count arrivals per 0.25s bin: bursty traces have many empty
        # bins AND many dense bins.
        bins = [0] * 80
        for request in trace:
            index = min(int(request.arrival / 0.25), 79)
            bins[index] += 1
        empty = sum(1 for b in bins if b == 0)
        dense = sum(1 for b in bins if b >= 20)
        assert empty > 5
        assert dense > 5

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            bursty_trace(0.0, 0.0, 1.0, 1.0, 1.0, "m", 10)


class TestDrive:
    def _stack(self, tiny_graph, with_admission=False):
        sim = Simulator()
        costs = CostModel(noise=0.0).exact(tiny_graph, 100)
        profile = OlympianProfile.from_cost_profile(
            costs, gpu_duration=tiny_graph.gpu_duration(100)
        )
        store = ProfileStore()
        store.add(profile)
        scheduler = OlympianScheduler(sim, FairSharing(), 0.5e-3, store)
        server = ModelServer(
            sim, ServerConfig(track_memory=False, seed=3), scheduler=scheduler
        )
        server.load_model(tiny_graph)
        gate = None
        if with_admission:
            # Only the estimator rejects: the ceiling never binds.
            gate = AdmissionGate(
                AdmissionConfig(max_active=64, defer=False),
                estimator=FairShareEstimator(store, overhead=0.1),
            ).attach(server)
        return sim, server, gate, profile

    def test_drive_completes_all_requests(self, tiny_graph):
        sim, server, _, _ = self._stack(tiny_graph)
        trace = poisson_trace(20.0, 1.0, tiny_graph.name, 100, seed=7)
        stats = drive(sim, server, trace)
        sim.run()
        assert stats.completed == len(trace)
        assert all(latency > 0 for latency in stats.latencies)
        assert stats.rejected == 0

    def test_drive_carries_trace_slos(self, tiny_graph):
        sim, server, _, profile = self._stack(tiny_graph)
        slo = profile.gpu_duration * 50  # generous
        trace = poisson_trace(5.0, 1.0, tiny_graph.name, 100, seed=8, slo=slo)
        deadlines = []
        stats = drive(
            sim, server, trace,
            on_admitted=lambda arrival, job: deadlines.append(
                (job.deadline, arrival.deadline)
            ),
        )
        sim.run()
        assert stats.completed == len(trace)
        assert len(deadlines) == len(trace)
        for job_deadline, arrival_deadline in deadlines:
            assert job_deadline == pytest.approx(arrival_deadline)
        met = sum(latency <= slo for latency in stats.latencies)
        assert met / stats.completed > 0.9

    def test_drive_with_admission_rejects_overload(self, tiny_graph):
        sim, server, gate, profile = self._stack(
            tiny_graph, with_admission=True
        )
        # Overload: arrivals far faster than the device can serve.
        slo = profile.gpu_duration * 3
        rate = 5.0 / profile.gpu_duration
        trace = poisson_trace(rate, profile.gpu_duration * 20,
                              tiny_graph.name, 100, seed=9, slo=slo)
        stats = drive(sim, server, trace, gate=gate)
        sim.run()
        assert stats.rejected > 0
        assert stats.reject_reasons == {"slo-hopeless": stats.rejected}
        assert stats.completed + stats.rejected == len(trace)
        assert all(latency <= slo for latency in stats.latencies)

    def test_drive_submits_at_each_arrival_instant(self, tiny_graph):
        sim, server, _, _ = self._stack(tiny_graph)
        trace = RequestTrace([
            TraceRequest(0.001, tiny_graph.name, 100),
            TraceRequest(0.0025, tiny_graph.name, 100, slo=0.5),
            TraceRequest(0.004, tiny_graph.name, 100),
        ])
        submitted = []
        stats = drive(
            sim, server, trace,
            on_admitted=lambda arrival, job: submitted.append(
                (arrival.request_id, job.client_id, sim.now)
            ),
        )
        sim.run()
        assert stats.completed == 3
        assert submitted == [
            ("r0", "u0", 0.001), ("r1", "u1", 0.0025), ("r2", "u2", 0.004)
        ]
        first_two = list(trace.arrivals(limit=2))
        assert [a.index for a in first_two] == [0, 1]
        assert first_two[1].time == 0.0025
        assert first_two[1].slo == 0.5
        assert {a.tenant for a in trace.arrivals()} == {"t0"}


class TestLazyIterators:
    """The iter_* generators: byte-equal to the eager builders, O(1)
    memory regardless of stream length (the satellite audit of eager
    arrival materialisation)."""

    # The streams' sha256 (over their repr) is pinned too, so a
    # refactor of the shared time generators cannot move an arrival.

    def test_iter_poisson_matches_eager(self):
        eager = poisson_trace(50.0, 1.0, "m", 8, seed=3, slo=0.2)
        lazy = list(iter_poisson(50.0, 1.0, "m", 8, seed=3, slo=0.2))
        assert lazy == eager.requests
        assert _stream_digest(lazy) == (
            "82ad7eb9d58db2f430838c18c38ca58098257fd229dd492d66f08a6781e2a280"
        )

    def test_iter_diurnal_matches_eager(self):
        eager = diurnal_trace(20.0, 80.0, 1.0, "m", 8, seed=4)
        lazy = list(iter_diurnal(20.0, 80.0, 1.0, "m", 8, seed=4))
        assert lazy == eager.requests
        assert _stream_digest(lazy) == (
            "d8bdbd21cde7ac300d131b0eee5a866ab48c1566affcb2820b1904c1f41978b9"
        )

    def test_iter_bursty_matches_eager(self):
        eager = bursty_trace(100.0, 5.0, 0.05, 0.1, 1.0, "m", 8, seed=5)
        lazy = list(iter_bursty(100.0, 5.0, 0.05, 0.1, 1.0, "m", 8, seed=5))
        assert lazy == eager.requests
        assert _stream_digest(lazy) == (
            "26cb549e973156e8022ee07a31804db7544963300b488075d5ea5dea6614751e"
        )

    def test_iterators_validate_like_eager(self):
        with pytest.raises(ValueError):
            next(iter_poisson(0.0, 1.0, "m", 1))
        with pytest.raises(ValueError):
            next(iter_diurnal(5.0, 1.0, 1.0, "m", 1))
        with pytest.raises(ValueError):
            next(iter_bursty(10.0, 1.0, 0.0, 0.1, 1.0, "m", 1))

    def test_streaming_memory_is_constant(self):
        import itertools
        import tracemalloc

        def peak(duration):
            stream = iter_poisson(1000.0, duration, "m", 1, seed=0)
            tracemalloc.start()
            try:
                for _ in itertools.islice(stream, 2000):
                    pass
                _current, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak_bytes

        short = peak(duration=10.0)
        long = peak(duration=10_000.0)
        # A 1000x longer stream must not move the allocation peak.
        assert long < 2 * short
        assert long < 256 * 1024
