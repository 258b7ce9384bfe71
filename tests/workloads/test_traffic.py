"""The open-loop traffic engine: determinism, O(1) memory, shape."""

import hashlib
import itertools
import tracemalloc

import pytest

from repro.experiments import ExperimentConfig, build_stack
from repro.workloads import (
    Arrival,
    ModelMix,
    TrafficConfig,
    TrafficEngine,
    drive,
)
from repro.workloads.traffic import _zipf_index

MIX = (
    ModelMix("alexnet", 2, weight=3.0, slo=0.25, priority=1),
    ModelMix("googlenet", 2, weight=1.0, slo=0.5),
)


def _config(**overrides):
    kwargs = dict(mix=MIX, users=1_000_000, tenants=100, rate=200.0,
                  duration=1.0)
    kwargs.update(overrides)
    return TrafficConfig(**kwargs)


class TestConfigValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="non-empty model mix"):
            TrafficConfig(mix=())

    def test_more_tenants_than_users_rejected(self):
        with pytest.raises(ValueError, match="more tenants"):
            _config(users=10, tenants=11)

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="process"):
            _config(process="lumpy")

    def test_bad_mix_entry_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            ModelMix("alexnet", 1, weight=0.0)
        with pytest.raises(ValueError, match="batch size"):
            ModelMix("alexnet", 0)


class TestDeterminism:
    # sha256 over the repr of each process's first 500 arrivals from an
    # unbounded stream: pins the arrival times the generators share with
    # repro.workloads.trace, so a refactor cannot move one.
    PINNED_ARRIVALS = {
        "poisson": "7b5305afe48bcf672ce9252a0b401e7dc25790c9c11d608ffe518b69cdf7f81b",
        "diurnal": "186a641d57913d6a2fc2b176765389b0c816777099eaf1c483d100c45270ceb2",
        "bursty": "958f0108d4f256b01b41fb4a11c7d4986393745cc6e9f80138ccd77d6c03fdf6",
    }

    @pytest.mark.parametrize("process", ["poisson", "diurnal", "bursty"])
    def test_same_seed_regenerates_identical_arrivals(self, process):
        config = _config(process=process, duration=None)
        first = list(TrafficEngine(config, seed=7).arrivals(limit=500))
        second = list(TrafficEngine(config, seed=7).arrivals(limit=500))
        assert first == second
        assert len(first) == 500
        digest = hashlib.sha256(repr(first).encode()).hexdigest()
        assert digest == self.PINNED_ARRIVALS[process]

    def test_reiteration_restarts_the_stream(self):
        engine = TrafficEngine(_config(), seed=3)
        assert list(engine.arrivals(limit=50)) == list(
            engine.arrivals(limit=50)
        )

    def test_different_seeds_diverge(self):
        config = _config()
        a = list(TrafficEngine(config, seed=0).arrivals(limit=50))
        b = list(TrafficEngine(config, seed=1).arrivals(limit=50))
        assert a != b

    def test_request_ids_are_stable_and_unique(self):
        arrivals = list(TrafficEngine(_config(), seed=0).arrivals(limit=100))
        ids = [a.request_id for a in arrivals]
        assert len(set(ids)) == len(ids)
        assert ids == [f"r{a.index}" for a in arrivals]


class TestStreamShape:
    @pytest.mark.parametrize("process", ["poisson", "diurnal", "bursty"])
    def test_times_increase_within_duration(self, process):
        config = _config(process=process, duration=0.5)
        times = [a.time for a in TrafficEngine(config, seed=1).arrivals()]
        assert times == sorted(times)
        assert all(0.0 < t <= 0.5 for t in times)

    def test_mix_weights_respected(self):
        arrivals = list(
            TrafficEngine(_config(), seed=0).arrivals(limit=2000)
        )
        by_model = {
            model: sum(1 for a in arrivals if a.model == model)
            for model in ("alexnet", "googlenet")
        }
        # weight 3:1 — allow generous sampling slack.
        assert 2.0 < by_model["alexnet"] / by_model["googlenet"] < 4.5

    def test_slo_and_priority_ride_the_mix(self):
        for arrival in TrafficEngine(_config(), seed=0).arrivals(limit=200):
            if arrival.model == "alexnet":
                assert arrival.slo == 0.25 and arrival.priority == 1
                assert arrival.deadline == pytest.approx(
                    arrival.time + 0.25
                )
            else:
                assert arrival.slo == 0.5 and arrival.priority == 0

    def test_diurnal_peak_outweighs_trough(self):
        # Trough-first sinusoid peaking mid-cycle: the middle half of
        # the window must carry far more than the two quiet edges.
        config = _config(process="diurnal", rate=100.0, peak_ratio=6.0,
                         duration=1.0)
        times = [a.time for a in TrafficEngine(config, seed=2).arrivals()]
        middle = sum(1 for t in times if 0.25 <= t < 0.75)
        edges = len(times) - middle
        assert middle > edges * 1.5

    def test_users_partition_into_tenant_spaces(self):
        config = _config(users=1000, tenants=10)
        for arrival in TrafficEngine(config, seed=0).arrivals(limit=300):
            tenant = int(arrival.tenant[1:])
            user = int(arrival.user[1:])
            assert tenant * 100 <= user < (tenant + 1) * 100


class TestHeavyTail:
    def test_zipf_head_is_heavy(self):
        arrivals = list(
            TrafficEngine(_config(tenants=100), seed=0).arrivals(limit=3000)
        )
        counts = {}
        for arrival in arrivals:
            counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        top_decile = sum(ranked[: max(1, len(ranked) // 10)])
        # The head carries far more than its uniform share.
        assert top_decile > 0.3 * len(arrivals)
        assert max(counts.items(), key=lambda kv: kv[1])[0] == "t0"

    def test_zipf_index_bounds(self):
        for u in (0.0, 0.25, 0.5, 0.999999):
            for skew in (0.5, 1.0, 1.5):
                for n in (1, 2, 1_000_000):
                    assert 0 <= _zipf_index(u, skew, n) < n

    def test_zipf_index_monotone_in_u(self):
        ranks = [_zipf_index(u / 100, 1.1, 10_000) for u in range(100)]
        assert ranks == sorted(ranks)


class TestConstantMemory:
    def _peak_bytes(self, users):
        config = _config(users=users, tenants=1000, rate=500.0,
                         duration=None)
        engine = TrafficEngine(config, seed=0)
        tracemalloc.start()
        try:
            for _ in itertools.islice(engine.arrivals(), 2000):
                pass
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_constant_in_population_size(self):
        small = self._peak_bytes(10_000)
        huge = self._peak_bytes(10_000_000)
        # O(1) in users: a 1000x larger population must not move the
        # allocation peak (same generator state either way).
        assert huge < 2 * small
        assert huge < 256 * 1024


class TestDrive:
    def test_open_loop_serves_the_stream(self):
        config = _config(rate=40.0, duration=0.25, tenants=10)
        engine = TrafficEngine(config, seed=4)
        stack = build_stack(
            engine.entries(),
            scheduler="fair",
            config=ExperimentConfig(scale=0.05, seed=1, quantum=1.2e-3),
        )
        outcomes = []
        stats = drive(
            stack.sim, stack.server, engine,
            on_outcome=lambda arrival, _job, status: outcomes.append(
                (arrival.request_id, status)
            ),
        )
        stack.sim.run()
        assert stats.offered > 0
        assert stats.completed == stats.offered
        assert stats.failed == stats.rejected == 0
        assert len(stats.latencies) == stats.completed
        assert [status for _rid, status in outcomes] == (
            ["completed"] * stats.completed
        )

    def test_offset_and_skip_resume_mid_stream(self):
        config = _config(rate=40.0, duration=0.25, tenants=10)
        engine = TrafficEngine(config, seed=4)
        arrivals = list(engine.arrivals())
        cut = arrivals[len(arrivals) // 2].time
        handled = {a.request_id for a in arrivals if a.time < cut}
        # One straggler past the boundary is already journalled: the
        # skip set must keep it from being double-served.
        straggler = next(a for a in arrivals if a.time >= cut)
        handled.add(straggler.request_id)
        stack = build_stack(
            engine.entries(),
            scheduler="fair",
            config=ExperimentConfig(scale=0.05, seed=1, quantum=1.2e-3),
        )
        served = []
        stats = drive(
            stack.sim, stack.server, engine,
            offset=cut, skip=handled,
            on_admitted=lambda arrival, _job: served.append(
                arrival.request_id
            ),
        )
        stack.sim.run()
        expected = [
            a.request_id
            for a in arrivals
            if a.time >= cut and a.request_id not in handled
        ]
        assert served == expected
        assert stats.offered == len(expected)


def test_arrival_is_frozen():
    arrival = Arrival(0, 0.1, "t0", "u0", "alexnet", 1)
    with pytest.raises(Exception):
        arrival.time = 0.2
