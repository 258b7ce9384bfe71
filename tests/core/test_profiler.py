"""Unit tests for the offline profiler."""

import json
import multiprocessing
import multiprocessing.pool
import os

import pytest

from repro.core import OfflineProfiler
from repro.core import profiler as profiler_module
from repro.core.persistence import output_to_dict
from repro.core.quantum import OverheadQCurve
from repro.faults import InvariantChecker, InvariantViolation
from repro.serving import ModelServer


@pytest.fixture
def profiler():
    return OfflineProfiler(seed=7, curve_batches=2)


class TestSoloMeasurement:
    def test_solo_run_measures_runtime_and_duration(self, profiler, tiny_graph):
        run, _ = profiler.measure_solo(tiny_graph, 100)
        assert run.runtime > 0
        assert 0 < run.gpu_duration < run.runtime
        assert run.model_name == tiny_graph.name

    def test_gpu_duration_matches_graph_total(self, profiler, tiny_graph):
        """On an idle serial GPU, D_j = sum of GPU node durations plus
        per-kernel overheads."""
        run, _ = profiler.measure_solo(tiny_graph, 100)
        expected = tiny_graph.gpu_duration(100)
        assert run.gpu_duration == pytest.approx(expected, rel=0.05)

    def test_online_run_slower(self, profiler, tiny_graph):
        clean, _ = profiler.measure_solo(tiny_graph, 100, online=False)
        online, _ = profiler.measure_solo(tiny_graph, 100, online=True)
        assert online.runtime > clean.runtime

    def test_runs_logged(self, profiler, tiny_graph):
        profiler.measure_solo(tiny_graph, 100)
        profiler.measure_solo(tiny_graph, 100, online=True)
        assert len(profiler.solo_runs) == 2


class TestProfileModel:
    def test_profile_has_all_gpu_nodes(self, profiler, tiny_graph):
        profile = profiler.profile_model(tiny_graph, 100)
        assert len(profile.node_costs) == tiny_graph.num_gpu_nodes

    def test_cost_rate_in_expected_band(self, profiler, tiny_graph):
        """C_j/D_j tracks the op cost inflation (14-15.5x in the
        catalogue), slightly diluted by kernel overheads."""
        profile = profiler.profile_model(tiny_graph, 100)
        assert 10 < profile.cost_rate < 16

    def test_duration_from_clean_run(self, profiler, tiny_graph):
        profile = profiler.profile_model(tiny_graph, 100)
        assert profile.gpu_duration == pytest.approx(
            tiny_graph.gpu_duration(100), rel=0.05
        )

    def test_different_run_seeds_vary_costs_slightly(self, tiny_graph):
        profiler = OfflineProfiler(seed=7)
        a = profiler.profile_model(tiny_graph, 100, run_seed=0)
        b = profiler.profile_model(tiny_graph, 100, run_seed=1)
        assert a.total_cost != b.total_cost
        assert a.total_cost == pytest.approx(b.total_cost, rel=0.05)


class TestOverheadQCurve:
    def test_curve_measured_over_grid(self, profiler, tiny_graph):
        curve = profiler.overhead_q_curve(
            tiny_graph, 100, q_values=(0.5e-3, 2e-3)
        )
        assert isinstance(curve, OverheadQCurve)
        assert curve.q_values == [0.5e-3, 2e-3]

    def test_overheads_reasonable(self, profiler, tiny_graph):
        curve = profiler.overhead_q_curve(
            tiny_graph, 100, q_values=(0.5e-3, 4e-3)
        )
        for overhead in curve.overheads:
            assert -0.05 < overhead < 0.5


class TestBuild:
    def test_build_with_fixed_quantum_skips_curves(self, profiler, tiny_graph):
        output = profiler.build([(tiny_graph, 100)], fixed_quantum=1e-3)
        assert output.quantum == 1e-3
        assert output.curves == []
        assert output.store.lookup(tiny_graph.name, 100)

    def test_build_with_curves_selects_quantum(self, profiler, tiny_graph):
        output = profiler.build(
            [(tiny_graph, 100)], tolerance=0.05, q_values=(0.5e-3, 2e-3)
        )
        assert output.quantum in (0.5e-3, 2e-3) or 0.5e-3 < output.quantum < 2e-3
        assert len(output.curves) == 1
        assert output.curve_for(tiny_graph.name) is output.curves[0]

    def test_curve_for_unknown_model_raises(self, profiler, tiny_graph):
        output = profiler.build([(tiny_graph, 100)], fixed_quantum=1e-3)
        with pytest.raises(KeyError):
            output.curve_for("ghost")

    def test_build_without_curves_or_quantum_rejected(self, profiler, tiny_graph):
        with pytest.raises(ValueError):
            profiler.build([(tiny_graph, 100)], with_curves=False)

    def test_multi_model_store(self, profiler, tiny_graph, small_inception):
        output = profiler.build(
            [(tiny_graph, 100), (small_inception, 100)], fixed_quantum=1e-3
        )
        assert len(output.store) == 2


class TestSweepFanOut:
    """The Overhead-Q sweep forks its pair runs; nothing may show it."""

    Q_GRID = (0.5e-3, 1e-3, 2e-3)

    @pytest.fixture
    def entries(self, tiny_graph, small_inception):
        return [(tiny_graph, 100), (small_inception, 100)]

    @staticmethod
    def forked(monkeypatch):
        """Force a two-worker sweep and fail any pair run left in-process."""
        parent = os.getpid()
        run_pair = OfflineProfiler._run_pair

        def in_worker(self, *args):
            assert os.getpid() != parent, "pair run ran in the parent"
            return run_pair(self, *args)

        monkeypatch.setattr(profiler_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(OfflineProfiler, "_run_pair", in_worker)

    def test_forked_build_is_byte_identical_to_serial(self, monkeypatch, entries):
        monkeypatch.setattr(profiler_module, "usable_cpus", lambda: 1)
        serial = OfflineProfiler(seed=7, curve_batches=2).build(
            entries, q_values=self.Q_GRID
        )
        self.forked(monkeypatch)
        forked = OfflineProfiler(seed=7, curve_batches=2).build(
            entries, q_values=self.Q_GRID
        )
        assert json.dumps(output_to_dict(forked)) == json.dumps(
            output_to_dict(serial)
        )
        assert multiprocessing.active_children() == []

    def test_build_curves_match_per_entry_curves(self, monkeypatch, entries):
        self.forked(monkeypatch)
        profiler = OfflineProfiler(seed=7, curve_batches=2)
        output = profiler.build(entries, q_values=self.Q_GRID)
        for (graph, batch), curve in zip(entries, output.curves):
            single = profiler.overhead_q_curve(
                graph,
                batch,
                profile=output.store.lookup(graph.name, batch),
                q_values=self.Q_GRID,
            )
            assert curve.points == single.points

    def test_worker_count_stays_out_of_the_cache_key(self, monkeypatch):
        from repro.experiments import ExperimentConfig, profile_cache

        # A profile built on a 2-CPU host must hit the cache on a
        # 64-CPU one; code_version is pinned so source edits do not
        # move the literal.
        monkeypatch.setattr(profile_cache, "code_version", lambda: "pinned")
        config = ExperimentConfig(
            scale=0.02, curve_batches=2, q_values=self.Q_GRID
        )
        entries = [("alexnet", 16), ("googlenet", 16), ("resnet_50", 8)]
        assert profile_cache.cache_key(entries, config, True) == (
            "5573130f7a9642d9aad6674e09f5cadfb155b71676b3acb9b813862817eee294"
        )

    def test_stall_in_a_worker_raises_in_the_parent(self, monkeypatch, entries):
        submit = ModelServer.submit

        def stall_one_quantum(self, job):
            if (
                getattr(self.scheduler, "quantum", None) == 2e-3
                and job.client_id == "pair1"
            ):
                return self.sim.event()  # never fires
            return submit(self, job)

        self.forked(monkeypatch)
        monkeypatch.setattr(ModelServer, "submit", stall_one_quantum)
        with pytest.raises(RuntimeError, match=r"pair run of .* stalled"):
            OfflineProfiler(seed=7, curve_batches=2).build(
                entries, q_values=self.Q_GRID
            )
        assert multiprocessing.active_children() == []

    def test_invariant_violation_in_a_worker_raises_in_the_parent(
        self, monkeypatch, entries
    ):
        def violate(self, scheduler, decision):
            raise InvariantViolation("planted violation")

        self.forked(monkeypatch)
        monkeypatch.setattr(InvariantChecker, "after_decision", violate)
        with pytest.raises(InvariantViolation, match="planted violation"):
            OfflineProfiler(seed=7, curve_batches=2).build(
                entries, q_values=self.Q_GRID
            )
        assert multiprocessing.active_children() == []

    def test_fixed_quantum_never_starts_a_pool(self, monkeypatch, entries):
        def no_pool(*args, **kwargs):
            raise AssertionError("fixed-quantum build started a pool")

        monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
        output = OfflineProfiler(seed=7).build(entries, fixed_quantum=1e-3)
        assert output.curves == []
