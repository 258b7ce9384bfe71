"""Parallel fan-out determinism: ``--jobs N`` must change nothing.

The whole contract of :mod:`repro.experiments.parallel` is that worker
count is invisible in the results: seed namespacing keeps trials
independent and input-order merging keeps output order fixed.  The
jobs=2 tests spawn real processes (the ``spawn`` start method, same as
production) and are the slowest in this file; the workload is kept
tiny.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    TrialOutcome,
    run_artefacts,
    run_trials,
)
from repro.experiments.runner import clear_caches
from repro.sim.rng import derive_seed
from repro.workloads import homogeneous_workload

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)
SPECS = homogeneous_workload(num_clients=2, num_batches=2)


class TestTrialFanOut:
    def test_jobs_value_is_invisible(self, tmp_path, monkeypatch):
        # Share one profile cache between parent and spawn workers so
        # the parallel run does not redo the profiling serial did.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        serial = run_trials(
            SPECS, "fair", config=FAST, num_trials=3, jobs=1
        )
        parallel = run_trials(
            SPECS, "fair", config=FAST, num_trials=3, jobs=2
        )
        assert serial == parallel
        assert [t.name for t in serial] == ["trial-0", "trial-1", "trial-2"]
        assert all(t.ok for t in serial)

    def test_trials_are_seed_namespaced(self):
        outcomes = run_trials(SPECS, "fair", config=FAST, num_trials=3)
        digests = [t.digest for t in outcomes]
        assert len(set(digests)) == 3

    def test_trial_seed_derivation_matches_direct_run(self):
        from dataclasses import replace

        from repro.experiments import run_workload

        (outcome,) = run_trials(SPECS, "fair", config=FAST, num_trials=1)
        direct = run_workload(
            SPECS,
            scheduler="fair",
            config=replace(FAST, seed=derive_seed(FAST.seed, "trial:0")),
        )
        assert outcome.digest == direct.trace_digest()

    def test_cold_curve_build_inside_spawn_workers(self, tmp_path, monkeypatch):
        # Spawn workers are daemonic and may not fork the Q sweep: each
        # must fall back to a serial build instead of failing.
        config = ExperimentConfig(
            scale=0.02, quantum=None, curve_batches=2,
            q_values=(0.5e-3, 1e-3, 2e-3),
        )
        outcomes = {}
        for jobs in (2, 1):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"jobs{jobs}"))
            clear_caches()
            outcomes[jobs] = run_trials(
                SPECS, "fair", config=config, num_trials=2, jobs=jobs
            )
        for outcome in outcomes[2]:
            assert outcome.ok, outcome.error
        assert [t.digest for t in outcomes[2]] == [t.digest for t in outcomes[1]]

    def test_rerun_is_reproducible(self):
        a = run_trials(SPECS, "fair", config=FAST, num_trials=2)
        b = run_trials(SPECS, "fair", config=FAST, num_trials=2)
        assert a == b


class TestArtefactFanOut:
    def test_unknown_artefact_surfaces_as_error(self):
        (outcome,) = run_artefacts(["no-such-artefact"], jobs=1)
        assert not outcome.ok
        assert "KeyError" in outcome.error
        assert outcome.name == "no-such-artefact"

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_artefacts(["x", "y"], jobs=0)

    def test_empty_input_is_empty_output(self):
        assert run_artefacts([], jobs=4) == []


class TestOutcomeRecord:
    def test_ok_property(self):
        assert TrialOutcome(name="t", report="r").ok
        assert not TrialOutcome(name="t", report="", error="boom").ok
