"""Crash-restart determinism: the durable control plane's contract.

A soak kills the whole serving process (simulator included) at
configured stream times and rebuilds it from the journal plus the
seed-deterministic traffic stream.  The properties pinned here:

* **Soak determinism** — the same seed reproduces the full JSON
  document (and therefore the soak digest) byte for byte, including
  every journal count and the resume digest.
* **Resume-digest stability** — the journal's resume digest is a pure
  function of the seed: re-running the soak yields the identical
  digest, and different seeds diverge.
* **No job lost** — across every kill boundary and device crash, every
  admitted journal row reaches a terminal row, for a spread of kill
  placements and for the multi-GPU front.
* **Loss-free accounting under a generous gate** — with shedding
  effectively disabled and no device faults, the books balance
  exactly: every offered arrival is admitted and completed, despite a
  mid-run process kill.
"""

import pytest

from repro.experiments import SoakConfig, run_soak

# Small but real: one kill, one device crash, open-loop bursty traffic
# over a million-user population (lazily generated).
QUICK = dict(duration=0.3, rate=40.0, kills=(0.12,), device_crashes=(0.06,))

# Quick-shape soak digests, pinned so that a refactor of the stack
# builder, the gate or the arrival generators cannot move a decision.
PINNED_SOAK_DIGESTS = {
    0: "9226409a986ca1d42e6b7cde184d6b3954d43d1ce4a84f9ce9a184eab49d3e4f",
    11: "3207a81e601d826411a7e4dfa9cc53c7344a66b2f7487e142c9805965e815a77",
}
PINNED_MULTI_GPU_DIGEST = (
    "b5236176d6b805c497905a08f8db1802d3fa2dd05875faa1ebdd6d83d7ad9a61"
)


class TestSoakDeterminism:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_same_seed_reproduces_the_document(self, seed):
        first = run_soak(SoakConfig.quick(seed=seed))
        second = run_soak(SoakConfig.quick(seed=seed))
        assert first.ok, first.violations
        assert first.to_json() == second.to_json()
        assert first.soak_digest() == second.soak_digest()
        assert first.soak_digest() == PINNED_SOAK_DIGESTS[seed]

    def test_resume_digest_is_seed_stable(self):
        first = run_soak(SoakConfig.quick(seed=3))
        second = run_soak(SoakConfig.quick(seed=3))
        for a, b in zip(first.runs, second.runs):
            assert a.resume_digest == b.resume_digest

    def test_different_seeds_diverge(self):
        a = run_soak(SoakConfig.quick(seed=0))
        b = run_soak(SoakConfig.quick(seed=11))
        assert a.soak_digest() != b.soak_digest()


class TestNoJobLost:
    @pytest.mark.parametrize(
        "kills",
        [(0.08,), (0.16,), (0.1, 0.2)],
        ids=["early-kill", "late-kill", "double-kill"],
    )
    def test_kill_placement_never_loses_jobs(self, kills):
        result = run_soak(
            SoakConfig.quick(seed=5, kills=kills)
        )
        assert result.ok, result.violations
        for run in result.runs:
            # Terminal rows cover the admitted set exactly.
            assert run.completed + run.failed + run.shed >= run.admitted
            assert run.incarnations == len(kills) + 1

    def test_both_scheduler_kinds_full_shape(self):
        result = run_soak(SoakConfig(seed=0, **QUICK))
        assert result.ok, result.violations
        assert [run.scheduler for run in result.runs] == ["fair", "timer"]

    def test_multi_gpu_front(self):
        result = run_soak(SoakConfig.quick(seed=2, gpus=2))
        assert result.ok, result.violations
        assert result.soak_digest() == PINNED_MULTI_GPU_DIGEST


class TestLossFreeAccounting:
    def test_generous_gate_balances_exactly(self):
        # No device faults and a gate that admits everything: the only
        # disruption is the process kill, and the journal must show
        # every offered arrival admitted and completed.
        result = run_soak(
            SoakConfig.quick(
                seed=7,
                device_crashes=(),
                max_active=64,
                max_pending_total=10_000,
                max_pending_per_tenant=10_000,
            )
        )
        assert result.ok, result.violations
        for run in result.runs:
            assert run.rejected == 0
            assert run.failed == 0
            assert run.shed == 0
            assert run.admitted == run.offered
            assert run.completed == run.admitted
            assert run.offered > 0
