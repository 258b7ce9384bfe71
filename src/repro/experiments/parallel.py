"""Parallel experiment fan-out: independent trials across processes.

Every artefact (figure/table) and every trial of a seed sweep is an
independent deterministic computation, so a sweep parallelises
trivially — *if* the results merge deterministically.  Two rules make
that hold here:

* **Namespaced seeds, not shared state.**  Each trial derives its own
  seed via :func:`~repro.sim.rng.derive_seed` from a base seed and its
  trial index; no RNG is ever shared across trials, so the schedule of
  workers cannot influence any trial's stream.
* **Input-order merge.**  Results are returned in the order the work
  was submitted (``Pool.map`` semantics), never completion order, so
  ``--jobs N`` output is byte-identical to ``--jobs 1``.

Workers use the ``spawn`` start method: each child imports the package
fresh instead of inheriting forked interpreter state (module caches,
RNG pools), which keeps the per-trial computation identical to a
standalone run.  Worker payloads are plain picklable
:class:`TrialOutcome` records — full :class:`ExperimentResult` objects
hold live simulators and generators and deliberately stay in-process.
The pool itself is :func:`repro.core.fanout.ordered_map`, the same
helper the profiler forks its Overhead-Q sweep over.

Profiler builds inside workers share the on-disk cache
(:mod:`repro.experiments.profile_cache`), so a fan-out profiles each
(model, batch) set once, not once per process.  A spawn worker is
daemonic and may not have children, so a cold curve build inside one
runs its Q sweep serially; at ``--jobs 1`` the sweep forks instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.fanout import ordered_map
from ..sim.rng import derive_seed
from ..workloads.scenarios import ClientSpec
from .runner import ExperimentConfig, run_workload

__all__ = ["TrialOutcome", "run_artefacts", "run_trials"]


@dataclass(frozen=True)
class TrialOutcome:
    """Picklable result of one parallel unit of work."""

    name: str
    report: str
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _fan_out(worker, items: Sequence, jobs: int) -> List[TrialOutcome]:
    """Run ``worker`` over ``items`` on spawn workers, in input order."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    return ordered_map(worker, items, processes=jobs, method="spawn")


# ----------------------------------------------------------------------
# Artefact fan-out (CLI `reproduce a b c --jobs N`)
# ----------------------------------------------------------------------


def _run_artefact(name: str) -> TrialOutcome:
    # Imported lazily so spawn workers pay the import once, here.
    from .registry import artefact_registry

    try:
        result = artefact_registry()[name]()
        return TrialOutcome(name=name, report=result.report())
    # Worker-side catch-all: the failure crosses the process boundary
    # as TrialOutcome.error and is re-surfaced by the parent.
    except Exception as exc:  # lint: disable=ROB001
        return TrialOutcome(
            name=name, report="", error=f"{type(exc).__name__}: {exc}"
        )


def run_artefacts(names: Sequence[str], jobs: int = 1) -> List[TrialOutcome]:
    """Regenerate artefacts (by registry name) across ``jobs`` processes.

    Outcomes come back in the order of ``names``; an artefact that
    raises is reported via :attr:`TrialOutcome.error` rather than
    aborting its siblings.
    """
    return _fan_out(_run_artefact, list(names), jobs)


# ----------------------------------------------------------------------
# Seed-sweep fan-out (stability / variability studies)
# ----------------------------------------------------------------------


def _run_trial(payload) -> TrialOutcome:
    specs, scheduler, config, index = payload
    try:
        result = run_workload(list(specs), scheduler=scheduler, config=config)
        finish = " ".join(
            f"{t:.6f}" for t in sorted(result.finish_time_list())
        )
        return TrialOutcome(
            name=f"trial-{index}",
            report=finish,
            digest=result.trace_digest(),
        )
    # Same contract as _run_artefact: errors travel via TrialOutcome.
    except Exception as exc:  # lint: disable=ROB001
        return TrialOutcome(
            name=f"trial-{index}", report="",
            error=f"{type(exc).__name__}: {exc}",
        )


def run_trials(
    specs: Sequence[ClientSpec],
    scheduler: str,
    config: Optional[ExperimentConfig] = None,
    num_trials: int = 1,
    jobs: int = 1,
) -> List[TrialOutcome]:
    """Run ``num_trials`` seed-namespaced repetitions of one workload.

    Trial ``i`` runs under ``derive_seed(config.seed, "trial:i")``, so
    the set of trials is a pure function of the base config — the same
    digests come back for any ``jobs`` value, in trial order.
    """
    from dataclasses import replace

    config = config or ExperimentConfig()
    payloads = [
        (
            tuple(specs),
            scheduler,
            replace(config, seed=derive_seed(config.seed, f"trial:{i}")),
            i,
        )
        for i in range(num_trials)
    ]
    return _fan_out(_run_trial, payloads, jobs)
