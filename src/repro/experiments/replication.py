"""Replication harness: seed sweeps with confidence intervals.

A single seeded run shows *a* result; a reproduction should show the
result is not seed luck.  :func:`replicate` reruns any seed-parametrised
metric across seeds and reports mean, standard deviation, and a
t-distribution 95 % confidence interval.  Prebuilt replications cover
the two headline fairness claims (Figure 3's baseline spread and
Figure 11's Olympian spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..metrics import stats
from ..metrics.report import render_table
from ..workloads.scenarios import homogeneous_workload
from .runner import DEFAULT_SCALE, ExperimentConfig, run_workload

__all__ = ["ReplicationResult", "replicate", "fairness_replication"]


@dataclass
class ReplicationResult:
    """Statistics of one metric across independent seeds."""

    name: str
    seeds: Tuple[int, ...]
    values: List[float]

    @property
    def mean(self) -> float:
        return stats.mean(self.values)

    @property
    def stddev(self) -> float:
        return stats.stddev(self.values)

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Two-sided t-distribution CI for the mean."""
        n = len(self.values)
        if n < 2:
            raise ValueError("confidence interval needs >= 2 replicates")
        try:
            from scipy import stats as scipy_stats
        except ImportError as exc:
            raise ImportError(
                "confidence intervals need scipy; install the test extra: "
                "pip install -e '.[test]'"
            ) from exc
        sem = self.stddev / math.sqrt(n)
        t_crit = scipy_stats.t.ppf(0.5 + level / 2, df=n - 1)
        return (self.mean - t_crit * sem, self.mean + t_crit * sem)

    def summary_row(self) -> List[str]:
        lo, hi = self.confidence_interval()
        return [
            self.name,
            str(len(self.values)),
            f"{self.mean:.4f}",
            f"{self.stddev:.4f}",
            f"[{lo:.4f}, {hi:.4f}]",
        ]


def replicate(
    name: str,
    metric: Callable[[int], float],
    seeds: Sequence[int],
) -> ReplicationResult:
    """Evaluate ``metric(seed)`` for every seed."""
    if len(seeds) < 2:
        raise ValueError("replication needs at least two seeds")
    values = [metric(seed) for seed in seeds]
    return ReplicationResult(name=name, seeds=tuple(seeds), values=values)


@dataclass
class FairnessReplication:
    baseline: ReplicationResult
    olympian: ReplicationResult

    def report(self) -> str:
        table = render_table(
            ["metric", "n", "mean", "std", "95% CI"],
            [self.baseline.summary_row(), self.olympian.summary_row()],
            title=(
                "Replication: finish-time spread across seeds "
                "(TF-Serving vs Olympian fair)"
            ),
        )
        return table

    def separated(self) -> bool:
        """True when the CIs do not overlap (the claim is seed-robust)."""
        base_lo, _ = self.baseline.confidence_interval()
        _, olym_hi = self.olympian.confidence_interval()
        return olym_hi < base_lo


def fairness_replication(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    num_clients: int = 10,
    num_batches: int = 6,
    scale: float = DEFAULT_SCALE,
    quantum: float = 1.2e-3,
) -> FairnessReplication:
    """Replicate the Figure 3 vs Figure 11 spread comparison."""
    specs = homogeneous_workload(
        num_clients=num_clients, num_batches=num_batches
    )

    def spread_for(kind: str) -> Callable[[int], float]:
        def metric(seed: int) -> float:
            config = ExperimentConfig(scale=scale, seed=seed, quantum=quantum)
            run = run_workload(specs, scheduler=kind, config=config)
            return stats.spread_ratio(run.finish_time_list())

        return metric

    return FairnessReplication(
        baseline=replicate("tf-serving spread", spread_for("tf-serving"), seeds),
        olympian=replicate("olympian spread", spread_for("fair"), seeds),
    )
