"""Linear cost models across batch sizes (paper §4.4, Figure 20).

Profiling every (model, batch size) pair is expensive, so Olympian
profiles a few common batch sizes and estimates node costs for others
with per-node linear regression: ``cost_i(b) = a_i + m_i * b``.  GPU
duration is fit the same way (it is a sum of per-node durations, each
approximately linear in batch).

The paper validates this with profiles at batches 50 and 100 predicting
batches 25, 75 and 150 — exactly the scenario our Figure 20 benchmark
reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .accounting import OlympianProfile

__all__ = ["LinearFit", "LinearProfileModel", "fit_linear", "fit_linear_profile_model"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = intercept + slope * x``."""

    intercept: float
    slope: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares linear fit (requires >= 2 distinct x values).

    numpy is imported here, not at module level: only Figure 20's fits
    need it, and the serving path never loads it.
    """
    import numpy as np

    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ValueError("linear fit requires at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.ptp(x) == 0:
        raise ValueError("linear fit requires at least two distinct x values")
    slope, intercept = np.polyfit(x, y, 1)
    return LinearFit(intercept=float(intercept), slope=float(slope))


@dataclass
class LinearProfileModel:
    """Per-node linear cost models plus a GPU-duration model."""

    model_name: str
    node_fits: Dict[int, LinearFit]
    duration_fit: LinearFit
    runtime_fit: LinearFit
    fitted_batches: Tuple[int, ...]

    def predict(self, batch_size: int) -> OlympianProfile:
        """Predicted profile at ``batch_size``.

        Negative extrapolations are clamped to a small positive floor so
        a profile remains well-formed far outside the fitted range.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {batch_size}")
        node_costs = {
            node_id: max(fit.predict(batch_size), 1e-12)
            for node_id, fit in self.node_fits.items()
        }
        return OlympianProfile(
            model_name=self.model_name,
            batch_size=batch_size,
            node_costs=node_costs,
            gpu_duration=max(self.duration_fit.predict(batch_size), 1e-9),
            solo_runtime=max(self.runtime_fit.predict(batch_size), 0.0),
        )


def fit_linear_profile_model(
    profiles: List[OlympianProfile],
) -> LinearProfileModel:
    """Fit a :class:`LinearProfileModel` from >= 2 profiles of one model.

    Nodes present in any profile are fit over the profiles that contain
    them; nodes appearing in only one profile get a flat (slope-zero)
    model at the observed cost.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two profiles to fit a linear model")
    names = {p.model_name for p in profiles}
    if len(names) != 1:
        raise ValueError(f"profiles span multiple models: {sorted(names)}")
    batches = [p.batch_size for p in profiles]
    if len(set(batches)) < 2:
        raise ValueError("profiles must cover at least two batch sizes")

    all_node_ids = set()
    for profile in profiles:
        all_node_ids.update(profile.node_costs)

    node_fits: Dict[int, LinearFit] = {}
    for node_id in all_node_ids:
        points = [
            (p.batch_size, p.node_costs[node_id])
            for p in profiles
            if node_id in p.node_costs
        ]
        if len(points) >= 2 and len({b for b, _ in points}) >= 2:
            xs, ys = zip(*points)
            node_fits[node_id] = fit_linear(xs, ys)
        else:
            node_fits[node_id] = LinearFit(intercept=points[0][1], slope=0.0)

    duration_fit = fit_linear(batches, [p.gpu_duration for p in profiles])
    runtime_fit = fit_linear(batches, [p.solo_runtime for p in profiles])
    return LinearProfileModel(
        model_name=profiles[0].model_name,
        node_fits=node_fits,
        duration_fit=duration_fit,
        runtime_fit=runtime_fit,
        fitted_batches=tuple(sorted(set(batches))),
    )
