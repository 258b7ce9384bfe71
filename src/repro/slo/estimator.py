"""Latency estimation under Olympian fair sharing.

The paper's motivation is that unpredictable execution "makes it
extremely difficult to engineer latency-sensitive user-facing
applications" (§1).  Olympian's guarantee inverts that: with fair
time-slicing, a job's GPU share is 1/N of the device while N jobs are
active, so its completion time is *computable in advance* from its
offline profile — which is what makes admission control possible at
all.  No such estimate exists for stock TF-Serving, whose driver
arbitration is arbitrary.

:class:`FairShareEstimator` implements the bound used by the admission
gate (:class:`~repro.serving.admission.AdmissionGate`): a job needing ``D`` seconds of GPU, admitted alongside
``N`` active jobs, finishes within ``D * (N + 1) * (1 + overhead)``
plus its host-side tail — an upper bound, since competitors that finish
early only speed things up.
"""

from __future__ import annotations

from ..core.accounting import ProfileStore
from ..serving.server import ModelServer

__all__ = ["FairShareEstimator"]


class FairShareEstimator:
    """Upper-bound completion-time estimates under fair sharing.

    Parameters
    ----------
    profiles:
        The offline profile store (source of per-model GPU demand).
    overhead:
        Fractional switching overhead at the operating quantum (the
        Overhead-Q curve value; e.g. 0.025).
    host_fraction:
        Host-side work as a fraction of GPU demand, covering the parts
        of a job that are not on the device (input/output stages).
    """

    def __init__(
        self,
        profiles: ProfileStore,
        overhead: float = 0.03,
        host_fraction: float = 0.15,
    ):
        if overhead < 0:
            raise ValueError(f"overhead must be >= 0: {overhead}")
        if host_fraction < 0:
            raise ValueError(f"host_fraction must be >= 0: {host_fraction}")
        self.profiles = profiles
        self.overhead = overhead
        self.host_fraction = host_fraction

    def gpu_demand(self, model_name: str, batch_size: int) -> float:
        """Solo GPU seconds one job of this (model, batch) needs."""
        return self.profiles.lookup(model_name, batch_size).gpu_duration

    def estimate_latency(
        self, model_name: str, batch_size: int, active_jobs: int
    ) -> float:
        """Upper-bound latency if admitted now alongside ``active_jobs``."""
        if active_jobs < 0:
            raise ValueError(f"active_jobs must be >= 0: {active_jobs}")
        demand = self.gpu_demand(model_name, batch_size)
        shared = demand * (active_jobs + 1) * (1.0 + self.overhead)
        return shared + demand * self.host_fraction

    def estimate_for(self, server: ModelServer, model_name: str,
                     batch_size: int) -> float:
        """Estimate against a live server's current load."""
        return self.estimate_latency(
            model_name, batch_size, server.active_jobs
        )
