"""SLO-aware serving: completion-time estimation for admission control.

Built on Olympian's predictability — the capability the paper's
introduction argues unpredictable GPU sharing forecloses.  The
estimator plugs into :class:`~repro.serving.admission.AdmissionGate`
(``estimator=``), which rejects requests whose SLO is hopeless.
"""

from .estimator import FairShareEstimator

__all__ = ["FairShareEstimator"]
