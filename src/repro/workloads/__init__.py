"""Workload construction: scenarios and arrival patterns."""

from .generators import (
    bursty_think_times,
    poisson_arrivals,
    simultaneous,
    staggered,
)
from .trace import (
    Arrival,
    RequestTrace,
    TraceRequest,
    bursty_trace,
    diurnal_trace,
    iter_bursty,
    iter_diurnal,
    iter_poisson,
    poisson_trace,
)
from .traffic import (
    ModelMix,
    TrafficConfig,
    TrafficEngine,
    TrafficStats,
    drive,
)
from .scenarios import (
    DEFAULT_NUM_BATCHES,
    ClientSpec,
    complex_workload,
    heterogeneous_workload,
    homogeneous_workload,
    scaling_workload,
    with_priorities,
    with_weights,
)

__all__ = [
    "bursty_think_times",
    "poisson_arrivals",
    "simultaneous",
    "staggered",
    "DEFAULT_NUM_BATCHES",
    "ClientSpec",
    "complex_workload",
    "heterogeneous_workload",
    "homogeneous_workload",
    "scaling_workload",
    "with_priorities",
    "with_weights",
    "RequestTrace",
    "TraceRequest",
    "bursty_trace",
    "diurnal_trace",
    "iter_bursty",
    "iter_diurnal",
    "iter_poisson",
    "poisson_trace",
    "Arrival",
    "ModelMix",
    "TrafficConfig",
    "TrafficEngine",
    "TrafficStats",
    "drive",
]
