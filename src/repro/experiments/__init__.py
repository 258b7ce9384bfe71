"""Experiment harness: one entry point per paper table and figure.

The names below resolve on first access (PEP 562), so importing one
submodule, such as :mod:`repro.experiments.runner` on the serving path,
loads none of the others.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:
    from .chaos import (
        ChaosCampaignResult,
        ChaosConfig,
        ChaosRun,
        run_chaos_campaign,
    )
    from .extensions import (
        EnergyResult,
        FaultToleranceResult,
        LatencyResult,
        MultiGpuResult,
        RecoveryGoodputResult,
        SloResult,
        energy_comparison,
        fault_tolerance,
        latency_predictability,
        multigpu_scaling,
        recovery_goodput,
        slo_attainment,
    )
    from .ext_spatial import (
        DeadlineMissPoint,
        SpatialSharingResult,
        StreamSweepPoint,
        deadline_miss_comparison,
        spatial_sharing,
        stream_count_sweep,
    )
    from .figures import (
        fig3_tfserving_variability,
        fig4_node_duration_cdf,
        fig6_online_profiler_overhead,
        fig8_overhead_q_curves,
        fig11_fair_homogeneous,
        fig12_scheduling_intervals,
        fig13_fair_heterogeneous,
        fig14_quantum_durations,
        fig16_complex_workload,
        fig17_weighted_fair,
        fig18_priority,
        fig19_cpu_timer_ablation,
        fig20_linear_cost_model,
        fig21_portability,
    )
    from .parallel import (
        TrialOutcome,
        run_artefacts,
        run_trials,
    )
    from .registry import artefact_registry
    from .replication import (
        FairnessReplication,
        ReplicationResult,
        fairness_replication,
        replicate,
    )
    from .sensitivity import (
        ScalePoint,
        ScaleSensitivityResult,
        scale_sensitivity,
    )
    from .runner import (
        ALL_SCHEDULER_KINDS,
        DEFAULT_RT_OVERSUBSCRIPTION,
        DEFAULT_SCALE,
        SCHEDULER_KINDS,
        SPATIAL_SCHEDULER_KINDS,
        ExperimentConfig,
        ExperimentResult,
        ServingStack,
        build_stack,
        clear_caches,
        get_graph,
        get_profiler_output,
        run_workload,
    )
    from .soak import (
        SoakConfig,
        SoakResult,
        SoakRun,
        run_soak,
    )
    from .tables import (
        scalability_sweep,
        stability_check,
        table2_model_inventory,
        utilization_comparison,
    )

# Submodule -> the names it re-exports.
_EXPORTS = {
    "chaos": (
        "ChaosCampaignResult", "ChaosConfig", "ChaosRun", "run_chaos_campaign",
    ),
    "extensions": (
        "EnergyResult", "FaultToleranceResult", "LatencyResult",
        "MultiGpuResult", "RecoveryGoodputResult", "SloResult",
        "energy_comparison", "fault_tolerance", "latency_predictability",
        "multigpu_scaling", "recovery_goodput", "slo_attainment",
    ),
    "ext_spatial": (
        "DeadlineMissPoint", "SpatialSharingResult", "StreamSweepPoint",
        "deadline_miss_comparison", "spatial_sharing", "stream_count_sweep",
    ),
    "figures": (
        "fig3_tfserving_variability", "fig4_node_duration_cdf",
        "fig6_online_profiler_overhead", "fig8_overhead_q_curves",
        "fig11_fair_homogeneous", "fig12_scheduling_intervals",
        "fig13_fair_heterogeneous", "fig14_quantum_durations",
        "fig16_complex_workload", "fig17_weighted_fair", "fig18_priority",
        "fig19_cpu_timer_ablation", "fig20_linear_cost_model",
        "fig21_portability",
    ),
    "parallel": ("TrialOutcome", "run_artefacts", "run_trials"),
    "registry": ("artefact_registry",),
    "replication": (
        "FairnessReplication", "ReplicationResult", "fairness_replication",
        "replicate",
    ),
    "sensitivity": (
        "ScalePoint", "ScaleSensitivityResult", "scale_sensitivity",
    ),
    "runner": (
        "ALL_SCHEDULER_KINDS", "DEFAULT_RT_OVERSUBSCRIPTION", "DEFAULT_SCALE",
        "SCHEDULER_KINDS", "SPATIAL_SCHEDULER_KINDS", "ExperimentConfig",
        "ExperimentResult", "ServingStack", "build_stack", "clear_caches",
        "get_graph", "get_profiler_output", "run_workload",
    ),
    "soak": ("SoakConfig", "SoakResult", "SoakRun", "run_soak"),
    "tables": (
        "scalability_sweep", "stability_check", "table2_model_inventory",
        "utilization_comparison",
    ),
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
