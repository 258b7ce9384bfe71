"""Deterministic what-if profiling: counterfactual replay with blame.

Coz-style virtual speedups made *exact* by the deterministic event
core: instead of sampling, we re-run the identical workload with a
perturbed cost model and measure the true causal effect on every
latency component.  Three perturbation axes:

* **kernel scaling** — multiply one model's GPU-node durations by a
  factor (``0.5`` = "that model's kernels got twice as fast"), with the
  scheduler's cost profiles rebuilt to match, so admission thresholds
  agree with the new costs;
* **streams** — add (or set) device compute streams;
* **quantum scaling** — multiply the scheduling quantum.

Each scenario reports the measured mean/p50/p95/p99 deltas and the
per-component blame deltas versus the baseline.  For kernel scaling the
report also carries the *prediction* the baseline blame profile makes
(remove the scaled fraction of the model's own execution time plus the
head-of-line waits charged to that model's jobs) so the causal finding
"the blame profile predicts the p99 movement" is checkable — the
acceptance suite asserts the prediction lands within 10 % on the fair
scheduler.

Perturbed runs never touch the shared graph/profile caches: graphs are
substituted through ``run_workload(graph_overrides=...)`` and profiles
are rebuilt by the uncached
:func:`~repro.experiments.runner.build_profiler_output`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.blame import blame_report, exact_percentile
from ..core.profiler import ProfilerOutput
from ..graph.graph import Graph
from ..graph.node import DurationModel, Node
from ..telemetry import TelemetryConfig
from ..telemetry.attribution import RequestAttribution, attribute_tracer
from ..workloads.scenarios import ClientSpec
from .runner import (
    ExperimentConfig,
    build_profiler_output,
    get_graph,
    run_workload,
)

__all__ = [
    "WHATIF_SCHEMA_VERSION",
    "Perturbation",
    "scale_gpu_durations",
    "heaviest_model",
    "predicted_latencies",
    "run_whatif",
]

WHATIF_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Perturbation:
    """One counterfactual to replay against the baseline."""

    name: str
    # (model name, factor): scale that model's GPU-node durations.
    # ``model=None`` means "the heaviest model by attributed execution
    # time in the baseline run" (resolved by :func:`run_whatif`).
    kernel_scale: Optional[Tuple[Optional[str], float]] = None
    streams: Optional[int] = None
    quantum_scale: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        if self.kernel_scale is not None:
            out["kernel_scale"] = {
                "model": self.kernel_scale[0],
                "factor": self.kernel_scale[1],
            }
        if self.streams is not None:
            out["streams"] = self.streams
        if self.quantum_scale is not None:
            out["quantum_scale"] = self.quantum_scale
        return out


def scale_gpu_durations(graph: Graph, factor: float) -> Graph:
    """A structural copy of ``graph`` with GPU durations scaled.

    CPU nodes keep their duration models; ids, ops, and edges are
    preserved so compiled replay schedules stay isomorphic.
    """
    if factor <= 0.0:
        raise ValueError(f"kernel scale factor must be > 0: {factor}")
    clones: Dict[int, Node] = {}
    for node in graph.nodes:
        model = node.duration_model
        if node.is_gpu and factor != 1.0:
            model = DurationModel(
                fixed=model.fixed * factor, slope=model.slope * factor
            )
        clones[node.node_id] = Node(node.node_id, node.name, node.op, model)
    for node in graph.nodes:
        for child in node.children:
            clones[node.node_id].add_child(clones[child.node_id])
    return Graph(graph.name, [clones[n.node_id] for n in graph.nodes],
                 root=clones[graph.root.node_id])


def heaviest_model(attributions: Sequence[RequestAttribution]) -> Optional[str]:
    """The model with the largest total attributed execution time."""
    totals: Dict[str, float] = {}
    for a in attributions:
        if a.status != "ok" or a.model is None:
            continue
        execution = a.components["exec_solo"] + a.components["interference"]
        totals[a.model] = totals.get(a.model, 0.0) + execution
    if not totals:
        return None
    return max(sorted(totals), key=lambda m: totals[m])


def predicted_latencies(
    attributions: Sequence[RequestAttribution],
    model: str,
    factor: float,
) -> List[float]:
    """Counterfactual per-request latencies for a kernel-scaling move.

    Blame-profile prediction: scaling ``model``'s kernels by ``factor``
    removes ``(1 - factor)`` of (a) each of that model's requests' own
    execution time and (b) every request's head-of-line wait charged to
    jobs of that model.  Exact on the serial device up to second-order
    scheduling effects — which is precisely what the what-if replay
    then measures.
    """
    model_of = {a.job_id: a.model for a in attributions}
    saved_fraction = 1.0 - factor
    predicted: List[float] = []
    for a in attributions:
        if a.status != "ok":
            continue
        saving = 0.0
        if a.model == model:
            saving += saved_fraction * (
                a.components["exec_solo"] + a.components["interference"]
            )
        for blocker, seconds in a.blockers.items():
            if model_of.get(blocker) == model:
                saving += saved_fraction * seconds
        predicted.append(max(0.0, a.e2e - saving))
    return predicted


def _stats_of(attributions: Sequence[RequestAttribution]) -> Dict[str, float]:
    served = [a.e2e for a in attributions if a.status == "ok"]
    return {
        "mean": sum(served) / len(served) if served else 0.0,
        "p50": exact_percentile(served, 50),
        "p95": exact_percentile(served, 95),
        "p99": exact_percentile(served, 99),
    }


def run_whatif(
    specs: Sequence[ClientSpec],
    scheduler: str = "fair",
    config: Optional[ExperimentConfig] = None,
    perturbations: Sequence[Perturbation] = (),
    include_requests: bool = False,
) -> Dict[str, Any]:
    """Run the baseline plus every perturbation; return the report."""
    config = config or ExperimentConfig()
    telemetry = TelemetryConfig(verbosity="spans")
    baseline = run_workload(specs, scheduler, config, telemetry=telemetry)
    base_attr = attribute_tracer(baseline.telemetry.tracer)
    base_report = blame_report(
        base_attr, scheduler, include_requests=include_requests
    )
    base_stats = _stats_of(base_attr)
    entries = sorted({(spec.model, spec.batch_size) for spec in specs})

    scenarios: List[Dict[str, Any]] = []
    for perturbation in perturbations:
        run_config = config
        overrides: Optional[Dict[str, Graph]] = None
        profiler_output = baseline.profiler_output
        if perturbation.quantum_scale is not None:
            if baseline.quantum is None:
                raise ValueError(
                    f"{scheduler!r} has no quantum to scale"
                )
            new_quantum = baseline.quantum * perturbation.quantum_scale
            run_config = dc_replace(run_config, quantum=new_quantum)
            if profiler_output is not None:
                profiler_output = ProfilerOutput(
                    quantum=new_quantum,
                    store=profiler_output.store,
                    curves=profiler_output.curves,
                    tolerance=profiler_output.tolerance,
                )
        if perturbation.streams is not None:
            run_config = dc_replace(run_config, streams=perturbation.streams)
        scaled_model: Optional[str] = None
        if perturbation.kernel_scale is not None:
            model, factor = perturbation.kernel_scale
            if model is None:
                model = heaviest_model(base_attr)
                if model is None:
                    raise ValueError(
                        "no served requests in the baseline to pick the "
                        "heaviest model from"
                    )
            elif model not in {spec.model for spec in specs}:
                raise ValueError(f"model {model!r} not in the workload")
            scaled_model = model
            overrides = {
                model: scale_gpu_durations(
                    get_graph(model, config.scale, config.graph_seed), factor
                )
            }
            if profiler_output is not None:
                # A set quantum implies no curves and a fixed Q.
                profiler_output = build_profiler_output(
                    entries,
                    dc_replace(run_config, quantum=profiler_output.quantum),
                    graph_overrides=overrides,
                )
        result = run_workload(
            specs,
            scheduler,
            run_config,
            profiler_output=profiler_output,
            telemetry=telemetry,
            graph_overrides=overrides,
        )
        attributions = attribute_tracer(result.telemetry.tracer)
        report = blame_report(
            attributions, scheduler, include_requests=include_requests
        )
        stats = _stats_of(attributions)
        described = perturbation.describe()
        if scaled_model is not None:
            described["kernel_scale"]["model"] = scaled_model
        scenario: Dict[str, Any] = {
            "perturbation": described,
            "e2e": stats,
            "delta": {
                key: stats[key] - base_stats[key] for key in base_stats
            },
            "components": report["components"],
            "component_delta": {
                name: (
                    report["components"][name]["total"]
                    - base_report["components"][name]["total"]
                )
                for name in report["components"]
            },
        }
        if scaled_model is not None:
            factor = perturbation.kernel_scale[1]
            predicted = predicted_latencies(base_attr, scaled_model, factor)
            predicted_stats = {
                "mean": sum(predicted) / len(predicted) if predicted else 0.0,
                "p50": exact_percentile(predicted, 50),
                "p95": exact_percentile(predicted, 95),
                "p99": exact_percentile(predicted, 99),
            }
            scenario["predicted"] = predicted_stats
            actual_p99 = stats["p99"]
            scenario["prediction_error_p99"] = (
                abs(predicted_stats["p99"] - actual_p99) / actual_p99
                if actual_p99 > 0
                else 0.0
            )
        if include_requests:
            scenario["requests"] = report.get("requests", [])
        scenarios.append(scenario)

    return {
        "schema": WHATIF_SCHEMA_VERSION,
        "scheduler": scheduler,
        "num_requests": base_report["num_requests"],
        "baseline": {
            "e2e": base_stats,
            "components": base_report["components"],
            "blockers": base_report["blockers"],
        },
        "scenarios": scenarios,
    }
