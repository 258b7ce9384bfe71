"""Extension experiments beyond the paper's evaluation.

The paper's future-work list (§7.2) names more realistic workloads,
multiple GPUs, and power measurement.  Each gets a quantitative
experiment here, built from the same substrate as the reproduction:

* :func:`latency_predictability` — an *open-loop* Poisson arrival
  stream (the paper's workloads are closed-loop).  The claim under
  test: Olympian makes per-request latency predictable (tight
  p99/p50), while stock TF-Serving's arbitrary driver arbitration
  produces a heavy latency tail at the same throughput.
* :func:`multigpu_scaling` — throughput scaling across 1..N GPUs with
  per-GPU Olympian schedulers and client-sticky placement.
* :func:`energy_comparison` — energy per request under TF-Serving vs
  Olympian's policies, using the two-state device power model.

Every stack comes from :func:`~repro.experiments.runner.build_stack`,
and the open-loop runs stream a
:class:`~repro.workloads.trace.RequestTrace` through
:func:`~repro.workloads.traffic.drive`, the soak harness's front door.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster.placement import StickyClientPlacement
from ..faults.plan import FaultPlan, FaultSpec
from ..gpu.power import GTX_1080_TI_POWER, PowerModel, energy_joules
from ..metrics import stats
from ..metrics.report import (
    format_ms,
    format_percent,
    format_ratio,
    format_seconds,
    render_table,
)
from ..serving.admission import AdmissionConfig, AdmissionGate
from ..serving.client import Client
from ..serving.failures import RetryPolicy
from ..sim.rng import derive_seed
from ..workloads.scenarios import homogeneous_workload, with_priorities, with_weights
from ..workloads.trace import RequestTrace, TraceRequest, _poisson_times
from ..workloads.traffic import drive
from ..zoo.catalog import INCEPTION_V4
from .runner import (
    DEFAULT_SCALE,
    ExperimentConfig,
    build_stack,
    get_graph,
    get_profiler_output,
    run_workload,
)

__all__ = [
    "latency_predictability",
    "LatencyResult",
    "multigpu_scaling",
    "MultiGpuResult",
    "energy_comparison",
    "EnergyResult",
    "slo_attainment",
    "SloResult",
    "fault_tolerance",
    "FaultToleranceResult",
    "recovery_goodput",
    "RecoveryGoodputResult",
]


# ----------------------------------------------------------------------
# Open-loop latency predictability
# ----------------------------------------------------------------------


@dataclass
class LatencyResult:
    """Latency distributions for one open-loop run per scheduler."""

    arrival_rate: float
    num_requests: int
    latencies: Dict[str, List[float]]  # scheduler kind -> request latencies

    def p50(self, kind: str) -> float:
        return stats.percentile(self.latencies[kind], 50)

    def p99(self, kind: str) -> float:
        return stats.percentile(self.latencies[kind], 99)

    def tail_ratio(self, kind: str) -> float:
        """p99 / p50 — the predictability metric (1.0 = deterministic)."""
        return self.p99(kind) / self.p50(kind)

    def report(self) -> str:
        rows = []
        for kind in self.latencies:
            rows.append(
                [
                    kind,
                    format_ms(self.p50(kind)),
                    format_ms(self.p99(kind)),
                    format_ratio(self.tail_ratio(kind)),
                    format_percent(stats.relative_stddev(self.latencies[kind])),
                ]
            )
        return render_table(
            ["scheduler", "p50 latency", "p99 latency", "p99/p50", "CoV"],
            rows,
            title=(
                "Extension: open-loop Poisson arrivals "
                f"(rate={self.arrival_rate:.0f}/s, n={self.num_requests}) — "
                "latency predictability"
            ),
        )


def _poisson_requests(
    rng: random.Random,
    rate: float,
    count: int,
    batch_size: int,
    slo: Optional[float] = None,
) -> RequestTrace:
    """``count`` Inception-v4 requests arriving as a Poisson process."""
    times = itertools.islice(_poisson_times(rng, rate, math.inf), count)
    return RequestTrace(
        [TraceRequest(t, INCEPTION_V4.name, batch_size, slo) for t in times]
    )


def _open_loop_run(
    scheduler_kind: str,
    arrival_rate: float,
    num_requests: int,
    batch_size: int,
    scale: float,
    seed: int,
    quantum: float,
) -> List[float]:
    stack = build_stack(
        [(INCEPTION_V4.name, batch_size)],
        scheduler_kind,
        config=ExperimentConfig(scale=scale, seed=seed, quantum=quantum),
    )
    rng = random.Random(derive_seed(seed, f"arrivals:{scheduler_kind}"))
    trace = _poisson_requests(rng, arrival_rate, num_requests, batch_size)
    traffic = drive(stack.sim, stack.server, trace)
    stack.sim.run()
    if traffic.completed != num_requests:
        raise RuntimeError(
            f"open-loop run lost requests: {traffic.completed}/{num_requests}"
        )
    return traffic.latencies


def latency_predictability(
    arrival_rate: Optional[float] = None,
    num_requests: int = 120,
    batch_size: int = 100,
    scale: float = DEFAULT_SCALE,
    seed: int = 5,
    quantum: float = 1.2e-3,
    target_load: float = 0.7,
) -> LatencyResult:
    """Open-loop comparison at ~``target_load`` device utilization."""
    graph = get_graph(INCEPTION_V4.name, scale, 1)
    if arrival_rate is None:
        service_time = graph.gpu_duration(batch_size)
        arrival_rate = target_load / service_time
    latencies = {
        kind: _open_loop_run(
            kind, arrival_rate, num_requests, batch_size, scale, seed, quantum
        )
        for kind in ("tf-serving", "fair")
    }
    return LatencyResult(
        arrival_rate=arrival_rate,
        num_requests=num_requests,
        latencies=latencies,
    )


# ----------------------------------------------------------------------
# Multi-GPU scaling
# ----------------------------------------------------------------------


@dataclass
class MultiGpuResult:
    """Makespan and fairness for the same workload on 1..N GPUs."""

    gpu_counts: List[int]
    makespans: Dict[int, float]
    fairness: Dict[int, float]  # Jain index of per-client GPU time

    def speedup(self, num_gpus: int) -> float:
        return self.makespans[self.gpu_counts[0]] / self.makespans[num_gpus]

    def report(self) -> str:
        rows = [
            [
                n,
                format_seconds(self.makespans[n]),
                f"{self.speedup(n):.2f}x",
                f"{self.fairness[n]:.4f}",
            ]
            for n in self.gpu_counts
        ]
        return render_table(
            ["GPUs", "makespan", "speedup", "Jain fairness"],
            rows,
            title=(
                "Extension: multi-GPU scaling with per-GPU Olympian "
                "fair sharing (paper future work §7.2)"
            ),
        )


def multigpu_scaling(
    gpu_counts: Sequence[int] = (1, 2, 4),
    num_clients: int = 8,
    num_batches: int = 4,
    batch_size: int = 100,
    scale: float = DEFAULT_SCALE,
    seed: int = 5,
    quantum: float = 1.2e-3,
) -> MultiGpuResult:
    entries = [(INCEPTION_V4.name, batch_size)]
    config = ExperimentConfig(scale=scale, seed=seed, quantum=quantum)
    output = get_profiler_output(entries, config)
    makespans: Dict[int, float] = {}
    fairness: Dict[int, float] = {}
    for num_gpus in gpu_counts:
        stack = build_stack(
            entries, "fair", config=config, profiler_output=output,
            gpus=num_gpus,
        )
        if num_gpus > 1:
            # Client-sticky by definition; a single GPU is a plain server.
            stack.server.placement = StickyClientPlacement()
        clients = [
            Client(stack.sim, stack.server, f"c{i}", INCEPTION_V4.name,
                   batch_size, num_batches=num_batches)
            for i in range(num_clients)
        ]
        for client in clients:
            client.start()
        stack.sim.run()
        makespans[num_gpus] = max(c.finished_at for c in clients)
        fairness[num_gpus] = stats.jain_index(
            [c.total_gpu_duration() for c in clients]
        )
    return MultiGpuResult(
        gpu_counts=list(gpu_counts), makespans=makespans, fairness=fairness
    )


# ----------------------------------------------------------------------
# Energy
# ----------------------------------------------------------------------


@dataclass
class EnergyResult:
    """Energy per run and per request under each scheduler."""

    power_model: PowerModel
    num_requests: int
    energy: Dict[str, float]  # scheduler -> joules over its serving window
    makespans: Dict[str, float]

    def joules_per_request(self, kind: str) -> float:
        return self.energy[kind] / self.num_requests

    def report(self) -> str:
        rows = [
            [
                kind,
                format_seconds(self.makespans[kind]),
                f"{self.energy[kind]:.1f} J",
                f"{self.joules_per_request(kind):.2f} J",
            ]
            for kind in self.energy
        ]
        return render_table(
            ["scheduler", "makespan", "total energy", "energy/request"],
            rows,
            title=(
                "Extension: energy under each scheduler "
                f"({self.power_model.name}, two-state power model; "
                "paper lists power as unevaluated future work)"
            ),
        )


def energy_comparison(
    num_clients: int = 10,
    num_batches: int = 6,
    scale: float = DEFAULT_SCALE,
    seed: int = 5,
    power_model: PowerModel = GTX_1080_TI_POWER,
) -> EnergyResult:
    config = ExperimentConfig(scale=scale, seed=seed)
    base = homogeneous_workload(num_clients=num_clients, num_batches=num_batches)
    half = num_clients // 2
    workloads = {
        "tf-serving": base,
        "fair": base,
        "weighted": with_weights(base, [2] * half + [1] * (num_clients - half)),
        "priority": with_priorities(base, list(range(num_clients, 0, -1))),
    }
    energy: Dict[str, float] = {}
    makespans: Dict[str, float] = {}
    for kind, specs in workloads.items():
        run = run_workload(specs, scheduler=kind, config=config)
        lo = min(job.submitted_at for c in run.clients for job in c.jobs)
        hi = max(c.finished_at for c in run.clients)
        energy[kind] = energy_joules(run.server.device, power_model, lo, hi)
        makespans[kind] = hi - lo
    return EnergyResult(
        power_model=power_model,
        num_requests=num_clients * num_batches,
        energy=energy,
        makespans=makespans,
    )


# ----------------------------------------------------------------------
# SLO attainment under overload
# ----------------------------------------------------------------------


@dataclass
class SloResult:
    """SLO attainment for three systems under the same overload."""

    slo: float
    num_requests: int
    attainment: Dict[str, float]   # met-SLO fraction of *completed* jobs
    goodput: Dict[str, int]        # requests finished within SLO
    rejected: Dict[str, int]

    def report(self) -> str:
        rows = [
            [
                system,
                format_percent(self.attainment[system]),
                self.goodput[system],
                self.rejected[system],
            ]
            for system in self.attainment
        ]
        return render_table(
            ["system", "SLO attainment", "goodput", "rejected"],
            rows,
            title=(
                "Extension: SLO attainment under ~1.3x overload "
                f"(SLO = {format_ms(self.slo)}, n={self.num_requests}) — "
                "predictability enables admission control"
            ),
        )


def slo_attainment(
    num_requests: int = 100,
    scale: float = DEFAULT_SCALE,
    batch_size: int = 100,
    seed: int = 9,
    quantum: float = 1.2e-3,
    overload: float = 1.3,
    slo_multiplier: float = 5.0,
) -> SloResult:
    """Open-loop overload: TF-Serving and Olympian without admission
    control versus Olympian behind an :class:`AdmissionGate` whose
    :class:`~repro.slo.FairShareEstimator` rejects hopeless SLOs (its
    concurrency ceiling never binds and nothing is deferred)."""
    from ..slo import FairShareEstimator

    entries = [(INCEPTION_V4.name, batch_size)]
    config = ExperimentConfig(scale=scale, seed=seed, quantum=quantum)
    output = get_profiler_output(entries, config)
    demand = output.store.lookup(INCEPTION_V4.name, batch_size).gpu_duration
    slo = slo_multiplier * demand
    arrival_rate = overload / demand

    attainment: Dict[str, float] = {}
    goodput: Dict[str, int] = {}
    rejected: Dict[str, int] = {}

    for system in ("tf-serving", "fair", "fair+admission"):
        kind = "tf-serving" if system == "tf-serving" else "fair"
        stack = build_stack(
            entries, kind, config=config, profiler_output=output
        )
        gate = None
        if system == "fair+admission":
            estimator = FairShareEstimator(
                output.store, overhead=0.05, host_fraction=0.2
            )
            gate = AdmissionGate(
                AdmissionConfig(max_active=num_requests, defer=False),
                estimator=estimator,
            ).attach(stack.server)
        rng = random.Random(derive_seed(seed, "slo-arrivals"))
        trace = _poisson_requests(
            rng, arrival_rate, num_requests, batch_size, slo=slo
        )
        traffic = drive(stack.sim, stack.server, trace, gate=gate)
        stack.sim.run()
        met = sum(latency <= slo for latency in traffic.latencies)
        completed = traffic.completed
        attainment[system] = met / completed if completed else 0.0
        goodput[system] = met
        rejected[system] = traffic.rejected

    return SloResult(
        slo=slo,
        num_requests=num_requests,
        attainment=attainment,
        goodput=goodput,
        rejected=rejected,
    )


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------


@dataclass
class FaultToleranceResult:
    """Outcome of the crash-one-of-N fault-injection scenario."""

    plan: FaultPlan
    faulty_client: str
    num_clients: int
    survivor_finish_times: Dict[object, float]
    survivor_fairness: float  # Jain index of survivor finish times
    faults_injected: int
    retries: int
    failed_batches: int
    completed: bool
    digest: str

    def report(self) -> str:
        rows = [
            [client_id, format_seconds(finish)]
            for client_id, finish in sorted(
                self.survivor_finish_times.items(), key=lambda kv: str(kv[0])
            )
        ]
        table = render_table(
            ["survivor", "finish time"],
            rows,
            title=(
                "Extension: fault tolerance — one of "
                f"{self.num_clients} clients ({self.faulty_client}) "
                "suffers repeated injected kernel crashes"
            ),
        )
        return "\n".join(
            [
                table,
                f"faults injected: {self.faults_injected}   "
                f"retries: {self.retries}   "
                f"failed batches: {self.failed_batches}",
                f"survivor Jain fairness: {self.survivor_fairness:.4f}   "
                f"all client loops completed: {self.completed}",
                f"trace digest: {self.digest[:16]}…",
            ]
        )


# ----------------------------------------------------------------------
# Recovery goodput under a fault storm
# ----------------------------------------------------------------------


_ATTEMPT_SUFFIX = re.compile(r"r\d+$")


def _successful_batches(client: Client) -> int:
    """Batches that reached a successful response.

    Works for clients that aborted early (stranded batches are neither
    attempted nor failed): distinct batch ids attempted minus the
    batches that terminally failed or timed out.
    """
    attempted = {
        _ATTEMPT_SUFFIX.sub("", job.job_id) for job in client.jobs
    }
    return len(attempted) - client.failed_batches - client.timed_out_batches


@dataclass
class RecoveryGoodputResult:
    """Goodput of three systems under the same device-crash storm."""

    plan: FaultPlan
    total_batches: int
    successful: Dict[str, int]       # system -> batches answered OK
    stranded: Dict[str, int]         # batches never even attempted
    retries: Dict[str, int]
    failovers: Dict[str, int]
    makespans: Dict[str, float]
    unterminated: Dict[str, int]     # accepted jobs that never terminated
    completed: Dict[str, bool]       # every client loop ran to the end

    def goodput(self, system: str) -> float:
        makespan = self.makespans[system]
        return self.successful[system] / makespan if makespan > 0 else 0.0

    def report(self) -> str:
        rows = [
            [
                system,
                f"{self.successful[system]}/{self.total_batches}",
                self.stranded[system],
                self.retries[system],
                self.failovers[system],
                f"{self.goodput(system):.0f}/s",
                "yes" if self.completed[system] else "NO",
            ]
            for system in self.successful
        ]
        return render_table(
            [
                "system", "batches ok", "stranded", "retries",
                "failovers", "goodput", "loops done",
            ],
            rows,
            title=(
                "Extension: goodput under a device-crash storm — "
                "failover recovery vs client retries vs stock TF-Serving"
            ),
        )


def recovery_goodput(
    num_clients: int = 4,
    num_batches: int = 5,
    batch_size: int = 100,
    scale: float = DEFAULT_SCALE,
    seed: int = 13,
    quantum: float = 1.2e-3,
    crash_times: Sequence[float] = (0.004, 0.012, 0.15, 0.3),
    faulty_client: str = "c0",
) -> RecoveryGoodputResult:
    """The same crash storm against three systems.

    * ``tf-serving`` — no middleware scheduler, no retries: a crashed
      batch kills its client, stranding every batch behind it.
    * ``fair`` — Olympian fair sharing plus client-side retries: the
      client re-executes crashed batches from scratch after backoff.
    * ``fair+recovery`` — the same scheduler with a
      :class:`~repro.recovery.RecoveryManager`: crashed jobs are rolled
      back and failed over inside the serving system; clients just see
      slower responses.  Every accepted job terminates.

    The storm is ``len(crash_times)`` full device crashes (profiled
    reset latency) plus a burst of kernel crashes against one client,
    so the comparison also shows non-crash faults behaving identically
    across the two fair systems.
    """
    from ..recovery import RecoveryConfig

    specs = homogeneous_workload(
        num_clients=num_clients, num_batches=num_batches, batch_size=batch_size
    )
    plan = FaultPlan(
        faults=tuple(
            FaultSpec(kind="device_crash", at=at, duration=0.0)
            for at in crash_times
        )
        + (
            FaultSpec(
                kind="kernel_crash", client_id=faulty_client, after=1, count=2
            ),
        ),
        seed=seed,
    )
    config = ExperimentConfig(scale=scale, seed=seed, quantum=quantum)
    retry = RetryPolicy(max_attempts=3, base_delay=2e-4)
    systems = {
        "tf-serving": dict(scheduler="tf-serving", retry_policy=None,
                           recovery=None),
        "fair": dict(scheduler="fair", retry_policy=retry, recovery=None),
        "fair+recovery": dict(
            scheduler="fair",
            retry_policy=retry,
            recovery=RecoveryConfig(failover=True, breaker=None, brownout=None),
        ),
    }
    total = num_clients * num_batches
    successful: Dict[str, int] = {}
    stranded: Dict[str, int] = {}
    retries: Dict[str, int] = {}
    failovers: Dict[str, int] = {}
    makespans: Dict[str, float] = {}
    unterminated: Dict[str, int] = {}
    completed: Dict[str, bool] = {}
    for system, knobs in systems.items():
        run = run_workload(
            specs,
            scheduler=knobs["scheduler"],
            config=config,
            fault_plan=plan,
            retry_policy=knobs["retry_policy"],
            recovery=knobs["recovery"],
            require_completion=False,
        )
        ok = sum(_successful_batches(client) for client in run.clients)
        attempted = sum(
            len({_ATTEMPT_SUFFIX.sub("", job.job_id) for job in client.jobs})
            for client in run.clients
        )
        successful[system] = ok
        stranded[system] = total - attempted
        retries[system] = run.total_retries
        failovers[system] = (
            run.recovery.failovers if run.recovery is not None else 0
        )
        makespans[system] = run.sim.now
        unterminated[system] = (
            len(run.recovery.unterminated()) if run.recovery is not None else 0
        )
        completed[system] = run.completed
    return RecoveryGoodputResult(
        plan=plan,
        total_batches=total,
        successful=successful,
        stranded=stranded,
        retries=retries,
        failovers=failovers,
        makespans=makespans,
        unterminated=unterminated,
        completed=completed,
    )


def fault_tolerance(
    num_clients: int = 6,
    num_batches: int = 6,
    batch_size: int = 100,
    scale: float = DEFAULT_SCALE,
    seed: int = 11,
    quantum: float = 1.2e-3,
    faulty_client: str = "c0",
    crash_every: int = 2,
) -> FaultToleranceResult:
    """One of ``num_clients`` clients crashes repeatedly; the rest must
    not notice.

    The faulty client's kernels are rejected at the driver on a fixed
    ordinal schedule; each killed job fails its ``done`` event with a
    typed ``JobFailed``, the client retries with exponential backoff
    and eventually gives the batch up.  The claim under test: graceful
    degradation — the survivors' finish times stay as fair as in a
    clean run (Jain index over survivors > 0.99), and nothing deadlocks.
    """
    specs = homogeneous_workload(
        num_clients=num_clients, num_batches=num_batches, batch_size=batch_size
    )
    plan = FaultPlan(
        faults=(
            FaultSpec(
                kind="kernel_crash",
                client_id=faulty_client,
                after=1,
                every=crash_every,
                count=0,  # unlimited: the client faults for its whole run
            ),
        ),
        seed=seed,
    )
    config = ExperimentConfig(scale=scale, seed=seed, quantum=quantum)
    run = run_workload(
        specs,
        scheduler="fair",
        config=config,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=2e-4),
    )
    survivors = [c for c in run.clients if c.client_id != faulty_client]
    finish_times = {c.client_id: c.finish_time for c in survivors}
    return FaultToleranceResult(
        plan=plan,
        faulty_client=faulty_client,
        num_clients=num_clients,
        survivor_finish_times=finish_times,
        survivor_fairness=stats.jain_index(list(finish_times.values())),
        faults_injected=run.faults_injected,
        retries=run.total_retries,
        failed_batches=run.total_failed_batches,
        completed=run.completed,
        digest=run.trace_digest(),
    )
