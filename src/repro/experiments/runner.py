"""The experiment runner: one harness for every table and figure.

``run_workload`` materialises a workload (list of
:class:`~repro.workloads.ClientSpec`) against a freshly built simulated
serving stack under a chosen scheduler, runs it to completion, and
returns an :class:`ExperimentResult` with accessors for every metric
the paper reports.

Profiling is the expensive step (solo runs + Overhead-Q sweeps), so
profiler outputs are cached per (models, scale, seeds, Q-grid,
tolerance) within the process — all figures that share a workload share
the profile, exactly as the real Olympian profiles once per model —
and persistently on disk across processes (content-keyed, see
:mod:`repro.experiments.profile_cache`).

All experiments run at a configurable ``scale`` (see DESIGN.md): node
counts and total work shrink proportionally, node durations and the
quantum stay realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..cluster.server import MultiGpuServer
from ..core.policies import FairSharing, PriorityScheduling, WeightedFairSharing
from ..core.policies_ext import (
    DeficitRoundRobin,
    EarliestDeadlineFirst,
    LotteryScheduling,
    ShortestRemainingWork,
)
from ..core.monitor import QuantumMonitor
from ..core.profiler import OfflineProfiler, ProfilerOutput
from ..core.quantum import DEFAULT_Q_GRID
from ..core.scheduler import (
    DEFAULT_WAKE_LATENCY,
    CpuTimerScheduler,
    GangScheduler,
    OlympianScheduler,
    SpatioTemporalScheduler,
)
from ..faults.determinism import trace_digest
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..graph.graph import Graph
from ..gpu.specs import GTX_1080_TI, GpuSpec
from ..metrics import collectors
from ..recovery import RecoveryConfig, RecoveryManager
from ..serving.client import Client
from ..serving.failures import RetryPolicy
from ..serving.server import ModelServer, ServerConfig
from ..sim.core import Simulator
from ..sim.rng import derive_seed
from ..telemetry import Telemetry, TelemetryConfig
from ..workloads.scenarios import ClientSpec
from ..zoo.catalog import MODEL_REGISTRY
from ..zoo.generate import generate_graph
from . import profile_cache

__all__ = [
    "DEFAULT_SCALE",
    "SCHEDULER_KINDS",
    "SPATIAL_SCHEDULER_KINDS",
    "ALL_SCHEDULER_KINDS",
    "DEFAULT_RT_OVERSUBSCRIPTION",
    "ExperimentConfig",
    "ExperimentResult",
    "ServingStack",
    "build_stack",
    "build_profiler_output",
    "get_graph",
    "get_profiler_output",
    "run_workload",
    "clear_caches",
]

DEFAULT_SCALE = 0.05

SCHEDULER_KINDS = (
    "tf-serving",
    "fair",
    "weighted",
    "priority",
    "timer",
    # Extended policies (beyond the paper's three; see policies_ext):
    "deficit-rr",
    "lottery",
    "edf",
    "srw",
)

# Spatio-temporal kinds (multi-stream device; see docs/SPATIAL.md).
# Kept out of SCHEDULER_KINDS so existing sweeps over the temporal
# kinds are unchanged.
SPATIAL_SCHEDULER_KINDS = (
    "spatial",
    "spatial-rt",
)

ALL_SCHEDULER_KINDS = SCHEDULER_KINDS + SPATIAL_SCHEDULER_KINDS

# Logical-capacity factor used by "spatial-rt" when the config leaves
# oversubscription at 1.0 (DARIS-style real-time admission headroom).
DEFAULT_RT_OVERSUBSCRIPTION = 1.5

_graph_cache: Dict[Tuple[str, float, int], Graph] = {}
_profile_cache: Dict[tuple, ProfilerOutput] = {}


def clear_caches() -> None:
    """Drop in-process cached graphs and profiler outputs (for tests).

    The on-disk profile cache is left alone — delete its directory or
    set ``REPRO_PROFILE_CACHE=0`` to bypass it.
    """
    _graph_cache.clear()
    _profile_cache.clear()


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``quantum=None`` means "let the profiler pick Q from Overhead-Q
    curves at ``tolerance``" — the paper's procedure.  Setting an
    explicit quantum skips curve measurement (used by sweeps).
    """

    scale: float = DEFAULT_SCALE
    seed: int = 0
    graph_seed: int = 1
    profile_seed: int = 7
    gpu_spec: GpuSpec = GTX_1080_TI
    n_cores: int = 12
    pool_size: int = 512
    tolerance: float = 0.025
    quantum: Optional[float] = None
    q_values: Tuple[float, ...] = DEFAULT_Q_GRID
    wake_latency: float = DEFAULT_WAKE_LATENCY
    curve_batches: int = 4
    track_memory: bool = False
    # Replay fast path (see ServerConfig.compiled); False selects the
    # reference node-walking session, used as a determinism oracle.
    compiled: bool = True
    # Evict a token holder that makes no progress for this long
    # (simulated seconds); None disables the stall watchdog.
    stall_threshold: Optional[float] = None
    # Runtime observability (repro.telemetry); None = off.  Purely
    # observational: trace_digest is bit-identical either way (the
    # telemetry property suite enforces this).
    telemetry: Optional[TelemetryConfig] = None
    # Failure recovery (repro.recovery); None = off.  With recovery off
    # the submit path is byte-for-byte the pre-recovery one, so clean
    # runs keep their digests.
    recovery: Optional[RecoveryConfig] = None
    # Spatial sharing (docs/SPATIAL.md).  ``streams`` overrides the GPU
    # spec's compute-stream count (None keeps the spec's value, 1 by
    # default); ``oversubscription`` is the "spatial-rt" logical
    # capacity factor (< 1.0 is rejected; leaving it at 1.0 selects
    # DEFAULT_RT_OVERSUBSCRIPTION for that kind).
    streams: Optional[int] = None
    oversubscription: float = 1.0


def get_graph(model: str, scale: float, graph_seed: int) -> Graph:
    """Cached synthetic graph for a registry model."""
    key = (model, scale, graph_seed)
    graph = _graph_cache.get(key)
    if graph is None:
        graph = generate_graph(MODEL_REGISTRY[model], scale=scale, seed=graph_seed)
        _graph_cache[key] = graph
    return graph


def get_profiler_output(
    entries: Sequence[Tuple[str, int]],
    config: ExperimentConfig,
    with_curves: Optional[bool] = None,
) -> ProfilerOutput:
    """Cached profiler build for a set of (model, batch) pairs.

    ``with_curves`` defaults to "only if no explicit quantum was set".
    """
    if with_curves is None:
        with_curves = config.quantum is None
    key = (
        tuple(sorted(entries)),
        config.scale,
        config.graph_seed,
        config.profile_seed,
        config.quantum,
        config.tolerance,
        config.q_values if with_curves else None,
        config.wake_latency,
        config.curve_batches,
        config.gpu_spec.name,
    )
    output = _profile_cache.get(key)
    if output is not None:
        return output
    disk_key = None
    if profile_cache.cache_enabled():
        disk_key = profile_cache.cache_key(entries, config, with_curves)
        output = profile_cache.load(disk_key)
        if output is not None:
            _profile_cache[key] = output
            return output
    output = build_profiler_output(entries, config, with_curves)
    _profile_cache[key] = output
    if disk_key is not None:
        profile_cache.store(disk_key, output)
    return output


def build_profiler_output(
    entries: Sequence[Tuple[str, int]],
    config: ExperimentConfig,
    with_curves: Optional[bool] = None,
    graph_overrides: Optional[Mapping[str, Graph]] = None,
) -> ProfilerOutput:
    """Uncached profiler build behind :func:`get_profiler_output`.

    ``graph_overrides`` profiles substituted graphs (the what-if
    harness's perturbed cost models); such a build must never be keyed
    as the canonical one, which is why this touches neither cache.
    """
    if with_curves is None:
        with_curves = config.quantum is None
    profiler = offline_profiler(config)
    graph_entries = [
        (_model_graph(model, config, graph_overrides), batch)
        for model, batch in sorted(set(entries))
    ]
    return profiler.build(
        graph_entries,
        tolerance=config.tolerance,
        q_values=config.q_values,
        with_curves=with_curves,
        fixed_quantum=config.quantum,
    )


def offline_profiler(config: ExperimentConfig) -> OfflineProfiler:
    """The offline profiler a build under ``config`` runs."""
    return OfflineProfiler(
        base_config=ServerConfig(
            gpu_spec=config.gpu_spec,
            n_cores=config.n_cores,
            pool_size=config.pool_size,
            track_memory=False,
            # Profiles are solo-calibrated on the serial engine even
            # for multi-stream experiments: interference is modeled
            # online by the scheduler, not baked into node costs.
            streams=1,
        ),
        seed=config.profile_seed,
        wake_latency=config.wake_latency,
        curve_batches=config.curve_batches,
    )


def _model_graph(
    model: str,
    config: ExperimentConfig,
    graph_overrides: Optional[Mapping[str, Graph]],
) -> Graph:
    if graph_overrides is not None and model in graph_overrides:
        return graph_overrides[model]
    return get_graph(model, config.scale, config.graph_seed)


def _make_scheduler(
    kind: str,
    sim: Simulator,
    config: ExperimentConfig,
    profiler_output: Optional[ProfilerOutput],
) -> Optional[GangScheduler]:
    if kind == "tf-serving":
        return None
    if kind == "timer":
        quantum = config.quantum
        if quantum is None:
            if profiler_output is None:
                raise ValueError("timer scheduler needs a quantum or profiles")
            quantum = profiler_output.quantum
        return CpuTimerScheduler(
            sim,
            FairSharing(),
            quantum=quantum,
            wake_latency=config.wake_latency,
            stall_threshold=config.stall_threshold,
        )
    if profiler_output is None:
        raise ValueError(f"scheduler {kind!r} requires profiler output")
    if kind in SPATIAL_SCHEDULER_KINDS:
        streams = (
            config.streams
            if config.streams is not None
            else config.gpu_spec.streams
        )
        if config.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1.0: {config.oversubscription}"
            )
        oversubscription = 1.0
        if kind == "spatial-rt":
            oversubscription = (
                config.oversubscription
                if config.oversubscription > 1.0
                else DEFAULT_RT_OVERSUBSCRIPTION
            )
        return SpatioTemporalScheduler(
            sim,
            FairSharing(),
            quantum=profiler_output.quantum,
            profiles=profiler_output.store,
            streams=streams,
            wake_latency=config.wake_latency,
            stall_threshold=config.stall_threshold,
            oversubscription=oversubscription,
            seed=config.seed,
        )
    policies = {
        "fair": FairSharing,
        "weighted": WeightedFairSharing,
        "priority": PriorityScheduling,
        "deficit-rr": DeficitRoundRobin,
        "lottery": lambda: LotteryScheduling(seed=config.seed),
        "edf": EarliestDeadlineFirst,
        "srw": ShortestRemainingWork,
    }
    try:
        policy_cls = policies[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheduler kind {kind!r}; choose from {ALL_SCHEDULER_KINDS}"
        )
    return OlympianScheduler(
        sim,
        policy_cls(),
        quantum=profiler_output.quantum,
        profiles=profiler_output.store,
        wake_latency=config.wake_latency,
        stall_threshold=config.stall_threshold,
    )


@dataclass
class ServingStack:
    """A freshly built simulated serving stack, before any traffic.

    Everything :func:`run_workload` used to wire inline — simulator,
    scheduler, server, fault injector, recovery manager, telemetry
    pipeline, drift monitor, loaded models — so the soak harness (and
    anything else that drives its own traffic) can build the exact
    stack experiments use and then attach an admission gate or job
    journal on top.  ``server`` is a :class:`MultiGpuServer` front
    (and ``scheduler`` is ``None``) when the stack spans several GPUs.
    """

    scheduler_kind: str
    config: ExperimentConfig
    sim: Simulator
    server: Union[ModelServer, MultiGpuServer]
    scheduler: Optional[GangScheduler]
    profiler_output: Optional[ProfilerOutput]
    injector: Optional[FaultInjector]
    recovery: Optional[RecoveryManager]
    telemetry: Optional[Telemetry]
    monitor: Optional[QuantumMonitor]

    @property
    def quantum(self) -> Optional[float]:
        if self.scheduler is None:
            return None
        return getattr(self.scheduler, "quantum", None)


def build_stack(
    entries: Sequence[Tuple[str, int]],
    scheduler: str = "fair",
    config: Optional[ExperimentConfig] = None,
    profiler_output: Optional[ProfilerOutput] = None,
    fault_plan: Optional[FaultPlan] = None,
    telemetry: Optional[TelemetryConfig] = None,
    monitor: bool = False,
    on_snapshot: Optional[Callable] = None,
    recovery: Optional[RecoveryConfig] = None,
    graph_overrides: Optional[Mapping[str, Graph]] = None,
    gpus: int = 1,
) -> ServingStack:
    """Build the simulated serving stack for ``(model, batch)`` entries.

    This performs exactly the construction sequence ``run_workload``
    always has — same seam order, same derived seeds — so a stack built
    here behaves bit-identically to one built inside an experiment.

    ``gpus > 1`` builds a :class:`~repro.cluster.MultiGpuServer` front
    instead: one worker per device, each with its own scheduler of the
    same kind, behind least-loaded placement.  The fault plan lands on
    worker 0 and recovery supervises the front, failing work over to
    the surviving devices; ``ServingStack.scheduler`` is then ``None``.
    Telemetry and drift monitoring need a single-GPU stack.
    """
    config = config or ExperimentConfig()
    if scheduler not in ALL_SCHEDULER_KINDS:
        raise ValueError(
            f"unknown scheduler kind {scheduler!r}; choose from {ALL_SCHEDULER_KINDS}"
        )
    telemetry_config = telemetry if telemetry is not None else config.telemetry
    if gpus != 1 and (telemetry_config is not None or monitor):
        raise ValueError(
            "telemetry and drift monitoring need a single-GPU stack "
            f"(gpus={gpus})"
        )
    entries = sorted(set(entries))
    needs_profiles = scheduler not in ("tf-serving", "timer") or (
        scheduler == "timer" and config.quantum is None
    )
    if needs_profiles and profiler_output is None:
        profiler_output = get_profiler_output(entries, config)

    sim = Simulator()
    server_config = ServerConfig(
        gpu_spec=config.gpu_spec,
        n_cores=config.n_cores,
        pool_size=config.pool_size,
        track_memory=config.track_memory,
        compiled=config.compiled,
        seed=derive_seed(config.seed, f"run:{scheduler}"),
        streams=config.streams,
    )
    if gpus == 1:
        gang_scheduler = _make_scheduler(scheduler, sim, config, profiler_output)
        server = ModelServer(sim, server_config, scheduler=gang_scheduler)
        workers = [server]
    else:
        gang_scheduler = None
        server = MultiGpuServer(
            sim,
            gpus,
            config=server_config,
            scheduler_factory=lambda sim_, _worker: _make_scheduler(
                scheduler, sim_, config, profiler_output
            ),
        )
        workers = [worker.server for worker in server.workers]
    for worker in workers:
        if isinstance(worker.scheduler, SpatioTemporalScheduler):
            # The multi-stream engine consults the scheduler for per-job
            # concurrency bounds (and reports kernel starts to its
            # invariant checker).
            worker.device.allocator = worker.scheduler
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan)
        injector.attach(workers[0])
    recovery_config = recovery if recovery is not None else config.recovery
    manager = None
    if recovery_config is not None:
        manager = RecoveryManager(recovery_config).attach(server)
    pipeline = None
    if telemetry_config is not None:
        pipeline = Telemetry(telemetry_config)
        if on_snapshot is not None:
            pipeline.on_snapshot.append(on_snapshot)
        pipeline.attach(server)
    monitor_obj = None
    if monitor:
        if not isinstance(gang_scheduler, OlympianScheduler):
            raise ValueError(
                "profile-drift monitoring needs an Olympian scheduler "
                f"(cost-accumulation quanta); got {scheduler!r}"
            )
        monitor_obj = QuantumMonitor(server, gang_scheduler)
        if pipeline is not None:
            pipeline.attach_monitor(monitor_obj)
    for model in sorted({model for model, _ in entries}):
        server.load_model(
            _model_graph(model, config, graph_overrides),
            memory_mb=MODEL_REGISTRY[model].memory_mb,
        )

    return ServingStack(
        scheduler_kind=scheduler,
        config=config,
        sim=sim,
        server=server,
        scheduler=gang_scheduler,
        profiler_output=profiler_output,
        injector=injector,
        recovery=manager,
        telemetry=pipeline,
        monitor=monitor_obj,
    )


@dataclass
class ExperimentResult:
    """A completed run plus metric accessors."""

    scheduler_kind: str
    config: ExperimentConfig
    sim: Simulator
    server: ModelServer
    scheduler: Optional[GangScheduler]
    clients: List[Client]
    profiler_output: Optional[ProfilerOutput]
    quantum: Optional[float]
    fault_plan: Optional[FaultPlan] = None
    injector: Optional[FaultInjector] = None
    telemetry: Optional[Telemetry] = None
    # Telemetry.finalize() rollup, merged into bench/reproduce reports.
    telemetry_rollup: Optional[Dict[str, object]] = None
    monitor: Optional[QuantumMonitor] = None
    recovery: Optional[RecoveryManager] = None

    # ------------------------------------------------------------------
    # Metric accessors (paper quantities)
    # ------------------------------------------------------------------

    @property
    def finish_times(self) -> Dict[object, float]:
        return collectors.finish_times(self.clients)

    def finish_time_list(self) -> List[float]:
        return [client.finish_time for client in self.clients]

    def all_active_window(self) -> Tuple[float, float]:
        return collectors.all_active_window(self.clients)

    def quantum_gpu_durations(
        self, windowed: bool = True
    ) -> Dict[object, List[float]]:
        if self.scheduler is None:
            raise ValueError("no middleware scheduler in this run")
        window = self.all_active_window() if windowed else None
        return collectors.quantum_gpu_durations(
            self.server, self.scheduler, window=window
        )

    def scheduling_intervals(self, windowed: bool = True) -> List[float]:
        if self.scheduler is None:
            raise ValueError("no middleware scheduler in this run")
        window = self.all_active_window() if windowed else None
        return collectors.scheduling_interval_durations(
            self.scheduler, window=window
        )

    def client_gpu_durations(self) -> Dict[object, float]:
        return collectors.client_gpu_durations(self.server, self.clients)

    def utilization(self) -> float:
        return collectors.window_utilization(self.server, self.clients)

    @property
    def completed(self) -> bool:
        return all(client.completed for client in self.clients)

    # ------------------------------------------------------------------
    # Robustness accessors
    # ------------------------------------------------------------------

    def trace_digest(self) -> str:
        """SHA-256 digest of the run's observable behaviour.

        Identical seeds and fault plans must produce identical digests
        — the determinism property the fault suite locks down.
        """
        return trace_digest(
            self.server, scheduler=self.scheduler, clients=self.clients
        )

    @property
    def faults_injected(self) -> int:
        if self.injector is None:
            return 0
        return (
            self.injector.kernels_crashed
            + self.injector.ooms_injected
            + self.injector.hangs_injected
            + self.injector.devices_crashed
        )

    def recovery_report(self) -> Optional[Dict[str, object]]:
        if self.recovery is None:
            return None
        return self.recovery.report()

    @property
    def total_failed_batches(self) -> int:
        return sum(client.failed_batches for client in self.clients)

    @property
    def total_retries(self) -> int:
        return sum(client.retries for client in self.clients)


def run_workload(
    specs: Sequence[ClientSpec],
    scheduler: str = "fair",
    config: Optional[ExperimentConfig] = None,
    profiler_output: Optional[ProfilerOutput] = None,
    require_completion: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    batch_timeout: Optional[float] = None,
    telemetry: Optional[TelemetryConfig] = None,
    monitor: bool = False,
    on_snapshot: Optional[Callable] = None,
    recovery: Optional[RecoveryConfig] = None,
    graph_overrides: Optional[Mapping[str, Graph]] = None,
) -> ExperimentResult:
    """Run a workload under a scheduler kind and collect everything.

    ``scheduler`` is one of :data:`ALL_SCHEDULER_KINDS`.  A cached
    profiler output is built automatically when the scheduler needs one.

    ``fault_plan`` attaches a deterministic
    :class:`~repro.faults.injector.FaultInjector` to the server;
    ``retry_policy``/``batch_timeout`` give every client the
    corresponding robustness behaviour.  With faults a client may lose
    batches, so ``require_completion`` then only demands the client
    *loops* finish, not that every batch succeeded.

    ``recovery`` attaches a
    :class:`~repro.recovery.RecoveryManager` (failover, circuit
    breakers, brownout) so device crashes become recoverable instead of
    lost batches.

    ``graph_overrides`` substitutes specific models' graphs without
    touching the shared graph cache — the counterfactual-replay seam
    used by :mod:`repro.experiments.whatif` (perturbed cost models).
    Callers supplying overrides normally also pass a matching
    ``profiler_output`` so the scheduler's cost model agrees with the
    perturbed graphs.
    """
    config = config or ExperimentConfig()
    entries = sorted({(spec.model, spec.batch_size) for spec in specs})
    stack = build_stack(
        entries,
        scheduler=scheduler,
        config=config,
        profiler_output=profiler_output,
        fault_plan=fault_plan,
        telemetry=telemetry,
        monitor=monitor,
        on_snapshot=on_snapshot,
        recovery=recovery,
        graph_overrides=graph_overrides,
    )
    sim = stack.sim
    server = stack.server
    gang_scheduler = stack.scheduler
    profiler_output = stack.profiler_output
    injector = stack.injector
    manager = stack.recovery
    pipeline = stack.telemetry
    monitor_obj = stack.monitor

    clients = [
        Client(
            sim,
            server,
            client_id=spec.client_id,
            model_name=spec.model,
            batch_size=spec.batch_size,
            num_batches=spec.num_batches,
            weight=spec.weight,
            priority=spec.priority,
            think_time=spec.think_time,
            start_delay=spec.start_delay,
            batch_timeout=batch_timeout,
            retry_policy=retry_policy,
        )
        for spec in specs
    ]
    for client in clients:
        client.start()
    sim.run()
    # Scan before finalize so drift alerts land in the rollup.
    if monitor_obj is not None:
        monitor_obj.scan()
    rollup = pipeline.finalize() if pipeline is not None else None

    if require_completion:
        stuck = [c.client_id for c in clients if not c.completed]
        if stuck:
            raise RuntimeError(
                f"clients did not complete under {scheduler!r}: {stuck}"
            )

    quantum = None
    if gang_scheduler is not None:
        quantum = getattr(gang_scheduler, "quantum", None)
    return ExperimentResult(
        scheduler_kind=scheduler,
        config=config,
        sim=sim,
        server=server,
        scheduler=gang_scheduler,
        clients=clients,
        profiler_output=profiler_output,
        quantum=quantum,
        fault_plan=fault_plan,
        injector=injector,
        telemetry=pipeline,
        telemetry_rollup=rollup,
        monitor=monitor_obj,
        recovery=manager,
    )
