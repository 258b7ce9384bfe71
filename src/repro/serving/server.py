"""The model server: TF-Serving's role in the stack.

Owns the simulated hardware (GPU device + driver, host CPU, inter-op
thread pool, device memory), the loaded model graphs, and the active
scheduler hook.  Clients submit :class:`~repro.serving.request.Job`
objects; each runs as a :class:`~repro.serving.session.Session`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..graph.costmodel import CostModel, NodeCostProfile
from ..graph.graph import Graph
from ..graph.node import Node
from ..gpu.device import GpuDevice
from ..gpu.driver import Driver
from ..gpu.memory import MemoryPool
from ..gpu.specs import GTX_1080_TI, GpuSpec
from ..host.cpu import HostCpu
from ..host.threadpool import ThreadPool
from ..sim.core import Event, Simulator
from ..sim.rng import RngRegistry
from ..sim.trace import IntervalTracer
from ..zoo.generate import generate_graph
from ..zoo.spec import ModelSpec
from .hooks import NullSchedulerHook, SchedulerHook
from .request import Job
from .session import Session

__all__ = ["ServerConfig", "ModelServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of a model server.

    Defaults model the paper's primary testbed: i7-8700 (12 hardware
    threads), GTX 1080 Ti, TF-Serving 1.2 inter-op pool.

    ``dispatch_jitter`` is the OS thread-scheduling noise when a gang
    thread is handed a GPU node; it is the stochastic ingredient behind
    TF-Serving's run-to-run unpredictability (Figure 3).

    ``compiled`` selects the replay fast path: sessions execute a
    precomputed per-(graph, batch) cost schedule
    (:mod:`repro.graph.compiled`) instead of re-walking node objects.
    Behaviour (and ``trace_digest``) is bit-identical either way;
    ``compiled=False`` keeps the original walk as a reference/oracle.

    ``streams`` overrides ``gpu_spec.streams`` without rebuilding the
    spec (the CLI/experiment knob); ``None`` keeps the spec's value.
    """

    gpu_spec: GpuSpec = GTX_1080_TI
    n_cores: int = 12
    pool_size: int = 512
    launch_latency: float = 1e-6
    dispatch_latency: float = 1e-6
    dispatch_jitter: float = 8e-6
    online_profiling: bool = False
    track_memory: bool = True
    compiled: bool = True
    seed: int = 0
    streams: Optional[int] = None

    def with_seed(self, seed: int) -> "ServerConfig":
        return replace(self, seed=seed)


class ModelServer:
    """A single-GPU model serving system."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[ServerConfig] = None,
        scheduler: Optional[SchedulerHook] = None,
        cpu: Optional[HostCpu] = None,
        pool: Optional[ThreadPool] = None,
    ):
        self.sim = sim
        self.config = config or ServerConfig()
        if (
            self.config.streams is not None
            and self.config.streams != self.config.gpu_spec.streams
        ):
            # Fold the stream override into the spec so every consumer
            # (device, memory pool, reset latency) sees one truth.
            self.config = replace(
                self.config,
                gpu_spec=replace(
                    self.config.gpu_spec, streams=self.config.streams
                ),
            )
        self.rngs = RngRegistry(self.config.seed)
        self._dispatch_rng = self.rngs.stream("dispatch")
        self._cost_rng = self.rngs.stream("cost-observation")
        self.tracer = IntervalTracer()
        self.driver = Driver(sim, rng=self.rngs.stream("driver"))
        self.device = GpuDevice(
            sim,
            self.config.gpu_spec,
            self.driver,
            self.tracer,
            rng=self.rngs.stream("gpu-clock"),
        )
        # Host-side resources may be shared between servers (one serving
        # stack per GPU on a common host — the multi-GPU deployment).
        self.cpu = cpu if cpu is not None else HostCpu(sim, self.config.n_cores)
        self.pool = pool if pool is not None else ThreadPool(self.config.pool_size)
        self.memory = MemoryPool(self.config.gpu_spec.memory_mb)
        self.scheduler: SchedulerHook = scheduler or NullSchedulerHook()
        self.cost_model = CostModel()
        self._models: Dict[str, Tuple[Graph, int]] = {}
        self.completed_jobs: List[Job] = []
        self.active_jobs = 0
        # Set by FaultInjector.attach(); consulted on submit so ``oom``
        # faults fire even when memory tracking is disabled.
        self.fault_injector = None
        # Set by Telemetry.attach(); observation-only, so every emission
        # site is guarded by a single ``is not None`` check.
        self.telemetry = None
        # Set by RecoveryManager.attach(): ``recovery`` intercepts
        # submit/cancel (admission, supervision, failover);
        # ``recovery_observer`` is notified of capacity and device
        # lifecycle changes.  Both None = recovery off, zero new
        # behaviour (digest-neutral).
        self.recovery = None
        self.recovery_observer = None
        # Set by AdmissionGate.attach(): notified when capacity frees
        # or the device resets so deferred requests can dispatch.
        # None = no gate, zero new behaviour (digest-neutral).
        self.admission = None
        self.device_crashes = 0
        # Cost observations recorded during online-profiled runs:
        # (model, batch) -> node_id -> list of observed costs.
        self._observations: Dict[Tuple[str, int], Dict[int, List[float]]] = (
            defaultdict(lambda: defaultdict(list))
        )

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------

    def load_model(self, graph: Graph, memory_mb: int = 240) -> None:
        """Make ``graph`` servable under its own name."""
        if graph.name in self._models:
            raise ValueError(f"model {graph.name!r} already loaded")
        self._models[graph.name] = (graph, memory_mb)

    def load_spec(
        self, spec: ModelSpec, scale: float = 1.0, seed: int = 0
    ) -> Graph:
        """Generate a zoo model at ``scale`` and load it."""
        graph = generate_graph(spec, scale=scale, seed=seed)
        self.load_model(graph, memory_mb=spec.memory_mb)
        return graph

    def model(self, name: str) -> Graph:
        try:
            return self._models[name][0]
        except KeyError:
            known = ", ".join(sorted(self._models))
            raise KeyError(f"model {name!r} not loaded; have: {known}")

    def model_memory_mb(self, name: str) -> int:
        return self._models[name][1]

    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------

    def make_job(
        self,
        client_id: Any,
        model_name: str,
        batch_size: int,
        weight: int = 1,
        priority: int = 0,
    ) -> Job:
        """Build a job against a loaded model."""
        return Job(
            self.sim,
            client_id,
            self.model(model_name),
            batch_size,
            weight=weight,
            priority=priority,
        )

    def submit(self, job: Job) -> Event:
        """Start serving ``job``; returns its completion event.

        Raises :class:`~repro.gpu.memory.GpuOutOfMemory` if the device
        cannot hold another client of this model.  With a
        :class:`~repro.recovery.RecoveryManager` attached the job is
        supervised instead: the returned event is the *supervision*
        outcome, which survives device crashes via failover, and
        admission may raise
        :class:`~repro.recovery.errors.ModelUnavailable` (circuit
        breaker open) or :class:`~repro.recovery.errors.JobShed`
        (brownout) — both retryable.
        """
        if self.recovery is not None:
            return self.recovery.supervise(self, job)
        return self._submit(job)

    def _submit(self, job: Job) -> Event:
        """The unsupervised submit path (one attempt, no recovery)."""
        footprint = self._models[job.model_name][1]
        if self.config.track_memory:
            # The memory pool's fault hook (if an injector is attached)
            # fires inside allocate().
            self.memory.allocate(job.job_id, footprint)
        elif self.fault_injector is not None:
            self.fault_injector.check_submit(job.job_id, footprint)
        job.submitted_at = self.sim.now
        self.active_jobs += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "request.submitted",
                "server",
                batch_span=job.batch_span_id,
                **job.telemetry_attrs(),
            )
        session = Session(self, job)
        self.sim.process(session.run(), name=f"session:{job.job_id}")
        return job.done

    def cancel(self, job: Job) -> bool:
        """Cooperatively cancel an in-flight job.

        In-flight kernels complete (GPU work cannot be revoked); the
        gang drains at the next node boundaries and the job's ``done``
        event fails with :class:`~repro.serving.cancellation.JobCancelled`.
        Returns False if the job already finished, failed, or was
        cancelled.  With recovery attached the cancellation routes
        through the supervision record, so multi-attempt (failed-over)
        jobs cancel correctly too.
        """
        if self.recovery is not None:
            return self.recovery.cancel(job)
        return self._cancel(job)

    def _cancel(self, job: Job) -> bool:
        """Cancel a single attempt directly (no supervision lookup)."""
        if job.done.triggered or job.cancelled or job.failed:
            return False
        job.cancelled = True
        self.scheduler.on_cancel(job)
        return True

    def _finish_job(self, job: Job) -> None:
        self.active_jobs -= 1
        self.completed_jobs.append(job)
        if self.config.track_memory and self.memory.holds(job.job_id):
            self.memory.release(job.job_id)
        if self.telemetry is not None:
            self.telemetry.emit(
                "request.finished",
                "server",
                status=job.status,
                latency=job.latency,
                **job.telemetry_attrs(),
            )
        if self.recovery_observer is not None:
            # Capacity freed: the brownout pending queue may dispatch.
            self.recovery_observer.on_job_finished(self)
        if self.admission is not None:
            # After recovery, so its queue dispatches first (the gate's
            # ceiling folds the brownout limit in, keeping both honest).
            self.admission.on_job_finished(self)

    # ------------------------------------------------------------------
    # Device crash & reset (fault injection / recovery)
    # ------------------------------------------------------------------

    def crash_device(self, reset_latency: Optional[float] = None) -> int:
        """Crash the GPU: flush queued kernels, reject launches, reset.

        Every queued kernel (and any launch attempted before the reset
        completes) fails with
        :class:`~repro.faults.errors.DeviceCrashed`; the engine stalls
        for ``reset_latency`` seconds (default: the GPU spec's profiled
        ``reset_latency``), after which the device serves normally
        again.  Returns the number of kernels flushed.
        """
        if reset_latency is None:
            reset_latency = self.config.gpu_spec.reset_latency
        if reset_latency <= 0:
            raise ValueError(
                f"reset_latency must be positive: {reset_latency}"
            )
        now = self.sim.now
        self.device_crashes += 1
        self.device.begin_outage(reset_latency)
        flushed = self.driver.crash(now + reset_latency)
        if self.telemetry is not None:
            self.telemetry.emit(
                "device.crashed",
                "device",
                reset_latency=reset_latency,
                kernels_flushed=flushed,
            )
        if self.recovery_observer is not None:
            self.recovery_observer.on_device_crashed(self, reset_latency)
        self.sim.process(
            self._reset_body(reset_latency), name=f"device-reset@{now:g}"
        )
        return flushed

    def _reset_body(self, reset_latency: float):
        yield self.sim.timeout(reset_latency)
        if self.device.down:
            # A later crash extended the outage; its own reset process
            # will announce the recovery.
            return
        if self.telemetry is not None:
            self.telemetry.emit(
                "device.reset", "device", reset_latency=reset_latency
            )
        if self.recovery_observer is not None:
            self.recovery_observer.on_device_reset(self)
        if self.admission is not None:
            self.admission.on_device_reset(self)

    # ------------------------------------------------------------------
    # Hooks used by sessions
    # ------------------------------------------------------------------

    def dispatch_delay(self) -> float:
        """Latency before a freshly fetched gang thread starts running."""
        jitter = self.config.dispatch_jitter
        if jitter <= 0.0:
            return self.config.dispatch_latency
        # ``uniform(0.0, jitter)`` without its frame: that computes
        # ``0.0 + (jitter - 0.0) * random()``, the same float.
        return self.config.dispatch_latency + jitter * self._dispatch_rng.random()

    def instrumentation_slowdown(self) -> float:
        """Per-node slowdown when the online cost profiler is attached."""
        if not self.config.online_profiling:
            return 0.0
        return self.cost_model.instrumentation_cost

    def _observe_cost(self, job: Job, node: Node) -> None:
        """Record a cost-model observation during an instrumented run."""
        if not node.is_gpu:
            return
        observed = self.cost_model.node_cost(node, job.batch_size, self._cost_rng)
        # The profiler measures wall time, so the observation carries
        # this run's effective device clock (paper §4.4: total cost has
        # a small but correlated run-to-run spread).
        observed *= self.device.clock_factor
        self._observations[(job.model_name, job.batch_size)][node.node_id].append(
            observed
        )

    def observed_profile(self, model_name: str, batch_size: int) -> NodeCostProfile:
        """Average the instrumented-run observations into a profile."""
        key = (model_name, batch_size)
        if key not in self._observations:
            raise KeyError(
                f"no online-profiled observations for {model_name!r} "
                f"at batch {batch_size}"
            )
        node_costs = {
            node_id: sum(costs) / len(costs)
            for node_id, costs in self._observations[key].items()
        }
        return NodeCostProfile(model_name, batch_size, node_costs)

    # ------------------------------------------------------------------
    # Measurement conveniences
    # ------------------------------------------------------------------

    def gpu_duration_of(self, job: Job) -> float:
        """GPU duration (Figure 5 union metric) attributed to ``job``."""
        return self.tracer.duration(job.job_id)

    def utilization(self, window_start: float, window_end: float) -> float:
        return self.device.utilization(window_start, window_end)
