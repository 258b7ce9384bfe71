"""Load-aware admission control: the serving stack's front door.

The GPUScheduler monitor-daemon pattern asks one question before every
launch: *is it safe to start this right now?*  The
:class:`AdmissionGate` answers it from live signals — active jobs,
driver queue depth, device liveness, and (duck-typed, so the serving
layer never imports the recovery layer) the attached
:class:`~repro.recovery.RecoveryManager`'s brownout ceiling and
circuit-breaker states — against a headroom threshold, and returns a
**typed decision** instead of an exception:

``admit``
    Below the headroom threshold: submitted immediately.
``degrade``
    In the soft band between ``headroom`` and the hard ceiling: served
    now, but at a reduced batch size (brownout by quality, not by
    refusal), when the config opts in.
``defer``
    At the ceiling: parked in the gate's per-tenant priority queues
    and dispatched highest-priority-first as capacity frees.
``reject``
    Queues full, breaker open, or the request's SLO is already
    hopeless per a :mod:`repro.slo` estimator — fast refusal with a
    machine-readable reason and a ``retry_after`` hint.

Every decision is emitted on the telemetry bus
(``admission.decision`` / ``admission.dispatch``) and counted by
(action, reason) for the metrics rollup.  The gate is strictly opt-in:
nothing constructs one by default, and an unattached server's digest
is bit-identical to a gate-less build (the seams are ``None`` checks,
exactly like telemetry and recovery).

Layering: the gate sits *above* :class:`repro.recovery`'s brownout —
it folds the brownout ceiling into its own, so a gated submit never
reaches the recovery layer's shedding path.  It is also the only SLO
admission controller: pass any object with
``estimate_for(server, model, batch)`` (e.g. a
:class:`~repro.slo.estimator.FairShareEstimator`) to get predictive
SLO-hopeless rejection on top of the load thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..gpu.memory import GpuOutOfMemory
from .request import Job

__all__ = ["AdmissionConfig", "Decision", "AdmissionGate"]

DECISION_ACTIONS = ("admit", "degrade", "defer", "reject")


@dataclass(frozen=True)
class AdmissionConfig:
    """Thresholds for one gate.

    ``max_active`` is the hard concurrency ceiling; ``headroom`` is the
    monitor-daemon safety threshold — the gate stops *freely* admitting
    at ``headroom * max_active`` (the classic 85–90% band) and starts
    degrading/deferring.  ``max_queue_depth`` bounds the device
    driver's queued kernels (a deep kernel queue means latency is
    already committed).  ``degrade_batch_floor`` enables the degrade
    band: batches are halved, never below the floor.
    """

    max_active: int = 8
    headroom: float = 0.85
    max_queue_depth: Optional[int] = None
    defer: bool = True
    max_pending_total: int = 64
    max_pending_per_tenant: int = 16
    degrade_batch_floor: Optional[int] = None
    retry_after: float = 0.05

    def __post_init__(self):
        if self.max_active < 1:
            raise ValueError(f"max_active must be >= 1: {self.max_active}")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError(f"headroom must be in (0, 1]: {self.headroom}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1: {self.max_queue_depth}"
            )
        if self.max_pending_total < 0 or self.max_pending_per_tenant < 0:
            raise ValueError("pending bounds must be >= 0")
        if self.degrade_batch_floor is not None and self.degrade_batch_floor < 1:
            raise ValueError(
                f"degrade_batch_floor must be >= 1: {self.degrade_batch_floor}"
            )
        if self.retry_after <= 0:
            raise ValueError(f"retry_after must be positive: {self.retry_after}")


@dataclass
class Decision:
    """One gate verdict: what happened and what to wait on.

    ``job`` is the job actually serving the request (the original, or
    the reduced-batch clone for ``degrade``); ``done`` is the event to
    wait on (``None`` only for ``reject``).
    """

    action: str
    reason: str
    job: Optional[Job]
    done: Optional[Any]
    tenant: str
    retry_after: Optional[float] = None


class _Deferred:
    """One parked request (per-tenant priority queue entry)."""

    __slots__ = ("job", "tenant", "slo", "order", "outer", "enqueued_at")

    def __init__(self, job: Job, tenant: str, slo, order: int, outer,
                 enqueued_at: float):
        self.job = job
        self.tenant = tenant
        self.slo = slo
        self.order = order
        self.outer = outer
        self.enqueued_at = enqueued_at


class AdmissionGate:
    """Monitor-daemon-style admission over a serving front.

    ``front`` is a :class:`~repro.serving.server.ModelServer` or
    anything that quacks like one (``active_jobs``, ``submit``,
    ``sim``; a multi-GPU front works through the same surface).
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        estimator: Any = None,
    ):
        self.config = config or AdmissionConfig()
        self.estimator = estimator
        self.front = None
        self.sim = None
        # tenant -> parked entries; dispatch picks the (priority desc,
        # order asc) best across tenants, so the dict only groups for
        # the per-tenant bound and the report.
        self._queues: Dict[str, List[_Deferred]] = {}
        self._pending_total = 0
        self._order = 0
        self._retry_scheduled = False
        # (action, reason) -> count, insertion-ordered.
        self.decisions: Dict[Tuple[str, str], int] = {}
        self.admitted = 0
        self.degraded = 0
        self.deferred = 0
        self.rejected = 0
        self.dispatched = 0
        self.max_pending_seen = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, front) -> "AdmissionGate":
        """Wire the gate onto ``front``'s capacity-change seams."""
        if self.front is not None:
            raise RuntimeError("AdmissionGate is already attached")
        self.front = front
        self.sim = front.sim
        front.admission = self
        workers = getattr(front, "workers", None)
        if workers is not None:
            for worker in workers:
                worker.server.admission = self
        return self

    # ------------------------------------------------------------------
    # Live load signals
    # ------------------------------------------------------------------

    def _ceiling(self) -> int:
        """Hard concurrency limit: the gate's, folded with the
        recovery brownout's (so a gated submit never reaches the
        recovery layer's own shedding path)."""
        limit = self.config.max_active
        recovery = getattr(self.front, "recovery", None)
        brownout = getattr(getattr(recovery, "config", None), "brownout", None)
        if brownout is not None:
            limit = min(limit, brownout.max_active)
        return limit

    def _queue_depth(self) -> int:
        driver = getattr(self.front, "driver", None)
        if driver is not None:
            return driver.total_queued
        workers = getattr(self.front, "workers", None)
        if workers is None:
            return 0
        return sum(w.server.driver.total_queued for w in workers)

    def _devices_down(self) -> Tuple[int, int]:
        workers = getattr(self.front, "workers", None)
        if workers is None:
            device = getattr(self.front, "device", None)
            down = 1 if device is not None and device.down else 0
            return down, 1
        down = sum(1 for w in workers if w.server.device.down)
        return down, len(workers)

    def _breaker_block(self, model: str) -> Optional[float]:
        """Breaker backpressure for ``model``: ``None`` if a submit
        would be admitted right now, else the retry-after hint (0.0 for
        a half-open breaker at probe capacity — there the wake-up is a
        probe finishing, not a timer).  Uses the breaker's non-mutating
        ``would_admit`` preview so the gate never consumes probe slots
        it does not use."""
        recovery = getattr(self.front, "recovery", None)
        breakers = getattr(recovery, "breakers", None)
        if not breakers:
            return None
        breaker = breakers.get(model)
        if breaker is None:
            return None
        would_admit = getattr(breaker, "would_admit", None)
        if would_admit is None or would_admit(self.sim.now):
            return None
        return breaker.retry_after(self.sim.now)

    def load(self) -> Dict[str, Any]:
        """The signals one decision reads (also the report's shape)."""
        down, total = self._devices_down()
        return {
            "active": self.front.active_jobs,
            "ceiling": self._ceiling(),
            "queue_depth": self._queue_depth(),
            "devices_down": down,
            "devices_total": total,
            "pending": self._pending_total,
        }

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------

    def submit(
        self,
        job: Job,
        tenant: str = "default",
        slo: Optional[float] = None,
    ) -> Decision:
        """Decide, act, and return the typed outcome for ``job``."""
        if slo is not None and slo <= 0:
            raise ValueError(f"SLO must be positive: {slo}")
        config = self.config

        remaining = self._breaker_block(job.model_name)
        if remaining is not None:
            return self._reject(job, tenant, "breaker-open", remaining)

        if self.estimator is not None and slo is not None:
            estimate = self.estimator.estimate_for(
                self.front, job.model_name, job.batch_size
            )
            if estimate > slo:
                return self._reject(job, tenant, "slo-hopeless",
                                    config.retry_after)

        active = self.front.active_jobs
        ceiling = self._ceiling()
        down, total = self._devices_down()
        queued = self._queue_depth()
        overloaded = (
            active >= ceiling
            or down >= total
            or (
                config.max_queue_depth is not None
                and queued >= config.max_queue_depth
            )
        )
        soft = active >= config.headroom * ceiling

        if not overloaded:
            if (
                soft
                and config.degrade_batch_floor is not None
                and job.batch_size >= 2 * config.degrade_batch_floor
            ):
                return self._degrade(job, tenant)
            reason = "soft-band" if soft else "headroom-ok"
            return self._admit(job, tenant, reason)

        if config.defer:
            if self._pending_total >= config.max_pending_total:
                return self._reject(job, tenant, "queue-full",
                                    config.retry_after)
            queue = self._queues.get(tenant, ())
            if len(queue) >= config.max_pending_per_tenant:
                return self._reject(job, tenant, "tenant-limit",
                                    config.retry_after)
            return self._defer(job, tenant, slo)
        return self._reject(job, tenant, "overloaded", config.retry_after)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _admit(self, job: Job, tenant: str, reason: str) -> Decision:
        try:
            done = self.front.submit(job)
        except GpuOutOfMemory:
            return self._reject(job, tenant, "oom", self.config.retry_after)
        self.admitted += 1
        self._record("admit", reason, job, tenant)
        return Decision("admit", reason, job, done, tenant)

    def _degrade(self, job: Job, tenant: str) -> Decision:
        floor = self.config.degrade_batch_floor
        reduced = max(floor, job.batch_size // 2)
        clone = Job(
            self.sim,
            job.client_id,
            job.graph,
            reduced,
            weight=job.weight,
            priority=job.priority,
            deadline=job.deadline,
            job_id=f"{job.job_id}~d",
        )
        try:
            done = self.front.submit(clone)
        except GpuOutOfMemory:
            return self._reject(job, tenant, "oom", self.config.retry_after)
        self.degraded += 1
        self._record("degrade", "soft-band", clone, tenant,
                     original_batch=job.batch_size, batch=reduced)
        return Decision("degrade", "soft-band", clone, done, tenant)

    def _defer(
        self, job: Job, tenant: str, slo: Optional[float]
    ) -> Decision:
        outer = self.sim.event()
        entry = _Deferred(job, tenant, slo, self._order, outer, self.sim.now)
        self._order += 1
        self._queues.setdefault(tenant, []).append(entry)
        self._pending_total += 1
        if self._pending_total > self.max_pending_seen:
            self.max_pending_seen = self._pending_total
        self.deferred += 1
        self._record("defer", "overloaded", job, tenant)
        return Decision("defer", "overloaded", job, outer, tenant)

    def _reject(
        self, job: Job, tenant: str, reason: str, retry_after: Optional[float]
    ) -> Decision:
        self.rejected += 1
        self._record("reject", reason, job, tenant)
        return Decision("reject", reason, None, None, tenant,
                        retry_after=retry_after)

    # ------------------------------------------------------------------
    # Deferred dispatch (capacity-freed seams on the server)
    # ------------------------------------------------------------------

    def _next_entry(self) -> Tuple[Optional[_Deferred], Optional[float]]:
        """Best dispatchable entry: highest priority wins; ties go to
        the oldest (FIFO).  Entries whose model's circuit breaker is
        open are skipped; the second value is the shortest remaining
        breaker cooldown among skipped entries (``None`` if none were
        blocked), so the pump can schedule a retry instead of stranding
        them."""
        best: Optional[_Deferred] = None
        blocked_wait: Optional[float] = None
        for tenant in sorted(self._queues):
            for entry in self._queues[tenant]:
                remaining = self._breaker_block(entry.job.model_name)
                if remaining is not None:
                    if blocked_wait is None or remaining < blocked_wait:
                        blocked_wait = remaining
                    continue
                if best is None or (-entry.job.priority, entry.order) < (
                    -best.job.priority, best.order
                ):
                    best = entry
        return best, blocked_wait

    def _retry_pump(self, delay: float):
        yield self.sim.timeout(delay)
        self._retry_scheduled = False
        self._pump()

    def _pump(self) -> None:
        while self._pending_total > 0:
            active = self.front.active_jobs
            ceiling = self._ceiling()
            down, total = self._devices_down()
            if active >= ceiling or down >= total:
                return
            entry, blocked_wait = self._next_entry()
            if entry is None:
                if (
                    blocked_wait is not None
                    and blocked_wait > 0
                    and not self._retry_scheduled
                ):
                    # Every parked entry is behind an open breaker; try
                    # again when the shortest cooldown lapses.  (A 0.0
                    # wait means half-open at probe capacity: the wake
                    # signal there is the probe finishing, which fires
                    # on_job_finished.)
                    self._retry_scheduled = True
                    self.sim.process(
                        self._retry_pump(blocked_wait),
                        name="admission-retry",
                    )
                return
            queue = self._queues[entry.tenant]
            queue.remove(entry)
            if not queue:
                del self._queues[entry.tenant]
            self._pending_total -= 1
            try:
                inner = self.front.submit(entry.job)
            except GpuOutOfMemory as exc:
                self.rejected += 1
                self._record("reject", "oom", entry.job, entry.tenant)
                entry.outer.fail(exc)
                continue
            self.dispatched += 1
            self._emit(
                "admission.dispatch",
                job_id=entry.job.job_id,
                tenant=entry.tenant,
                waited=self.sim.now - entry.enqueued_at,
                pending=self._pending_total,
            )
            self.sim.process(
                self._chain(entry, inner),
                name=f"admission:{entry.job.job_id}",
            )

    def _chain(self, entry: _Deferred, inner):
        """Forward the dispatched attempt's outcome to the outer event."""
        try:
            value = yield inner
        except Exception as exc:  # lint: disable=ROB001 — forwarded, not
            # swallowed: the waiter observes the same failure.
            entry.outer.fail(exc)
            return
        entry.outer.succeed(value)

    def on_job_finished(self, server) -> None:
        """Capacity freed: deferred requests may now be safe to start."""
        self._pump()

    def on_device_reset(self, server) -> None:
        """The device came back: the queue may drain again."""
        self._pump()

    # ------------------------------------------------------------------
    # Accounting & telemetry
    # ------------------------------------------------------------------

    def _record(
        self, action: str, reason: str, job: Job, tenant: str, **extra: Any
    ) -> None:
        key = (action, reason)
        self.decisions[key] = self.decisions.get(key, 0) + 1
        self._emit(
            "admission.decision",
            action=action,
            reason=reason,
            job_id=job.job_id,
            tenant=tenant,
            active=self.front.active_jobs,
            pending=self._pending_total,
            **extra,
        )

    def _emit(self, kind: str, **attrs: Any) -> None:
        telemetry = getattr(self.front, "telemetry", None)
        if telemetry is not None:
            telemetry.emit(kind, "admission", **attrs)

    @property
    def pending_depth(self) -> int:
        return self._pending_total

    def pending_by_tenant(self) -> Dict[str, int]:
        return {
            tenant: len(queue)
            for tenant, queue in sorted(self._queues.items())
        }

    def decisions_by_reason(self) -> Dict[str, int]:
        """``"action:reason" -> count`` in sorted key order."""
        return {
            f"{action}:{reason}": count
            for (action, reason), count in sorted(self.decisions.items())
        }

    def report(self) -> Dict[str, Any]:
        """Deterministic summary (stable key order, sim-derived only)."""
        return {
            "admitted": self.admitted,
            "degraded": self.degraded,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "dispatched": self.dispatched,
            "pending": self._pending_total,
            "max_pending_seen": self.max_pending_seen,
            "pending_by_tenant": self.pending_by_tenant(),
            "decisions": self.decisions_by_reason(),
        }
