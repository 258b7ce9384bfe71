"""Seeded soak runs: open-loop traffic vs crashes *and* process kills.

Chaos campaigns (:mod:`repro.experiments.chaos`) storm a closed-loop
workload with device faults.  A *soak* goes one step further on both
axes:

* traffic is the **open-loop** :class:`~repro.workloads.traffic`
  stream — arrivals keep coming whether or not the stack keeps up,
  filtered through a load-aware
  :class:`~repro.serving.admission.AdmissionGate`; and
* the failure model includes **process kills**: at configured stream
  times the entire in-memory serving stack (simulator included) is
  thrown away mid-flight, exactly as ``kill -9`` would, and a new
  incarnation is built that must recover solely from the durable
  :class:`~repro.durability.JobStore` journal plus the
  seed-deterministic traffic stream.

Each incarnation re-admits the journal's unterminated obligations
(:func:`~repro.durability.resume.resume_plan`), then resumes the
arrival stream from the kill point — the journal's admitted set is the
``skip`` filter, so a boundary arrival is never double-served.  The
no-job-lost SLA is checked at the end: every ``admitted`` journal row
must have reached a terminal row (``completed``/``failed``/``shed``),
the final stack must end clean, and the journal's
:meth:`~repro.durability.JobStore.resume_digest` must be byte-stable
for the seed (the restart-determinism property suite and the CI
``soak-smoke`` job both pin it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..durability import JobStore, resume_plan
from ..faults.plan import FaultPlan, FaultSpec
from ..recovery import BreakerConfig, RecoveryConfig
from ..serving.admission import AdmissionConfig, AdmissionGate
from ..sim.rng import derive_seed
from ..workloads.traffic import (
    ModelMix,
    TrafficConfig,
    TrafficEngine,
    TrafficStats,
    drive,
)
from ..zoo.catalog import MODEL_REGISTRY
from .runner import ExperimentConfig, build_stack

__all__ = ["SoakConfig", "SoakRun", "SoakResult", "run_soak"]

DEFAULT_MIX = (
    ModelMix("alexnet", 2, weight=3.0, slo=0.25, priority=1),
    ModelMix("googlenet", 2, weight=1.0, slo=0.5),
)


@dataclass(frozen=True)
class SoakConfig:
    """One soak's shape: traffic, failure schedule, and gate limits.

    ``kills`` are **stream times** at which the whole serving process
    dies (each one ends an incarnation); ``device_crashes`` are stream
    times at which the GPU of the then-live incarnation crashes (and
    resets after ``reset_latency``).  ``gpus > 1`` serves through a
    :class:`~repro.cluster.MultiGpuServer` front instead of a single
    :class:`~repro.serving.ModelServer`.
    """

    seed: int = 0
    scheduler_kinds: Tuple[str, ...] = ("fair", "timer")
    mix: Tuple[ModelMix, ...] = DEFAULT_MIX
    users: int = 1_000_000
    tenants: int = 200
    rate: float = 60.0
    duration: float = 0.5
    process: str = "bursty"
    kills: Tuple[float, ...] = (0.18, 0.34)
    device_crashes: Tuple[float, ...] = (0.08, 0.26)
    reset_latency: float = 5e-3
    gpus: int = 1
    scale: float = 0.05
    quantum: float = 1.2e-3
    journal_path: Optional[str] = None
    # Gate limits (per incarnation).
    max_active: int = 6
    headroom: float = 0.85
    max_pending_total: int = 64
    max_pending_per_tenant: int = 32
    # Recovery (failover + breakers; every arrival and resumed job
    # enters through the gate, which does all the shedding).
    max_failovers: int = 16

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.gpus < 1:
            raise ValueError(f"gpus must be >= 1: {self.gpus}")
        for t in self.kills:
            if not 0.0 < t < self.duration:
                raise ValueError(
                    f"kill time {t} outside (0, duration={self.duration})"
                )
        if tuple(sorted(self.kills)) != tuple(self.kills):
            raise ValueError(f"kills must be sorted: {self.kills}")
        for model_mix in self.mix:
            if model_mix.model not in MODEL_REGISTRY:
                raise ValueError(f"unknown model {model_mix.model!r}")

    @classmethod
    def quick(cls, seed: int = 0, **overrides: Any) -> "SoakConfig":
        """The CI smoke shape: one scheduler kind, one kill, less traffic."""
        overrides.setdefault("scheduler_kinds", ("fair",))
        overrides.setdefault("duration", 0.3)
        overrides.setdefault("rate", 40.0)
        overrides.setdefault("kills", (0.12,))
        overrides.setdefault("device_crashes", (0.06,))
        return cls(seed=seed, **overrides)

    def traffic_config(self) -> TrafficConfig:
        return TrafficConfig(
            mix=self.mix,
            users=self.users,
            tenants=self.tenants,
            rate=self.rate,
            duration=self.duration,
            process=self.process,
        )

    def admission_config(self) -> AdmissionConfig:
        return AdmissionConfig(
            max_active=self.max_active,
            headroom=self.headroom,
            max_pending_total=self.max_pending_total,
            max_pending_per_tenant=self.max_pending_per_tenant,
        )

    def recovery_config(self) -> RecoveryConfig:
        return RecoveryConfig(
            failover=True,
            max_failovers=self.max_failovers,
            breaker=BreakerConfig(),
        )


@dataclass
class SoakRun:
    """One scheduler kind's full incarnation sequence — all sim-derived."""

    scheduler: str
    incarnations: int
    offered: int
    admitted: int
    resumed: int
    completed: int
    failed: int
    shed: int
    rejected: int
    deferred: int
    degraded: int
    journal_counts: Dict[str, int]
    shed_reasons: Dict[str, int]
    admission: Dict[str, Any]
    resume_digest: str
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "incarnations": self.incarnations,
            "offered": self.offered,
            "admitted": self.admitted,
            "resumed": self.resumed,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "rejected": self.rejected,
            "deferred": self.deferred,
            "degraded": self.degraded,
            "journal_counts": dict(self.journal_counts),
            "shed_reasons": dict(self.shed_reasons),
            "admission": dict(self.admission),
            "resume_digest": self.resume_digest,
            "violations": list(self.violations),
        }


@dataclass
class SoakResult:
    """A completed soak: per-kind runs plus the soak digest."""

    config: SoakConfig
    runs: List[SoakRun]

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for run in self.runs:
            out.extend(
                f"{run.scheduler}: {violation}" for violation in run.violations
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def soak_digest(self) -> str:
        """SHA-256 over the canonical JSON of every run record."""
        payload = json.dumps(
            [run.to_dict() for run in self.runs],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "scheduler_kinds": list(self.config.scheduler_kinds),
            "kills": list(self.config.kills),
            "device_crashes": list(self.config.device_crashes),
            "gpus": self.config.gpus,
            "runs": [run.to_dict() for run in self.runs],
            "violations": self.violations,
            "ok": self.ok,
            "soak_digest": self.soak_digest(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def report(self) -> str:
        lines = [
            f"soak  seed={self.config.seed}  "
            f"{len(self.runs)} run(s), "
            f"{len(self.config.kills)} process kill(s), "
            f"{len(self.config.device_crashes)} device crash(es)"
        ]
        for run in self.runs:
            status = "ok" if run.ok else "VIOLATED"
            lines.append(
                f"  {run.scheduler:<10s} {status}  "
                f"offered={run.offered} admitted={run.admitted} "
                f"completed={run.completed} failed={run.failed} "
                f"shed={run.shed} rejected={run.rejected} "
                f"resumed={run.resumed}"
            )
            if run.shed_reasons:
                breakdown = " ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(run.shed_reasons.items())
                )
                lines.append(f"             shed/reject reasons: {breakdown}")
            lines.append(f"             resume digest: {run.resume_digest}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        lines.append(f"soak digest: {self.soak_digest()}")
        return "\n".join(lines)


def _run_one(config: SoakConfig, kind: str) -> SoakRun:
    engine = TrafficEngine(
        config.traffic_config(), seed=derive_seed(config.seed, f"soak:{kind}")
    )
    store = JobStore(config.journal_path or ":memory:")
    stats = TrafficStats()
    resumed_total = 0
    violations: List[str] = []
    boundaries = list(config.kills) + [None]
    final_front = None
    final_scheduler = None
    final_gate = None

    for incarnation, kill_at in enumerate(boundaries):
        offset = 0.0 if incarnation == 0 else boundaries[incarnation - 1]
        store.begin_incarnation(time=offset)
        window_end = config.duration if kill_at is None else kill_at
        crashes = tuple(
            FaultSpec(kind="device_crash", at=t - offset,
                      duration=config.reset_latency)
            for t in config.device_crashes
            if offset <= t < window_end
        )
        plan = FaultPlan(faults=crashes) if crashes else None
        experiment = ExperimentConfig(
            scale=config.scale,
            seed=derive_seed(config.seed, f"soak-run:{kind}:{incarnation}"),
            quantum=config.quantum,
        )
        stack = build_stack(
            engine.entries(),
            scheduler=kind,
            config=experiment,
            fault_plan=plan,
            recovery=config.recovery_config(),
            gpus=config.gpus,
        )
        sim, front, scheduler = stack.sim, stack.server, stack.scheduler
        gate = AdmissionGate(config.admission_config()).attach(front)

        def journal_outcome(request_id: str, outcome: Any, status: str):
            now = offset + sim.now
            if status == "completed":
                store.record("completed", now, job_id=request_id)
            elif status.startswith("rejected:"):
                store.record("rejected", now, job_id=request_id,
                             reason=status.split(":", 1)[1])
            else:  # failed — shed-class failures terminalise as "shed"
                reason = type(outcome).__name__
                kind_row = "shed" if reason == "JobShed" else "failed"
                store.record(kind_row, now, job_id=request_id, reason=reason)

        # --- Resume the dead incarnation's open obligations first ---
        replay = resume_plan(store)
        for owed in replay:
            job = front.make_job(
                f"resume/{owed.tenant}", owed.model, owed.batch_size,
                priority=owed.priority,
            )
            job.job_id = owed.job_id
            if owed.deadline is not None:
                # Stream-absolute deadline mapped onto the new sim clock
                # (possibly already past — EDF then treats it as urgent).
                job.deadline = owed.deadline - offset
            decision = gate.submit(job, tenant=owed.tenant)
            if decision.action == "reject":
                # The obligation is *accounted*, not lost: a resume-time
                # shed is a terminal row with the gate's reason.
                store.record("shed", offset, job_id=owed.job_id,
                             reason=f"resume-{decision.reason}")
                continue
            resumed_total += 1
            store.record("dispatched", offset + sim.now, job_id=owed.job_id,
                         reason="resume")

            def watch(request_id, done):
                try:
                    yield done
                except Exception as exc:  # lint: disable=ROB001 — the
                    # failure becomes the job's terminal journal row.
                    journal_outcome(request_id, exc, "failed")
                    return
                journal_outcome(request_id, None, "completed")

            sim.process(watch(owed.job_id, decision.done),
                        name=f"soak-resume:{owed.job_id}")

        # --- Then the rest of the deterministic arrival stream ---
        def on_admitted(arrival, job):
            store.record(
                "admitted", offset + sim.now,
                job_id=arrival.request_id, model=arrival.model,
                batch=arrival.batch_size, tenant=arrival.tenant,
                priority=arrival.priority, deadline=arrival.deadline,
            )

        def on_outcome(arrival, outcome, status):
            journal_outcome(arrival.request_id, outcome, status)

        drive(
            sim, front, engine,
            gate=gate, stats=stats,
            offset=offset, skip=store.admitted_ids(),
            on_admitted=on_admitted, on_outcome=on_outcome,
        )
        if kill_at is not None:
            # The kill: run to the boundary, then abandon every live
            # simulator object.  Only the journal survives.
            sim.run(until=kill_at - offset)
        else:
            sim.run()
            final_front, final_scheduler, final_gate = front, scheduler, gate

    # ------------------------------------------------------------------
    # SLAs
    # ------------------------------------------------------------------
    admitted_ids = store.admitted_ids()
    if len(set(admitted_ids)) != len(admitted_ids):
        violations.append("journal admitted the same request id twice")
    open_jobs = store.unterminated()
    if open_jobs:
        violations.append(
            "jobs lost (admitted, never terminal): "
            f"{[record.job_id for record in open_jobs]}"
        )
    if final_front is not None and final_front.active_jobs != 0:
        violations.append(
            f"final incarnation still has {final_front.active_jobs} "
            "active job(s)"
        )
    if final_gate is not None and final_gate.pending_depth != 0:
        violations.append(
            f"admission gate still holds {final_gate.pending_depth} "
            "deferred job(s)"
        )
    if final_scheduler is not None:
        if final_scheduler.holder is not None:
            violations.append(
                "scheduler still holds the token for "
                f"{final_scheduler.holder.job_id!r}"
            )
        leftover = [job.job_id for job in final_scheduler.policy.active_jobs]
        if leftover:
            violations.append(f"scheduler still tracks jobs: {leftover}")

    counts = store.counts()
    gate_report = final_gate.report() if final_gate is not None else {}
    run = SoakRun(
        scheduler=kind,
        incarnations=len(boundaries),
        offered=stats.offered,
        admitted=len(admitted_ids),
        resumed=resumed_total,
        completed=counts.get("completed", 0),
        failed=counts.get("failed", 0),
        shed=counts.get("shed", 0),
        rejected=counts.get("rejected", 0),
        deferred=stats.deferred,
        degraded=stats.degraded,
        journal_counts=counts,
        shed_reasons=store.shed_reasons(),
        admission=gate_report,
        resume_digest=store.resume_digest(),
        violations=violations,
    )
    store.close()
    return run


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run the full soak across the configured scheduler kinds."""
    config = config or SoakConfig()
    runs = [_run_one(config, kind) for kind in config.scheduler_kinds]
    return SoakResult(config=config, runs=runs)
