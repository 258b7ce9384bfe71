"""Olympian's gang scheduler (paper Algorithm 2).

Mechanism
---------
At any moment at most one job — the *token holder* — may start new
nodes.  Gang threads call :meth:`GangScheduler.yield_` before every
compute (Algorithm 2 line 12); threads of non-holders park on their
job's condition variable.  When a quantum expires the scheduler asks the
policy for the next holder and wakes that job's gang (cooperative
co-scheduling, §3.2).

Two quantum definitions are provided:

* :class:`OlympianScheduler` — the paper's design: the quantum expires
  when the job's accumulated *profiled node cost* reaches
  ``T_j = Q * C_j / D_j`` (cost-accumulation accounting, §3.3).
* :class:`CpuTimerScheduler` — the §4.4 ablation: the quantum expires
  after ``Q`` of wall-clock time, no profiling.  Figure 19 shows why
  this is not enough.

Overflow semantics (Figures 10 and 15): a gang thread that has already
entered compute when the token moves finishes its node — its kernel may
run on the GPU after the switch — and the node's cost is still charged
to the original job's ``cumulated_cost``, exactly as the paper
describes.  This falls out of the hook placement: accounting happens in
``on_node_done``, on the thread that launched the node.

Beyond the paper, :class:`SpatioTemporalScheduler` generalises the
single token to a *set* of resident jobs on a multi-stream device
(``GpuSpec.streams > 1``): each resident holds a whole-stream
allocation derived from its weight share, keeps it for an Olympian
cost-accumulation time slice, and is then recycled through a seeded
weighted lottery over the waiters.  A DARIS-style oversubscription
factor lets real-time jobs (``priority > 0``) be admitted past the
physical budget.  See docs/SPATIAL.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..graph.graph import Graph
from ..graph.node import Node
from ..sanitize import sim_sanitizer
from ..serving.hooks import SchedulerHook
from ..serving.request import Job
from ..sim.core import Process, Simulator
from ..sim.resources import ConditionVariable
from ..sim.rng import derive_seed
from .accounting import OlympianProfile, ProfileStore
from .policies import SchedulingPolicy
from .policies_ext import stream_allocation, validate_spatial_share

__all__ = [
    "SchedulingDecision",
    "Tenure",
    "Eviction",
    "GangScheduler",
    "OlympianScheduler",
    "CpuTimerScheduler",
    "SpatioTemporalScheduler",
    "DEFAULT_WAKE_LATENCY",
]

# Cost of getting a parked gang running again (condition-variable
# broadcast + OS scheduling + pipeline refill).  This is the per-switch
# overhead that makes the Overhead-Q curve fall with Q (Figure 8).
DEFAULT_WAKE_LATENCY = 60e-6


@dataclass(frozen=True)
class SchedulingDecision:
    """One token hand-off."""

    time: float
    prev_job_id: Optional[str]
    next_job_id: Optional[str]


@dataclass
class Tenure:
    """One contiguous token-holding span of a job (= one quantum)."""

    job_id: str
    client_id: object
    model_name: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError("tenure still open")
        return self.end - self.start


@dataclass(frozen=True)
class Eviction:
    """One forced removal of a job's gang by the scheduler."""

    time: float
    job_id: str
    reason: str


class GangScheduler(SchedulerHook):
    """Token + gang suspend/resume mechanics, policy- and quantum-agnostic."""

    name = "gang"

    def __init__(
        self,
        sim: Simulator,
        policy: SchedulingPolicy,
        wake_latency: float = DEFAULT_WAKE_LATENCY,
        stall_threshold: Optional[float] = None,
    ):
        if wake_latency < 0:
            raise ValueError(f"wake latency must be >= 0: {wake_latency}")
        if stall_threshold is not None and stall_threshold <= 0:
            raise ValueError(
                f"stall threshold must be positive: {stall_threshold}"
            )
        self.sim = sim
        self.policy = policy
        self.wake_latency = wake_latency
        self.stall_threshold = stall_threshold
        self.holder: Optional[Job] = None
        self.decisions: List[SchedulingDecision] = []
        self.tenures: List[Tenure] = []
        self.evictions: List[Eviction] = []
        self.switch_count = 0
        self._conditions: Dict[str, ConditionVariable] = {}
        self._current_tenure: Optional[Tenure] = None
        self._evicted: Set[str] = set()
        self._last_progress = 0.0
        self._watchdog: Optional[Process] = None
        # Set by Telemetry.attach(); emission is observation-only.
        self.telemetry = None
        # Armed process-wide by test harnesses (see repro.faults); a
        # checker observes decisions/charges without creating events.
        from ..faults.invariants import default_invariant_checker

        self.invariants = default_invariant_checker()
        if self.invariants is not None:
            self.invariants.attached(self)

    # ------------------------------------------------------------------
    # SchedulerHook interface
    # ------------------------------------------------------------------

    def register(self, job: Job) -> None:
        self._conditions[job.job_id] = ConditionVariable(self.sim)
        self._prepare_job(job)
        self.policy.on_register(job)
        self._last_progress = self.sim.now
        if self.invariants is not None:
            self.invariants.after_register(self, job)
        if self.holder is None:
            self._grant(job, prev=None, wake=False)
        self._start_watchdog()

    def on_cancel(self, job: Job) -> None:
        """Wake the job's parked gang so it can observe cancellation."""
        condition = self._conditions.get(job.job_id)
        if condition is not None:
            condition.notify_all()

    def on_fail(self, job: Job) -> None:
        """The job died (``job.failed`` already set): release its gang.

        Wakes parked threads so they drain, removes the job from the
        policy so the token cannot return to it, and reclaims the
        token if the dead job holds it.
        """
        self._release(job)

    def evict(self, job: Job, reason: str = "evicted by scheduler") -> None:
        """Forcibly remove a job's gang (stall watchdog, operator).

        The job is marked failed with a typed
        :class:`~repro.faults.errors.JobEvicted` cause; its ``done``
        event fails with :class:`~repro.serving.failures.JobFailed`
        once the gang drains.
        """
        if job.done.triggered or job.failed:
            return
        from ..faults.errors import JobEvicted

        job.failed = True
        job.failure = JobEvicted(job.job_id, reason)
        self.evictions.append(Eviction(self.sim.now, job.job_id, reason))
        if self.telemetry is not None:
            guard = sim_sanitizer.checkpoint(self)
            self.telemetry.emit(
                "sched.eviction",
                "scheduler",
                job_id=job.job_id,
                reason=reason,
            )
            sim_sanitizer.verify(self, guard, "sched.eviction")
        self._release(job)

    def _release(self, job: Job) -> None:
        """Common teardown for failed/evicted jobs.

        Every waiter parked on the job's condition variable MUST be
        woken here: a failed non-holder's threads are parked in
        ``yield_`` and nothing else will ever signal them (the latent
        deadlock this path exists to prevent).
        """
        if job.job_id not in self._evicted:
            self._evicted.add(job.job_id)
            if job in self.policy.active_jobs:
                self.policy.on_deregister(job)
        condition = self._conditions.get(job.job_id)
        if condition is not None:
            condition.notify_all()
        if self.holder is job:
            self._switch(job)

    def deregister(self, job: Job) -> None:
        # An evicted job was already removed from the policy (and its
        # waiters signalled) by _release; doing it twice would corrupt
        # policy state.
        if job.job_id in self._evicted:
            self._evicted.discard(job.job_id)
        else:
            self.policy.on_deregister(job)
        condition = self._conditions.pop(job.job_id, None)
        if condition is not None:
            condition.notify_all()
        self._forget_job(job)
        if self.holder is job:
            self._switch(job)
        if self.invariants is not None:
            self.invariants.after_deregister(self, job)

    def rollback(self, job: Job) -> float:
        """Failure recovery: discard a dead attempt's cost residue.

        Called by :mod:`repro.recovery` after a device crash killed
        ``job``, before its replacement attempt is submitted.  The
        live accumulator is zeroed (the replayed attempt re-executes
        from the session start, so carrying the dead attempt's partial
        charges would bill the client twice for the same nodes) and the
        invariant checker is told to close the attempt's books — this
        is what "no fairness accumulator leaks across a reset" means
        operationally.  Returns the residue dropped.
        """
        residue = job.cumulated_cost
        job.cumulated_cost = 0.0
        if self.invariants is not None:
            self.invariants.after_rollback(self, job, residue)
        return residue

    def needs_yield(self, job: Job) -> bool:
        """A gang thread must park iff its job does not hold the token.

        Mirrors the guards in :meth:`yield_`: aborted or unregistered
        jobs drain without waiting, so they never need the generator.
        """
        return (
            self.holder is not job
            and not (job.cancelled or job.failed)  # Job.aborted, inlined
            and job.job_id in self._conditions
        )

    def yield_(self, job: Job) -> Iterator:
        while self.holder is not job:
            if job.aborted:
                # Cancelled/failed jobs drain without waiting for the
                # token; waiting would deadlock (no future grant).
                return
            condition = self._conditions.get(job.job_id)
            if condition is None:
                # Defensive: an unregistered job is never blocked.
                return
            yield condition.wait()

    def on_node_done(self, job: Job, node: Node) -> None:
        """Base bookkeeping: node completions are gang progress."""
        self._last_progress = self.sim.now

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _prepare_job(self, job: Job) -> None:
        """Called on register, before the policy sees the job."""

    def _forget_job(self, job: Job) -> None:
        """Called on deregister."""

    # ------------------------------------------------------------------
    # Stall watchdog
    # ------------------------------------------------------------------

    def _start_watchdog(self) -> None:
        if self.stall_threshold is None:
            return
        if self._watchdog is not None and self._watchdog.is_alive:
            return
        self._watchdog = self.sim.process(
            self._watchdog_body(), name=f"watchdog:{self.name}"
        )

    def _watchdog_body(self) -> Iterator:
        """Evict the holder if no node completes for a full threshold.

        The watchdog only lives while jobs are registered, so an idle
        scheduler does not keep the simulation's event queue non-empty
        forever.
        """
        threshold = self.stall_threshold
        assert threshold is not None
        while self._conditions:
            yield self.sim.timeout(threshold)
            holder = self.holder
            if (
                holder is not None
                and not holder.aborted
                and not holder.done.triggered
                and self.sim.now - self._last_progress >= threshold
            ):
                self.evict(
                    holder,
                    reason=(
                        f"no progress for {self.sim.now - self._last_progress:.6f}s "
                        f"(stall threshold {threshold:.6f}s)"
                    ),
                )
        self._watchdog = None

    # ------------------------------------------------------------------
    # Token machinery
    # ------------------------------------------------------------------

    def _switch(self, from_job: Job) -> None:
        """Quantum boundary: hand the token to the policy's next choice."""
        nxt = self.policy.select_next(from_job)
        self._grant(nxt, prev=from_job, wake=True)

    def _grant(self, job: Optional[Job], prev: Optional[Job], wake: bool) -> None:
        now = self.sim.now
        telemetry = self.telemetry
        if self._current_tenure is not None:
            self._current_tenure.end = now
            if telemetry is not None:
                guard = sim_sanitizer.checkpoint(self)
                telemetry.emit(
                    "sched.tenure_end",
                    "scheduler",
                    job_id=self._current_tenure.job_id,
                    model=self._current_tenure.model_name,
                    duration=now - self._current_tenure.start,
                )
                sim_sanitizer.verify(self, guard, "sched.tenure_end")
            self.tenures.append(self._current_tenure)
            self._current_tenure = None
        decision = SchedulingDecision(
            time=now,
            prev_job_id=prev.job_id if prev is not None else None,
            next_job_id=job.job_id if job is not None else None,
        )
        self.decisions.append(decision)
        self.holder = job
        if telemetry is not None:
            guard = sim_sanitizer.checkpoint(self)
            telemetry.emit(
                "sched.decision",
                "scheduler",
                prev_job_id=decision.prev_job_id,
                next_job_id=decision.next_job_id,
            )
            sim_sanitizer.verify(self, guard, "sched.decision")
        if self.invariants is not None:
            self.invariants.after_decision(self, decision)
        if job is None:
            return
        self._current_tenure = Tenure(
            job_id=job.job_id,
            client_id=job.client_id,
            model_name=job.model_name,
            start=now,
        )
        if telemetry is not None:
            guard = sim_sanitizer.checkpoint(self)
            # prev_job_id names the tenant this grant displaced — the
            # head-of-line blocker the blame engine charges the wait to.
            telemetry.emit(
                "sched.tenure_begin",
                "scheduler",
                job_id=job.job_id,
                model=job.model_name,
                prev_job_id=decision.prev_job_id,
            )
            sim_sanitizer.verify(self, guard, "sched.tenure_begin")
        if job is not prev:
            self.switch_count += 1
            if wake:
                condition = self._conditions.get(job.job_id)
                if condition is not None:
                    condition.notify_all(self.wake_latency)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def closed_tenures(self) -> List[Tenure]:
        return list(self.tenures)

    def decision_times(self) -> List[float]:
        return [decision.time for decision in self.decisions]

    def _sanitize_state(self):
        """Decision state checksummed around telemetry seams.

        Everything a scheduling decision depends on, as plain values:
        if an observer mutates any of it while emitting, the sanitizer
        (:mod:`repro.sanitize`) catches the drift at the seam instead
        of leaving it to show up as a digest mismatch three layers up.
        """
        return (
            self.holder.job_id if self.holder is not None else None,
            self.switch_count,
            len(self.decisions),
            len(self.tenures),
            len(self.evictions),
            tuple(
                (job.job_id, job.cumulated_cost)
                for job in self.policy.active_jobs
            ),
        )


class OlympianScheduler(GangScheduler):
    """The paper's scheduler: cost-accumulation quanta from offline profiles."""

    name = "olympian"

    def __init__(
        self,
        sim: Simulator,
        policy: SchedulingPolicy,
        quantum: float,
        profiles: ProfileStore,
        wake_latency: float = DEFAULT_WAKE_LATENCY,
        stall_threshold: Optional[float] = None,
    ):
        super().__init__(sim, policy, wake_latency, stall_threshold=stall_threshold)
        if quantum <= 0:
            raise ValueError(f"quantum must be positive: {quantum}")
        self.quantum = quantum
        self.profiles = profiles
        # job id -> {GPU node id: profiled cost}; host nodes are absent,
        # so one dict lookup per completed node both classifies the node
        # and prices it.  Tables are shared per (profile, graph).
        self._job_costs: Dict[str, Dict[int, float]] = {}
        self._cost_tables: Dict[
            Tuple[str, int], Tuple[OlympianProfile, Graph, Dict[int, float]]
        ] = {}
        self._thresholds: Dict[str, float] = {}

    def _prepare_job(self, job: Job) -> None:
        profile = self.profiles.lookup(job.model_name, job.batch_size)
        self._job_costs[job.job_id] = self._cost_table(profile, job)
        self._thresholds[job.job_id] = profile.threshold(self.quantum)

    def _cost_table(self, profile: OlympianProfile, job: Job) -> Dict[int, float]:
        key = (job.model_name, job.batch_size)
        cached = self._cost_tables.get(key)
        if cached is not None and cached[0] is profile and cached[1] is job.graph:
            return cached[2]
        table = {
            node.node_id: profile.cost(node.node_id)
            for node in job.graph.nodes
            if node.is_gpu
        }
        self._cost_tables[key] = (profile, job.graph, table)
        return table

    def _forget_job(self, job: Job) -> None:
        self._job_costs.pop(job.job_id, None)
        self._thresholds.pop(job.job_id, None)

    def threshold_of(self, job: Job) -> float:
        return self._thresholds[job.job_id]

    def on_node_done(self, job: Job, node: Node) -> None:
        """Algorithm 2 lines 14-18: accumulate cost, maybe hand off."""
        # GangScheduler.on_node_done, inlined: this runs once per node.
        self._last_progress = self.sim.now
        costs = self._job_costs.get(job.job_id)
        if costs is None:
            return
        cost = costs.get(node.node_id)
        if cost is None:  # a host node
            return
        job.cumulated_cost += cost
        if self.invariants is not None:
            self.invariants.after_charge(self, job, cost)
        threshold = self._thresholds[job.job_id]
        # Only a holder's threshold crossing triggers a hand-off; an
        # overflow node of a switched-out job keeps accumulating and
        # shortens that job's *next* quantum instead (Figure 15).
        if self.holder is job and job.cumulated_cost >= threshold:
            job.cumulated_cost -= threshold
            if self.invariants is not None:
                self.invariants.after_quantum(self, job, threshold)
            self._switch(job)


class CpuTimerScheduler(GangScheduler):
    """Ablation (§4.4): wall-clock quanta, no GPU-usage profiling.

    The gang mechanics are identical to Olympian's; only the expiry test
    differs — elapsed wall time since the tenure began, checked at node
    boundaries (the switch is still cooperative).  Figure 19 shows this
    produces unequal finish times on homogeneous workloads and wildly
    varying GPU durations on heterogeneous ones, because a wall-clock
    quantum buys very different amounts of GPU time depending on the
    job's current CPU/GPU phase.
    """

    name = "cpu-timer"

    def __init__(
        self,
        sim: Simulator,
        policy: SchedulingPolicy,
        quantum: float,
        wake_latency: float = DEFAULT_WAKE_LATENCY,
        stall_threshold: Optional[float] = None,
    ):
        super().__init__(sim, policy, wake_latency, stall_threshold=stall_threshold)
        if quantum <= 0:
            raise ValueError(f"quantum must be positive: {quantum}")
        self.quantum = quantum

    def on_node_done(self, job: Job, node: Node) -> None:
        super().on_node_done(job, node)
        if self.holder is not job or self._current_tenure is None:
            return
        if self.sim.now - self._current_tenure.start >= self.quantum:
            self._switch(job)


class SpatioTemporalScheduler(OlympianScheduler):
    """Spatial + temporal sharing for a multi-stream device.

    Generalises the token to a resident *set*: up to ``streams`` worth
    of stream allocations are outstanding at once, each derived from
    the job's weight share of the registered population
    (:func:`~repro.core.policies_ext.stream_allocation`).  A resident
    keeps its allocation for one Olympian cost-accumulation slice
    (``T_j = Q * C_j / D_j``, same accounting as the temporal
    scheduler); when the slice expires *and* other jobs are waiting,
    the resident is demoted and the freed capacity is re-filled by a
    seeded weighted lottery over the eligible waiters — temporal
    multiplexing of the spatial shares.

    ``oversubscription > 1.0`` enables the DARIS-style real-time mode:
    jobs with ``priority > 0`` may be admitted while total allocations
    are below ``streams * oversubscription`` (a logical budget — the
    physical engine still arbitrates its ``streams`` lanes), which
    bounds their admission latency at the cost of background
    interference.

    Differences from the token machinery this class inherits:
    ``holder`` stays ``None`` (no single token exists), concurrent
    tenures legitimately overlap, and admissions are reported to the
    invariant checker via ``after_spatial_admission`` rather than
    ``after_decision`` (whose single-holder assertions do not apply).
    ``decisions``/``tenures``/``evictions`` are still populated, so
    trace digests cover every admission.  The stall watchdog is inert
    (it guards the holder).
    """

    name = "spatio-temporal"

    def __init__(
        self,
        sim: Simulator,
        policy: SchedulingPolicy,
        quantum: float,
        profiles: ProfileStore,
        streams: int,
        wake_latency: float = DEFAULT_WAKE_LATENCY,
        stall_threshold: Optional[float] = None,
        oversubscription: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(
            sim,
            policy,
            quantum,
            profiles,
            wake_latency,
            stall_threshold=stall_threshold,
        )
        if streams < 1:
            raise ValueError(f"streams must be >= 1: {streams}")
        if oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1.0: {oversubscription}"
            )
        self.streams = streams
        self.oversubscription = oversubscription
        # Namespaced so a shared experiment seed cannot correlate the
        # admission lottery with any other component's draws.
        self.rng = random.Random(derive_seed(seed, "sched:spatial"))
        self._alloc: Dict[str, int] = {}
        self._waiting: List[Job] = []
        self._share_overrides: Dict[str, float] = {}
        self._open_tenures: Dict[str, Tenure] = {}

    # ------------------------------------------------------------------
    # Shares and allocations
    # ------------------------------------------------------------------

    def set_share(self, job: Job, share: float) -> None:
        """Override ``job``'s GPU share (fraction of the device).

        Shares above 1.0 are rejected unless oversubscription is
        enabled (DARIS real-time mode).
        """
        validate_spatial_share(share, self.oversubscription)
        self._share_overrides[job.job_id] = share

    def share_of(self, job: Job) -> float:
        """``job``'s fractional device share (override or weight share)."""
        override = self._share_overrides.get(job.job_id)
        if override is not None:
            return override
        total = sum(peer.weight for peer in self.policy.active_jobs)
        if total <= 0:
            return 1.0
        return job.weight / total

    def allocation_of(self, job: Job) -> int:
        """Whole streams ``job`` gets when admitted."""
        return stream_allocation(min(1.0, self.share_of(job)), self.streams)

    def resident_shares(self) -> Dict[str, float]:
        """Fraction of the device each *resident* job currently holds."""
        return {
            job_id: alloc / self.streams
            for job_id, alloc in self._alloc.items()
        }

    def allowed_concurrency(self, job_id: str) -> int:
        """Device-side concurrency bound for ``job_id``.

        Non-residents get 1 — the overflow lane: a kernel launched just
        before demotion may still run (the temporal scheduler's
        overflow semantics, Figure 10), but a waiting job cannot expand.
        """
        return self._alloc.get(job_id, 1)

    def _is_rt(self, job: Job) -> bool:
        return self.oversubscription > 1.0 and job.priority > 0

    def _rt_budget(self) -> int:
        return int(self.streams * self.oversubscription + 1e-9)

    # ------------------------------------------------------------------
    # Hook overrides (no single token)
    # ------------------------------------------------------------------

    def register(self, job: Job) -> None:
        self._conditions[job.job_id] = ConditionVariable(self.sim)
        self._prepare_job(job)
        self.policy.on_register(job)
        self._last_progress = self.sim.now
        if self.invariants is not None:
            self.invariants.after_register(self, job)
        self._waiting.append(job)
        self._fill(prev=None)
        self._start_watchdog()

    def needs_yield(self, job: Job) -> bool:
        return (
            job.job_id not in self._alloc
            and not job.aborted
            and job.job_id in self._conditions
        )

    def yield_(self, job: Job) -> Iterator:
        while job.job_id not in self._alloc:
            if job.aborted:
                return
            condition = self._conditions.get(job.job_id)
            if condition is None:
                return
            yield condition.wait()

    def on_node_done(self, job: Job, node: Node) -> None:
        self._last_progress = self.sim.now
        costs = self._job_costs.get(job.job_id)
        if costs is None:
            return
        cost = costs.get(node.node_id)
        if cost is None:  # a host node
            return
        job.cumulated_cost += cost
        if self.invariants is not None:
            self.invariants.after_charge(self, job, cost)
        threshold = self._thresholds[job.job_id]
        if job.job_id in self._alloc and job.cumulated_cost >= threshold:
            job.cumulated_cost -= threshold
            if self.invariants is not None:
                self.invariants.after_quantum(self, job, threshold)
            # Time-slice expiry.  Work-conserving: the resident only
            # cedes its streams when somebody is waiting for them.
            if self._waiting:
                self._demote(job)
                self._fill(prev=job)

    def _release(self, job: Job) -> None:
        super()._release(job)
        self._drop(job)

    def deregister(self, job: Job) -> None:
        self._drop(job)
        super().deregister(job)

    # ------------------------------------------------------------------
    # Residency machinery
    # ------------------------------------------------------------------

    def _drop(self, job: Job) -> None:
        """Remove ``job`` from the spatial books and re-fill its slot."""
        if job in self._waiting:
            self._waiting.remove(job)
        if job.job_id in self._alloc:
            self._retire(job)
            self._fill(prev=job)

    def _retire(self, job: Job) -> None:
        """Close ``job``'s tenure and free its streams."""
        del self._alloc[job.job_id]
        tenure = self._open_tenures.pop(job.job_id, None)
        if tenure is not None:
            tenure.end = self.sim.now
            self.tenures.append(tenure)
            if self.telemetry is not None:
                guard = sim_sanitizer.checkpoint(self)
                self.telemetry.emit(
                    "sched.tenure_end",
                    "scheduler",
                    job_id=tenure.job_id,
                    model=tenure.model_name,
                    duration=tenure.end - tenure.start,
                )
                sim_sanitizer.verify(self, guard, "sched.tenure_end")

    def _demote(self, job: Job) -> None:
        """Time slice over: back to the waiters' queue."""
        self._retire(job)
        self._waiting.append(job)

    def _fill(self, prev: Optional[Job]) -> None:
        """Admit waiters while capacity remains (seeded weighted lottery).

        ``prev`` names the job whose demotion/departure freed the
        capacity; it is recorded on the first admission's decision so
        hand-offs are visible in the decision log.
        """
        while self._waiting:
            used = sum(self._alloc.values())
            eligible = []
            for job in self._waiting:
                if job.aborted or job.failed:
                    continue
                cap = self._rt_budget() if self._is_rt(job) else self.streams
                if used + self.allocation_of(job) <= cap:
                    eligible.append(job)
            if not eligible:
                return
            if len(eligible) == 1:
                chosen = eligible[0]
            else:
                total = sum(job.weight for job in eligible)
                draw = self.rng.uniform(0.0, total)
                acc = 0.0
                chosen = eligible[-1]
                for job in eligible:
                    acc += job.weight
                    if draw <= acc:
                        chosen = job
                        break
            self._waiting.remove(chosen)
            self._admit(chosen, prev)
            prev = None

    def _admit(self, job: Job, prev: Optional[Job]) -> None:
        now = self.sim.now
        self._alloc[job.job_id] = self.allocation_of(job)
        decision = SchedulingDecision(
            time=now,
            prev_job_id=prev.job_id if prev is not None else None,
            next_job_id=job.job_id,
        )
        self.decisions.append(decision)
        tenure = Tenure(
            job_id=job.job_id,
            client_id=job.client_id,
            model_name=job.model_name,
            start=now,
        )
        self._open_tenures[job.job_id] = tenure
        self.switch_count += 1
        telemetry = self.telemetry
        if telemetry is not None:
            # Two back-to-back emits with no interleaved scheduler
            # mutation: one checkpoint covers the pair.
            guard = sim_sanitizer.checkpoint(self)
            telemetry.emit(
                "sched.decision",
                "scheduler",
                prev_job_id=decision.prev_job_id,
                next_job_id=decision.next_job_id,
            )
            telemetry.emit(
                "sched.tenure_begin",
                "scheduler",
                job_id=job.job_id,
                model=job.model_name,
                streams=self._alloc[job.job_id],
                prev_job_id=decision.prev_job_id,
            )
            sim_sanitizer.verify(self, guard, "sched.admission")
        if self.invariants is not None:
            self.invariants.after_spatial_admission(self)
        condition = self._conditions.get(job.job_id)
        if condition is not None:
            condition.notify_all(self.wake_latency)

    def _sanitize_state(self):
        """Spatial books + lottery RNG on top of the gang state."""
        return super()._sanitize_state() + (
            tuple(sorted(self._alloc.items())),
            tuple(job.job_id for job in self._waiting),
            self.rng.getstate(),
        )
