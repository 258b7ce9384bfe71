"""Open-loop traffic engine: millions of users, O(1) memory.

The scripted workloads (:mod:`repro.workloads.scenarios`) are closed
loops: N clients, each waiting for its previous batch.  Production
serving faces the opposite regime — an *open loop* where arrivals keep
coming whether or not the server keeps up, drawn from a population of
millions of users spread over thousands of tenants.  This module
models that population without ever materialising it:

* Arrival **times** come from the same three generators as
  :mod:`repro.workloads.trace` (steady Poisson, diurnal thinning,
  bursty MMPP-2), seeded under this module's own namespace.
* **Who** arrives is drawn per event from heavy-tailed (Zipf-like)
  popularity over tenants and over each tenant's user space, via an
  O(1) inverse-CDF transform — no per-user or per-tenant state exists
  anywhere, so memory is constant in the population size.
* **What** they ask for comes from a weighted model mix
  (:class:`ModelMix`), each entry carrying batch size, optional SLO,
  and priority class.

Every draw is namespaced through
:func:`~repro.sim.rng.derive_seed`, so a (config, seed) pair fully
determines the arrival stream: re-iterating regenerates byte-identical
arrivals, which is what lets the durable control plane re-derive "the
rest of the traffic" after a crash-restart instead of persisting it.

:func:`drive` plugs the stream into any serving front (anything with
``make_job``/``submit``), optionally through an admission gate, with
callbacks for journaling — the seam the soak harness and
``experiments`` runners build on.  It is the only open-loop pump: a
recorded :class:`~repro.workloads.trace.RequestTrace` streams through
it too, via :meth:`~repro.workloads.trace.RequestTrace.arrivals`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..sim.core import Simulator
from ..sim.rng import derive_seed
from .trace import Arrival, _bursty_times, _diurnal_times, _poisson_times

__all__ = [
    "ModelMix",
    "TrafficConfig",
    "Arrival",
    "TrafficEngine",
    "TrafficStats",
    "drive",
]

TRAFFIC_PROCESSES = ("poisson", "diurnal", "bursty")


@dataclass(frozen=True)
class ModelMix:
    """One entry of the traffic's model mix."""

    model: str
    batch_size: int
    weight: float = 1.0
    slo: Optional[float] = None
    priority: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {self.batch_size}")
        if self.weight <= 0:
            raise ValueError(f"mix weight must be positive: {self.weight}")
        if self.slo is not None and self.slo <= 0:
            raise ValueError(f"SLO must be positive: {self.slo}")


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one open-loop traffic stream.

    ``users``/``tenants`` size the simulated population (identifiers
    only — no state is kept per entity).  ``rate`` is the mean arrival
    rate in requests per simulated second; the ``process`` modulates it:

    * ``"poisson"`` — steady arrivals at ``rate``.
    * ``"diurnal"`` — sinusoidal between ``rate`` and
      ``rate * peak_ratio`` over ``period`` (default: one cycle per
      ``duration``).
    * ``"bursty"`` — MMPP-2 alternating ``rate * burst_ratio`` bursts
      with ``rate * idle_ratio`` lulls.

    ``user_skew``/``tenant_skew`` are Zipf exponents for the
    heavy-tailed popularity of users within a tenant and of tenants
    overall (1.0 = classic Zipf; higher = heavier head).
    """

    mix: Tuple[ModelMix, ...]
    users: int = 1_000_000
    tenants: int = 1_000
    rate: float = 100.0
    duration: Optional[float] = 1.0
    process: str = "poisson"
    peak_ratio: float = 4.0
    period: Optional[float] = None
    burst_ratio: float = 4.0
    idle_ratio: float = 0.25
    mean_burst: float = 0.05
    mean_idle: float = 0.1
    user_skew: float = 1.1
    tenant_skew: float = 0.9

    def __post_init__(self):
        if not self.mix:
            raise ValueError("traffic needs a non-empty model mix")
        if self.users < 1 or self.tenants < 1:
            raise ValueError("users and tenants must be >= 1")
        if self.tenants > self.users:
            raise ValueError("more tenants than users")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.process not in TRAFFIC_PROCESSES:
            raise ValueError(
                f"process must be one of {TRAFFIC_PROCESSES}: {self.process!r}"
            )
        if self.peak_ratio < 1.0 or self.burst_ratio <= 0:
            raise ValueError("peak_ratio must be >= 1, burst_ratio > 0")


def _zipf_index(u: float, skew: float, n: int) -> int:
    """Zero-based heavy-tailed rank from one uniform draw, O(1).

    Inverse CDF of the continuous Zipf approximation
    ``P(rank <= k) ~ (k^(1-s) - 1) / (n^(1-s) - 1)`` (``s != 1``;
    the ``s == 1`` limit is log-uniform).  Exact table-based Zipf would
    need O(n) state — the whole point here is that it must not.
    """
    if n <= 1:
        return 0
    if abs(skew - 1.0) < 1e-9:
        rank = math.exp(u * math.log(n))
    else:
        span = n ** (1.0 - skew) - 1.0
        rank = (1.0 + u * span) ** (1.0 / (1.0 - skew))
    return min(n, max(1, int(rank))) - 1


class TrafficEngine:
    """Lazy, seed-deterministic open-loop arrival stream."""

    def __init__(self, config: TrafficConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        weights = [entry.weight for entry in config.mix]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard the float tail
        self._mix_cdf = tuple(cumulative)
        # Tenant user-spaces partition the population: tenant k owns
        # user indices [k * span, k * span + span).
        self._user_span = max(1, config.users // config.tenants)

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------

    def _times(self) -> Iterator[float]:
        """Lazy arrival instants for the configured process."""
        config = self.config
        rng = random.Random(
            derive_seed(self.seed, f"traffic:times:{config.process}")
        )
        duration = config.duration
        horizon = math.inf if duration is None else duration
        if config.process == "poisson":
            return _poisson_times(rng, config.rate, horizon)
        if config.process == "diurnal":
            period = config.period
            if period is None:
                period = duration if duration is not None else 1.0
            return _diurnal_times(
                rng, config.rate, config.rate * config.peak_ratio, period,
                horizon,
            )
        return _bursty_times(
            rng,
            config.rate * config.burst_ratio,
            config.rate * config.idle_ratio,
            config.mean_burst,
            config.mean_idle,
            horizon,
        )

    def arrivals(self, limit: Optional[int] = None) -> Iterator[Arrival]:
        """Lazily yield :class:`Arrival` records in time order.

        Re-calling restarts the deterministic stream from arrival 0.
        Memory is O(1): the generator owns two RNGs and a handful of
        scalars regardless of ``users``/``tenants``/stream length.
        """
        config = self.config
        entity_rng = random.Random(derive_seed(self.seed, "traffic:entities"))
        mix = config.mix
        mix_cdf = self._mix_cdf
        span = self._user_span
        for index, t in enumerate(self._times()):
            if limit is not None and index >= limit:
                return
            tenant_idx = _zipf_index(
                entity_rng.random(), config.tenant_skew, config.tenants
            )
            user_idx = _zipf_index(
                entity_rng.random(), config.user_skew, span
            )
            pick = entity_rng.random()
            choice = mix[-1]
            for cut, entry in zip(mix_cdf, mix):
                if pick <= cut:
                    choice = entry
                    break
            yield Arrival(
                index=index,
                time=t,
                tenant=f"t{tenant_idx}",
                user=f"u{tenant_idx * span + user_idx}",
                model=choice.model,
                batch_size=choice.batch_size,
                slo=choice.slo,
                priority=choice.priority,
            )

    def entries(self) -> List[Tuple[str, int]]:
        """Sorted (model, batch) pairs — what a serving stack must load."""
        return sorted({(m.model, m.batch_size) for m in self.config.mix})


# ----------------------------------------------------------------------
# Open-loop driver
# ----------------------------------------------------------------------


@dataclass
class TrafficStats:
    """Counters filled in while :func:`drive`'s processes run."""

    offered: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    deferred: int = 0
    degraded: int = 0
    latencies: List[float] = field(default_factory=list)
    reject_reasons: dict = field(default_factory=dict)

    def note_reject(self, reason: str) -> None:
        self.rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1


def drive(
    sim: Simulator,
    server: Any,
    engine: TrafficEngine,
    gate: Any = None,
    stats: Optional[TrafficStats] = None,
    offset: float = 0.0,
    skip: Any = (),
    limit: Optional[int] = None,
    on_admitted: Optional[Callable[[Arrival, Any], None]] = None,
    on_outcome: Optional[Callable[[Arrival, Any, str], None]] = None,
) -> TrafficStats:
    """Stream ``engine``'s arrivals into ``server`` as an open loop.

    ``engine`` is anything with ``arrivals(limit=)`` yielding
    time-ordered :class:`Arrival` records: a :class:`TrafficEngine` or
    a recorded :class:`~repro.workloads.trace.RequestTrace`.
    ``gate`` is an optional admission gate (anything with
    ``submit(job, tenant=..., slo=...) -> decision`` returning an
    object with ``action``/``reason``/``job``/``done``); without one,
    jobs go straight to ``server.submit``.  ``offset`` shifts the
    stream for a restarted incarnation: arrivals earlier than it are
    regenerated but not replayed, and the sim clock (restarted at 0)
    maps to stream time ``sim.now + offset``.  ``skip`` holds request
    ids already handled by a previous incarnation (the journal's
    admitted set), so a boundary arrival is never double-submitted.
    ``on_admitted``/``on_outcome`` are the journaling hooks.

    The caller runs ``sim.run()`` (or ``sim.run(until=...)``) after.
    """
    stats = stats if stats is not None else TrafficStats()
    skip_ids = frozenset(skip)

    def track(arrival: Arrival, job: Any, done: Any):
        submitted = sim.now
        try:
            yield done
        except Exception as exc:  # lint: disable=ROB001 — recorded as the
            # request's terminal outcome and surfaced via on_outcome.
            stats.failed += 1
            if on_outcome is not None:
                on_outcome(arrival, exc, "failed")
            return
        stats.completed += 1
        stats.latencies.append(sim.now - submitted)
        if on_outcome is not None:
            on_outcome(arrival, job, "completed")

    def pump():
        for arrival in engine.arrivals(limit=limit):
            if arrival.time < offset or arrival.request_id in skip_ids:
                continue
            delay = (arrival.time - offset) - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            stats.offered += 1
            job = server.make_job(
                arrival.user,
                arrival.model,
                arrival.batch_size,
                priority=arrival.priority,
            )
            job.job_id = arrival.request_id
            if arrival.slo is not None:
                job.deadline = sim.now + arrival.slo
            if gate is None:
                done = server.submit(job)
                stats.submitted += 1
                if on_admitted is not None:
                    on_admitted(arrival, job)
                sim.process(track(arrival, job, done))
                continue
            decision = gate.submit(
                job, tenant=arrival.tenant, slo=arrival.slo
            )
            if decision.action == "reject":
                stats.note_reject(decision.reason)
                if on_outcome is not None:
                    on_outcome(arrival, job, f"rejected:{decision.reason}")
                continue
            if decision.action == "defer":
                stats.deferred += 1
            elif decision.action == "degrade":
                stats.degraded += 1
            stats.submitted += 1
            if on_admitted is not None:
                on_admitted(arrival, decision.job)
            sim.process(track(arrival, decision.job, decision.done))

    sim.process(pump(), name="traffic-pump")
    return stats
