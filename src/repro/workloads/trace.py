"""Trace-driven workloads: record, generate, and stream request traces.

Production serving systems are driven by request logs, not by closed
loops of synthetic clients.  This module gives the reproduction that
missing piece (paper future work: "more realistic and dynamic
workloads"):

* :class:`TraceRequest` / :class:`RequestTrace` — a timestamped request
  log (arrival time, model, batch size, optional SLO), with JSON
  round-trip.
* Generators for the standard shapes: steady Poisson, diurnal
  (sinusoidal rate), and bursty on/off (a two-state MMPP) — the
  "intermittent and bursty GPU usage" the paper's introduction
  motivates multiplexing with.
* :meth:`RequestTrace.arrivals` — the trace as a stream of
  :class:`Arrival` records, so :func:`~repro.workloads.traffic.drive`
  replays it like any other open-loop source.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..sim.rng import derive_seed

__all__ = [
    "Arrival",
    "TraceRequest",
    "RequestTrace",
    "iter_poisson",
    "iter_diurnal",
    "iter_bursty",
    "poisson_trace",
    "diurnal_trace",
    "bursty_trace",
]

_PathLike = Union[str, Path]


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: who arrives, when, asking for what."""

    index: int
    time: float
    tenant: str
    user: str
    model: str
    batch_size: int
    slo: Optional[float] = None
    priority: int = 0

    @property
    def request_id(self) -> str:
        """Stable identity: the same (config, seed) stream always
        assigns the same id to the same arrival — the key the durable
        job store journals under."""
        return f"r{self.index}"

    @property
    def deadline(self) -> Optional[float]:
        """Absolute deadline implied by the SLO, if any."""
        return None if self.slo is None else self.time + self.slo


@dataclass(frozen=True)
class TraceRequest:
    """One request in a trace."""

    arrival: float
    model: str
    batch_size: int
    slo: Optional[float] = None

    def __post_init__(self):
        if self.arrival < 0:
            raise ValueError(f"negative arrival time: {self.arrival}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {self.batch_size}")
        if self.slo is not None and self.slo <= 0:
            raise ValueError(f"SLO must be positive: {self.slo}")


@dataclass
class RequestTrace:
    """An ordered request log."""

    requests: List[TraceRequest] = field(default_factory=list)

    def __post_init__(self):
        arrivals = [r.arrival for r in self.requests]
        if arrivals != sorted(arrivals):
            self.requests = sorted(self.requests, key=lambda r: r.arrival)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def duration(self) -> float:
        """Span from first to last arrival."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival - self.requests[0].arrival

    @property
    def models(self) -> List[str]:
        return sorted({r.model for r in self.requests})

    def arrivals(self, limit: Optional[int] = None) -> Iterator[Arrival]:
        """The trace as :func:`~repro.workloads.traffic.drive` input.

        Request ``i`` becomes arrival ``i`` at its recorded instant,
        sent by its own user ``u{i}`` of the single tenant ``t0``.
        """
        requests = itertools.islice(self.requests, limit)
        for index, request in enumerate(requests):
            yield Arrival(
                index=index,
                time=request.arrival,
                tenant="t0",
                user=f"u{index}",
                model=request.model,
                batch_size=request.batch_size,
                slo=request.slo,
            )

    def mean_rate(self) -> float:
        """Average arrivals per second over the trace span."""
        if len(self.requests) < 2 or self.duration == 0:
            raise ValueError("rate undefined for traces shorter than 2 requests")
        return (len(self.requests) - 1) / self.duration

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": [
                {
                    "arrival": r.arrival,
                    "model": r.model,
                    "batch_size": r.batch_size,
                    "slo": r.slo,
                }
                for r in self.requests
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestTrace":
        return cls(
            requests=[
                TraceRequest(
                    arrival=entry["arrival"],
                    model=entry["model"],
                    batch_size=entry["batch_size"],
                    slo=entry.get("slo"),
                )
                for entry in data["requests"]
            ]
        )

    def save(self, path: _PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: _PathLike) -> "RequestTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
#
# Each shape comes as a lazy iterator (``iter_*``) plus an eager
# wrapper returning a :class:`RequestTrace`.  The iterators hold O(1)
# state — one RNG, one clock — so arbitrarily long arrival streams can
# be consumed without materialising them (the open-loop traffic engine
# and the soak harness both stream from these).  The wrappers draw in
# exactly the same order, so traces are bit-identical to the historical
# eager builders.
#
# The arrival-time loops below are shared with
# :class:`~repro.workloads.traffic.TrafficEngine`; each caller seeds the
# RNG under its own ``derive_seed`` namespace.


def _poisson_times(
    rng: random.Random, rate: float, horizon: float
) -> Iterator[float]:
    """Arrival instants of a Poisson process at ``rate``/s."""
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t > horizon:
            return
        yield t


def _diurnal_times(
    rng: random.Random,
    base_rate: float,
    peak_rate: float,
    period: float,
    horizon: float,
) -> Iterator[float]:
    """Thinned-Poisson instants whose rate swings sinusoidally between
    ``base_rate`` and ``peak_rate`` over ``period``, trough first."""
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t > horizon:
            return
        phase = math.sin(2 * math.pi * t / period - math.pi / 2)  # trough first
        rate = base_rate + (peak_rate - base_rate) * (phase + 1) / 2
        if rng.random() <= rate / peak_rate:
            yield t


def _bursty_times(
    rng: random.Random,
    burst_rate: float,
    idle_rate: float,
    mean_burst: float,
    mean_idle: float,
    horizon: float,
) -> Iterator[float]:
    """Two-state on/off (MMPP-2) instants, starting in a burst."""
    t = 0.0
    bursting = True
    phase_end = rng.expovariate(1.0 / mean_burst)
    while t < horizon:
        rate = burst_rate if bursting else idle_rate
        if rate <= 0:
            t = phase_end
        else:
            t += rng.expovariate(rate)
            if t <= min(phase_end, horizon):
                yield t
        if t >= phase_end:
            bursting = not bursting
            mean = mean_burst if bursting else mean_idle
            phase_end = t + rng.expovariate(1.0 / mean)


def iter_poisson(
    rate: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield steady Poisson arrivals at ``rate``/s."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(derive_seed(seed, "trace:poisson"))
    for t in _poisson_times(rng, rate, duration):
        yield TraceRequest(t, model, batch_size, slo)


def poisson_trace(
    rate: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Steady Poisson arrivals at ``rate``/s for ``duration`` seconds."""
    return RequestTrace(
        list(iter_poisson(rate, duration, model, batch_size, seed, slo))
    )


def iter_diurnal(
    base_rate: float,
    peak_rate: float,
    duration: float,
    model: str,
    batch_size: int,
    period: Optional[float] = None,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield sinusoidally modulated arrivals (thinned Poisson)."""
    if not 0 < base_rate <= peak_rate:
        raise ValueError("need 0 < base_rate <= peak_rate")
    if duration <= 0:
        raise ValueError("duration must be positive")
    period = period if period is not None else duration
    rng = random.Random(derive_seed(seed, "trace:diurnal"))
    for t in _diurnal_times(rng, base_rate, peak_rate, period, duration):
        yield TraceRequest(t, model, batch_size, slo)


def diurnal_trace(
    base_rate: float,
    peak_rate: float,
    duration: float,
    model: str,
    batch_size: int,
    period: Optional[float] = None,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Sinusoidally modulated arrivals (the daily load curve, scaled).

    Rate varies between ``base_rate`` and ``peak_rate`` over ``period``
    (default: the full duration is one day-night cycle).  Generated by
    thinning a Poisson process at the peak rate.
    """
    return RequestTrace(
        list(
            iter_diurnal(
                base_rate, peak_rate, duration, model, batch_size,
                period, seed, slo,
            )
        )
    )


def iter_bursty(
    burst_rate: float,
    idle_rate: float,
    mean_burst: float,
    mean_idle: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield two-state on/off (MMPP-2) arrivals."""
    if burst_rate <= 0 or idle_rate < 0:
        raise ValueError("rates must be positive (idle may be 0)")
    if mean_burst <= 0 or mean_idle <= 0 or duration <= 0:
        raise ValueError("durations must be positive")
    rng = random.Random(derive_seed(seed, "trace:bursty"))
    for t in _bursty_times(
        rng, burst_rate, idle_rate, mean_burst, mean_idle, duration
    ):
        yield TraceRequest(t, model, batch_size, slo)


def bursty_trace(
    burst_rate: float,
    idle_rate: float,
    mean_burst: float,
    mean_idle: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Two-state on/off arrivals (MMPP-2): bursts of ``burst_rate``
    separated by quiet periods — the "intermittent and bursty" usage
    of the paper's introduction."""
    return RequestTrace(
        list(
            iter_bursty(
                burst_rate, idle_rate, mean_burst, mean_idle, duration,
                model, batch_size, seed, slo,
            )
        )
    )
