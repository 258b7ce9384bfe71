"""Interval tracing: the measurement backbone of the reproduction.

Olympian's core quantity is *GPU duration*: the total time during which
at least one node of a job runs on the GPU (paper Figure 5 — the union of
the busy intervals, ``t1 + t2 + t3`` in their example).  This module
provides:

* :class:`Interval` — a tagged ``[start, end)`` span.
* :class:`IntervalTracer` — records intervals as the simulation runs.
* :func:`union_duration` — length of the union of intervals (Figure 5).
* :func:`busy_fraction` — utilization over a window (the NVML analogue).

The tracer sits on the simulation's hot path (one
:meth:`IntervalTracer.record_pair` per executed GPU kernel, filing the
span under its job and the device total), so it stores raw
``(start, end, tag)`` tuples in flat per-key lists and only
materialises :class:`Interval` objects lazily, when an analysis view
(:meth:`IntervalTracer.intervals` / :meth:`IntervalTracer.all_intervals`)
asks for them.  Hot readers use :meth:`IntervalTracer.rows` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Interval",
    "IntervalTracer",
    "union_duration",
    "merge_intervals",
    "busy_fraction",
]


@dataclass(frozen=True)
class Interval:
    """A half-open span ``[start, end)`` attributed to ``tag``."""

    start: float
    end: float
    tag: Any = None

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def clipped(self, lo: float, hi: float) -> Optional["Interval"]:
        """The part of this interval inside ``[lo, hi)``, or ``None``."""
        start = max(self.start, lo)
        end = min(self.end, hi)
        if end <= start:
            return None
        return Interval(start, end, self.tag)


def merge_intervals(spans: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent ``(start, end)`` spans into a union."""
    ordered = sorted(spans)
    merged: List[Tuple[float, float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def union_duration(spans: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of spans — the paper's GPU-duration metric."""
    return sum(end - start for start, end in merge_intervals(spans))


def busy_fraction(
    spans: Iterable[Tuple[float, float]], window_start: float, window_end: float
) -> float:
    """Fraction of ``[window_start, window_end)`` covered by the spans."""
    if window_end <= window_start:
        return 0.0
    clipped = []
    for start, end in spans:
        lo = max(start, window_start)
        hi = min(end, window_end)
        if hi > lo:
            clipped.append((lo, hi))
    return union_duration(clipped) / (window_end - window_start)


class IntervalTracer:
    """Records tagged intervals during a simulation run.

    Intervals are grouped by ``key`` (typically a job id) so that
    per-job GPU durations can be computed afterwards.  Internally each
    record is one appended ``(start, end, tag)`` tuple; the
    :class:`Interval` object views are built on demand.
    """

    def __init__(self):
        self._open: Dict[Any, float] = {}
        # key -> [(start, end, tag), ...] in record order.
        self._raw: Dict[Any, List[Tuple[float, float, Any]]] = {}
        # Global record order: (key, start, end, tag).
        self._all_raw: List[Tuple[Any, float, float, Any]] = []

    def begin(self, key: Any, now: float) -> None:
        """Open an interval for ``key`` at time ``now``."""
        if key in self._open:
            raise ValueError(f"interval for {key!r} already open")
        self._open[key] = now

    def end(self, key: Any, now: float, tag: Any = None) -> Interval:
        """Close the open interval for ``key`` and record it."""
        try:
            start = self._open.pop(key)
        except KeyError:
            raise ValueError(f"no open interval for {key!r}")
        self.record(key, start, now, tag)
        return Interval(start, now, tag)

    def record(self, key: Any, start: float, end: float, tag: Any = None) -> None:
        """Record a complete interval directly."""
        if end < start:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        rows = self._raw.get(key)
        if rows is None:
            rows = self._raw[key] = []
        rows.append((start, end, tag))
        self._all_raw.append((key, start, end, tag))

    def record_pair(
        self, key: Any, tag: Any, total_key: Any, start: float, end: float
    ) -> None:
        """Record one span under ``key`` and again under ``total_key``.

        Equivalent to ``record(key, start, end, tag)`` followed by
        ``record(total_key, start, end, tag=key)``: the device files
        each kernel under its job (tagged with the node) and under the
        all-jobs busy key (tagged with the job) in one call.
        """
        if end < start:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        raw = self._raw
        rows = raw.get(key)
        if rows is None:
            rows = raw[key] = []
        rows.append((start, end, tag))
        rows = raw.get(total_key)
        if rows is None:
            rows = raw[total_key] = []
        rows.append((start, end, key))
        append = self._all_raw.append
        append((key, start, end, tag))
        append((total_key, start, end, key))

    def intervals(self, key: Any) -> List[Interval]:
        return [
            Interval(start, end, tag)
            for start, end, tag in self._raw.get(key, ())
        ]

    def keys(self) -> List[Any]:
        return list(self._raw.keys())

    def all_intervals(self) -> List[Interval]:
        return [
            Interval(start, end, tag)
            for _key, start, end, tag in self._all_raw
        ]

    def rows(self, key: Any) -> List[Tuple[float, float, Any]]:
        """The raw ``(start, end, tag)`` records for ``key``, in order.

        The tracer's own list, not a copy: callers must not mutate it.
        """
        return self._raw.get(key, [])

    def spans(self, key: Any) -> List[Tuple[float, float]]:
        return [(start, end) for start, end, _tag in self._raw.get(key, ())]

    def count(self, key: Any) -> int:
        """Number of intervals recorded for ``key``."""
        return len(self._raw.get(key, ()))

    def duration(self, key: Any) -> float:
        """Union duration of all intervals recorded for ``key``."""
        return union_duration(self.spans(key))

    def duration_between(self, key: Any, lo: float, hi: float) -> float:
        """Union duration for ``key`` restricted to ``[lo, hi)``."""
        clipped = []
        for start, end, _tag in self._raw.get(key, ()):
            s = start if start > lo else lo
            e = end if end < hi else hi
            if e > s:
                clipped.append((s, e))
        return union_duration(clipped)

    def clear(self) -> None:
        self._open.clear()
        self._raw.clear()
        self._all_raw.clear()
