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
span under its job and the device total), so it stores each key's
records as three parallel columns: starts and ends as float64
``array('d')`` columns, tags as a list (a tag may be any object).
Recording appends scalars only: it allocates no tuple and boxes no
float it keeps, so a kernel costs ~48 bytes of trace and nothing the
tracer keeps is ever traced by CPython's cyclic garbage collector.
Because the columns are float64, a bound recorded as an ``int`` reads
back as a ``float``.  The :class:`Interval` objects of
:meth:`IntervalTracer.intervals` are built from the columns when asked
for, and never cached.  Hot readers use :meth:`IntervalTracer.columns`
instead.

The tracer's own metric readers (:meth:`IntervalTracer.duration`,
:meth:`IntervalTracer.duration_between`,
:meth:`IntervalTracer.busy_fraction`) stream the columns through one
generator merge and materialise no span list.  A key whose starts are
non-decreasing (every key of the serial engine) is merged as it
stands; otherwise (overlapping streams of the multi-stream engine) the
clipped spans are sorted first.  Either way the merged components, and
so the builtin ``sum`` over their lengths, equal those of the
module-level list functions bit for bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
        # Negated so a NaN bound, which compares False both ways, fails.
        if not self.start <= self.end:
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


def _merged(
    spans: Iterable[Tuple[float, float]]
) -> Iterator[Tuple[float, float]]:
    """Merge overlapping/adjacent spans, given in non-decreasing start
    order, into the components of their union, in order."""
    spans = iter(spans)
    for cur_start, cur_end in spans:
        break
    else:
        return
    for start, end in spans:
        if start <= cur_end:
            if end > cur_end:
                cur_end = end
        else:
            yield cur_start, cur_end
            cur_start, cur_end = start, end
    yield cur_start, cur_end


def _clipped(
    spans: Iterable[Tuple[float, float]], lo: float, hi: float
) -> Iterator[Tuple[float, float]]:
    """The non-empty parts of the spans inside ``[lo, hi)``, in order."""
    for start, end in spans:
        if lo > start:
            start = lo
        if hi < end:
            end = hi
        if end > start:
            yield start, end


def _column_union(
    starts: Sequence[float], spans: Iterable[Tuple[float, float]]
) -> float:
    """Union length of ``spans``, streamed in order from a key's columns.

    ``starts`` is the key's start column.  When it is non-decreasing
    (one C-level pass) the spans are merged as they stream; otherwise
    they are sorted first.
    """
    if not all(map(le, starts, islice(starts, 1, None))):
        spans = sorted(spans)
    return sum(end - start for start, end in _merged(spans))


def merge_intervals(spans: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent ``(start, end)`` spans into a union."""
    return list(_merged(sorted(spans)))


def union_duration(spans: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of spans — the paper's GPU-duration metric."""
    return sum(end - start for start, end in _merged(sorted(spans)))


def busy_fraction(
    spans: Iterable[Tuple[float, float]], window_start: float, window_end: float
) -> float:
    """Fraction of ``[window_start, window_end)`` covered by the spans."""
    if window_end <= window_start:
        return 0.0
    clipped = _clipped(spans, window_start, window_end)
    return union_duration(clipped) / (window_end - window_start)


# One key's columns: starts, ends and tags, index-aligned.
_Columns = Tuple["array[float]", "array[float]", List[Any]]

# What :meth:`IntervalTracer.columns` returns for an unrecorded key.
_NO_COLUMNS = ((), (), ())


class IntervalTracer:
    """Records tagged intervals during a simulation run.

    Intervals are grouped by ``key`` (typically a job id) so that
    per-job GPU durations can be computed afterwards.  Internally each
    key owns three parallel columns (float64 starts and ends, and a
    list of tags), so recording appends scalars and builds no object;
    :meth:`intervals` and the metric readers are computed from the
    columns on demand and never cached.
    """

    def __init__(self):
        self._open: Dict[Any, float] = {}
        # key -> (starts, ends, tags), parallel columns in record order.
        self._columns: Dict[Any, _Columns] = {}

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

    def _new_key(self, key: Any) -> _Columns:
        columns = self._columns[key] = (array("d"), array("d"), [])
        return columns

    def record(self, key: Any, start: float, end: float, tag: Any = None) -> None:
        """Record a complete interval directly."""
        # Negated so a NaN bound, which compares False both ways, fails.
        if not start <= end:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        columns = self._columns.get(key)
        if columns is None:
            columns = self._new_key(key)
        starts, ends, tags = columns
        starts.append(start)
        ends.append(end)
        tags.append(tag)

    def record_pair(
        self, key: Any, tag: Any, total_key: Any, start: float, end: float
    ) -> None:
        """Record one span under ``key`` and again under ``total_key``.

        Equivalent to ``record(key, start, end, tag)`` followed by
        ``record(total_key, start, end, tag=key)``: the device files
        each kernel under its job (tagged with the node) and under the
        all-jobs busy key (tagged with the job) in one call.
        """
        if not start <= end:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        columns = self._columns
        cols = columns.get(key)
        if cols is None:
            cols = self._new_key(key)
        starts, ends, tags = cols
        starts.append(start)
        ends.append(end)
        tags.append(tag)
        cols = columns.get(total_key)
        if cols is None:
            cols = self._new_key(total_key)
        starts, ends, tags = cols
        starts.append(start)
        ends.append(end)
        tags.append(key)

    def columns(
        self, key: Any
    ) -> Tuple[Sequence[float], Sequence[float], Sequence[Any]]:
        """The ``(starts, ends, tags)`` columns for ``key``, in record order.

        The tracer's own float64 arrays (an ``int`` bound reads back
        as a ``float``) and tag list, not copies: callers must not
        mutate them.  An unrecorded key has three empty columns.
        """
        return self._columns.get(key, _NO_COLUMNS)

    def intervals(self, key: Any) -> List[Interval]:
        starts, ends, tags = self.columns(key)
        return [
            Interval(start, end, tag)
            for start, end, tag in zip(starts, ends, tags)
        ]

    def keys(self) -> List[Any]:
        return list(self._columns)

    def count(self, key: Any) -> int:
        """Number of intervals recorded for ``key``."""
        return len(self.columns(key)[0])

    def duration(self, key: Any) -> float:
        """Union duration of all intervals recorded for ``key``."""
        starts, ends, _tags = self.columns(key)
        return _column_union(starts, zip(starts, ends))

    def duration_between(self, key: Any, lo: float, hi: float) -> float:
        """Union duration for ``key`` restricted to ``[lo, hi)``."""
        starts, ends, _tags = self.columns(key)
        return _column_union(starts, _clipped(zip(starts, ends), lo, hi))

    def busy_fraction(self, key: Any, lo: float, hi: float) -> float:
        """Fraction of ``[lo, hi)`` covered by ``key``'s intervals."""
        if hi <= lo:
            return 0.0
        return self.duration_between(key, lo, hi) / (hi - lo)

    def clear(self) -> None:
        self._open.clear()
        self._columns.clear()
