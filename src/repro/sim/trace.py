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
float it keeps, and nothing the tracer keeps is ever traced by
CPython's cyclic garbage collector.  Because the columns are float64,
a bound recorded as an ``int`` reads back as a ``float``.  The
:class:`Interval` objects of :meth:`IntervalTracer.intervals` are
built from the columns when asked for, and never cached.  Hot readers
use :meth:`IntervalTracer.columns` instead.

Each kernel is stored once.  The device total is fed only by
``record_pair``, so it keeps no columns of its own: it records each
span's source key as a 4-byte ordinal, and its records (same bounds,
same order, the source key as tag) are derived from the sources'
columns, the n-th ordinal ``i`` naming the n-th record of source
``i``.  A kernel therefore costs 28 bytes of trace (two float64
bounds and a tag slot under its job, one ordinal for the total)
instead of 48.  The total's order column is the only one that grows
to the run's full length, at 4 bytes a record instead of 24, and
readers keep no index beside it.  ``columns(total)`` returns a fresh
copy; :meth:`IntervalTracer.chunks` and the metric readers stream the
records at C speed, one ordinal pulling the next item of its source's
column.  Any other use of a total (a direct record under it or under
one of its sources, a source feeding two totals) falls back to stored
columns, so every mix of calls reads back as if each were stored.

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
from itertools import chain, islice, tee
from operator import le
from struct import calcsize
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

# Records per slice of :meth:`IntervalTracer.chunks`.
_CHUNK = 4096

# Bytes one tag-list slot holds: a pointer.
_SLOT = calcsize("P")


class _Total:
    """A total key fed only by :meth:`IntervalTracer.record_pair`.

    Its records are stored once, under their source keys.  ``order``
    holds each record's source ordinal in record order; ``sources``
    and ``columns`` map an ordinal to the source key and its columns.
    The records of one source appear in its columns in the same order
    as in ``order``, so the n-th ordinal ``i`` in ``order`` names the
    n-th record of source ``i``.  Readers keep nothing: each read
    streams the order column once more.
    """

    __slots__ = ("order", "sources", "columns")

    def __init__(self):
        self.order = array("I")
        self.sources: List[Any] = []
        self.columns: List[_Columns] = []

    def stream(self, field: int) -> Iterator[Any]:
        """Column ``field`` (0 starts, 1 ends, 2 tags) of every record,
        in record order.

        Each ordinal pulls the next item of its source's column, at C
        speed: no Python frame runs per record.
        """
        if field == 2:
            return map(self.sources.__getitem__, self.order)
        pulls = [iter(columns[field]) for columns in self.columns]
        return map(next, map(pulls.__getitem__, self.order))

    def ordered(self) -> bool:
        """Whether the starts are non-decreasing in record order."""
        starts, following = tee(self.stream(0))
        next(following, None)
        return all(map(le, starts, following))

    def materialize(self) -> _Columns:
        """Fresh ``(starts, ends, tags)`` columns of every record."""
        return (
            array("d", self.stream(0)),
            array("d", self.stream(1)),
            list(self.stream(2)),
        )


class IntervalTracer:
    """Records tagged intervals during a simulation run.

    Intervals are grouped by ``key`` (typically a job id) so that
    per-job GPU durations can be computed afterwards.  Internally each
    key owns three parallel columns (float64 starts and ends, and a
    list of tags), so recording appends scalars and builds no object;
    :meth:`intervals` and the metric readers are computed from the
    columns on demand and never cached.

    A total key that only :meth:`record_pair` feeds keeps no columns of
    its own: it is a view over its sources' columns, recorded as one
    4-byte source ordinal per record.  It falls back to stored columns
    as soon as that view would no longer read back every record
    exactly: a direct record under the total or under one of its
    sources, a source that feeds a second total, or a key that is both
    a source and a total.
    """

    def __init__(self):
        self._open: Dict[Any, float] = {}
        # Every key, in first-record order.
        self._keys: Dict[Any, None] = {}
        # key -> (starts, ends, tags) for keys with stored columns.
        self._columns: Dict[Any, _Columns] = {}
        # Source key -> (total key, ordinal, starts, ends, tags, total
        # order column): the record_pair fast path's one lookup.
        self._pairs: Dict[Any, tuple] = {}
        # Derived total key -> its order column and sources.
        self._totals: Dict[Any, _Total] = {}

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

    def _stored(self, key: Any) -> _Columns:
        """``key``'s stored columns, created (or derived ones
        materialised) on first need."""
        columns = self._columns.get(key)
        if columns is not None:
            return columns
        pair = self._pairs.get(key)
        if pair is not None:
            self._materialize(pair[0])
        elif key in self._totals:
            self._materialize(key)
        else:
            self._keys[key] = None
            self._columns[key] = (array("d"), array("d"), [])
        return self._columns[key]

    def _materialize(self, total_key: Any) -> None:
        """Fall back to stored columns for a derived total and its sources."""
        total = self._totals.pop(total_key)
        self._columns[total_key] = total.materialize()
        for key, columns in zip(total.sources, total.columns):
            del self._pairs[key]
            self._columns[key] = columns

    def record(self, key: Any, start: float, end: float, tag: Any = None) -> None:
        """Record a complete interval directly."""
        # Negated so a NaN bound, which compares False both ways, fails.
        if not start <= end:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        columns = self._columns.get(key)
        if columns is None:
            columns = self._stored(key)
        starts, ends, tags = columns
        starts.append(start)
        ends.append(end)
        tags.append(tag)

    def record_pair(
        self, key: Any, tag: Any, total_key: Any, start: float, end: float
    ) -> None:
        """Record one span under ``key`` and again under ``total_key``.

        Reads back as ``record(key, start, end, tag)`` followed by
        ``record(total_key, start, end, tag=key)``: the device files
        each kernel under its job (tagged with the node) and under the
        all-jobs busy key (tagged with the job) in one call.  The span
        is stored once, under ``key``; the total records only ``key``'s
        ordinal.
        """
        if not start <= end:
            raise ValueError(
                f"interval ends before it starts: [{start!r}, {end!r})"
            )
        pair = self._pairs.get(key)
        if pair is None or pair[0] is not total_key:
            self._record_pair_slow(key, tag, total_key, start, end)
            return
        _total_key, ordinal, starts, ends, tags, order = pair
        starts.append(start)
        ends.append(end)
        tags.append(tag)
        order.append(ordinal)

    def _record_pair_slow(
        self, key: Any, tag: Any, total_key: Any, start: float, end: float
    ) -> None:
        """:meth:`record_pair` for a new source, or a fallback."""
        pair = self._pairs.get(key)
        if pair is None and not (
            key == total_key
            or key in self._columns
            or key in self._totals
            or total_key in self._columns
            or total_key in self._pairs
        ):
            # ``key`` has no other role, so it is new: it becomes a
            # source of ``total_key``, derived or new itself.
            self._keys[key] = None
            total = self._totals.get(total_key)
            if total is None:
                total = self._totals[total_key] = _Total()
                self._keys[total_key] = None
            columns = (array("d"), array("d"), [])
            pair = self._pairs[key] = (
                total_key, len(total.sources), *columns, total.order
            )
            total.sources.append(key)
            total.columns.append(columns)
        if pair is not None and pair[0] == total_key:
            _total_key, ordinal, starts, ends, tags, order = pair
            starts.append(start)
            ends.append(end)
            tags.append(tag)
            order.append(ordinal)
            return
        starts, ends, tags = self._stored(key)
        starts.append(start)
        ends.append(end)
        tags.append(tag)
        starts, ends, tags = self._stored(total_key)
        starts.append(start)
        ends.append(end)
        tags.append(key)

    def columns(
        self, key: Any
    ) -> Tuple[Sequence[float], Sequence[float], Sequence[Any]]:
        """The ``(starts, ends, tags)`` columns for ``key``, in record order.

        The tracer's own float64 arrays (an ``int`` bound reads back
        as a ``float``) and tag list, not copies: callers must not
        mutate them.  A derived total key has no columns of its own,
        so it returns a fresh copy, built on every call; streaming
        readers use :meth:`chunks` instead.  An unrecorded key has
        three empty columns.
        """
        columns = self._columns.get(key)
        if columns is not None:
            return columns
        pair = self._pairs.get(key)
        if pair is not None:
            return pair[2:5]
        total = self._totals.get(key)
        if total is not None:
            return total.materialize()
        return _NO_COLUMNS

    def chunks(
        self, key: Any, size: int = _CHUNK
    ) -> Iterator[Tuple[Sequence[float], Sequence[float], Sequence[Any]]]:
        """``key``'s records as ``(starts, ends, tags)`` column slices of
        at most ``size`` records, in record order.

        Reading a derived total key this way never builds its full
        columns.
        """
        total = self._totals.get(key)
        if total is None:
            starts, ends, tags = self.columns(key)
            for lo in range(0, len(starts), size):
                hi = lo + size
                yield starts[lo:hi], ends[lo:hi], tags[lo:hi]
            return
        starts, ends, tags = total.stream(0), total.stream(1), total.stream(2)
        for _ in range(0, len(total.order), size):
            yield (
                array("d", islice(starts, size)),
                array("d", islice(ends, size)),
                list(islice(tags, size)),
            )

    def intervals(self, key: Any) -> List[Interval]:
        starts, ends, tags = self.columns(key)
        return [
            Interval(start, end, tag)
            for start, end, tag in zip(starts, ends, tags)
        ]

    def keys(self) -> List[Any]:
        return list(self._keys)

    def count(self, key: Any) -> int:
        """Number of intervals recorded for ``key``."""
        total = self._totals.get(key)
        if total is not None:
            return len(total.order)
        return len(self.columns(key)[0])

    def stored_bytes(self) -> int:
        """Bytes of every column the tracer records: itemsize × length,
        a pointer per tag-list slot, 4 per derived total record.

        Readers keep nothing, so this is all the tracer holds besides
        its per-key bookkeeping.
        """
        size = 0
        for starts, ends, tags in chain(
            self._columns.values(),
            (pair[2:5] for pair in self._pairs.values()),
        ):
            size += starts.itemsize * len(starts) + ends.itemsize * len(ends)
            size += _SLOT * len(tags)
        for total in self._totals.values():
            size += total.order.itemsize * len(total.order)
        return size

    def _union(
        self, key: Any, lo: Optional[float] = None, hi: Optional[float] = None
    ) -> float:
        """Union length of ``key``'s spans, clipped to ``[lo, hi)`` when
        given, streamed in record order.

        When the key's starts are non-decreasing (checked at C speed)
        the spans are merged as they stream; otherwise they are sorted
        first.
        """
        total = self._totals.get(key)
        if total is None:
            starts, ends, _tags = self.columns(key)
            ordered = all(map(le, starts, islice(starts, 1, None)))
            spans = zip(starts, ends)
        else:
            ordered = total.ordered()
            spans = zip(total.stream(0), total.stream(1))
        if lo is not None:
            spans = _clipped(spans, lo, hi)
        if not ordered:
            spans = sorted(spans)
        return sum(end - start for start, end in _merged(spans))

    def duration(self, key: Any) -> float:
        """Union duration of all intervals recorded for ``key``."""
        return self._union(key)

    def duration_between(self, key: Any, lo: float, hi: float) -> float:
        """Union duration for ``key`` restricted to ``[lo, hi)``."""
        return self._union(key, lo, hi)

    def busy_fraction(self, key: Any, lo: float, hi: float) -> float:
        """Fraction of ``[lo, hi)`` covered by ``key``'s intervals."""
        if hi <= lo:
            return 0.0
        return self.duration_between(key, lo, hi) / (hi - lo)

    def clear(self) -> None:
        self._open.clear()
        self._keys.clear()
        self._columns.clear()
        self._pairs.clear()
        self._totals.clear()
