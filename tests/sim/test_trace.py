"""Unit tests for interval tracing and union-duration math (Figure 5)."""

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Interval,
    IntervalTracer,
    busy_fraction,
    merge_intervals,
    union_duration,
)

NAN = float("nan")


class TestInterval:
    def test_duration(self):
        assert Interval(1.0, 3.5).duration == 2.5

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    @pytest.mark.parametrize("start, end", [(NAN, 1.0), (0.0, NAN), (NAN, NAN)])
    def test_rejects_nan_bound(self, start, end):
        with pytest.raises(ValueError):
            Interval(start, end)

    def test_overlaps(self):
        a = Interval(0.0, 2.0)
        assert a.overlaps(Interval(1.0, 3.0))
        assert not a.overlaps(Interval(2.0, 3.0))  # half-open

    def test_clipped_inside(self):
        part = Interval(0.0, 10.0, tag="t").clipped(2.0, 4.0)
        assert (part.start, part.end, part.tag) == (2.0, 4.0, "t")

    def test_clipped_outside_returns_none(self):
        assert Interval(0.0, 1.0).clipped(2.0, 3.0) is None


class TestUnionMath:
    def test_merge_disjoint(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_merge_adjacent(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_unsorted_input(self):
        assert merge_intervals([(2, 3), (0, 1.5), (1, 2.5)]) == [(0, 3)]

    def test_union_duration_figure5_example(self):
        # Figure 5: overlapping node executions; GPU duration is the
        # union t1 + t2 + t3, not the sum of node durations.
        spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (8.0, 8.5)]
        assert union_duration(spans) == pytest.approx(3.0 + 1.0 + 0.5)

    def test_union_duration_empty(self):
        assert union_duration([]) == 0.0

    def test_busy_fraction_full_coverage(self):
        assert busy_fraction([(0, 10)], 0, 10) == 1.0

    def test_busy_fraction_partial(self):
        assert busy_fraction([(0, 5)], 0, 10) == 0.5

    def test_busy_fraction_clips_to_window(self):
        assert busy_fraction([(-5, 5)], 0, 10) == 0.5

    def test_busy_fraction_degenerate_window(self):
        assert busy_fraction([(0, 1)], 5, 5) == 0.0


class TestIntervalTracer:
    def test_record_direct(self):
        tracer = IntervalTracer()
        tracer.record("a", 0.0, 1.0)
        tracer.record("a", 2.0, 4.0)
        assert tracer.duration("a") == pytest.approx(3.0)

    def test_per_key_isolation(self):
        tracer = IntervalTracer()
        tracer.record("a", 0.0, 1.0)
        tracer.record("b", 0.0, 5.0)
        assert tracer.duration("a") == 1.0
        assert tracer.duration("b") == 5.0
        assert set(tracer.keys()) == {"a", "b"}

    def test_overlapping_intervals_union(self):
        tracer = IntervalTracer()
        tracer.record("a", 0.0, 2.0)
        tracer.record("a", 1.0, 3.0)
        assert tracer.duration("a") == pytest.approx(3.0)

    def test_duration_between_clips(self):
        tracer = IntervalTracer()
        tracer.record("a", 0.0, 10.0)
        assert tracer.duration_between("a", 2.0, 5.0) == pytest.approx(3.0)

    def test_duration_unknown_key_is_zero(self):
        assert IntervalTracer().duration("missing") == 0.0

    def test_clear(self):
        tracer = IntervalTracer()
        tracer.record("a", 0.0, 1.0)
        tracer.clear()
        assert tracer.duration("a") == 0.0
        assert tracer.keys() == []
        assert tracer.count("a") == 0

    def test_columns_are_index_aligned(self):
        tracer = IntervalTracer()
        tracer.record_pair("job", 7, "total", 0.0, 1.0)
        tracer.record_pair("job", 8, "total", 2.0, 3.0)
        starts, ends, tags = tracer.columns("job")
        assert list(starts) == [0.0, 2.0]
        assert list(ends) == [1.0, 3.0]
        assert list(tags) == [7, 8]
        assert [list(c) for c in tracer.columns("total")] == [
            [0.0, 2.0], [1.0, 3.0], ["job", "job"]
        ]
        assert [list(c) for c in tracer.columns("missing")] == [[], [], []]

    def test_columns_store_float64(self):
        tracer = IntervalTracer()
        tracer.record("a", 1, 2, tag=3)
        starts, ends, tags = tracer.columns("a")
        assert [type(starts[0]), type(ends[0]), type(tags[0])] == [
            float, float, int
        ]
        assert tracer.intervals("a") == [Interval(1.0, 2.0, 3)]


class TestNanSpansRejected:
    """A NaN bound compares False both ways, so ``end < start`` would
    let it through and poison every union built over its key."""

    BOUNDS = [(NAN, 1.0), (0.0, NAN), (NAN, NAN)]

    @pytest.mark.parametrize("start, end", BOUNDS)
    def test_record(self, start, end):
        tracer = IntervalTracer()
        with pytest.raises(ValueError):
            tracer.record("a", start, end)
        assert tracer.count("a") == 0

    @pytest.mark.parametrize("start, end", BOUNDS)
    def test_record_pair(self, start, end):
        tracer = IntervalTracer()
        with pytest.raises(ValueError):
            tracer.record_pair("job", 0, "total", start, end)
        assert tracer.keys() == []


class TestTracerAllocations:
    """Recording builds no object the cyclic collector has to track.

    ``gc.get_count()[0]`` counts container allocations minus
    deallocations since the last collection; with the collector off it
    is an exact allocation meter.  Floats, ints and strings are never
    tracked, and appending to an existing array or list allocates
    nothing tracked, so the columns leave the count where it was.
    """

    def test_record_and_record_pair_allocate_nothing_tracked(self):
        tracer = IntervalTracer()
        record = tracer.record
        record_pair = tracer.record_pair
        starts = [i * 1e-6 for i in range(10_000)]
        ends = [start + 5e-7 for start in starts]

        def fill(n):
            for i in range(n):
                record_pair("job", i & 7, "total", starts[i], ends[i])
                record("other", starts[i], ends[i], i & 3)

        # Each key's first record builds its columns: per key, not
        # per record.
        fill(1)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            # A collection zeroes the count, and a deallocation at zero
            # is not subtracted: lift it off the floor first.
            padding = [[] for _ in range(100)]
            # A collection also empties the tuple free list, so the
            # first get_count() allocates its result tuple for good.
            gc.get_count()
            before = gc.get_count()[0]
            fill(10_000)
            moved = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert moved == 0
        assert len(padding) == 100
        assert tracer.count("total") == 10_001


def reference_merge(spans):
    """The sorted-list union merge the streamed readers replaced."""
    merged = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def reference_union(spans):
    return sum(end - start for start, end in reference_merge(spans))


def reference_clip(spans, lo, hi):
    return [
        (max(start, lo), min(end, hi))
        for start, end in spans
        if min(end, hi) > max(start, lo)
    ]


class ReferenceTracer:
    """The tuple-list tracer the columnar one replaced, as an oracle,
    with the one-role-per-key rule checked before anything is stored."""

    def __init__(self):
        self.roles = {}
        self.raw = {}

    def record(self, key, start, end, tag=None):
        if not start <= end:
            raise ValueError(key)
        if self.roles.setdefault(key, "record") != "record":
            raise ValueError(key)
        self.raw.setdefault(key, []).append((start, end, tag))

    def record_pair(self, key, tag, total_key, start, end):
        if not start <= end:
            raise ValueError(key)
        source = ("source", total_key)
        if (
            key == total_key
            or self.roles.get(key, source) != source
            or self.roles.get(total_key, "total") != "total"
        ):
            raise ValueError(key)
        self.roles[key] = source
        self.roles[total_key] = "total"
        self.raw.setdefault(key, []).append((start, end, tag))
        self.raw.setdefault(total_key, []).append((start, end, key))

    def clear(self):
        self.roles.clear()
        self.raw.clear()

    def views(self, lo, hi):
        out = {"keys": list(self.raw)}
        for key in list(self.raw) + ["missing"]:
            rows = self.raw.get(key, [])
            out[key] = (
                [(s, e) for s, e, _t in rows],
                [t for _s, _e, t in rows],
                [Interval(s, e, t) for s, e, t in rows],
                len(rows),
                reference_union([(s, e) for s, e, _t in rows]),
                reference_union(
                    reference_clip([(s, e) for s, e, _t in rows], lo, hi)
                ),
            )
        return out


def spans(tracer, key):
    """``key``'s ``(start, end)`` spans, read from the tracer's columns."""
    starts, ends, _tags = tracer.columns(key)
    return list(zip(starts, ends))


def tracer_views(tracer, keys, lo, hi):
    out = {"keys": tracer.keys()}
    for key in keys + ["missing"]:
        out[key] = (
            spans(tracer, key),
            list(tracer.columns(key)[2]),
            tracer.intervals(key),
            tracer.count(key),
            tracer.duration(key),
            tracer.duration_between(key, lo, hi),
        )
    return out


_KEYS = st.sampled_from(["a", "b", "c", 3])
_TIMES = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _KEYS, _TIMES, _TIMES, st.integers(0, 3)),
        st.tuples(st.just("record_pair"), _KEYS, _KEYS, _TIMES, _TIMES, st.integers(0, 3)),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _apply(tracer, op):
    name, *args = op
    try:
        if name == "record":
            key, a, b, tag = args
            return ("ok", tracer.record(key, a, b, tag))
        if name == "record_pair":
            key, total, a, b, tag = args
            return ("ok", tracer.record_pair(key, tag, total, a, b))
        return ("ok", tracer.clear())
    except ValueError:
        return ("ValueError", None)


class TestTracerDifferential:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS, lo=_TIMES, hi=_TIMES)
    def test_views_match_tuple_list_reference(self, ops, lo, hi):
        tracer = IntervalTracer()
        reference = ReferenceTracer()
        for op in ops:
            assert _apply(tracer, op) == _apply(reference, op)
        expected = reference.views(lo, hi)
        got = tracer_views(tracer, expected["keys"], lo, hi)
        assert got == expected


# A coarse grid makes tied starts, shared ends, zero-length spans and
# spans touching the window edges common; free floats make the merged
# lengths inexact, so a summation-order change would show.
_GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_POINT = st.one_of(_GRID, st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
_SPANS = st.lists(st.tuples(_POINT, _POINT).map(sorted).map(tuple), max_size=40)


class TestStreamedReaders:
    """The tracer's streamed readers equal the sorted-list reference
    bit for bit, on start-ordered columns (the merge-as-is path, tied
    starts in any end order) and on unordered ones (the sort path)."""

    @settings(max_examples=300, deadline=None)
    @given(spans=_SPANS, lo=_POINT, hi=_POINT, ordered=st.booleans())
    @example(spans=[(0.0, 1.0), (1.0, 2.0)], lo=1.0, hi=1.0, ordered=True)
    @example(spans=[(0.5, 2.0), (0.5, 1.0), (3.0, 3.0)], lo=0.5, hi=3.0,
             ordered=True)
    @example(spans=[(1.0, 2.0), (0.0, 0.5), (0.25, 1.0)], lo=0.0, hi=1.5,
             ordered=False)
    def test_match_sorted_list_reference(self, spans, lo, hi, ordered):
        if ordered:
            # Stable on starts only: tied starts keep a random end order.
            spans = sorted(spans, key=lambda span: span[0])
        tracer = IntervalTracer()
        for start, end in spans:
            tracer.record("k", start, end)
        between = reference_union(reference_clip(spans, lo, hi))
        fraction = between / (hi - lo) if hi > lo else 0.0

        assert tracer.duration("k") == reference_union(spans)
        assert tracer.duration_between("k", lo, hi) == between
        assert tracer.busy_fraction("k", lo, hi) == fraction
        assert tracer.busy_fraction("missing", lo, hi) == 0.0
        assert union_duration(spans) == reference_union(spans)
        assert busy_fraction(spans, lo, hi) == fraction
        assert merge_intervals(spans) == reference_merge(spans)
