"""The derived device-total key against a store-twice tracer.

``IntervalTracer.record_pair`` stores each span once, under its source
key, and files only the source's ordinal for the total key; every
reader derives the total's records from the sources' columns.  These
tests pin that every view of every key equals, bit for bit, what a
tracer that stores each span under both keys returns: on a serial run
(a start-ordered total), on a 4-stream spatial run (an overlapping,
unordered total), and on mixed ``record``/``record_pair`` sequences
that force the fallback to stored columns.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, run_workload
from repro.faults.determinism import trace_digest
from repro.gpu.device import GPU_GLOBAL_KEY
from repro.sim import IntervalTracer
from repro.workloads import complex_workload

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)


class StoreTwice(IntervalTracer):
    """``record_pair`` as two ``record`` calls: the total stored too."""

    def record_pair(self, key, tag, total_key, start, end):
        self.record(key, start, end, tag)
        self.record(total_key, start, end, key)


def windows(tracer):
    """Windows over the run: whole, halves, an interior slice, empty."""
    ends = [max(tracer.columns(key)[1], default=0.0) for key in tracer.keys()]
    horizon = max(ends, default=1.0)
    return [
        (0.0, horizon),
        (0.0, horizon / 2),
        (horizon / 2, horizon),
        (horizon / 3, horizon / 3 + horizon / 50),
        (horizon, horizon),
    ]


def views(tracer, keys, lo_hi):
    out = {"keys": tracer.keys()}
    for key in list(keys) + ["missing"]:
        starts, ends, tags = tracer.columns(key)
        out[key] = (
            list(starts),
            list(ends),
            list(tags),
            tracer.intervals(key),
            tracer.count(key),
            tracer.duration(key),
            [tracer.duration_between(key, lo, hi) for lo, hi in lo_hi],
            [tracer.busy_fraction(key, lo, hi) for lo, hi in lo_hi],
            chunked(tracer, key),
        )
    return out


def chunked(tracer, key, size=7):
    """``chunks(key)`` concatenated: its slice bounds may differ from a
    stored key's, but never its records or the size limit."""
    starts, ends, tags = [], [], []
    for s, e, t in tracer.chunks(key, size=size):
        assert 0 < len(s) == len(e) == len(t) <= size
        starts += s
        ends += e
        tags += t
    return starts, ends, tags


def assert_same_views(tracer, reference):
    lo_hi = windows(reference)
    keys = reference.keys()
    assert views(tracer, keys, lo_hi) == views(reference, keys, lo_hi)


def run_twice(monkeypatch, scheduler, config):
    """One run per tracer kind; the reference stores the total too."""
    specs = complex_workload(clients_per_model=1, num_batches=2)
    derived = run_workload(specs, scheduler=scheduler, config=config)
    monkeypatch.setattr("repro.serving.server.IntervalTracer", StoreTwice)
    stored = run_workload(specs, scheduler=scheduler, config=config)
    assert isinstance(stored.server.tracer, StoreTwice)
    assert not isinstance(derived.server.tracer, StoreTwice)
    return derived, stored


class TestRunsMatchStoreTwice:
    def test_serial_run(self, monkeypatch):
        derived, stored = run_twice(monkeypatch, "fair", FAST)
        tracer = derived.server.tracer
        assert tracer.count(GPU_GLOBAL_KEY) > 100
        # Serial: the total's starts are non-decreasing.
        starts = tracer.columns(GPU_GLOBAL_KEY)[0]
        assert list(starts) == sorted(starts)
        assert_same_views(tracer, stored.server.tracer)
        assert derived.trace_digest() == stored.trace_digest()
        assert tracer.stored_bytes() == 28 * tracer.count(GPU_GLOBAL_KEY)
        assert stored.server.tracer.stored_bytes() == 48 * tracer.count(
            GPU_GLOBAL_KEY
        )

    def test_spatial_run(self, monkeypatch):
        config = ExperimentConfig(
            scale=0.02, quantum=0.8e-3, curve_batches=2, streams=4
        )
        derived, stored = run_twice(monkeypatch, "spatial", config)
        tracer = derived.server.tracer
        # Overlapping streams: the total is not start-ordered.
        starts = tracer.columns(GPU_GLOBAL_KEY)[0]
        assert list(starts) != sorted(starts)
        assert_same_views(tracer, stored.server.tracer)
        assert derived.trace_digest() == stored.trace_digest()
        lo, hi = 0.0, derived.sim.now
        assert derived.server.utilization(lo, hi) == (
            stored.server.utilization(lo, hi)
        )


# Each sequence breaks the derived view a different way; the tracer
# must fall back to stored columns and still read back exactly.
FALLBACKS = {
    "direct record into the total": [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("pair", "b", 1, "T", 0.5, 2.0),
        ("record", "T", 3.0, 4.0, "x"),
        ("pair", "a", 2, "T", 5.0, 6.0),
    ],
    "direct record into a source": [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("record", "a", 1.0, 1.5, "x"),
        ("pair", "a", 1, "T", 2.0, 3.0),
        ("pair", "b", 1, "T", 2.5, 3.0),
    ],
    "a source feeding two totals": [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("pair", "b", 0, "U", 0.0, 2.0),
        ("pair", "a", 1, "U", 1.0, 3.0),
        ("pair", "b", 1, "T", 3.0, 4.0),
    ],
    "a total that is also a source": [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("pair", "T", 0, "U", 1.0, 2.0),
        ("pair", "a", 1, "T", 2.0, 3.0),
    ],
    "a source that is also a total": [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("pair", "b", 0, "a", 1.0, 2.0),
        ("pair", "a", 1, "T", 2.0, 3.0),
    ],
    "a key paired with itself": [
        ("pair", "a", 0, "a", 0.0, 1.0),
        ("pair", "a", 1, "T", 2.0, 3.0),
    ],
    "a record before the first pair": [
        ("record", "T", 0.0, 1.0, None),
        ("pair", "a", 0, "T", 0.5, 2.0),
    ],
}


def replay(tracer, ops):
    for op in ops:
        if op[0] == "pair":
            _, key, tag, total, start, end = op
            tracer.record_pair(key, tag, total, start, end)
        else:
            _, key, start, end, tag = op
            tracer.record(key, start, end, tag)


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_matches_store_twice(name):
    tracer, reference = IntervalTracer(), StoreTwice()
    replay(tracer, FALLBACKS[name])
    replay(reference, FALLBACKS[name])
    assert_same_views(tracer, reference)
    # Fallen back: every total is stored, as in the reference.
    assert tracer.stored_bytes() == reference.stored_bytes()


def test_starts_going_back_across_runs_take_the_sort_path():
    """Each run is start-ordered, but the total goes back where one run
    meets the next; the readers must sort, not merge as it stands."""
    ops = [
        ("pair", "a", 0, "T", 2.0, 3.0),
        ("pair", "a", 1, "T", 2.5, 3.5),
        ("pair", "b", 0, "T", 0.0, 1.0),
        ("pair", "b", 1, "T", 0.5, 1.5),
    ]
    tracer, reference = IntervalTracer(), StoreTwice()
    replay(tracer, ops)
    replay(reference, ops)
    assert_same_views(tracer, reference)
    assert tracer.duration("T") == 3.0


_TIME = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_PAIRS_AND_READS = st.lists(
    st.one_of(
        st.tuples(st.just("pair"), st.sampled_from("abc"), _TIME, _TIME),
        st.tuples(st.just("read"), _TIME, _TIME),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_PAIRS_AND_READS)
def test_reads_between_pairs_match_store_twice(ops):
    """Reads interleaved with recording, a run of one source split
    across two of them included, must each equal the store-twice
    tracer's at that point."""
    tracer, reference = IntervalTracer(), StoreTwice()
    for op in ops:
        if op[0] == "pair":
            _, key, a, b = op
            start, end = min(a, b), max(a, b)
            tracer.record_pair(key, 0, "T", start, end)
            reference.record_pair(key, 0, "T", start, end)
            continue
        _, lo, hi = op
        assert tracer.count("T") == reference.count("T")
        assert tracer.duration("T") == reference.duration("T")
        assert tracer.duration_between("T", lo, hi) == (
            reference.duration_between("T", lo, hi)
        )
        assert chunked(tracer, "T") == chunked(reference, "T")
    assert_same_views(tracer, reference)


def test_unbroken_pairs_store_each_span_once():
    tracer = IntervalTracer()
    replay(tracer, [
        ("pair", "a", 0, "T", 0.0, 1.0),
        ("pair", "a", 1, "T", 1.0, 2.0),
        ("pair", "b", 0, "T", 1.5, 2.5),
        ("pair", "a", 2, "T", 2.5, 3.0),
    ])
    # 8 + 8 bytes of bounds and an 8-byte tag slot per source record,
    # 4 bytes of ordinal per total record.
    assert tracer.stored_bytes() == 4 * 28
    assert tracer.keys() == ["a", "T", "b"]
    starts, ends, tags = tracer.columns("T")
    assert list(starts) == [0.0, 1.0, 1.5, 2.5]
    assert list(ends) == [1.0, 2.0, 2.5, 3.0]
    assert tags == ["a", "a", "b", "a"]
    # columns(total) is a fresh copy on every call.
    assert tracer.columns("T")[0] is not tracer.columns("T")[0]


def test_clear_resets_the_order_column():
    tracer = IntervalTracer()
    tracer.record_pair("a", 0, "T", 0.0, 1.0)
    tracer.record_pair("b", 0, "T", 1.0, 2.0)
    tracer.clear()
    assert tracer.keys() == []
    assert tracer.count("T") == 0
    assert tracer.stored_bytes() == 0
    tracer.record_pair("b", 1, "T", 3.0, 4.0)
    assert tracer.count("T") == 1
    assert tracer.intervals("T")[0].tag == "b"
    assert list(tracer.columns("T")[0]) == [3.0]


class _Server:
    """What ``trace_digest`` reads of a server."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.completed_jobs = []


@pytest.mark.parametrize("run_length", [1, 40])
def test_streaming_readers_never_build_the_total_columns(run_length):
    """``trace_digest``, ``busy_fraction`` and ``count`` on a large
    start-ordered total allocate far less than its full columns, and
    keep nothing once they return: whether each job files one kernel
    in a row (short runs, as ``tf-serving`` does) or a few dozen (a
    quantum, as ``fair`` does)."""
    tracer = IntervalTracer()
    # Large enough that a quarter of the total's columns exceeds what
    # trace_digest buffers for one chunk of rendered records.
    kernels = 200_000
    for i in range(kernels):
        start = i * 1e-5
        job = f"job{i // run_length % 300}"
        tracer.record_pair(job, i % 7, "total", start, start + 8e-6)
    server = _Server(tracer)
    # The total's columns would take 24 bytes per record.
    materialised = 24 * kernels
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        trace_digest(server)
        digest_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        tracer.busy_fraction("total", 0.1, 0.3)
        tracer.duration("total")
        tracer.count("total")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest_peak < materialised / 4
    assert peak - before < materialised / 4
    # Nothing per record outlives the reads.
    assert current - before < kernels
