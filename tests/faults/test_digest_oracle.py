"""Differential oracles for the tracer's streamed readers.

``trace_digest`` hashes the tracer's columns a chunk at a time, and
``GpuDevice.utilization`` merges the busy column with a generator.
Both must agree exactly with the list-materialising code they
replaced, kept here as oracles: one :class:`Interval` per record for
the digest, a sorted span list for the busy fraction.  The runs cover
the serial engine (start-ordered keys), the multi-stream engine (an
overlapping, unordered device key), a fault plan, and full telemetry.
"""

import functools
import hashlib

import pytest

from repro.experiments import ExperimentConfig, run_workload
from repro.faults import FaultPlan
from repro.faults.determinism import trace_digest
from repro.gpu.device import GPU_GLOBAL_KEY
from repro.serving import RetryPolicy
from repro.telemetry import TelemetryConfig
from repro.workloads import complex_workload, homogeneous_workload

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)


def spans(tracer, key):
    """``key``'s ``(start, end)`` spans, read from the tracer's columns."""
    starts, ends, _tags = tracer.columns(key)
    return list(zip(starts, ends))


def _feed(hasher, text):
    hasher.update(text.encode("utf-8"))
    hasher.update(b"\n")


def reference_digest(server, scheduler=None, clients=None):
    """``trace_digest`` as it was: one Interval and one update per record."""
    hasher = hashlib.sha256()
    tracer = server.tracer
    for key in sorted(tracer.keys(), key=str):
        _feed(hasher, f"key:{key!r}")
        for interval in tracer.intervals(key):
            _feed(
                hasher,
                f"iv:{interval.start!r}:{interval.end!r}:{interval.tag!r}",
            )
    if scheduler is not None:
        for decision in scheduler.decisions:
            _feed(
                hasher,
                f"dec:{decision.time!r}:{decision.prev_job_id!r}"
                f":{decision.next_job_id!r}",
            )
        for tenure in scheduler.tenures:
            _feed(hasher, f"ten:{tenure.job_id}:{tenure.start!r}:{tenure.end!r}")
        for eviction in getattr(scheduler, "evictions", []):
            _feed(
                hasher,
                f"ev:{eviction.time!r}:{eviction.job_id}:{eviction.reason}",
            )
    for job in server.completed_jobs:
        status = (
            "failed" if job.failed else "cancelled" if job.cancelled else "ok"
        )
        _feed(
            hasher,
            f"job:{job.job_id}:{job.submitted_at!r}:{job.finished_at!r}"
            f":{job.nodes_executed}:{status}",
        )
    if clients is not None:
        for client in clients:
            _feed(
                hasher,
                f"cl:{client.client_id}:{client.started_at!r}"
                f":{client.finished_at!r}:{client.timed_out_batches}"
                f":{getattr(client, 'failed_batches', 0)}"
                f":{getattr(client, 'retries', 0)}",
            )
    return hasher.hexdigest()


def reference_busy_fraction(spans, lo, hi):
    """The sorted-list busy fraction the streamed reader replaced."""
    if hi <= lo:
        return 0.0
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in spans
        if min(end, hi) > max(start, lo)
    )
    merged = []
    for start, end in clipped:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return sum(end - start for start, end in merged) / (hi - lo)


def _serial_fig16():
    return run_workload(complex_workload(num_batches=2), "fair", config=FAST)


def _spatial_streams4():
    config = ExperimentConfig(
        scale=0.02, quantum=0.8e-3, curve_batches=2, streams=4
    )
    return run_workload(complex_workload(num_batches=2), "spatial", config=config)


def _fault_plan():
    specs = homogeneous_workload(num_clients=3, num_batches=3)
    plan = FaultPlan.generate(
        7,
        [spec.client_id for spec in specs],
        kinds=("device_hang", "kernel_crash"),
        num_faults=4,
        horizon=0.05,
        hang_duration=2e-3,
    )
    return run_workload(
        specs,
        "fair",
        config=FAST,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=2e-4),
        require_completion=False,
    )


def _full_telemetry():
    return run_workload(
        homogeneous_workload(num_clients=2, num_batches=2),
        "fair",
        config=FAST,
        telemetry=TelemetryConfig(verbosity="full", snapshot_period=0.05),
    )


RUNS = {
    "serial-fig16": _serial_fig16,
    "spatial-s4": _spatial_streams4,
    "fault-plan": _fault_plan,
    "telemetry-full": _full_telemetry,
}


@functools.lru_cache(maxsize=None)
def result_of(name):
    return RUNS[name]()


@pytest.fixture(scope="module", autouse=True)
def _drop_runs():
    yield
    result_of.cache_clear()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_digest_matches_interval_oracle(name):
    result = result_of(name)
    server = result.server
    assert trace_digest(
        server, scheduler=result.scheduler, clients=result.clients
    ) == reference_digest(
        server, scheduler=result.scheduler, clients=result.clients
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_utilization_matches_sorted_list_oracle(name):
    device = result_of(name).server.device
    busy = spans(device.tracer, GPU_GLOBAL_KEY)
    end = max(end for _start, end in busy)
    windows = [(0.0, end), (end / 3, end / 2), (end, end + 1.0), (end, 0.0)]
    for lo, hi in windows:
        assert device.utilization(lo, hi) == reference_busy_fraction(
            busy, lo, hi
        )


def _start_ordered(name):
    starts = list(result_of(name).server.tracer.columns(GPU_GLOBAL_KEY)[0])
    return starts == sorted(starts)


def test_runs_cover_both_merge_paths():
    """The serial runs take the start-ordered path; the multi-stream
    run's overlapping device key takes the sorting fallback."""
    assert _start_ordered("serial-fig16")
    assert _start_ordered("fault-plan")
    assert not _start_ordered("spatial-s4")


def test_fault_plan_run_injects_faults():
    assert result_of("fault-plan").faults_injected > 0
