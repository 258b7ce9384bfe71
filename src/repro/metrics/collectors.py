"""Metric collectors: turning raw simulation traces into paper metrics.

These functions bridge the scheduler's tenure log and the GPU tracer's
busy intervals into the quantities the paper's figures report:

* per-client finish times (Figures 3, 11, 13, 17, 18, 20, 21),
* per-quantum GPU durations (Figures 12, 14, 16),
* scheduling-interval durations (Figure 12),
* per-client total GPU durations (Figure 19 right),
* utilization over the serving window (§4.3).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.scheduler import GangScheduler
from ..serving.client import Client
from ..serving.server import ModelServer

__all__ = [
    "finish_times",
    "all_active_window",
    "quantum_gpu_durations",
    "scheduling_interval_durations",
    "client_gpu_durations",
    "serving_window",
    "window_utilization",
]


def finish_times(clients: Sequence[Client]) -> Dict[object, float]:
    """Per-client finish time (start of client to last response)."""
    return {client.client_id: client.finish_time for client in clients}


def all_active_window(clients: Sequence[Client]) -> Tuple[float, float]:
    """The window during which *every* client had work in flight.

    The paper measures per-quantum GPU durations "while all jobs were
    active" (§4.1), avoiding the end-game when finished clients free up
    the GPU for the rest.
    """
    if not clients:
        raise ValueError("no clients")
    starts = []
    ends = []
    for client in clients:
        if not client.jobs:
            raise ValueError(f"client {client.client_id!r} submitted no jobs")
        first = client.jobs[0].submitted_at
        last = client.finished_at
        if first is None or last is None:
            raise ValueError(f"client {client.client_id!r} did not finish")
        starts.append(first)
        ends.append(last)
    lo = max(starts)
    hi = min(ends)
    if hi <= lo:
        raise ValueError("clients never overlapped")
    return lo, hi


def quantum_gpu_durations(
    server: ModelServer,
    scheduler: GangScheduler,
    window: Optional[Tuple[float, float]] = None,
) -> Dict[object, List[float]]:
    """GPU duration of each tenure (quantum), grouped by client.

    A job's GPU busy intervals are attributed to its tenures by start
    time: everything the job executes from one of its tenure starts
    until its *next* tenure start belongs to that tenure.  This charges
    "overflow" kernels — launched inside a quantum but finishing after
    the switch (paper Figures 10/15) — to the quantum that launched
    them, matching the paper's accounting.  Tenures outside ``window``
    are skipped when a window is given.
    """
    # Group closed tenures by job, in start order.
    tenures_by_job: Dict[str, List] = defaultdict(list)
    for tenure in scheduler.closed_tenures():
        if tenure.end is not None:
            tenures_by_job[tenure.job_id].append(tenure)
    per_client: Dict[object, List[float]] = defaultdict(list)
    for job_id, tenures in tenures_by_job.items():
        tenures.sort(key=lambda t: t.start)
        starts = [t.start for t in tenures]
        # Buckets: [start_k, start_{k+1}) for each tenure k; the last
        # bucket is open-ended so a final quantum keeps its overflow.
        sums = [0.0] * len(tenures)
        job_starts, job_ends, _tags = server.tracer.columns(job_id)
        for start, end in zip(job_starts, job_ends):
            index = bisect_right(starts, start) - 1
            if index >= 0:
                sums[index] += end - start
        for tenure, total in zip(tenures, sums):
            if window is not None:
                lo, hi = window
                if tenure.start < lo or tenure.end > hi:
                    continue
            per_client[tenure.client_id].append(total)
    return dict(per_client)


def scheduling_interval_durations(
    scheduler: GangScheduler,
    window: Optional[Tuple[float, float]] = None,
) -> List[float]:
    """Durations between consecutive token hand-offs (Figure 12)."""
    times = scheduler.decision_times()
    if window is not None:
        lo, hi = window
        times = [t for t in times if lo <= t <= hi]
    return [b - a for a, b in zip(times, times[1:])]


def client_gpu_durations(
    server: ModelServer, clients: Sequence[Client]
) -> Dict[object, float]:
    """Total GPU duration each client received across all its jobs."""
    return {
        client.client_id: client.total_gpu_duration() for client in clients
    }


def serving_window(clients: Sequence[Client]) -> Tuple[float, float]:
    """Earliest submit to latest finish across all clients."""
    starts = [
        client.jobs[0].submitted_at for client in clients if client.jobs
    ]
    ends = [client.finished_at for client in clients]
    if not starts or any(s is None for s in starts) or any(e is None for e in ends):
        raise ValueError("clients did not all run to completion")
    return min(starts), max(ends)


def window_utilization(server: ModelServer, clients: Sequence[Client]) -> float:
    """GPU busy fraction over the whole serving window (§4.3 metric)."""
    lo, hi = serving_window(clients)
    return server.utilization(lo, hi)
