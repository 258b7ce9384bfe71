"""Chrome trace-event export.

Serialises a run's GPU busy intervals and scheduler tenures into the
Chrome trace-event JSON format, viewable in ``chrome://tracing`` or
Perfetto.  This is the visual counterpart of the paper's Figure 5/9
timelines: one row per job on the GPU track, plus a scheduler track
showing token tenures, so quantum boundaries and overflow kernels are
directly visible.

With ``flows=True`` the export adds flow events (``ph: "s"/"t"/"f"``)
tying each request's arrival slice to its token tenures and on to its
last kernel, so Perfetto draws causal arrows across the three tracks
instead of just bars.

Times are exported in microseconds (the trace-event convention).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.scheduler import GangScheduler
from ..gpu.device import GPU_GLOBAL_KEY
from ..serving.server import ModelServer

__all__ = ["build_trace_events", "export_chrome_trace"]

_PathLike = Union[str, Path]

_GPU_PID = 1
_SCHED_PID = 2
_REQ_PID = 3

# Width of the synthetic "arrival" slice flows start from, in us; long
# enough for trace viewers to hit-test, short against any real span.
_ARRIVAL_SLICE_US = 1.0


def build_trace_events(
    server: ModelServer,
    scheduler: Optional[GangScheduler] = None,
    window: Optional[tuple] = None,
    flows: bool = False,
) -> List[Dict[str, Any]]:
    """Build the trace-event list (``X``-phase complete events).

    ``flows=True`` appends a request track (one arrival slice per
    completed job) and flow events linking arrival → tenures → last
    kernel for every job.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _GPU_PID,
            "args": {"name": f"GPU ({server.config.gpu_spec.name})"},
        },
    ]
    # One tid per job on the GPU process, stable by first appearance.
    tids: Dict[str, int] = {}

    def tid_for(job_id: str) -> int:
        if job_id not in tids:
            tids[job_id] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _GPU_PID,
                    "tid": tids[job_id],
                    "args": {"name": f"job {job_id}"},
                }
            )
        return tids[job_id]

    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    # Per-job intervals are recorded under the job key with the node id
    # as tag; the aggregate track is a view over them and is skipped.
    for key in server.tracer.keys():
        if key == GPU_GLOBAL_KEY:
            continue
        for interval in server.tracer.intervals(key):
            if interval.end < lo or interval.start > hi:
                continue
            events.append(
                {
                    "name": f"node {interval.tag}",
                    "cat": "kernel",
                    "ph": "X",
                    "pid": _GPU_PID,
                    "tid": tid_for(str(key)),
                    "ts": interval.start * 1e6,
                    "dur": interval.duration * 1e6,
                    "args": {"job": str(key), "node": interval.tag},
                }
            )

    if scheduler is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": _SCHED_PID,
                "args": {"name": f"Olympian scheduler ({scheduler.name})"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _SCHED_PID,
                "tid": 1,
                "args": {"name": "token holder"},
            }
        )
        for tenure in scheduler.closed_tenures():
            if tenure.end is None or tenure.end < lo or tenure.start > hi:
                continue
            events.append(
                {
                    "name": f"{tenure.client_id}",
                    "cat": "tenure",
                    "ph": "X",
                    "pid": _SCHED_PID,
                    "tid": 1,
                    "ts": tenure.start * 1e6,
                    "dur": (tenure.end - tenure.start) * 1e6,
                    "args": {
                        "job": tenure.job_id,
                        "model": tenure.model_name,
                    },
                }
            )
    if flows:
        events.extend(
            _build_flow_events(server, scheduler, tid_for, lo, hi)
        )
    return events


def _build_flow_events(
    server: ModelServer,
    scheduler: Optional[GangScheduler],
    tid_for,
    lo: float,
    hi: float,
) -> List[Dict[str, Any]]:
    """Arrival slices + ``s``/``t``/``f`` flow chains, one per job."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _REQ_PID,
            "args": {"name": "requests"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _REQ_PID,
            "tid": 1,
            "args": {"name": "arrivals"},
        },
    ]
    tenures_of: Dict[str, List[Any]] = {}
    if scheduler is not None:
        for tenure in scheduler.closed_tenures():
            if tenure.end is None or tenure.end < lo or tenure.start > hi:
                continue
            tenures_of.setdefault(tenure.job_id, []).append(tenure)
    # Stable flow ids: jobs ordered by submission time, then id.
    jobs = [
        job
        for job in server.completed_jobs
        if job.submitted_at is not None
        and lo <= job.submitted_at <= hi
    ]
    jobs.sort(key=lambda job: (job.submitted_at, str(job.job_id)))
    for flow_id, job in enumerate(jobs, start=1):
        job_id = str(job.job_id)
        arrival_ts = job.submitted_at * 1e6
        events.append(
            {
                "name": f"arrival {job_id}",
                "cat": "request",
                "ph": "X",
                "pid": _REQ_PID,
                "tid": 1,
                "ts": arrival_ts,
                "dur": _ARRIVAL_SLICE_US,
                "args": {"job": job_id, "model": job.model_name},
            }
        )
        events.append(
            {
                "name": "request",
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "pid": _REQ_PID,
                "tid": 1,
                "ts": arrival_ts,
                "args": {"job": job_id},
            }
        )
        last_pid, last_tid, last_ts = _REQ_PID, 1, arrival_ts
        for tenure in tenures_of.get(job.job_id, ()):
            ts = tenure.start * 1e6
            events.append(
                {
                    "name": "request",
                    "cat": "flow",
                    "ph": "t",
                    "id": flow_id,
                    "pid": _SCHED_PID,
                    "tid": 1,
                    "ts": ts,
                    "args": {"job": job_id},
                }
            )
            last_pid, last_tid, last_ts = _SCHED_PID, 1, ts
        kernel_intervals = [
            interval
            for interval in server.tracer.intervals(job.job_id)
            if not (interval.end < lo or interval.start > hi)
        ]
        if kernel_intervals:
            last = kernel_intervals[-1]
            last_pid = _GPU_PID
            last_tid = tid_for(job_id)
            last_ts = last.start * 1e6
        # ``bp: "e"`` binds the finish to the slice enclosing ts, which
        # is how the arrow lands on the kernel bar itself.
        events.append(
            {
                "name": "request",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "pid": last_pid,
                "tid": last_tid,
                "ts": last_ts,
                "args": {"job": job_id},
            }
        )
    return events


def export_chrome_trace(
    server: ModelServer,
    path: _PathLike,
    scheduler: Optional[GangScheduler] = None,
    window: Optional[tuple] = None,
    flows: bool = False,
) -> int:
    """Write a Chrome trace JSON file; returns the event count."""
    events = build_trace_events(
        server, scheduler=scheduler, window=window, flows=flows
    )
    Path(path).write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    return len(events)
