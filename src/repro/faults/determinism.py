"""Deterministic trace digests.

The simulator's contract is that identical seeds replay identical
schedules; fault injection and invariant checking must preserve that.
:func:`trace_digest` reduces a completed run — every GPU interval,
every scheduling decision, every finished job — to a SHA-256 hex
digest, so two runs can be compared byte-for-byte without storing full
traces.  Floats are rendered with :func:`repr`, which round-trips
exactly, making the digest sensitive to any drift at all.

The tracer's records dominate the hashed text, so they are streamed
from :meth:`IntervalTracer.chunks` and hashed a chunk of records at a
time: no :class:`Interval` or per-record tuple list is built, the
device-total key's full columns are never materialised, and the bytes
hashed are the same as one line per interval.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheduler import GangScheduler
    from ..serving.client import Client
    from ..serving.server import ModelServer

__all__ = ["trace_digest"]


def _feed(hasher, text: str) -> None:
    hasher.update(text.encode("utf-8"))
    hasher.update(b"\n")


def trace_digest(
    server: "ModelServer",
    scheduler: Optional["GangScheduler"] = None,
    clients: Optional[Iterable["Client"]] = None,
) -> str:
    """SHA-256 digest of a completed run's observable trace.

    Covers, in a canonical order: every interval recorded by the
    server's tracer (per key), every scheduling decision and closed
    tenure (when a gang scheduler is given), and every completed job's
    identity, timing, and terminal status.
    """
    hasher = hashlib.sha256()

    tracer = server.tracer
    for key in sorted(tracer.keys(), key=str):
        _feed(hasher, f"key:{key!r}")
        for starts, ends, tags in tracer.chunks(key):
            hasher.update(
                "".join(
                    f"iv:{start!r}:{end!r}:{tag!r}\n"
                    for start, end, tag in zip(starts, ends, tags)
                ).encode("utf-8")
            )

    if scheduler is not None:
        for decision in scheduler.decisions:
            _feed(
                hasher,
                f"dec:{decision.time!r}:{decision.prev_job_id!r}"
                f":{decision.next_job_id!r}",
            )
        for tenure in scheduler.tenures:
            _feed(
                hasher,
                f"ten:{tenure.job_id}:{tenure.start!r}:{tenure.end!r}",
            )
        for eviction in getattr(scheduler, "evictions", []):
            _feed(
                hasher,
                f"ev:{eviction.time!r}:{eviction.job_id}:{eviction.reason}",
            )

    for job in server.completed_jobs:
        status = (
            "failed" if job.failed else
            "cancelled" if job.cancelled else "ok"
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
