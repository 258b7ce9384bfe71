"""GPU kernels: the unit of work submitted to the simulated device.

A dataflow node that runs on the GPU invokes one (or a small number of)
kernels; the paper interleaves at the node boundary precisely because
the two granularities nearly coincide (§3.1).  We model one kernel per
GPU node.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.core import Event, Simulator

__all__ = ["Kernel"]


class Kernel:
    """One unit of GPU work.

    Carries the identity of the job that launched it — information the
    real GPU driver does *not* use for scheduling (the root cause of
    TF-Serving's unpredictability) but which the simulator's metering
    needs for per-job interval accounting.

    ``done`` is the completion event: it fires with the kernel itself
    as its value (``result = yield kernel.done``), or fails with the
    fault that rejected the launch.  The device detaches it as it fires
    it on completion, so ``done`` is ``None`` once the kernel has
    completed; ``finished_at`` records when.  (Without the detach the
    kernel and its event would reference each other, and every
    executed kernel would be left for the cyclic garbage collector.)
    """

    __slots__ = (
        "job_id",
        "node_id",
        "duration",
        "done",
        "submitted_at",
        "started_at",
        "finished_at",
        "tag",
        "seq",
        "stream",
    )

    def __init__(
        self,
        sim: Simulator,
        job_id: Any,
        node_id: int,
        duration: float,
        tag: Any = None,
    ):
        if not duration >= 0.0:
            raise ValueError(f"kernel duration negative: {duration}")
        self.job_id = job_id
        self.node_id = node_id
        self.duration = duration
        self.done: Optional[Event] = sim.event()
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.tag = tag
        # Per-job submission ordinal, stamped by the driver; telemetry
        # span ids (``kern:{job}#{seq}``) key off it.
        self.seq: int = 0
        # Compute stream the kernel executed on.  The serial engine
        # (streams=1) leaves it at 0; the multi-stream engine stamps
        # the assigned stream index at start.
        self.stream: int = 0

    @property
    def queue_delay(self) -> Optional[float]:
        """Time spent in the driver queue, once started."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Kernel(job={self.job_id!r}, node={self.node_id}, "
            f"duration={self.duration:.2e})"
        )
