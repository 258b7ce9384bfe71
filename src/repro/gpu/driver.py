"""The GPU driver: per-stream kernel queues, job-agnostic scheduling.

This is the layer at which the paper locates the root cause of
TF-Serving's unpredictability: "the driver cannot distinguish between
kernels belonging to different DNNs or client requests" (§2.2).  Each
session owns a CUDA stream, so the driver sees one FIFO *per job* and
schedules between streams with no fairness guarantee.

The simulated driver reproduces the *documented* part of the real
one's behaviour — kernels within a stream execute in order — and models
the undocumented part, cross-stream arbitration, as what it empirically
is: arbitrary and unfair.  Each stream is assigned a random static
arbitration rank at creation; at every pick the device serves the
non-empty stream with the highest rank-plus-noise score, so service is
*biased* towards lucky streams without fully starving the rest
(``arbitration_noise`` sets the bias strength; 0 = strict priority,
large = fair random).  Ranks are re-drawn per stream (one stream per
job, one job per client batch), so over a 10-batch run every client
experiences a random sequence of lucky and unlucky batches — the
mechanism behind the up-to-1.7x finish-time spread of Figure 3.  The
arbitration is work-conserving, so aggregate throughput (and
utilization, §4.3) is unaffected.

Olympian never modifies this layer; it controls *which* job is allowed
to submit at all.

The device takes work through one fetch, :meth:`Driver.pull`: it
returns the next kernel, or keeps the device's start callback when no
work is queued and hands the next submission straight to it.  The
multi-stream device (``GpuSpec.streams > 1``) passes an ``eligible``
predicate, so the spatio-temporal scheduler's per-job concurrency bound
is enforced at dequeue time, and pulls again whenever its residency
changes, which replaces the kept callback and so re-evaluates the
bound.  One pick, :meth:`Driver._pop` behind ``pull``'s O(1)
single-stream shortcut, serves both devices; with every stream eligible
it makes the same picks with the same RNG draws as the pre-spatial
driver.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from ..graph.node import Node
from ..sanitize import sim_sanitizer
from ..sim.core import Simulator
from ..sim.rng import derive_seed
from .kernel import Kernel

__all__ = ["Driver", "DEFAULT_ARBITRATION_NOISE"]

# Calibrated so ten homogeneous TF-Serving clients show finish-time
# spreads in the paper's observed band (roughly 1.2x-1.8x, Figure 3).
DEFAULT_ARBITRATION_NOISE = 3.2


class Driver:
    """Per-stream (per-job) kernel queues with unfair arbitration."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[random.Random] = None,
        arbitration_noise: float = DEFAULT_ARBITRATION_NOISE,
    ):
        if arbitration_noise < 0:
            raise ValueError(f"arbitration_noise must be >= 0: {arbitration_noise}")
        self.sim = sim
        if rng is None:
            rng = random.Random(derive_seed(0, "gpu:driver"))
        self.rng = rng
        self.arbitration_noise = arbitration_noise
        self._queues: Dict[Any, Deque[Kernel]] = {}
        self._ranks: Dict[Any, float] = {}
        self._queued = 0
        self._current_stream: Optional[Any] = None
        # The current stream's queue.  A pick never prunes the stream
        # it chooses, so this stays the queue ``_queues`` maps the
        # current stream to.
        self._current_queue: Optional[Deque[Kernel]] = None
        # The idle device's start callback and eligibility predicate
        # (see ``pull``).
        self._idle_start: Optional[Callable[[Kernel], None]] = None
        self._idle_eligible: Optional[Callable[[Any], bool]] = None
        self.submission_counts: Dict[Any, int] = {}
        self.max_queue_depth = 0
        self.stream_switches = 0
        # Fault-injection seam: called as (job_id, node_id) before a
        # kernel is queued; returning an exception rejects the launch
        # (the kernel's ``done`` fails instead of the kernel running).
        self.launch_interceptor: Optional[
            Callable[[Any, int], Optional[BaseException]]
        ] = None
        self.failed_launches = 0
        # Device-crash window: launches are rejected outright (the
        # device is gone, not merely busy) until this simulated time.
        self._reject_until = 0.0
        self.crashes = 0
        self.kernels_flushed = 0
        # Set by Telemetry.attach(); emission is observation-only.
        self.telemetry = None
        # Bound once: ``launch_after`` runs per kernel.
        self._call_later = sim.call_later
        self._submit_cb = self._submit

    # ------------------------------------------------------------------
    # Submission side (called by gang threads)
    # ------------------------------------------------------------------

    def launch(
        self,
        job_id: Any,
        node: Node,
        batch_size: int,
        slowdown: float = 0.0,
        duration: Optional[float] = None,
    ) -> Kernel:
        """Submit one kernel for ``node`` on behalf of ``job_id``.

        Returns the :class:`Kernel`; its ``done`` event fires when the
        device finishes executing it.  ``slowdown`` adds extra execution
        time (used to model online profiling instrumentation).
        ``duration`` short-circuits the per-launch cost-model walk when
        the caller already holds the node's precomputed duration (the
        compiled session path).
        """
        if duration is None:
            duration = node.duration(batch_size) + slowdown
        kernel = Kernel(self.sim, job_id, node.node_id, duration)
        self._submit(kernel)
        return kernel

    def launch_after(
        self, delay: float, job_id: Any, node_id: int, duration: float
    ) -> Kernel:
        """Submit a kernel ``delay`` seconds from now (launch latency).

        The same submission as a ``launch`` made by a caller that slept
        ``delay`` first, but the caller does not have to wake for it:
        the :class:`Kernel` comes back now, so the caller can wait on
        ``done`` directly, and a pooled timed callback runs the
        submission at the very calendar position the caller's wake-up
        would have taken.  This is the compiled session walker's path.
        """
        kernel = Kernel(self.sim, job_id, node_id, duration)
        self._call_later(delay, self._submit_cb, kernel)
        return kernel

    def _submit(self, kernel: Kernel) -> None:
        """Queue ``kernel`` on its job's stream (or reject it) now."""
        job_id = kernel.job_id
        now = self.sim.now
        kernel.submitted_at = now
        seq = self.submission_counts.get(job_id, 0)
        kernel.seq = seq
        self.submission_counts[job_id] = seq + 1
        telemetry = self.telemetry
        if telemetry is not None:
            guard = sim_sanitizer.checkpoint(self)
            telemetry.emit(
                "kernel.submitted",
                "driver",
                job_id=job_id,
                node_id=kernel.node_id,
                seq=seq,
                queue_depth=self._queued,
            )
            sim_sanitizer.verify(self, guard, "kernel.submitted")
        if now < self._reject_until:
            # The device is down: reject at the driver boundary with the
            # remaining reset latency as a backpressure hint.
            from ..faults.errors import DeviceCrashed

            self.failed_launches += 1
            if telemetry is not None:
                guard = sim_sanitizer.checkpoint(self)
                telemetry.emit(
                    "kernel.rejected",
                    "driver",
                    job_id=job_id,
                    node_id=kernel.node_id,
                    seq=seq,
                    reason="device_crashed",
                )
                sim_sanitizer.verify(self, guard, "kernel.rejected")
            kernel.done.fail(
                DeviceCrashed(job_id, retry_after=self._reject_until - now)
            )
            return
        if self.launch_interceptor is not None:
            fault = self.launch_interceptor(job_id, kernel.node_id)
            if fault is not None:
                # Rejected at the driver boundary: the kernel never
                # reaches a stream; its waiter sees the fault raised at
                # the yield point (Event.fail propagation).
                self.failed_launches += 1
                if telemetry is not None:
                    guard = sim_sanitizer.checkpoint(self)
                    telemetry.emit(
                        "kernel.rejected",
                        "driver",
                        job_id=job_id,
                        node_id=kernel.node_id,
                        seq=seq,
                    )
                    sim_sanitizer.verify(self, guard, "kernel.rejected")
                kernel.done.fail(fault)
                return
        queue = self._queues.get(job_id)
        if queue is None:
            queue = deque()
            self._queues[job_id] = queue
            # Stream creation: draw this stream's arbitration rank.
            self._ranks[job_id] = self.rng.random()
        queue.append(kernel)
        self._queued += 1
        if self._queued > self.max_queue_depth:
            self.max_queue_depth = self._queued
        start = self._idle_start
        if start is not None:
            # The device is idle: it takes this pick right here.
            chosen = self.pull(start, self._idle_eligible)
            if chosen is not None:
                start(chosen)

    # ------------------------------------------------------------------
    # Device crash (fault injection / recovery)
    # ------------------------------------------------------------------

    def crash(self, reject_until: float) -> int:
        """Device crash: fail every queued kernel, reject new launches.

        All queued kernels fail with
        :class:`~repro.faults.errors.DeviceCrashed` in stream-creation
        (dict insertion) order — deterministic for a fixed run.  New
        launches are rejected until ``reject_until`` (the reset
        completion time).  The kernel currently executing on the device
        is *not* failed: at the instant of the crash its work has
        already retired from the queue, and the simulated engine
        charges its full duration either way.  Returns the number of
        kernels flushed.
        """
        from ..faults.errors import DeviceCrashed

        self.crashes += 1
        if reject_until > self._reject_until:
            self._reject_until = reject_until
        telemetry = self.telemetry
        flushed = 0
        for job_id, queue in self._queues.items():
            while queue:
                kernel = queue.popleft()
                self._queued -= 1
                self.failed_launches += 1
                flushed += 1
                if telemetry is not None:
                    guard = sim_sanitizer.checkpoint(self)
                    telemetry.emit(
                        "kernel.rejected",
                        "driver",
                        job_id=job_id,
                        node_id=kernel.node_id,
                        seq=kernel.seq,
                        reason="device_crashed",
                    )
                    sim_sanitizer.verify(self, guard, "kernel.rejected")
                kernel.done.fail(
                    DeviceCrashed(
                        job_id, retry_after=reject_until - self.sim.now
                    )
                )
        self.kernels_flushed += flushed
        return flushed

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------

    def pull(
        self,
        start: Callable[[Kernel], None],
        eligible: Optional[Callable[[Any], bool]] = None,
    ) -> Optional[Kernel]:
        """The device's fetch: the next kernel, or None when idle.

        When no eligible work is queued, ``start`` is kept and called
        with the next eligible submission's pick, from inside that
        submission.  A later ``pull`` replaces the kept callback (or
        drops it, when it returns a kernel); this is how the
        multi-stream device re-evaluates ``eligible`` after its
        residency changes.  Only one device is supported.
        """
        queued = self._queued
        if queued:
            queue = self._current_queue
            if (
                queue is not None
                and len(queue) == queued
                and (eligible is None or eligible(self._current_stream))
            ):
                # Only the current stream has work: the general pick
                # would choose it with no RNG draw and no stream switch,
                # and its cleanup would keep only this stream.  O(1).
                if len(self._queues) > 12:
                    current = self._current_stream
                    self._queues = {current: queue}
                    self._ranks = {current: self._ranks[current]}
                self._queued = queued - 1
                self._idle_start = None
                return queue.popleft()
            kernel = self._pop(eligible)
            if kernel is not None:
                self._idle_start = None
                return kernel
        self._idle_start = start
        self._idle_eligible = eligible
        return None

    def _pop(
        self, eligible: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Kernel]:
        """The general pick: the highest-ranked non-empty stream passing
        ``eligible``, with queued work (``pull`` checks that first).

        ``eligible`` (the multi-stream device's per-job concurrency
        bound) keeps an over-bound stream's kernels queued; None passes
        every stream.  Returns None when no eligible stream has work.
        """
        nonempty = [job_id for job_id, queue in self._queues.items() if queue]
        candidates = (
            nonempty
            if eligible is None
            else [job_id for job_id in nonempty if eligible(job_id)]
        )
        if not candidates:
            return None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            # Manual argmax: one noise draw per candidate stream, in
            # queue-creation order, first-wins on (measure-zero) ties —
            # the exact semantics of max(key=...) without the per-pick
            # lambda dispatch.
            ranks = self._ranks
            noise = self.arbitration_noise
            random = self.rng.random
            chosen = candidates[0]
            best = ranks[chosen] + noise * random()
            for job_id in candidates[1:]:
                score = ranks[job_id] + noise * random()
                if score > best:
                    best = score
                    chosen = job_id
        if chosen != self._current_stream:
            self.stream_switches += 1
        self._current_stream = chosen
        # Opportunistic cleanup of long-empty stream queues, keyed on
        # *all* non-empty streams: ineligible queues must survive.
        if len(self._queues) > 4 * len(nonempty) + 8:
            keep = set(nonempty)
            keep.add(chosen)
            self._queues = {
                job_id: queue
                for job_id, queue in self._queues.items()
                if job_id in keep
            }
            self._ranks = {
                job_id: rank
                for job_id, rank in self._ranks.items()
                if job_id in self._queues
            }
        queue = self._queues[chosen]
        self._current_queue = queue
        self._queued -= 1
        return queue.popleft()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_queued(self) -> int:
        return self._queued

    def queued_for(self, job_id: Any) -> int:
        queue = self._queues.get(job_id)
        return len(queue) if queue is not None else 0

    def submissions_for(self, job_id: Any) -> int:
        return self.submission_counts.get(job_id, 0)

    def _sanitize_state(self):
        """Arbitration state checksummed around telemetry seams.

        Queue contents, arbitration ranks, and the RNG stream: any of
        these drifting during an emit would change which stream the
        next pick serves.  Stream dicts are reported in creation
        (insertion) order, which is itself part of the arbitration
        contract.
        """
        return (
            self._queued,
            self._current_stream,
            self.stream_switches,
            self.failed_launches,
            self.crashes,
            tuple(
                (job_id, len(queue)) for job_id, queue in self._queues.items()
            ),
            tuple(self._ranks.items()),
            self.rng.getstate(),
        )
