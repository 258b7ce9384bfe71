"""The simulated GPU device: a serial compute engine fed by the driver.

TensorFlow's large-batch DNN kernels saturate the device, so kernels
from different jobs cannot usefully run side by side — the paper
observes that "two concurrent Inception jobs take twice as long as one"
(§2.3) and concludes multiplexing is *temporal*.  The device model is
therefore a serial executor: it executes one kernel at a time for its
duration times the device's ``compute_scale`` plus a fixed per-kernel
overhead, and the driver decides *whose* kernel runs next.

The serial engine is call-driven, not a process.  It never suspends
mid-kernel, so it runs on timed callbacks
(:meth:`~repro.sim.core.Simulator.call_later`): starting a kernel
schedules its completion, and the completion records the busy
interval, fires the kernel's ``done`` (detaching it from the kernel,
so a finished kernel and its event form no reference cycle and both
die by refcount), and takes the next kernel from
the driver (:meth:`~repro.gpu.driver.Driver.pull`).  An idle device
leaves its start callback with the driver, which calls it from inside
the next submission.  A kernel therefore costs two calendar events on
the device side (execution timer, ``done``) and no generator resume.

The device records busy intervals per job (and globally) into an
:class:`~repro.sim.trace.IntervalTracer`, which is how experiments
measure GPU duration (Figure 5) and utilization (§4.3).

With ``GpuSpec.streams > 1`` the serial engine is replaced by a
processor-sharing one (:meth:`GpuDevice._step`), also call-driven:
up to ``streams`` kernels run concurrently, each progressing at
``1/s(k)`` of its solo rate where ``s(k)`` is the occupancy-dependent
slowdown of :mod:`repro.gpu.interference`.  It steps when the driver
hands it a kernel and when its one timer fires, and it pulls with an
``eligible`` predicate, so neither engine owns a process.  A handed
kernel starts one zero-delay hop after the submission, behind every
event already queued for that instant; starting it inline reorders
same-instant starts and changes the multi-stream schedule that
``tests/properties/test_spatial_determinism.py`` pins.
With ``streams=1`` every trace digest is bit-identical to the
pre-extension serial device, which the equivalence suite in
``tests/properties`` pins.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..sanitize import sim_sanitizer
from ..sim.core import Simulator
from ..sim.trace import IntervalTracer
from .driver import Driver
from .interference import InterferenceModel
from .kernel import Kernel
from .specs import GpuSpec

__all__ = ["GpuDevice", "GPU_GLOBAL_KEY"]

# Tracer key under which the device records *all* busy time, used for
# utilization measurement.
GPU_GLOBAL_KEY = "__gpu__"

# Remaining processor-shared work below this many device-seconds counts
# as finished (absorbs float rounding from incremental advancement).
_REMAINING_EPS = 1e-12


class GpuDevice:
    """Compute engine pulling kernels from a :class:`Driver`.

    Serial (one kernel at a time) with the default ``streams=1`` spec;
    processor-sharing across up to ``streams`` concurrent kernels
    otherwise.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: GpuSpec,
        driver: Driver,
        tracer: Optional[IntervalTracer] = None,
        rng: Optional["random.Random"] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.driver = driver
        self.tracer = tracer if tracer is not None else IntervalTracer()
        self.kernels_executed = 0
        self.busy_time = 0.0
        self.current_kernel: Optional[Kernel] = None
        # Set by Telemetry.attach(); re-read at every kernel start and
        # finish because it may be attached after construction.
        self.telemetry = None
        # Fault injection: the engine stalls (no kernel starts) until
        # this simulated time.  In-flight kernels are not extended —
        # real hangs block the queue, not work already retired.
        self._hang_until = 0.0
        self.hangs_injected = 0
        self.hang_time = 0.0
        # Device crash/reset: while ``down`` the engine is stalled (via
        # the same mechanism as hangs) and the driver rejects launches.
        self.down_until = 0.0
        self.crashes = 0
        self.outage_time = 0.0
        # Effective clock state for this device instance (thermal/boost
        # variation across runs, paper §4.4).
        if spec.clock_jitter > 0 and rng is not None:
            self.clock_factor = max(0.5, rng.gauss(1.0, spec.clock_jitter))
        else:
            self.clock_factor = 1.0
        # Spatial sharing (streams > 1) only.  ``allocator`` is the
        # spatio-temporal scheduler, set by the server after
        # construction; it bounds per-job concurrency and carries the
        # InvariantChecker the engine reports kernel starts to.
        self.interference = InterferenceModel.from_spec(spec)
        self.allocator = None
        self.occupancy = 0
        self.peak_occupancy = 0
        # Integral of occupancy over time: occupancy_time / elapsed is
        # the mean number of busy streams.
        self.occupancy_time = 0.0
        # GpuSpec is frozen, so these hoist for the serial engine;
        # clock_factor and _hang_until can change mid-run and are
        # re-read at every start.
        self._compute_scale = spec.compute_scale
        self._kernel_overhead = spec.kernel_overhead
        self._record = self.tracer.record_pair
        # Bound once: the serial engine passes these per kernel.
        self._call_later = sim.call_later
        self._pull = driver.pull
        self._start_cb = self._start
        self._finish_cb = self._finish
        if spec.streams > 1:
            # Processor-sharing residency books (see ``_step``): each
            # resident's remaining solo device-time, and its initial
            # solo time, reported on the finish event so attribution
            # can split execution into solo time vs. interference.
            self._residents: Dict[Kernel, float] = {}
            self._solo_times: Dict[Kernel, float] = {}
            self._job_residency: Dict[Any, int] = {}
            self._free_streams: List[int] = list(range(spec.streams - 1, -1, -1))
            # A fetched kernel waiting out an injected stall.
            self._staged: Optional[Kernel] = None
            self._last = sim.now
            # Generation of the one live timer; bumping it makes any
            # armed timer a no-op.
            self._timer = 0
            driver.pull(self._hand_off, self._eligible)
        else:
            driver.pull(self._start_cb)

    @property
    def queue_depth(self) -> int:
        return self.driver.total_queued

    def execution_time(self, kernel: Kernel) -> float:
        """Wall time ``kernel`` occupies the engine on this device."""
        return (
            kernel.duration * self.spec.compute_scale * self.clock_factor
            + self.spec.kernel_overhead
        )

    def inject_hang(self, duration: float) -> None:
        """Stall the engine for ``duration`` simulated seconds.

        Kernels already executing finish normally; the next kernel
        does not start until the hang interval has elapsed.
        Overlapping hangs extend the stall rather than stacking.
        """
        if duration <= 0:
            raise ValueError(f"hang duration must be positive: {duration}")
        until = self.sim.now + duration
        if until > self._hang_until:
            self.hang_time += until - max(self._hang_until, self.sim.now)
            self._hang_until = until
        self.hangs_injected += 1

    @property
    def hung(self) -> bool:
        """True while an injected hang is blocking the engine."""
        return self.sim.now < self._hang_until

    def begin_outage(self, duration: float) -> None:
        """Mark the device down for ``duration`` simulated seconds.

        Reuses the hang stall for the engine (no kernel starts during
        the outage); the driver-side launch rejection is the caller's
        job (see :meth:`~repro.serving.server.ModelServer.crash_device`).
        Overlapping outages extend the window rather than stacking.
        """
        if duration <= 0:
            raise ValueError(f"outage duration must be positive: {duration}")
        until = self.sim.now + duration
        if until > self._hang_until:
            self._hang_until = until
        if until > self.down_until:
            self.outage_time += until - max(self.down_until, self.sim.now)
            self.down_until = until
        self.crashes += 1

    @property
    def down(self) -> bool:
        """True from a crash until its reset completes."""
        return self.sim.now < self.down_until

    # ------------------------------------------------------------------
    # Serial engine (streams == 1): timed callbacks, no process
    # ------------------------------------------------------------------

    def _start(self, kernel: Kernel, stalled: bool = False) -> None:
        """Start ``kernel`` now, or once an injected stall has elapsed.

        The driver calls this when it hands a submission to the idle
        device.  ``_finish`` inlines the same body for the kernel it
        pulls, which is the common case: keep the two in lockstep.
        """
        sim = self.sim
        now = sim.now
        if now < self._hang_until and not stalled:
            # Injected device hang: sit out the remaining stall before
            # this kernel may start (a hang injected meanwhile does not
            # extend it).
            sim.call_later(self._hang_until - now, self._start_stalled, kernel)
            return
        self.current_kernel = kernel
        kernel.started_at = now
        if self.telemetry is not None:
            self._emit_kernel("kernel.started", kernel)
        self._call_later(
            kernel.duration * self._compute_scale * self.clock_factor
            + self._kernel_overhead,
            self._finish_cb,
            kernel,
        )

    def _start_stalled(self, kernel: Kernel) -> None:
        self._start(kernel, stalled=True)

    def _finish(self, kernel: Kernel) -> None:
        """Retire ``kernel`` (record it, fire ``done``), start the next."""
        sim = self.sim
        now = sim.now
        start = kernel.started_at
        kernel.finished_at = now
        self.kernels_executed += 1
        self.busy_time += now - start
        self._record(kernel.job_id, kernel.node_id, GPU_GLOBAL_KEY, start, now)
        self.current_kernel = None
        if self.telemetry is not None:
            # The pipeline annotates this with the current token
            # holder, which is how overflow kernels are detected.
            self._emit_kernel("kernel.finished", kernel, exec_time=now - start)
        # Detach ``done`` as it fires: the event holds the kernel as its
        # value, so keeping the back-reference would make a cycle that
        # only the cyclic collector could free.
        done = kernel.done
        kernel.done = None
        done.succeed(kernel)
        kernel = self._pull(self._start_cb)
        if kernel is None:
            return
        # ``_start(kernel)``, inlined: this runs once per kernel.
        if now < self._hang_until:
            sim.call_later(self._hang_until - now, self._start_stalled, kernel)
            return
        self.current_kernel = kernel
        kernel.started_at = now
        if self.telemetry is not None:
            self._emit_kernel("kernel.started", kernel)
        self._call_later(
            kernel.duration * self._compute_scale * self.clock_factor
            + self._kernel_overhead,
            self._finish_cb,
            kernel,
        )

    def _emit_kernel(self, kind: str, kernel: Kernel, **fields: Any) -> None:
        """Kernel telemetry seam (only when telemetry is attached)."""
        guard = sim_sanitizer.checkpoint(self)
        self.telemetry.emit(
            kind,
            "device",
            job_id=kernel.job_id,
            node_id=kernel.node_id,
            seq=kernel.seq,
            **fields,
        )
        sim_sanitizer.verify(self, guard, kind)

    # ------------------------------------------------------------------
    # Processor-sharing engine (streams > 1): timed callbacks, no process
    # ------------------------------------------------------------------

    def _hand_off(self, kernel: Kernel) -> None:
        """The driver's callback: step with ``kernel`` one hop later.

        The zero-delay hop keeps the pinned multi-stream schedule (see
        the module docstring).  The step it schedules re-arms the
        timer, so the armed one is superseded now.
        """
        self._timer += 1
        self.sim.call_later(0.0, self._step, kernel)

    def _wake(self, generation: int) -> None:
        if generation == self._timer:
            self._step()

    def _eligible(self, job_id: Any) -> bool:
        allocator = self.allocator
        if allocator is None:
            return True
        return self._job_residency.get(job_id, 0) < allocator.allowed_concurrency(
            job_id
        )

    def _step(self, fetched: Optional[Kernel] = None) -> None:
        """One wake of the processor-sharing engine.

        Up to ``streams`` kernels are resident at once; each carries a
        balance of remaining *solo* device-time, drained at rate
        ``1/s(k)`` where ``k`` is the instantaneous occupancy.  A step
        starts the ``fetched`` kernel, releases a staged one whose
        stall has passed, advances every balance by the elapsed
        interval, retires the drained residents, pulls while streams
        are free, and arms one timer at the earlier of the stall's end
        and the projected completion of the most-drained resident.  An
        injected hang stalls *starts* only (matching the serial
        engine): a fetched kernel is staged until the stall elapses
        while residents keep draining.
        """
        sim = self.sim
        if fetched is not None:
            self._take(fetched)
        staged = self._staged
        if staged is not None and sim.now >= self._hang_until:
            self._staged = None
            self._take(staged)
        residents = self._residents
        streams = self.spec.streams
        while True:
            # Same-tick gangs (homogeneous co-resident kernels draining
            # at the same rate) complete together, so their ``done``
            # events are triggered as one batch: identical wake order
            # to sequential succeed calls, one calendar bucket total.
            self._advance()
            drained = [
                k for k, rem in residents.items() if rem <= _REMAINING_EPS
            ]
            if drained:
                dones = []
                for kernel in drained:
                    self._retire(kernel)
                    # Detached as it fires, as in the serial ``_finish``.
                    dones.append(kernel.done)
                    kernel.done = None
                sim.succeed_many(dones, drained)
            if self._staged is not None or len(residents) >= streams:
                break
            kernel = self.driver.pull(self._hand_off, self._eligible)
            if kernel is None:
                break
            self._take(kernel)
        delay = None
        if self._staged is not None:
            delay = self._hang_until - sim.now
        if residents:
            horizon = max(0.0, min(residents.values())) * (
                self.interference.slowdown(len(residents))
            )
            if delay is None or horizon < delay:
                delay = horizon
        if delay is not None:
            self._timer += 1
            sim.call_later(delay, self._wake, self._timer)

    def _take(self, kernel: Kernel) -> None:
        """Start a fetched kernel, or stage it while the engine stalls."""
        if self.sim.now < self._hang_until:
            self._staged = kernel
        else:
            self._advance()
            self._start_resident(kernel)

    def _advance(self) -> None:
        """Drain every balance by the interval since the last advance."""
        now = self.sim.now
        last = self._last
        if now > last:
            residents = self._residents
            k = len(residents)
            if k:
                drained = (now - last) / self.interference.slowdown(k)
                for kernel in residents:
                    residents[kernel] -= drained
                self.occupancy_time += (now - last) * k
            self._last = now

    def _start_resident(self, kernel: Kernel) -> None:
        residents = self._residents
        job_residency = self._job_residency
        kernel.stream = self._free_streams.pop()
        kernel.started_at = self.sim.now
        balance = (
            kernel.duration * self._compute_scale * self.clock_factor
            + self._kernel_overhead
        )
        residents[kernel] = balance
        self._solo_times[kernel] = balance
        job_residency[kernel.job_id] = job_residency.get(kernel.job_id, 0) + 1
        self.current_kernel = kernel
        self.occupancy = len(residents)
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        allocator = self.allocator
        if allocator is not None:
            checker = getattr(allocator, "invariants", None)
            if checker is not None:
                checker.after_kernel_start(
                    allocator,
                    kernel.job_id,
                    job_residency[kernel.job_id],
                    allocator.allowed_concurrency(kernel.job_id),
                )
        if self.telemetry is not None:
            self._emit_kernel("kernel.started", kernel, stream=kernel.stream)
            self._emit_occupancy()

    def _retire(self, kernel: Kernel) -> None:
        """Books and telemetry for one drained resident.

        The ``done`` succeed happens batched in ``_step`` so a same-tick
        gang retires with one calendar operation.
        """
        residents = self._residents
        job_residency = self._job_residency
        del residents[kernel]
        solo_time = self._solo_times.pop(kernel)
        job_residency[kernel.job_id] -= 1
        if not job_residency[kernel.job_id]:
            del job_residency[kernel.job_id]
        self._free_streams.append(kernel.stream)
        self._free_streams.sort(reverse=True)
        end = self.sim.now
        start = kernel.started_at
        kernel.finished_at = end
        self.kernels_executed += 1
        self.busy_time += end - start
        self._record(kernel.job_id, kernel.node_id, GPU_GLOBAL_KEY, start, end)
        self.occupancy = len(residents)
        if kernel is self.current_kernel:
            self.current_kernel = next(iter(residents)) if residents else None
        if self.telemetry is not None:
            self._emit_kernel(
                "kernel.finished",
                kernel,
                stream=kernel.stream,
                exec_time=end - start,
                solo_time=solo_time,
            )
            self._emit_occupancy()

    def _emit_occupancy(self) -> None:
        guard = sim_sanitizer.checkpoint(self)
        self.telemetry.emit(
            "stream.occupancy",
            "device",
            occupancy=len(self._residents),
            streams=self.spec.streams,
        )
        sim_sanitizer.verify(self, guard, "stream.occupancy")

    def _sanitize_state(self):
        """Engine state checksummed around telemetry seams.

        Plain counters and identifiers only (never object reprs, which
        embed addresses).  The multi-stream residency books are covered
        through their externally visible projection: ``occupancy`` and
        the executed/busy counters.
        """
        current = self.current_kernel
        return (
            self.kernels_executed,
            self.busy_time,
            self.occupancy,
            self.peak_occupancy,
            self.occupancy_time,
            (current.job_id, current.node_id, current.seq)
            if current is not None
            else None,
            self.clock_factor,
            self._hang_until,
            self.hangs_injected,
            self.down_until,
            self.crashes,
        )

    def set_clock_factor(self, factor: float) -> None:
        """Change the effective clock mid-run (thermal throttling /
        boost).  Takes effect from the next kernel; the drift monitor
        (:mod:`repro.core.monitor`) exists to catch exactly this."""
        if factor <= 0:
            raise ValueError(f"clock factor must be positive: {factor}")
        self.clock_factor = factor

    def job_gpu_duration(self, job_id: Any) -> float:
        """Total GPU duration attributed to ``job_id`` (Figure 5 metric)."""
        return self.tracer.duration(job_id)

    def utilization(self, window_start: float, window_end: float) -> float:
        """Exact busy fraction over a window (the NVML-average analogue)."""
        return self.tracer.busy_fraction(GPU_GLOBAL_KEY, window_start, window_end)
