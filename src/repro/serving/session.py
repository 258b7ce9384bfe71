"""The session executor: TF-Serving's processing loop (Algorithm 1).

One :class:`Session` executes one job.  The *main session thread* (a
simulated process) traverses the dataflow graph breadth-first from the
root; each node is computed when all its parents have finished.
Synchronous (host) children are pushed onto the current thread's queue;
asynchronous (GPU) children are handed to a fresh thread fetched from
the inter-op pool (Algorithm 1 line 14).  The set of threads working on
one job is the job's *gang* — the unit Olympian suspends and resumes.

Scheduler integration (Algorithm 2) is confined to three hook calls:
``scheduler.yield_`` before each compute, ``scheduler.on_node_done``
after it, and ``register``/``deregister`` around the whole session.

If the pool has no free thread, the child is executed inline on the
current thread ("execution may be delayed", §2.1) — this is what makes
Olympian degrade gracefully rather than deadlock when suspended gangs
hold the whole pool (§4.3 scalability).

Two walkers implement the same traversal.  The *reference* walker
(``_thread_body``) visits :class:`~repro.graph.node.Node` objects and
asks each for its device and duration.  The *compiled* walker
(``_thread_body_compiled``, selected by ``ServerConfig.compiled``,
the default) replays the precomputed per-(graph, batch) schedule from
:mod:`repro.graph.compiled`: the BFS queue holds node ids, device
flags and durations come from flat arrays, and the scheduler is only
consulted through the cheap ``needs_yield`` predicate unless the gang
actually has to park.  Where the reference walker sleeps out the
launch latency and then launches, the compiled walker hands the driver
the kernel with its latency (:meth:`~repro.gpu.driver.Driver.launch_after`)
and waits on ``done`` straight away: the submission runs from a timed
callback at the calendar position of the reference walker's wake-up,
so a GPU node costs the session one resume instead of two.  The two
walkers put the same work on the calendar in identical order, so
``trace_digest`` is bit-identical between them — the reference path is
kept precisely to assert that.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from ..faults.errors import GpuFault
from ..graph.node import Node
from ..host.threadpool import ThreadTicket
from .cancellation import JobCancelled
from .failures import JobFailed
from .request import Job

if TYPE_CHECKING:  # pragma: no cover
    from .server import ModelServer

__all__ = ["Session"]


class Session:
    """Executes one job's graph on the server's resources."""

    def __init__(self, server: "ModelServer", job: Job):
        self.server = server
        self.sim = server.sim
        self.job = job
        graph = job.graph
        if server.config.compiled:
            compiled = graph.compiled(job.batch_size)
            self._compiled = compiled
            # Per-session dependency counters, indexed by node id.
            self._remaining = list(compiled.num_parents)
            # The compiled walker's state, resolved once per session
            # (not once per gang thread): every field is constant for
            # the session's lifetime.  ``instrumentation_slowdown`` is
            # 0.0 unless online profiling is attached.
            scheduler = server.scheduler
            driver = server.driver
            config = server.config
            self._walker = (
                job,
                self.sim,
                server,
                scheduler,
                scheduler.needs_yield,
                scheduler.on_node_done,
                compiled.is_gpu,
                compiled.durations,
                compiled.nodes,
                compiled.children_ids,
                compiled.num_nodes,
                self._remaining,
                server.instrumentation_slowdown(),
                config.launch_latency,
                config.online_profiling,
                driver.launch,
                driver.launch_after,
                server.cpu.execute,
                server.pool.try_fetch,
                server.dispatch_delay,
                self.sim.process,
                job.job_id,
                job.batch_size,
            )
        else:
            self._compiled = None
            max_id = max(node.node_id for node in graph.nodes)
            self._remaining = [0] * (max_id + 1)
            for node in graph.nodes:
                self._remaining[node.node_id] = node.num_parents

    # ------------------------------------------------------------------
    # Top-level session process (Algorithm 1/2 SESSION::RUN)
    # ------------------------------------------------------------------

    def run(self):
        """The main session thread; drive the job to completion."""
        job = self.job
        job.started_at = self.sim.now
        # One seam covers both walkers: register/deregister bracket the
        # whole gang regardless of which thread body executes nodes.
        telemetry = self.server.telemetry
        if telemetry is not None:
            telemetry.emit("session.started", "session", job_id=job.job_id)
        self.server.scheduler.register(job)
        ticket = self.server.pool.try_fetch()
        try:
            if self._compiled is not None:
                yield from self._thread_body_compiled(
                    self._compiled.root_id, ticket=None
                )
            else:
                yield from self._thread_body(job.graph.root, ticket=None)
            # Other gang threads may still be working; wait for the last
            # node.  ``complete`` guards against waiting on an event that
            # has already fired; a cancelled or failed job's ``done``
            # fails, which is expected here.
            if not job.complete:
                try:
                    yield job.done
                except (JobCancelled, JobFailed):
                    pass
        finally:
            if ticket is not None:
                ticket.release()
            if job.finished_at is None:
                job.finished_at = self.sim.now
            self.server.scheduler.deregister(job)
            # After deregister so the scheduler's final tenure_end for
            # this job precedes its session.finished.
            if telemetry is not None:
                telemetry.emit(
                    "session.finished",
                    "session",
                    job_id=job.job_id,
                    status=job.status,
                    nodes_executed=job.nodes_executed,
                )
            self.server._finish_job(job)

    # ------------------------------------------------------------------
    # Gang threads (Algorithm 1/2 PROCESS)
    # ------------------------------------------------------------------

    def _thread_body(self, start_node: Node, ticket: Optional[ThreadTicket]):
        job = self.job
        job.gang_threads_now += 1
        if job.gang_threads_now > job.gang_threads_peak:
            job.gang_threads_peak = job.gang_threads_now
        try:
            queue = deque((start_node,))
            scheduler = self.server.scheduler
            while queue:
                if job.aborted:
                    break
                node = queue.popleft()
                yield from scheduler.yield_(job)
                if job.aborted:
                    break
                try:
                    yield from self._compute(node)
                except GpuFault as exc:
                    # The device/driver killed this node (e.g. an
                    # injected kernel launch failure).  Mark the whole
                    # job dead; every gang thread drains at its next
                    # node boundary.
                    self._fail_job(exc)
                    break
                self._finish_node(node, queue)
        finally:
            job.gang_threads_now -= 1
            if (
                job.aborted
                and job.gang_threads_now == 0
                and not job.done.triggered
            ):
                # Last gang thread drained an aborted job: report it.
                job.finished_at = self.sim.now
                job.done.fail(self._abort_exception())
            if ticket is not None:
                ticket.release()

    def _fail_job(self, cause: BaseException) -> None:
        """Transition the job to failed and release scheduler state."""
        job = self.job
        if job.failed:
            return
        job.failed = True
        job.failure = cause
        # The scheduler must wake the job's parked threads (so they
        # drain) and reclaim the token if this job holds it.
        self.server.scheduler.on_fail(job)

    def _abort_exception(self) -> Exception:
        """The terminal exception for a drained aborted job.

        Failure wins over cancellation: a job that died carries its
        typed cause even if someone also cancelled it while draining.
        """
        job = self.job
        if job.failed:
            return JobFailed(
                job.job_id,
                job.nodes_executed,
                job.graph.num_nodes,
                cause=job.failure,
            )
        return JobCancelled(
            job.job_id, job.nodes_executed, job.graph.num_nodes
        )

    # ------------------------------------------------------------------
    # Compiled replay walker (ServerConfig.compiled, the default)
    # ------------------------------------------------------------------

    def _thread_body_compiled(
        self, start_id: int, ticket: Optional[ThreadTicket]
    ):
        """Gang-thread body over the precomputed schedule.

        Must mirror ``_thread_body`` + ``_compute`` + ``_finish_node``
        in what reaches the calendar: the same events in the same order
        (the launch latency is a timed callback instead of a sleep),
        with the per-node lookups (device, duration, slowdown,
        scheduler-park test) resolved from flat arrays and hoisted
        constants, and the node-finish bookkeeping inlined into the
        loop.  Both walkers spawn a gang thread the same way: the OS
        dispatch latency is drawn at the spawn and the process kicks
        off at that deadline (``Simulator.process(..., delay=)``).
        """
        (
            job,
            sim,
            server,
            scheduler,
            needs_yield,
            on_node_done,
            is_gpu,
            durations,
            nodes,
            children_ids,
            num_nodes,
            remaining,
            slowdown,
            launch_latency,
            online,
            driver_launch,
            launch_after,
            cpu_execute,
            try_fetch,
            dispatch_delay,
            process,
            job_id,
            batch,
        ) = self._walker
        job.gang_threads_now += 1
        if job.gang_threads_now > job.gang_threads_peak:
            job.gang_threads_peak = job.gang_threads_now
        try:
            queue = deque((start_id,))
            popleft = queue.popleft
            append = queue.append
            while queue:
                # ``Job.aborted`` inlined: read twice per node.
                if job.cancelled or job.failed:
                    break
                node_id = popleft()
                if needs_yield(job):
                    yield from scheduler.yield_(job)
                    if job.cancelled or job.failed:
                        break
                try:
                    if is_gpu[node_id]:
                        if launch_latency > 0.0:
                            kernel = launch_after(
                                launch_latency,
                                job_id,
                                node_id,
                                durations[node_id] + slowdown,
                            )
                        else:
                            kernel = driver_launch(
                                job_id,
                                nodes[node_id],
                                batch,
                                duration=durations[node_id] + slowdown,
                            )
                        yield kernel.done
                    else:
                        yield from cpu_execute(durations[node_id] + slowdown)
                    if online:
                        server._observe_cost(job, nodes[node_id])
                except GpuFault as exc:
                    self._fail_job(exc)
                    break
                # Node-finish bookkeeping (``_finish_node`` twin).
                on_node_done(job, nodes[node_id])
                job.nodes_executed += 1
                if is_gpu[node_id]:
                    job.gpu_nodes_executed += 1
                if job.nodes_executed == num_nodes:
                    job.finished_at = sim.now
                    job.done.succeed(job)
                    continue
                inline_slot_free = True
                for child_id in children_ids[node_id]:
                    left = remaining[child_id] - 1
                    remaining[child_id] = left
                    if left != 0:
                        continue
                    if inline_slot_free:
                        append(child_id)
                        inline_slot_free = False
                    else:
                        child_ticket = try_fetch()
                        if child_ticket is not None:
                            process(
                                self._thread_body_compiled(
                                    child_id, child_ticket
                                ),
                                f"{job_id}/n{child_id}",
                                dispatch_delay(),
                            )
                        else:
                            append(child_id)
        finally:
            job.gang_threads_now -= 1
            if (
                job.aborted
                and job.gang_threads_now == 0
                and not job.done.triggered
            ):
                job.finished_at = sim.now
                job.done.fail(self._abort_exception())
            if ticket is not None:
                ticket.release()

    # ------------------------------------------------------------------
    # Node execution
    # ------------------------------------------------------------------

    def _compute(self, node: Node):
        """Execute one node on the appropriate device."""
        job = self.job
        slowdown = self.server.instrumentation_slowdown()
        if node.is_gpu:
            launch = self.server.config.launch_latency
            if launch > 0.0:
                yield self.sim.timeout(launch)
            kernel = self.server.driver.launch(
                job.job_id, node, job.batch_size, slowdown=slowdown
            )
            yield kernel.done
        else:
            duration = node.duration(job.batch_size) + slowdown
            yield from self.server.cpu.execute(duration)
        if self.server.config.online_profiling:
            self.server._observe_cost(job, node)

    def _finish_node(self, node: Node, queue: deque) -> None:
        """Post-compute bookkeeping: accounting and child dispatch."""
        job = self.job
        self.server.scheduler.on_node_done(job, node)
        job.nodes_executed += 1
        if node.is_gpu:
            job.gpu_nodes_executed += 1
        if job.nodes_executed == job.graph.num_nodes:
            # Stamp completion before firing ``done`` so any waiter
            # resumed by the event sees a finished job.
            job.finished_at = self.sim.now
            job.done.succeed(job)
            return
        remaining = self._remaining
        inline_slot_free = True
        for child in node.children:
            left = remaining[child.node_id] - 1
            remaining[child.node_id] = left
            if left != 0:
                continue
            if inline_slot_free:
                # The first ready child continues on the current thread
                # (the executor's continuation optimisation, which keeps
                # the GPU pipeline fed along kernel chains).
                queue.append(child)
                inline_slot_free = False
            else:
                # Further ready children fan out onto fresh inter-op
                # pool threads (Algorithm 1 line 14), which start after
                # the OS dispatch latency.
                ticket = self.server.pool.try_fetch()
                if ticket is not None:
                    self.sim.process(
                        self._thread_body(child, ticket),
                        name=f"{job.job_id}/n{child.node_id}",
                        delay=self.server.dispatch_delay(),
                    )
                else:
                    # Pool exhausted: delayed, runs inline on this thread.
                    queue.append(child)
