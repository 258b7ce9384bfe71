"""The call-driven serial GPU engine: fault paths, cost and oracles.

The serial device (``GpuSpec.streams == 1``) runs on timed callbacks
instead of a process, and the compiled session walker hands the driver
its launch latency instead of sleeping it out.  Both are pure speedups,
so every scenario here pins a digest captured from the process-driven
engine they replaced: a changed literal is a behaviour change, never a
re-pin.

* fault paths — hangs landing on an idle and on a busy engine, a crash
  that flushes queued kernels and holds the engine through its reset,
  a driver-boundary launch rejection, and zero launch latency (the
  direct-launch branch of the compiled walker);
* arbitration — a many-stream tf-serving run pins the driver's RNG
  state and stream switches, which the O(1) single-stream pick must
  leave untouched;
* cost — deterministic gates on generator resumes and calendar buckets
  per kernel (``repro.bench.count_kernel_work``);
* the ``run`` vs ``run_reference`` oracle on a served fig16 run.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.bench import count_kernel_work
from repro.experiments.runner import ExperimentConfig, build_stack, get_profiler_output
from repro.faults import KernelLaunchFailure
from repro.faults.determinism import trace_digest
from repro.gpu import GPU_GLOBAL_KEY, GTX_1080_TI, Driver, GpuDevice
from repro.graph import DurationModel, Node, op_by_name
from repro.serving import Client, ModelServer, ServerConfig
from repro.sim import Simulator
from repro.workloads.scenarios import complex_workload
from repro.zoo import ALEXNET, GOOGLENET

# Poll period of the fault probes: off every kernel's time grid, so a
# probe never shares a deadline with an engine event.
PROBE = 13.7e-6


def serve(probe=None, *, launch_latency=1e-6, clients=2, batches=3):
    """Two models served by tf-serving on one bare server, to the end.

    ``probe(sim, server)`` is a generator run as a process next to the
    clients (the fault injector of the scenario).  Returns the server
    and a digest of its trace, its clients and the engine's counters.
    """
    sim = Simulator()
    server = ModelServer(
        sim,
        ServerConfig(track_memory=False, launch_latency=launch_latency, seed=5),
    )
    specs = (ALEXNET, GOOGLENET)
    for spec in specs:
        server.load_spec(spec, scale=0.02, seed=1)
    fleet = [
        Client(
            sim,
            server,
            client_id=f"c{i}",
            model_name=specs[i % len(specs)].name,
            batch_size=8,
            num_batches=batches,
            think_time=150e-6 * (i + 1),
        )
        for i in range(clients)
    ]
    for client in fleet:
        client.start()
    if probe is not None:
        sim.process(probe(sim, server))
    sim.run()
    device, driver = server.device, server.driver
    counters = (
        device.kernels_executed,
        device.busy_time,
        device.hangs_injected,
        device.hang_time,
        device.crashes,
        driver.failed_launches,
        driver.kernels_flushed,
        driver.stream_switches,
        driver.max_queue_depth,
    )
    hasher = hashlib.sha256(trace_digest(server, clients=fleet).encode())
    hasher.update(repr(counters).encode())
    return server, hasher.hexdigest()


def poll_until(sim, when, start=1e-3):
    """Sleep to ``start``, then poll every PROBE until ``when()`` holds."""
    yield sim.timeout(start)
    while not when():
        yield sim.timeout(PROBE)


def idle(server):
    return server.device.current_kernel is None and server.driver.total_queued == 0


def busy_with_queue(server):
    return server.device.current_kernel is not None and server.driver.total_queued > 0


class TestFaultPaths:
    def test_baseline(self):
        _, digest = serve()
        assert digest == BASELINE

    def test_hang_while_idle(self):
        seen = []

        def probe(sim, server):
            yield from poll_until(sim, lambda: idle(server))
            seen.append(server.device.current_kernel)
            server.device.inject_hang(400e-6)

        server, digest = serve(probe)
        assert seen == [None]
        assert server.device.hang_time == pytest.approx(400e-6)
        assert digest == HANG_IDLE

    def test_hang_while_busy(self):
        def probe(sim, server):
            yield from poll_until(sim, lambda: busy_with_queue(server))
            server.device.inject_hang(250e-6)
            # A second hang inside the first extends the stall.
            yield sim.timeout(100e-6)
            server.device.inject_hang(250e-6)

        server, digest = serve(probe)
        assert server.device.hangs_injected == 2
        assert digest == HANG_BUSY

    def test_crash_with_kernels_queued(self):
        flushed = []

        def probe(sim, server):
            yield from poll_until(
                sim, lambda: server.driver.total_queued >= 2, start=2e-3
            )
            flushed.append(server.crash_device(reset_latency=300e-6))

        server, digest = serve(probe, clients=3)
        assert flushed and flushed[0] >= 2
        assert server.device.outage_time == pytest.approx(300e-6)
        assert digest == CRASH

    def test_launch_interceptor_rejection(self):
        launches = []

        def reject_every_40th(job_id, node_id):
            launches.append(job_id)
            if len(launches) % 40 == 0:
                return KernelLaunchFailure(job_id, node_id)
            return None

        def probe(sim, server):
            server.driver.launch_interceptor = reject_every_40th
            yield sim.timeout(0.0)

        server, digest = serve(probe)
        assert server.driver.failed_launches > 0
        assert digest == REJECT

    def test_zero_launch_latency(self):
        _, digest = serve(launch_latency=0.0)
        assert digest == ZERO_LATENCY


class TestArbitration:
    def test_many_stream_tf_serving_pick_sequence(self):
        """16 jobs' streams: the pick, its RNG draws and the cleanup."""
        server, digest = serve(clients=4, batches=4)
        driver = server.driver
        state = hashlib.sha256(
            repr(
                (driver.rng.getstate(), driver.stream_switches, digest)
            ).encode()
        ).hexdigest()
        assert state == ARBITRATION

    @pytest.mark.parametrize("seed", range(4))
    def test_single_stream_pick_matches_general_pick(self, seed):
        """The O(1) pick against the general one on random traffic.

        Launches over a growing set of jobs, pulls and the odd crash,
        replayed on both twins.
        """
        rng = random.Random(seed)
        twins = PickTwins()
        jobs = 0
        for _ in range(3000):
            roll = rng.random()
            if roll < 0.08:
                jobs += 1
            if roll < 0.02:
                twins.crash()
            elif roll < 0.55:
                # Mostly the newest jobs, sometimes an older one.
                if rng.random() < 0.9:
                    job = max(jobs - rng.randrange(3), 0)
                else:
                    job = rng.randrange(jobs + 1)
                twins.launch(f"j{job}")
            elif twins.fast.total_queued:
                twins.pull()
        assert twins.fast.stream_switches > 10

    def test_single_stream_cleanup_matches_general_pick(self):
        """More than 12 streams while the current one holds all the work.

        A crash empties every queue without a pick, so the current
        stream survives it; its next kernel then takes the O(1) pick
        with 14 streams on the books, whose cleanup keeps only it.
        """
        twins = PickTwins()
        for job in range(14):
            twins.launch(f"j{job}")
            twins.launch(f"j{job}")
        twins.pull()
        twins.crash()
        current = twins.fast._current_stream
        twins.launch(current)
        twins.launch(current)
        assert len(twins.fast._queues) == 14
        twins.pull()
        assert list(twins.fast._queues) == [current]
        twins.pull()


def general_pick(driver):
    """The driver's pick without its single-stream shortcut (oracle).

    Every non-empty stream is a candidate; one noise draw per candidate
    in queue-creation order, first wins on ties; a stream switch is
    counted; long-empty queues are cleaned up.
    """
    nonempty = [job for job, queue in driver._queues.items() if queue]
    chosen = nonempty[0]
    if len(nonempty) > 1:
        best = driver._ranks[chosen] + driver.arbitration_noise * driver.rng.random()
        for job in nonempty[1:]:
            score = driver._ranks[job] + driver.arbitration_noise * driver.rng.random()
            if score > best:
                best, chosen = score, job
    if chosen != driver._current_stream:
        driver.stream_switches += 1
    driver._current_stream = chosen
    if len(driver._queues) > 4 * len(nonempty) + 8:
        keep = set(nonempty) | {chosen}
        driver._queues = {
            job: queue for job, queue in driver._queues.items() if job in keep
        }
        driver._ranks = {
            job: rank for job, rank in driver._ranks.items() if job in keep
        }
    driver._queued -= 1
    return driver._queues[chosen].popleft()


class PickTwins:
    """Two drivers in lockstep: O(1)-capable ``pull`` vs the general pick.

    ``general_pick`` draws the same candidate list, RNG draws and
    cleanup rule with no single-stream shortcut.  After every step both
    drivers must agree on the pick, the RNG state, the switch count and
    the stream books.
    """

    NODE = Node(0, "k", op_by_name("conv2d"),
                DurationModel.from_reference(1e-4, 8, 0.0))

    def __init__(self):
        self.fast = Driver(Simulator())
        self.general = Driver(Simulator())

    def launch(self, job):
        self.fast.launch(job, self.NODE, 8)
        self.general.launch(job, self.NODE, 8)
        self.check()

    def pull(self):
        got = self.fast.pull(lambda kernel: None)
        want = general_pick(self.general)
        assert (got.job_id, got.seq) == (want.job_id, want.seq)
        self.check()

    def crash(self):
        self.fast.crash(reject_until=0.0)
        self.general.crash(reject_until=0.0)
        self.check()

    def check(self):
        fast, general = self.fast, self.general
        assert fast.stream_switches == general.stream_switches
        assert fast.rng.getstate() == general.rng.getstate()
        assert list(fast._queues) == list(general._queues)
        assert fast._ranks == general._ranks


class TestCost:
    @pytest.mark.parametrize("streams", [1, 4])
    def test_device_owns_no_process(self, streams):
        sim = Simulator()
        GpuDevice(sim, replace(GTX_1080_TI, streams=streams), Driver(sim))
        assert sim.peek() == float("inf")  # nothing on the calendar

    def test_generator_resumes_per_kernel(self, fig16):
        """About one and a half generator resumes per executed kernel.

        Counted as calls of ``generator.send``/``throw`` — every process
        resume the kernel makes — under cProfile, which is exact and
        host-independent.  The process-driven engine needed 5.2 on this
        run: two session resumes (launch latency, ``done``) and two
        device resumes (fetch, execution) per kernel, plus host nodes.
        Before gang threads kicked off at their dispatch deadline and
        host nodes claimed free cores inline, it was 2.24.  Calendar
        buckets (heap entries, ``Simulator.stats()``) were 4.08 before
        same-instant wake-ups rode the bucket being dispatched.
        """
        work = count_kernel_work(serve_counted(fig16, "fair", FIG16_CONFIG))
        assert work["resumes_per_kernel"] <= 1.77  # measured 1.739
        assert work["buckets_per_kernel"] <= 2.56  # measured 2.527

    def test_generator_resumes_per_kernel_at_four_streams(self, fig16):
        """The processor-sharing engine resumes no generator either.

        The process-driven multi-stream engine needed 3.41 on this run:
        its own wake-ups on fetches and completion horizons came on top
        of the sessions' resumes, and 2.22 resumes (4.46 buckets) were
        left before the gang thread, host node and open-bucket changes.
        """
        config = replace(FIG16_CONFIG, streams=4)
        work = count_kernel_work(serve_counted(fig16, "spatial", config))
        assert work["resumes_per_kernel"] <= 1.75  # measured 1.718
        assert work["buckets_per_kernel"] <= 2.76  # measured 2.731


def serve_counted(fig16, kind, config):
    """A ``count_kernel_work`` run of the fig16 mix.  The gates above sit
    0.03 over the measured counts, which are deterministic: a rise past
    them means more work per kernel."""

    def run():
        stack, _ = fig16(kind, config=config)
        kernels = stack.server.tracer.count(GPU_GLOBAL_KEY)
        assert kernels > 10_000
        return stack.sim, kernels

    return run


class TestEventLoopOracle:
    @pytest.mark.parametrize("kind", ["fair", "tf-serving"])
    def test_run_matches_run_reference(self, fig16, kind):
        fast, fast_clients = fig16(kind)
        ref, ref_clients = fig16(kind, reference=True)
        assert trace_digest(
            fast.server, scheduler=fast.scheduler, clients=fast_clients
        ) == trace_digest(ref.server, scheduler=ref.scheduler, clients=ref_clients)


@pytest.fixture(scope="module")
def fig16_profile():
    specs = complex_workload(num_batches=2)
    entries = sorted({(spec.model, spec.batch_size) for spec in specs})
    return specs, entries, get_profiler_output(entries, FIG16_CONFIG)


@pytest.fixture
def fig16(fig16_profile):
    """Serve the fig16 mix (two batches per client) to the end."""
    specs, entries, profile = fig16_profile

    def serve_fig16(kind, reference=False, config=FIG16_CONFIG):
        stack = build_stack(entries, kind, config=config, profiler_output=profile)
        clients = [
            Client(
                stack.sim,
                stack.server,
                client_id=spec.client_id,
                model_name=spec.model,
                batch_size=spec.batch_size,
                num_batches=spec.num_batches,
                weight=spec.weight,
                priority=spec.priority,
                think_time=spec.think_time,
                start_delay=spec.start_delay,
            )
            for spec in specs
        ]
        for client in clients:
            client.start()
        if reference:
            stack.sim.run_reference()
        else:
            stack.sim.run()
        assert all(client.completed for client in clients)
        return stack, clients

    return serve_fig16


# A fixed quantum skips the Overhead-Q sweep: the profile is solo runs.
FIG16_CONFIG = ExperimentConfig(seed=3, quantum=1.2e-3)



# Literals captured from the process-driven serial engine.
BASELINE = "34d980ba42c626158a368082ae9f2f1149bfcb6c68ba71d7acbc63f9710bdc44"
HANG_IDLE = "09adb636441d05302fcc494a34a7f2e699e93f511a7d419f64842ee5024e6306"
HANG_BUSY = "b55dd17ae36f1cc66d6c45906791e4b00c1715164a648339bacac99176c45bb5"
CRASH = "a4674aad4fe447a215de4b8c5b4c51ad093ec82c0e4fbf7a5b8756e95329c976"
REJECT = "934646ddf04172dd9ade1285070c2548d063aef8cf825ec10f481688d011838d"
ZERO_LATENCY = "61582037ebb58bcc631d2d7624e7b82d20dff666644bd94191801272e22517e2"
ARBITRATION = "46fb881b6914bc920b48dfd657ffc4e436ca8412bcb9f0262ca269a94e89c938"
