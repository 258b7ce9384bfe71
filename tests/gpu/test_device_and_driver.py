"""Unit tests for the GPU device, driver, and kernel lifecycle."""

import pytest

from repro.graph import DurationModel, Node, op_by_name
from repro.gpu import GPU_GLOBAL_KEY, Driver, GpuDevice, GTX_1080_TI, TITAN_X, Kernel
from repro.sim import Simulator


def make_gpu_node(node_id=0, duration=100e-6):
    return Node(
        node_id, f"k{node_id}", op_by_name("conv2d"),
        DurationModel.from_reference(duration, 100, 0.0),
    )


def spans(tracer, key):
    """``key``'s ``(start, end)`` spans, read from the tracer's columns."""
    starts, ends, _tags = tracer.columns(key)
    return list(zip(starts, ends))


@pytest.fixture
def stack(sim):
    driver = Driver(sim)
    device = GpuDevice(sim, GTX_1080_TI, driver)
    return sim, driver, device


class TestKernel:
    def test_negative_duration_rejected(self, sim):
        with pytest.raises(ValueError):
            Kernel(sim, "j", 0, -1.0)

    def test_queue_delay(self, sim):
        kernel = Kernel(sim, "j", 0, 1e-3)
        assert kernel.queue_delay is None
        kernel.submitted_at = 1.0
        kernel.started_at = 3.0
        assert kernel.queue_delay == 2.0


class TestSerialExecution:
    def test_single_kernel_executes_for_duration(self, stack):
        sim, driver, device = stack
        kernel = driver.launch("job", make_gpu_node(duration=1e-3), 100)
        sim.run()
        assert kernel.finished_at == pytest.approx(
            1e-3 + GTX_1080_TI.kernel_overhead
        )
        assert device.kernels_executed == 1

    def test_kernels_serialize(self, stack):
        sim, driver, device = stack
        k1 = driver.launch("a", make_gpu_node(0, 1e-3), 100)
        k2 = driver.launch("a", make_gpu_node(1, 1e-3), 100)
        sim.run()
        assert k2.started_at >= k1.finished_at

    def test_done_event_carries_kernel(self, stack):
        sim, driver, device = stack
        got = []

        def waiter():
            kernel = driver.launch("a", make_gpu_node(), 100)
            result = yield kernel.done
            got.append(result)

        sim.process(waiter())
        sim.run()
        assert got[0].job_id == "a"

    def test_compute_scale_slows_execution(self, sim):
        driver = Driver(sim)
        device = GpuDevice(sim, TITAN_X, driver)
        kernel = driver.launch("a", make_gpu_node(duration=1e-3), 100)
        sim.run()
        busy = kernel.finished_at - kernel.started_at
        assert busy == pytest.approx(
            1e-3 * TITAN_X.compute_scale + TITAN_X.kernel_overhead
        )

    def test_stream_order_within_job_preserved(self, stack):
        sim, driver, device = stack
        kernels = [driver.launch("a", make_gpu_node(i, 1e-4), 100) for i in range(5)]
        sim.run()
        starts = [k.started_at for k in kernels]
        assert starts == sorted(starts)

    def test_device_idles_when_queue_empty(self, stack):
        sim, driver, device = stack
        driver.launch("a", make_gpu_node(0, 1e-3), 100)
        sim.run()
        assert device.current_kernel is None

        # A late submission still executes.
        def late():
            yield sim.timeout(1.0)
            driver.launch("a", make_gpu_node(1, 1e-3), 100)

        sim.process(late())
        sim.run()
        assert device.kernels_executed == 2


class TestTracing:
    def test_busy_intervals_recorded_per_job(self, stack):
        sim, driver, device = stack
        driver.launch("a", make_gpu_node(0, 1e-3), 100)
        driver.launch("b", make_gpu_node(1, 2e-3), 100)
        sim.run()
        overhead = GTX_1080_TI.kernel_overhead
        assert device.job_gpu_duration("a") == pytest.approx(1e-3 + overhead)
        assert device.job_gpu_duration("b") == pytest.approx(2e-3 + overhead)

    def test_global_key_accumulates_all(self, stack):
        sim, driver, device = stack
        driver.launch("a", make_gpu_node(0, 1e-3), 100)
        driver.launch("b", make_gpu_node(1, 2e-3), 100)
        sim.run()
        total = device.tracer.duration(GPU_GLOBAL_KEY)
        assert total == pytest.approx(3e-3 + 2 * GTX_1080_TI.kernel_overhead)

    def test_utilization_exact(self, stack):
        sim, driver, device = stack
        driver.launch("a", make_gpu_node(0, 1e-3), 100)
        sim.run()
        end = 2e-3
        assert device.utilization(0, end) == pytest.approx(
            (1e-3 + GTX_1080_TI.kernel_overhead) / end
        )


class TestDriverArbitration:
    def test_job_agnostic_fifo_within_stream(self, stack):
        sim, driver, _ = stack
        driver.launch("a", make_gpu_node(0), 100)
        driver.launch("a", make_gpu_node(1), 100)
        assert driver.queued_for("a") >= 1  # first may already be dispatched
        assert driver.submissions_for("a") == 2

    def test_slowdown_extends_kernel(self, stack):
        sim, driver, device = stack
        kernel = driver.launch("a", make_gpu_node(0, 1e-3), 100, slowdown=5e-4)
        sim.run()
        assert kernel.duration == pytest.approx(1.5e-3)

    def test_all_streams_drain(self, stack):
        sim, driver, device = stack
        for job in ("a", "b", "c"):
            for i in range(10):
                driver.launch(job, make_gpu_node(i, 1e-5), 100)
        sim.run()
        assert device.kernels_executed == 30
        assert driver.total_queued == 0

    def test_arbitration_noise_validation(self, sim):
        with pytest.raises(ValueError):
            Driver(sim, arbitration_noise=-1.0)

    def test_strict_priority_starves_low_rank_stream(self, sim):
        """With zero noise, the higher-ranked stream is served first."""
        import random

        driver = Driver(sim, rng=random.Random(0), arbitration_noise=0.0)
        device = GpuDevice(sim, GTX_1080_TI, driver)
        # Create both streams, then queue bursts on each.
        first = [driver.launch("a", make_gpu_node(i, 1e-4), 100) for i in range(5)]
        second = [driver.launch("b", make_gpu_node(i, 1e-4), 100) for i in range(5)]
        sim.run()
        rank_a = driver._ranks["a"]
        rank_b = driver._ranks["b"]
        winners = first if rank_a > rank_b else second
        losers = second if rank_a > rank_b else first
        # After the first (already dispatched) kernel, the winner's
        # remaining kernels all run before the loser's queued ones.
        assert max(k.finished_at for k in winners[1:]) <= min(
            k.started_at for k in losers[1:]
        ) + 1e-4 + 1e-6

    def test_work_conserving(self, stack):
        """The device never idles while any stream has queued kernels."""
        sim, driver, device = stack
        for job in ("a", "b"):
            for i in range(20):
                driver.launch(job, make_gpu_node(i, 1e-5), 100)
        sim.run()
        busy = spans(device.tracer, GPU_GLOBAL_KEY)
        from repro.sim import union_duration

        total_busy = union_duration(busy)
        makespan = max(end for _, end in busy)
        assert total_busy == pytest.approx(makespan, rel=1e-9)
