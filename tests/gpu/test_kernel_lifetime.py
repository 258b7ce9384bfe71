"""Executed kernels must die by refcount, never by the cyclic collector.

A kernel's ``done`` event fires with the kernel as its value.  If the
kernel kept its reference to the event after completion, every
executed kernel would sit in a ``Kernel`` <-> ``done`` reference cycle
that only CPython's cyclic garbage collector can free: one cycle per
simulated kernel, on the hottest path of every experiment.  The device
detaches ``done`` as it fires it, on the serial engine and on the
multi-stream one.
"""

import gc
from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_workload
from repro.gpu import GTX_1080_TI, Driver, GpuDevice, Kernel
from repro.graph import DurationModel, Node, op_by_name
from repro.sim import Simulator
from repro.workloads.scenarios import homogeneous_workload


def kernels_left_for_collector(streams: int) -> int:
    """Kernels only the cyclic collector could free after one served run.

    The run (compiled session walker, the default) happens with the
    collector off, so no cycle is freed early; ``DEBUG_SAVEALL`` then
    parks everything the collector finds unreachable in ``gc.garbage``
    instead of freeing it, where it can be counted.
    """
    specs = homogeneous_workload(num_clients=2, num_batches=2)
    config = ExperimentConfig(
        scale=0.02, quantum=0.8e-3, curve_batches=2, streams=streams
    )
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_workload(specs, scheduler="fair", config=config)
        assert all(client.completed for client in result.clients)
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sum(1 for obj in gc.garbage if type(obj) is Kernel)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("streams", [1, 2])
def test_no_kernel_reaches_the_cyclic_collector(streams):
    assert kernels_left_for_collector(streams) == 0


@pytest.mark.parametrize("streams", [1, 2])
def test_done_is_detached_on_completion(streams):
    sim = Simulator()
    driver = Driver(sim)
    GpuDevice(sim, replace(GTX_1080_TI, streams=streams), driver)
    node = Node(
        0, "k0", op_by_name("conv2d"),
        DurationModel.from_reference(100e-6, 100, 0.0),
    )
    kernel = driver.launch("a", node, 100)
    done = kernel.done
    sim.run()
    assert kernel.done is None
    assert kernel.finished_at is not None
    assert done.value is kernel
