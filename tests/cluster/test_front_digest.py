"""``trace_digest`` of a multi-GPU front.

A :class:`~repro.cluster.MultiGpuServer` has no tracer of its own, so
its digest hashes each worker's digest (the worker's server, its
scheduler and the shared clients) in worker order.  The quick Fig 16
workload under ``fair`` on two workers is pinned to the value the
``repro bench`` digest table holds as ``fig16-fair@gpus2``.
"""

import hashlib

import pytest

from repro.experiments import ExperimentConfig, build_stack
from repro.faults.determinism import trace_digest
from repro.serving import Client
from repro.workloads import complex_workload

FIG16_FAIR_GPUS2 = (
    "86f6047acb6e66e36254e596daedc3d82a9042427ab06866cc6c3dd7ddd03a53"
)


def run_front(scheduler, config, num_batches=2):
    specs = complex_workload(num_batches=num_batches)
    entries = sorted({(spec.model, spec.batch_size) for spec in specs})
    stack = build_stack(entries, scheduler, config=config, gpus=2)
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
    stack.sim.run()
    return stack, clients


def test_fig16_fair_front_digest_is_pinned():
    stack, clients = run_front(
        "fair", ExperimentConfig(quantum=1.2e-3, seed=3)
    )
    assert trace_digest(stack.server, clients=clients) == FIG16_FAIR_GPUS2
    # Clients given as a one-shot iterator reach every worker's digest.
    assert trace_digest(stack.server, clients=iter(clients)) == (
        FIG16_FAIR_GPUS2
    )


@pytest.mark.parametrize("scheduler", ["tf-serving", "fair"])
def test_front_digest_hashes_worker_digests_in_order(scheduler):
    stack, clients = run_front(
        scheduler, ExperimentConfig(scale=0.02, quantum=0.8e-3, seed=3), 1
    )
    assert not hasattr(stack.server, "tracer")
    workers = [worker.server for worker in stack.server.workers]
    assert all(server.completed_jobs for server in workers)
    expected = "\n".join(
        trace_digest(
            server,
            scheduler=None if scheduler == "tf-serving" else server.scheduler,
            clients=clients,
        )
        for server in workers
    )
    assert trace_digest(stack.server, clients=clients) == (
        hashlib.sha256(expected.encode()).hexdigest()
    )
