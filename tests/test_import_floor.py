"""The serving path's import floor: no scipy, no numpy.

scipy is a test extra used only by the replication harness's
confidence intervals, which import it on call.  Loading it costs ~1 s
and ~68 MB of resident memory, so a stray module-level import anywhere
on the serving path would more than double the process floor.  numpy
serves only Figure 20's linear fits, which import it on call; loading
it adds ~13 MB to a ~26 MB floor.  The check runs in a fresh
interpreter: the test process itself has long since imported both
through other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.analysis
    import repro.cli
    import repro.experiments.runner
    from repro.experiments.runner import ExperimentConfig, build_stack
    from repro.faults.determinism import trace_digest
    from repro.serving.client import Client
    from repro.workloads.scenarios import complex_workload

    specs = complex_workload(clients_per_model=1, num_batches=1)
    entries = sorted({(spec.model, spec.batch_size) for spec in specs})
    config = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)
    stack = build_stack(entries, "fair", config=config)
    clients = [
        Client(
            stack.sim,
            stack.server,
            client_id=spec.client_id,
            model_name=spec.model,
            batch_size=spec.batch_size,
            num_batches=spec.num_batches,
        )
        for spec in specs
    ]
    for client in clients:
        client.start()
    stack.sim.run()
    assert all(client.completed for client in clients)
    digest = trace_digest(stack.server, scheduler=stack.scheduler, clients=clients)
    utilization = stack.server.utilization(0.0, stack.sim.now)
    assert len(digest) == 64 and 0.0 < utilization <= 1.0
    for package in ("scipy", "numpy"):
        loaded = sorted(
            name for name in sys.modules if name.split(".")[0] == package
        )
        print(f"{package} modules:", len(loaded), loaded[:5])
    """
)


def test_serving_path_never_imports_scipy_or_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "scipy modules: 0 []",
        "numpy modules: 0 []",
    ]
