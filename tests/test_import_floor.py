"""The serving path's import floor: no scipy, no numpy.

scipy is a test extra used only by the replication harness's
confidence intervals, which import it on call.  Loading it costs ~1 s
and ~68 MB of resident memory, so a stray module-level import anywhere
on the serving path would more than double the process floor.  numpy
serves only Figure 20's linear fits, which import it on call; loading
it adds ~13 MB to a ~26 MB floor.  The check runs in a fresh
interpreter: the test process itself has long since imported both
through other tests.

The experiment and analysis packages re-export their names lazily, so
the serving path also loads none of the experiment harness modules
(campaigns, figures, sweeps), which only their own entry points need.
"""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def run_fresh(script, tmp_path):
    """Standard output of ``script`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serving_path_never_imports_scipy_or_numpy(tmp_path):
    assert run_fresh(SCRIPT, tmp_path).splitlines() == [
        "scipy modules: 0 []",
        "numpy modules: 0 []",
    ]


# The experiment modules the serving path never needs: the package
# re-exports them lazily, so importing the runner loads none of them.
HARNESS_MODULES = (
    "chaos",
    "soak",
    "figures",
    "extensions",
    "ext_spatial",
    "replication",
    "sensitivity",
    "registry",
    "parallel",
)

SERVING_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.experiments.runner import ExperimentConfig, build_stack
    from repro.faults.determinism import trace_digest
    from repro.serving.admission import AdmissionConfig, AdmissionGate
    from repro.workloads.traffic import (
        ModelMix, TrafficConfig, TrafficEngine, drive,
    )

    engine = TrafficEngine(
        TrafficConfig(mix=(ModelMix("alexnet", 4),), rate=200.0, duration=None),
        seed=1,
    )
    config = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)
    stack = build_stack(engine.entries(), "fair", config=config)
    gate = AdmissionGate(AdmissionConfig(max_active=2)).attach(stack.server)
    drive(stack.sim, stack.server, engine, gate=gate, limit=6)
    stack.sim.run()
    assert len(trace_digest(stack.server, scheduler=stack.scheduler)) == 64
    print(sorted(
        name for name in sys.modules
        if name.startswith(("repro.experiments.", "repro.analysis."))
    ))
    """
)


def test_serving_path_loads_no_harness_module(tmp_path):
    loaded = ast.literal_eval(run_fresh(SERVING_SCRIPT, tmp_path))
    assert loaded == [
        "repro.experiments.profile_cache",
        "repro.experiments.runner",
    ]
    for name in HARNESS_MODULES:
        assert f"repro.experiments.{name}" not in loaded


def static_exports(package):
    """Name -> submodule of the package's ``if TYPE_CHECKING:`` imports."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"
    )
    return {
        alias.name: node.module
        for node in block.body
        for alias in node.names
    }


@pytest.mark.parametrize("package", ["experiments", "analysis"])
def test_lazy_exports_match_the_static_imports(package):
    """The lazy table and the statically visible imports name the same
    objects, and every name resolves to its submodule's object."""
    module = importlib.import_module(f"repro.{package}")
    static = static_exports(package)
    assert static == module._MODULE_OF
    assert module.__all__ == sorted(static)
    for name, submodule in static.items():
        source = importlib.import_module(f"repro.{package}.{submodule}")
        assert getattr(module, name) is getattr(source, name)
    with pytest.raises(AttributeError):
        module.no_such_name
