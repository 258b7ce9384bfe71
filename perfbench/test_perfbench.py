"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from repro.experiments.runner import run_workload
from repro.workloads.scenarios import complex_workload

import compare
import ledger
import run
import suite

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"]
    child = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    """Two untraced and two traced smoke runs of every workload."""
    keys = [(name, trace) for name in suite.WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {key: [pool.submit(_smoke, *key) for _ in range(2)] for key in keys}
        return {key: [f.result() for f in pair] for key, pair in futures.items()}


def test_workloads_match_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark(smoke_runs, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name in suite.WORKLOADS:
        for result in smoke_runs[name, trace]:
            assert result["correct"] and result["failed"] == 0
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, name
            assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", k) for k in printed)


def test_every_module_maps_to_one_repro_layer():
    used = set()
    for path in sorted(ledger.SRC.rglob("*.py")):
        layer = ledger.layer_of_module(path.relative_to(ledger.SRC).as_posix())
        assert layer in ledger.LAYERS and layer != "python", path
        used.add(layer)
    assert used == set(ledger.COUNTED_LAYERS)
    with pytest.raises(KeyError):
        ledger.layer_of_module("newpackage/module.py")
    assert ledger.layer_of_file(json.__file__) == "python"
    assert ledger.layer_of_file("~") == "python"


def test_smoke_runs_repeat_exactly(smoke_runs):
    for name in suite.WORKLOADS:
        first, second = smoke_runs[name, 0]
        for metric in suite.simulated_metrics(_outcome(False)):
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
        first, second = smoke_runs[name, 1]
        for layer in ledger.COUNTED_LAYERS:
            key = f"{layer}.calls_per_kernel"
            assert first["metrics"][key] == second["metrics"][key], (name, key)
        for phase in ("run_share", "setup_share"):
            total = sum(first["metrics"][f"{l}.{phase}"]["value"] for l in ledger.LAYERS)
            assert total == pytest.approx(1.0, abs=1e-6)


def test_closed_loop_replays_run_workload(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    workload = suite.WORKLOADS["fig16-fair"]
    _, profile = suite.cold_setup(workload, suite.SMOKE, str(tmp_path))
    expected = run_workload(
        complex_workload(num_batches=suite.SMOKE.num_batches),
        scheduler=workload.scheduler,
        config=workload.config(5, suite.SMOKE),
        profiler_output=profile,
    ).trace_digest()
    for sliced in (False, True):
        timer, outcome = suite.run(workload, 5, suite.SMOKE, profile, sliced=sliced)
        assert outcome.digest == expected, sliced
        assert len(timer.laps) > 3 if sliced else len(timer.laps) == 1


def test_fastest_laps():
    assert suite.fastest_laps([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0


def _outcome(open_loop: bool) -> suite.Outcome:
    return suite.Outcome(
        expected=4, offered=4, completed=3 if open_loop else 4, failed=0,
        rejected=1 if open_loop else 0, slo_met=3, latencies=[0.1, 0.2, 0.3],
        window=1.0, quanta={"c0": [1e-3]}, kernels=10, digest="d",
        clients=0 if open_loop else 2, clients_done=0 if open_loop else 2,
    )


BROKEN = [
    ("fig16-fair", dict(offered=3, completed=3)),
    ("fig16-fair", dict(completed=3)),
    ("fig16-fair", dict(completed=3, failed=1)),
    ("fig16-fair", dict(clients_done=1)),
    ("fig16-fair", dict(active=1)),
    ("fig16-fair", dict(blame_residual=1e-6)),
    ("openloop-gate", dict(rejected=0)),
    ("openloop-gate", dict(pending=1)),
    ("openloop-gate", dict(active=2)),
    ("openloop-gate", dict(max_lag=1e-6)),
]


@pytest.mark.parametrize("name, fields", BROKEN)
def test_output_checks_trip(name, fields):
    workload = suite.WORKLOADS[name]
    good = _outcome(workload.open_loop)
    assert suite.problems(workload, good) == []
    assert suite.problems(workload, replace(good, **fields))


@pytest.mark.parametrize("fields", [
    dict(digest="other"), dict(kernels=11), dict(latencies=[0.1, 0.2, 0.4]),
])
def test_consistency_checks_trip(fields):
    good = _outcome(False)
    assert suite.consistency(good, replace(good), "again") == []
    assert suite.consistency(good, replace(good, **fields), "again")


def test_failed_check_fails_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(suite, "problems", lambda workload, outcome: ["broken"])
    status = run.main(["--workload", "openloop-gate", "--smoke", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1 and result["correct"] is False


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig16-fair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0 and child.stdout == ""


@pytest.mark.parametrize("a, b, label", [
    ([10, 10.1, 9.9], [10, 10.05, 9.95], "same"),
    ([10, 10.1, 9.9], [12, 12.1, 11.9], "worse"),
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "better"),
    ([10, 14, 6], [10, 13, 7], "unresolved"),
    # host drift shared by the runs of each seed cancels in the pairs
    ([10, 15, 10, 15, 10], [10.1, 15.1, 9.9, 15.2, 10], "same"),
])
def test_compare_verdicts(a, b, label):
    spec = {"better": "lower", "bound": 0.1}
    by_seed = lambda values: {seed: [v] for seed, v in enumerate(values)}
    assert compare.verdict(by_seed(a), by_seed(b), spec) == label
