"""Extension: predictability under bursty trace replay.

The paper's introduction motivates GPU multiplexing with "intermittent
and bursty" application usage.  This extension replays a two-state
bursty trace (MMPP-2) against both systems and compares latency
predictability where it is hardest: inside bursts, when several
requests pile onto the device at once.
"""

from repro.core import FairSharing, OlympianScheduler
from repro.experiments import ExperimentConfig, get_graph, get_profiler_output
from repro.metrics import percentile, render_table
from repro.serving import ModelServer, ServerConfig
from repro.sim import Simulator
from repro.workloads import bursty_trace, drive
from benchmarks.conftest import run_once

SCALE = 0.05
BATCH = 100


def _run(kind: str):
    config = ExperimentConfig(scale=SCALE, quantum=1.2e-3)
    output = get_profiler_output([("inception_v4", BATCH)], config)
    graph = get_graph("inception_v4", SCALE, 1)
    demand = output.store.lookup("inception_v4", BATCH).gpu_duration
    trace = bursty_trace(
        burst_rate=3.0 / demand,   # 3x overload inside bursts
        idle_rate=0.05 / demand,   # nearly quiet between bursts
        mean_burst=8 * demand,
        mean_idle=12 * demand,
        duration=120 * demand,
        model="inception_v4",
        batch_size=BATCH,
        seed=4,
    )
    sim = Simulator()
    scheduler = None
    if kind == "fair":
        scheduler = OlympianScheduler(
            sim, FairSharing(), quantum=output.quantum, profiles=output.store
        )
    server = ModelServer(
        sim, ServerConfig(track_memory=False, seed=4), scheduler=scheduler
    )
    server.load_model(graph)
    outcome = drive(sim, server, trace)
    sim.run()
    return outcome


def _measure():
    return {kind: _run(kind) for kind in ("tf-serving", "fair")}


def test_ext_bursty_trace(benchmark, record_report):
    outcomes = run_once(benchmark, _measure)
    rows = []
    ratios = {}
    for kind, outcome in outcomes.items():
        p50 = percentile(outcome.latencies, 50)
        p99 = percentile(outcome.latencies, 99)
        ratios[kind] = p99 / p50
        rows.append(
            [kind, outcome.completed, f"{p50 * 1e3:.1f} ms",
             f"{p99 * 1e3:.1f} ms", f"{ratios[kind]:.2f}x"]
        )
    record_report(
        "ext_bursty_trace",
        render_table(
            ["system", "requests", "p50", "p99", "p99/p50"],
            rows,
            title=(
                "Extension: bursty (MMPP-2) trace replay — latency "
                "predictability inside bursts"
            ),
        ),
    )
    # Both systems served the same trace completely.
    assert outcomes["fair"].completed == outcomes["tf-serving"].completed
    # Olympian's tail is tighter under burst pile-ups too.
    assert ratios["fair"] < ratios["tf-serving"]
