"""Benchmark entry point.

    python3 perfbench/run.py --workload fig16-fair --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 3            # every workload, one process each

With ``--trace 0`` a run alternates cold setups (at least three) with
repetitions of the workload (at least three) until together they took
``--seconds``, and reports the end-to-end metrics: the median setup,
the run time from the repetitions' fastest laps
(:func:`suite.fastest_laps`), and the simulated metrics of the first
repetition (every repetition must replay the same schedule).
``--trace 1`` instead profiles one cold setup and one repetition under
cProfile and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; a violated output check makes
the run exit 1.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import suite  # noqa: E402  (needs src/ on the path)
from ledger import COUNTED_LAYERS, LAYERS, Ledger  # noqa: E402

DEFAULT_SEED = 3
DEFAULT_SECONDS = 45
# Cold setups repeat until at least SETUPS ran and they took SETUP_SECONDS:
# a sub-second setup needs more samples to outvote host hiccups.
SETUPS = 3
SETUP_SECONDS = 2.0
# Repetitions of the run phase: at least this many, and more until the
# setups and repetitions together took ``--seconds``.
REPETITIONS = 3

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
    "throughput_rps": "1/s",
    "jain_quantum": "index",
    "slo_attain": "share",
    "served_share": "share",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.run_share"] = "share"
        units[f"{layer}.setup_share"] = "share"
    for layer in COUNTED_LAYERS:
        units[f"{layer}.calls_per_kernel"] = "calls"
    units.update(
        {
            "gpu.kernels": "count",
            "sim.timeout_allocs_per_kernel": "allocs",
            "sim.event_allocs_per_kernel": "allocs",
            "core.tenures": "count",
            "core.tenure_gpu_p50_ms": "ms",
            "gpu.device.utilization": "share",
            "serving.admission.admit": "count",
            "serving.admission.degrade": "count",
            "serving.admission.defer": "count",
            "serving.admission.reject": "count",
        }
    )
    for name, layer in suite.BLAME_LAYER.items():
        units[f"{layer}.{name}_share"] = "share"
    units["trace.overhead_x"] = "x"
    return units


def measure(workload, seed: int, seconds: float, size, cache_root: str):
    """Untraced run: end-to-end metrics, problems and digests.

    Cold setups and repetitions alternate until both are done, so each
    samples the host over the whole run rather than over one end of it:
    the host's speed drifts over tens of seconds.
    """
    setups: List[float] = []
    walls: List[float] = []
    laps: List[List[float]] = []
    found: List[str] = []
    first = None

    def setups_due() -> bool:
        return len(setups) < SETUPS or sum(setups) < SETUP_SECONDS

    def runs_due() -> bool:
        return len(walls) < REPETITIONS or sum(setups) + sum(walls) < seconds

    while setups_due() or runs_due():
        if setups_due():
            seconds_taken, profile = suite.cold_setup(workload, size, cache_root)
            setups.append(seconds_taken)
        if runs_due():
            timer, outcome = suite.run(
                workload, seed, size, profile, inspect=first is None, sliced=True
            )
            walls.append(timer.seconds)
            laps.append(timer.laps)
            if first is None:
                first = outcome
                found += suite.problems(workload, outcome)
            else:
                found += suite.consistency(first, outcome, f"repetition {len(walls)}")
            if len(timer.laps) != len(laps[0]):
                found.append(f"repetition {len(walls)}: {len(timer.laps)} laps "
                             f"!= {len(laps[0])}")
    digests = {"trace": first.digest}
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": suite.fastest_laps(laps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not found:
        metrics.update(suite.simulated_metrics(first))
    attempted = first.offered * len(walls)
    failed = first.failed * len(walls)
    return metrics, found, digests, attempted, failed


def trace(workload, seed: int, size, cache_root: str):
    """Traced run: per-layer metrics, problems and digests."""
    setup_profiler = cProfile.Profile()
    _, profile = suite.cold_setup(workload, size, cache_root, setup_profiler)
    plain_timer, plain = suite.run(workload, seed, size, profile)
    run_profiler = cProfile.Profile()
    traced_timer, traced = suite.run(workload, seed, size, profile, run_profiler)
    found = suite.problems(workload, plain)
    found += suite.consistency(plain, traced, "traced run")
    _, sliced = suite.run(workload, seed, size, profile, sliced=True)
    found += suite.consistency(plain, sliced, "sliced run")
    _, spanned = suite.run(workload, seed, size, profile, spans=True)
    found += suite.problems(workload, spanned)
    found += suite.consistency(plain, spanned, "span telemetry")
    digests = {"trace": plain.digest, "trace_with_spans": spanned.digest}
    setup = Ledger(setup_profiler)
    ran = Ledger(run_profiler)
    setup_shares = setup.shares()
    run_shares = ran.shares()
    kernels = plain.kernels
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.run_share"] = run_shares[layer]
        metrics[f"{layer}.setup_share"] = setup_shares[layer]
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls_per_kernel"] = ran.calls[layer] / kernels
    metrics.update(plain.counters)
    metrics.update(spanned.blame_shares)
    metrics["trace.overhead_x"] = traced_timer.seconds / plain_timer.seconds
    return metrics, found, digests, plain.offered, plain.failed


def run_one(args) -> int:
    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    size = suite.SMOKE if args.smoke else suite.FULL
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as cache_root:
        if args.trace:
            metrics, found, digests, attempted, failed = trace(
                workload, args.seed, size, cache_root
            )
            units = layer_units()
        else:
            metrics, found, digests, attempted, failed = measure(
                workload, args.seed, args.seconds, size, cache_root
            )
            units = E2E_UNITS
    correct = not found
    for problem in found:
        print(f"CHECK FAILED {workload.name} seed={args.seed}: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    for name, entry in result["metrics"].items():
        print(f"{workload.name:<14} {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, digest in digests.items():
        print(f"{workload.name:<14} digest {name} seed={args.seed} {digest}")
    if args.out:
        _save(args, result, digests)
    print(json.dumps(result))
    return 0 if correct else 1


def _save(args, result, digests) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{int(args.trace)}"
    index = 0
    while (out / f"{stem}.{index}.json").exists():
        index += 1
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=int(args.trace), digests=digests)
    (out / f"{stem}.{index}.json").write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for name in suite.WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        child = subprocess.run(command)
        if child.returncode != 0:
            print(f"{name}: exit {child.returncode}", flush=True)
            status = 1
    return status


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a fixed quantum, for tests")
    parser.add_argument("--out", help="also write each result JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
