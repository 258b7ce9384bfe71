"""Compare two sets of benchmark results.

    python3 perfbench/compare.py A/ B/

``A`` (the parent) and ``B`` (the change) are directories of result
JSONs written by ``run.py --out``.  For every (workload, metric) it
prints each side's median and quartiles and, for the end-to-end metrics,
a verdict against the metric's bound in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound, or
                every run of B is worse than every run of A.
``unresolved``  the spread is wider than the bound and the two sides'
                ranges overlap.  The spread is the quartile distance of
                B/A - 1 over runs paired by seed when there are at least
                four pairs, else the wider side's quartile distance over
                its median.
``better``      B's median is better by more than A's quartile distance,
                and B wins at least nine in ten runs paired by seed.
``same``        otherwise.

Per-layer metrics have no bound and are listed for diagnosis.  Runs of
one workload and seed that report different trace digests are listed
too.  Exits 1 if any end-to-end pair is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 4

Runs = Dict[Tuple[str, str], Dict[int, List[float]]]  # (workload, metric) -> seed -> values


def load(directory: Path) -> Tuple[Runs, Dict[Tuple[str, int], set]]:
    runs: Runs = defaultdict(lambda: defaultdict(list))
    digests: Dict[Tuple[str, int], set] = defaultdict(set)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        workload, seed = record["workload"], record["seed"]
        for name, entry in record["metrics"].items():
            runs[workload, name][seed].append(entry["value"])
        digest = record["digests"].get("trace")
        if digest:
            digests[workload, seed].add(digest)
    return runs, digests


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: Dict[int, List[float]], b: Dict[int, List[float]], spec) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    bound = spec["bound"]
    a_all = [v for values in a.values() for v in values]
    b_all = [v for values in b.values() for v in values]
    a_q1, a_med, a_q3 = quartiles(a_all)
    b_q1, b_med, b_q3 = quartiles(b_all)
    scale = abs(a_med) or 1.0
    change = sign * (b_med - a_med) / scale  # > 0 is worse
    pairs = [
        (x, y)
        for seed in sorted(set(a) & set(b))
        for x, y in zip(a[seed], b[seed])
    ]
    if len(pairs) >= MIN_PAIRS:
        # Runs paired by seed ran side by side, so host drift that moves
        # both sides cancels in their ratio.
        p_q1, _, p_q3 = quartiles([(y - x) / abs(x) for x, y in pairs if x])
        spread = p_q3 - p_q1
    else:
        spread = max((a_q3 - a_q1) / scale, (b_q3 - b_q1) / (abs(b_med) or 1.0))
    all_worse = min(sign * v for v in b_all) > max(sign * v for v in a_all)
    all_better = max(sign * v for v in b_all) < min(sign * v for v in a_all)
    if change > bound or all_worse:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = -change * scale > a_q3 - a_q1 and change < 0
    if gain and (not pairs or wins >= 0.9 * len(pairs)):
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    (a_runs, a_digests), (b_runs, b_digests) = (load(Path(d)) for d in argv)
    worse = 0
    print(f"{'workload':<14} {'metric':<36} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    keys = sorted(set(a_runs) & set(b_runs), key=lambda k: (k[1] not in specs, k))
    for workload, name in keys:
        a, b = a_runs[workload, name], b_runs[workload, name]
        cells = []
        for side in (a, b):
            q1, med, q3 = quartiles([v for values in side.values() for v in values])
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        label = verdict(a, b, specs[name]) if name in specs else "-"
        worse += label == "worse"
        print(f"{workload:<14} {name:<36} {cells[0]:>34} {cells[1]:>34}  {label}")
    for key in sorted(set(a_digests) | set(b_digests)):
        seen = a_digests.get(key, set()) | b_digests.get(key, set())
        if len(seen) > 1:
            print(f"digests differ: {key[0]} seed {key[1]}: {sorted(seen)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
