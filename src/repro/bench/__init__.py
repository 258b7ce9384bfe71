"""Perf-regression harness: ``python -m repro bench``.

The simulator is the research instrument: every figure's cost is event
loop + tracer + profile-then-replay wall-clock.  This package measures
that cost and gates it, so a speedup landed once cannot silently rot:

* **Microbenchmarks** — event-loop throughput (the dominant
  Timeout-resume-process cycle) across three deadline distributions
  (uniform singleton-bucket, bursty same-tick, bimodal near/far),
  batched gang wake-ups (``timeout_chain`` + ``succeed_many``), tracer
  record throughput, and Store/Resource churn.
* **End-to-end** — the Fig 16 complex-workload replication, with the
  cold profile build (empty caches, as after any source edit) timed
  separately from the scheduled runs as `profile_build_s`.
* **Determinism table** — `trace_digest` for every scheduler kind plus
  the Fig 16 runs, an open loop behind an admission gate and a
  two-GPU cluster; an optimisation that changes any digest is a bug,
  however fast.
* **Garbage collector** — CPython's cyclic-GC collections per
  generation during the Fig 16 digest runs, and the seconds spent in
  them (:class:`GcMeter`).  Report only: the counts depend on the
  CPython version.
* **Memory floor** — the peak RSS of a fresh interpreter that only
  imports the experiment runner, and whether scipy got loaded there
  (:func:`import_floor`).  Report only: RSS follows the host and the
  Python build.
* **Telemetry A/B** — the fair Fig 16 run with telemetry off vs
  ``verbosity="full"``: the extra seconds per emitted telemetry event
  are gated (``telemetry_event_cost_us``; the on/off ratio is reported
  only, since it rises whenever the off path gets faster) and the
  telemetry-on digest is pinned to the telemetry-off value, so
  observation can neither slow the simulator past budget nor perturb a
  single scheduling decision.
* **Kernel work counters** — generator resumes, calendar buckets and
  stored trace bytes per executed kernel on the ``fig16-fair@nb2``
  digest run, the same workload under ``spatial`` on 4 streams, and
  one Overhead-Q pair run (:func:`bench_counters`).
  Deterministic, so the baseline's ``counters`` section holds exact
  ceilings; Python calls per layer ride along, reported only (they
  follow the interpreter).

``bench`` writes ``BENCH_current.json``; ``bench --check`` compares it
against the committed ``BENCH_BASELINE.json`` (pre-optimisation
numbers plus per-metric thresholds) and exits nonzero on regression.
Digest comparisons are exact and machine-independent; wall-clock
comparisons carry generous floor ratios because absolute throughput
varies across hosts — refresh the baseline with ``--update-baseline``
when re-basing on a new machine.

This module intentionally reads the host clock (it measures wall
time); the ``DET001`` suppressions below are the documented exception,
not a loophole — no simulated quantity ever depends on these reads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry.logs import ConsoleSink, configure_logging, get_logger

_log = get_logger("bench")

__all__ = [
    "BASELINE_FILENAME",
    "OUTPUT_FILENAME",
    "run_benchmarks",
    "blame_profile",
    "check_against_baseline",
    "count_kernel_work",
    "bench_counters",
    "GcMeter",
    "import_floor",
    "main",
]

BASELINE_FILENAME = "BENCH_BASELINE.json"
OUTPUT_FILENAME = "BENCH_current.json"

# Scheduler-kind digest table settings (kept cheap: 2 batches/client,
# fixed quantum so no Overhead-Q sweep is needed).
_DIGEST_SEED = 3
_DIGEST_QUANTUM = 1.2e-3
_DIGEST_BATCHES = 2
# The spatial kinds are additionally pinned on a multi-stream device
# (the serial-path pins above already cover them at streams=1).
_DIGEST_STREAMS = 4
# The open-loop admission entry offers this many arrivals; the
# multi-GPU entry spreads the quick Fig 16 workload over this many
# devices.
_OPENLOOP_ARRIVALS = 60
_DIGEST_GPUS = 2


def _now() -> float:
    return time.perf_counter()  # lint: disable=DET001


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = _now()
    value = fn()
    return _now() - start, value


class GcMeter:
    """Counts CPython's cyclic-GC collections, and their seconds, while open.

    A ``with`` block registers a ``gc.callbacks`` hook that counts each
    collection under its generation and times it from its ``start`` to
    its ``stop`` callback.  The counts depend on the CPython version
    (thresholds and heuristics change between releases), so the bench
    report carries them without a gate.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def _on_collection(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = _now()
            return
        self.collections[info["generation"]] += 1
        self.seconds += _now() - self._started

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._on_collection)

    def report(self) -> Dict[str, Any]:
        gen0, gen1, gen2 = self.collections
        return {
            "gen0": gen0,
            "gen1": gen1,
            "gen2": gen2,
            "seconds": self.seconds,
            "python": ".".join(map(str, sys.version_info[:3])),
        }


# What a fresh interpreter pays to import the experiment runner.  On
# Linux a child's ru_maxrss keeps the peak of the process that spawned
# it (the exec inherits it), so the peak comes from /proc's VmHWM there.
_IMPORT_FLOOR_SCRIPT = """
import json, resource, sys
import repro.experiments.runner
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB, except on macOS (bytes).
    kib = rss / 1024 if sys.platform == "darwin" else rss
print(json.dumps({
    "import_rss_mb": kib / 1024,
    "scipy_loaded": "scipy" in sys.modules,
    "numpy_loaded": "numpy" in sys.modules,
}))
"""


def import_floor() -> Dict[str, Any]:
    """Peak RSS, in MB, of a fresh ``import repro.experiments.runner``,
    and whether that import loaded scipy or numpy.

    Every experiment, ``bench`` and ``serve`` process pays at least
    this before its first simulated event.  A fresh interpreter, since
    this one has long since imported everything.
    """
    src = str(Path(__file__).resolve().parents[2])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, path])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_FLOOR_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------


def bench_event_loop(num_procs: int = 10, events_per_proc: int = 6000) -> float:
    """Events/second through the Timeout-resume-process fast path."""
    from ..sim.core import Simulator

    sim = Simulator()

    def ping(n):
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1e-6)

    for i in range(num_procs):
        sim.process(ping(events_per_proc), name=f"bench-{i}")
    elapsed, _ = _timed(sim.run)
    return num_procs * events_per_proc / elapsed


def bench_event_loop_uniform(
    num_procs: int = 10, events_per_proc: int = 6000
) -> float:
    """Events/s with near-unique deadlines (singleton-bucket worst case).

    Each process advances by a slightly different delay, so deadlines
    almost never coincide: every event pays a full calendar insert and
    bucket pop instead of riding a shared same-tick bucket.  This is
    the distribution the calendar queue is *weakest* on; gating it
    keeps the batch-advancement fast path honest.
    """
    from ..sim.core import Simulator

    sim = Simulator()

    def ping(n, delay):
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(delay)

    for i in range(num_procs):
        sim.process(ping(events_per_proc, 1e-6 + i * 7e-9), name=f"bench-{i}")
    elapsed, _ = _timed(sim.run)
    return num_procs * events_per_proc / elapsed


def bench_event_loop_bursty(bursts: int = 1500, burst_size: int = 40) -> float:
    """Events/s when whole gangs share one tick (batch-advance best case).

    ``burst_size`` processes advance in lock-step, so every tick is one
    calendar bucket of ``burst_size`` events: one heap operation per
    burst, vectorised dispatch of the whole gang.
    """
    from ..sim.core import Simulator

    sim = Simulator()

    def ping(n):
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1e-6)

    for i in range(burst_size):
        sim.process(ping(bursts), name=f"bench-{i}")
    elapsed, _ = _timed(sim.run)
    return bursts * burst_size / elapsed


def bench_event_loop_bimodal(
    num_procs: int = 10, events_per_proc: int = 5000
) -> float:
    """Events/s with a steadily *receding* block of far-future deadlines.

    Every iteration schedules one fire-and-forget far timeout alongside
    the near tick, accumulating thousands of pending far deadlines.
    The far frontier recedes quadratically, so soon after the horizon
    activates (window = 4x the pending-deadline midpoint) new far
    deadlines land beyond it: the workload genuinely drives the
    far-list insert *and* flush paths, not just a bloated near heap
    (``tests/sim/test_differential.py`` pins this with kernel stats).
    Without the adaptive far-list every near insert would pay
    O(log far_block) heap traffic; with it the far inserts append to an
    unsorted overflow list and the near heap stays small.
    """
    from ..sim.core import Simulator

    sim = Simulator()

    def mixed(n, jitter):
        timeout = sim.timeout
        for i in range(n):
            timeout(50.0 + i * i * 1e-3 + jitter)
            yield timeout(1e-6)

    for i in range(num_procs):
        sim.process(mixed(events_per_proc, i * 1e-6), name=f"bench-{i}")
    elapsed, _ = _timed(sim.run)
    # The far block drains as no-op dispatches after the near phase;
    # both halves count.
    return 2 * num_procs * events_per_proc / elapsed


def bench_batch_advance(rounds: int = 1500, gang: int = 32) -> float:
    """Gang wake-ups/s through ``timeout_chain`` + ``succeed_many``.

    A conductor walks a precomputed (vectorised-cumsum) timeout chain
    and wakes a condition-variable gang each tick; the whole gang lands
    in one calendar bucket per round.  This is the simulated analogue
    of Olympian resuming a DNN job's CPU thread gang on a condvar.
    """
    from ..sim.core import Simulator
    from ..sim.resources import ConditionVariable

    sim = Simulator()
    cv = ConditionVariable(sim)

    def member():
        # No predicate re-check on purpose: the conductor wakes the
        # gang exactly once per round, and the benchmark counts rounds.
        for _ in range(rounds):
            yield cv.wait()  # lint: disable=CON001

    def conductor():
        for tick in sim.timeout_chain([1e-6] * rounds):
            yield tick
            cv.notify_all()

    for i in range(gang):
        sim.process(member(), name=f"bench-member-{i}")
    sim.process(conductor(), name="bench-conductor")
    elapsed, _ = _timed(sim.run)
    return rounds * gang / elapsed


def bench_tracer(records: int = 200000) -> float:
    """Interval records/second (two of these per executed GPU kernel)."""
    from ..sim.trace import IntervalTracer

    tracer = IntervalTracer()

    def fill():
        record = tracer.record
        for i in range(records):
            start = i * 1e-6
            record("job", start, start + 5e-7, i & 7)
        # Analyses read back through the lazy views; include one merge.
        return tracer.duration("job")

    elapsed, _ = _timed(fill)
    return records / elapsed


def bench_resources(ops: int = 30000) -> float:
    """Store put/get + Resource request/release cycles per second."""
    from ..sim.core import Simulator
    from ..sim.resources import Resource, Store

    sim = Simulator()
    resource = Resource(sim, capacity=2)
    store = Store(sim)

    def producer():
        timeout = sim.timeout
        for i in range(ops):
            store.put(i)
            yield timeout(1e-6)

    def consumer():
        for _ in range(ops):
            yield store.get()
            request = resource.request()
            yield request
            resource.release(request)

    sim.process(producer(), name="bench-producer")
    sim.process(consumer(), name="bench-consumer")
    elapsed, _ = _timed(sim.run)
    return ops / elapsed


# ----------------------------------------------------------------------
# End-to-end + determinism table
# ----------------------------------------------------------------------


def _cold_profile_build(entries, config) -> Tuple[float, Any]:
    """Time one profile build from nothing: in-process caches cleared
    and an empty on-disk cache, which is what every user pays after a
    source edit (the cache key covers the simulator's source).  The
    caller's ``REPRO_CACHE_DIR`` is restored afterwards."""
    from ..experiments.runner import clear_caches, get_profiler_output

    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        os.environ["REPRO_CACHE_DIR"] = root
        try:
            clear_caches()
            return _timed(lambda: get_profiler_output(entries, config))
        finally:
            if previous is None:
                del os.environ["REPRO_CACHE_DIR"]
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def bench_fig16(
    num_batches: int, repeat: int = 2, cold: bool = True
) -> Tuple[float, float, Dict[str, str], Dict[str, Any]]:
    """(profile_build_s, e2e_best_s, digests, gc) for the Fig 16 workload.

    The profile build is timed separately and, unless ``cold`` is off,
    from nothing (:func:`_cold_profile_build`): the solo runs plus the
    forked Overhead-Q sweep, never a cache hit.  The scheduled fair and
    tf-serving runs are timed together, best of ``repeat``.  ``gc`` is
    the :class:`GcMeter` report of the first repetition's two runs.
    """
    from ..experiments.runner import (
        ExperimentConfig,
        get_profiler_output,
        run_workload,
    )
    from ..workloads.scenarios import complex_workload

    specs = complex_workload(num_batches=num_batches)
    config = ExperimentConfig(seed=3, tolerance=0.02)
    entries = sorted({(s.model, s.batch_size) for s in specs})
    if cold:
        profile_s, output = _cold_profile_build(entries, config)
    else:
        profile_s, output = _timed(lambda: get_profiler_output(entries, config))

    best = None
    digests: Dict[str, str] = {}
    gc_report: Dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        with GcMeter() as meter:
            start = _now()
            fair = run_workload(
                specs, scheduler="fair", config=config, profiler_output=output
            )
            tfs = run_workload(
                specs,
                scheduler="tf-serving",
                config=config,
                profiler_output=output,
            )
            elapsed = _now() - start
        if not gc_report:
            gc_report = meter.report()
        best = elapsed if best is None else min(best, elapsed)
        # Digest keys carry the batch count: quick (2 batches) and full
        # (6 batches) runs are different workloads with different — but
        # individually deterministic — digests.
        digests[f"fig16-fair@nb{num_batches}"] = fair.trace_digest()
        digests[f"fig16-tf-serving@nb{num_batches}"] = tfs.trace_digest()
    return profile_s, best, digests, gc_report


def bench_telemetry(
    num_batches: int, repeat: int = 2
) -> Tuple[float, float, int, Dict[str, str]]:
    """(off_best_s, on_best_s, events, digests): full telemetry A/B on
    Fig 16.

    Runs the fair-scheduler Fig 16 workload with telemetry off and at
    ``verbosity="full"`` (bus + metrics + spans + debug log per event),
    best of ``repeat`` each.  The telemetry-on digest is recorded under
    its own key; the committed baseline pins it to the telemetry-off
    value, so ``bench --check`` fails if observation ever perturbs the
    run.  ``events`` is the number of telemetry events the full run
    emits: the extra seconds per event are the overhead budget gated by
    ``telemetry_event_cost_us``.
    """
    from ..experiments.runner import (
        ExperimentConfig,
        get_profiler_output,
        run_workload,
    )
    from ..telemetry import TelemetryConfig
    from ..workloads.scenarios import complex_workload

    specs = complex_workload(num_batches=num_batches)
    config = ExperimentConfig(seed=3, tolerance=0.02)
    entries = sorted({(s.model, s.batch_size) for s in specs})
    output = get_profiler_output(entries, config)
    telemetry_config = TelemetryConfig(verbosity="full")

    off_best = on_best = None
    events = 0
    digests: Dict[str, str] = {}
    for _ in range(max(1, repeat)):
        off_s, off = _timed(lambda: run_workload(
            specs, scheduler="fair", config=config, profiler_output=output
        ))
        on_s, on = _timed(lambda: run_workload(
            specs, scheduler="fair", config=config, profiler_output=output,
            telemetry=telemetry_config,
        ))
        off_best = off_s if off_best is None else min(off_best, off_s)
        on_best = on_s if on_best is None else min(on_best, on_s)
        digests[f"fig16-fair-telemetry@nb{num_batches}"] = on.trace_digest()
        events = on.telemetry_rollup["events_published"]
    return off_best, on_best, events, digests


# The pair run the cost counters take: the first fig16 entry at one
# quantum of the profiler's grid.
_COUNTER_QUANTUM = 2.0e-3

_RESUME_CODES = (
    "<method 'send' of 'generator' objects>",
    "<method 'throw' of 'generator' objects>",
)


def _layer(code: Any) -> str:
    """The ``repro`` subpackage a profiled code object lives in."""
    parts = Path(code.co_filename).parts
    if "repro" not in parts:
        return "python"
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    return rest[0] if len(rest) > 1 else "repro"


def count_kernel_work(run: Callable[[], Tuple[Any, ...]]) -> Dict[str, Any]:
    """Per-kernel cost counters of one simulation, under cProfile.

    ``run()`` executes the simulation and returns ``(sim, kernels)``,
    or ``(sim, kernels, tracer)``.  ``resumes_per_kernel`` counts
    ``generator.send``/``throw`` calls (every process resume),
    ``buckets_per_kernel`` the calendar buckets the run opened
    (``Simulator.stats()``) and, given a tracer,
    ``trace_bytes_per_kernel`` the bytes of its stored columns
    (:meth:`~repro.sim.trace.IntervalTracer.stored_bytes`): all depend
    only on the program, so the baseline gates them exactly.  The
    Python function calls per layer follow the interpreter version and
    are reported only.
    """
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim, kernels, *tracer = run()
    finally:
        profiler.disable()
    resumes = 0
    calls: Dict[str, int] = {}
    for entry in profiler.getstats():
        if isinstance(entry.code, str):
            if entry.code in _RESUME_CODES:
                resumes += entry.callcount
            continue
        layer = _layer(entry.code)
        calls[layer] = calls.get(layer, 0) + entry.callcount
    buckets = sim.stats()["buckets"]
    counted: Dict[str, Any] = {
        "kernels": kernels,
        "resumes_per_kernel": resumes / kernels,
        "buckets_per_kernel": buckets / kernels,
    }
    if tracer:
        counted["trace_bytes_per_kernel"] = tracer[0].stored_bytes() / kernels
    counted["python_calls_per_kernel"] = {
        layer: count / kernels for layer, count in sorted(calls.items())
    }
    return counted


def bench_counters() -> Dict[str, Dict[str, Any]]:
    """:func:`count_kernel_work` on three runs, keyed by run.

    The ``fig16-fair@nb2`` digest run (scheduled serving on the fig16
    profile); the same workload under ``spatial`` on a
    ``_DIGEST_STREAMS``-stream device, whose device total interleaves
    the jobs kernel by kernel where ``fair``'s holds one job for a
    quantum; and one in-process Overhead-Q pair run of the profiler:
    the cold build runs these on forked workers, where a parent-side
    profile cannot see them.
    """
    from ..core.accounting import ProfileStore
    from ..experiments.runner import (
        ExperimentConfig,
        get_graph,
        get_profiler_output,
        offline_profiler,
        run_workload,
    )
    from ..gpu import GPU_GLOBAL_KEY
    from ..workloads.scenarios import complex_workload

    specs = complex_workload(num_batches=2)
    config = ExperimentConfig(seed=3, tolerance=0.02)
    output = get_profiler_output(
        sorted({(s.model, s.batch_size) for s in specs}), config
    )

    def scheduled(scheduler="fair", config=config):
        result = run_workload(
            specs, scheduler=scheduler, config=config, profiler_output=output
        )
        tracer = result.server.tracer
        return result.sim, tracer.count(GPU_GLOBAL_KEY), tracer

    spatial_config = replace(config, streams=_DIGEST_STREAMS)

    model, batch = min((s.model, s.batch_size) for s in specs)
    store = ProfileStore()
    store.add(output.store.lookup(model, batch))
    graph = get_graph(model, config.scale, config.graph_seed)

    def pair():
        sim, server, _ = offline_profiler(config)._pair_stack(
            graph, batch, _COUNTER_QUANTUM, store, 0
        )
        sim.run()
        return sim, server.tracer.count(GPU_GLOBAL_KEY), server.tracer

    return {
        "fig16-fair@nb2": count_kernel_work(scheduled),
        f"fig16-spatial@s{_DIGEST_STREAMS}": count_kernel_work(
            lambda: scheduled("spatial", spatial_config)
        ),
        f"pair:{model}/{batch}@{_COUNTER_QUANTUM * 1e3:g}ms": (
            count_kernel_work(pair)
        ),
    }


def digest_table() -> Dict[str, str]:
    """`trace_digest` per scheduler kind on a small complex workload,
    plus an open loop behind an admission gate and a two-GPU cluster."""
    from ..experiments.runner import (
        SCHEDULER_KINDS,
        SPATIAL_SCHEDULER_KINDS,
        ExperimentConfig,
        run_workload,
    )
    from ..workloads.scenarios import complex_workload

    config = ExperimentConfig(quantum=_DIGEST_QUANTUM, seed=_DIGEST_SEED)
    specs = complex_workload(num_batches=_DIGEST_BATCHES)
    table = {
        kind: run_workload(specs, scheduler=kind, config=config).trace_digest()
        for kind in SCHEDULER_KINDS
    }
    spatial_config = ExperimentConfig(
        quantum=_DIGEST_QUANTUM, seed=_DIGEST_SEED, streams=_DIGEST_STREAMS
    )
    for kind in SPATIAL_SCHEDULER_KINDS:
        result = run_workload(specs, scheduler=kind, config=spatial_config)
        table[f"{kind}@s{_DIGEST_STREAMS}"] = result.trace_digest()
    table[f"openloop-gate@n{_OPENLOOP_ARRIVALS}"] = _openloop_digest(config)
    table[f"fig16-fair@gpus{_DIGEST_GPUS}"] = _multigpu_digest(specs, config)
    return table


def _openloop_digest(config: Any) -> str:
    """Digest of an open loop overloading an admission gate.

    A bursty :class:`~repro.workloads.traffic.TrafficEngine` stream
    (the perfbench ``openloop-gate`` mix, first ``_OPENLOOP_ARRIVALS``
    arrivals) behind ``AdmissionGate(max_active=8)`` under ``fair`` at
    the digest table's fixed quantum.  Rejected requests never reach
    the server's trace, so the gate's decision report is hashed too.
    """
    from ..experiments.runner import build_stack
    from ..faults.determinism import trace_digest
    from ..serving.admission import AdmissionConfig, AdmissionGate
    from ..workloads.traffic import ModelMix, TrafficConfig, TrafficEngine, drive

    engine = TrafficEngine(
        TrafficConfig(
            mix=(
                ModelMix("alexnet", 16, weight=4.0, slo=0.25, priority=1),
                ModelMix("googlenet", 16, weight=2.0, slo=0.5),
                ModelMix("resnet_50", 8, weight=1.0, slo=1.0),
            ),
            tenants=200,
            rate=70.0,
            duration=None,
            process="bursty",
        ),
        seed=_DIGEST_SEED,
    )
    stack = build_stack(engine.entries(), "fair", config=config)
    gate = AdmissionGate(AdmissionConfig(max_active=8)).attach(stack.server)
    drive(stack.sim, stack.server, engine, gate=gate, limit=_OPENLOOP_ARRIVALS)
    stack.sim.run()
    trace = trace_digest(stack.server, scheduler=stack.scheduler)
    decisions = json.dumps(gate.report(), sort_keys=True)
    return hashlib.sha256((trace + decisions).encode()).hexdigest()


def _multigpu_digest(specs: Any, config: Any) -> str:
    """Digest of the quick Fig 16 workload on a ``MultiGpuServer``.

    ``fair`` on each of ``_DIGEST_GPUS`` workers behind least-loaded
    placement; the workers' digests (each with its own scheduler, and
    the shared clients) are hashed in worker order.
    """
    from ..experiments.runner import build_stack
    from ..faults.determinism import trace_digest
    from ..serving.client import Client

    entries = sorted({(spec.model, spec.batch_size) for spec in specs})
    stack = build_stack(entries, "fair", config=config, gpus=_DIGEST_GPUS)
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
    workers = "\n".join(
        trace_digest(
            worker.server, scheduler=worker.server.scheduler, clients=clients
        )
        for worker in stack.server.workers
    )
    return hashlib.sha256(workers.encode()).hexdigest()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _metric(value: float, unit: str, higher_is_better: bool) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "higher_is_better": higher_is_better}


def _best_of(times: int, fn, *args, **kwargs) -> float:
    """Best (max) throughput over ``times`` runs.

    Microbenchmark runs last milliseconds; a host-contention window
    (noisy neighbour, cron, GC) during any single run understates
    throughput by 2x and trips the regression gate falsely.  The max
    over a few runs is the classic min-time estimator: external
    contention only ever *slows* a run, so the best observation is the
    least contaminated one.
    """
    return max(fn(*args, **kwargs) for _ in range(times))


def run_benchmarks(quick: bool = False, verbose: bool = True) -> Dict[str, Any]:
    """Run every benchmark; returns the report dict (also serialisable)."""

    def say(text: str) -> None:
        if verbose:
            _log.info(text)

    # Steady-state warmup.  The first seconds of a fresh process run
    # measurably slower (CPU frequency ramp, allocator and branch
    # predictor warmup) — cold samples of the gated event_loop_eps
    # come in 10-15% under steady state, which is larger than the
    # gate's headroom.  Burn the event-loop workload untimed until the
    # ramp is over so best-of-N samples the plateau, per the min-time
    # estimator's assumptions.
    warm_until = _now() + 1.5
    while _now() < warm_until:
        bench_event_loop(num_procs=10, events_per_proc=2000)

    if quick:
        # The gated headline metric gets five samples; the others three.
        loop_eps = _best_of(
            5, bench_event_loop, num_procs=10, events_per_proc=2000
        )
        uniform_eps = _best_of(
            3, bench_event_loop_uniform, num_procs=10, events_per_proc=2000
        )
        bursty_eps = _best_of(
            3, bench_event_loop_bursty, bursts=500, burst_size=40
        )
        bimodal_eps = _best_of(
            3, bench_event_loop_bimodal, num_procs=10, events_per_proc=1500
        )
        batch_eps = _best_of(3, bench_batch_advance, rounds=500, gang=32)
        tracer_rps = _best_of(3, bench_tracer, records=50000)
        resources_ops = _best_of(3, bench_resources, ops=10000)
        profile_s, e2e_s, fig_digests, fig_gc = bench_fig16(
            num_batches=2, repeat=2
        )
        off_s, on_s, events, telemetry_digests = bench_telemetry(
            num_batches=2, repeat=2
        )
    else:
        loop_eps = _best_of(5, bench_event_loop)
        uniform_eps = _best_of(3, bench_event_loop_uniform)
        bursty_eps = _best_of(3, bench_event_loop_bursty)
        bimodal_eps = _best_of(3, bench_event_loop_bimodal)
        batch_eps = _best_of(3, bench_batch_advance)
        tracer_rps = _best_of(3, bench_tracer)
        resources_ops = _best_of(3, bench_resources)
        profile_s, e2e_s, fig_digests, fig_gc = bench_fig16(
            num_batches=6, repeat=3
        )
        off_s, on_s, events, telemetry_digests = bench_telemetry(
            num_batches=6, repeat=2
        )
    telemetry_ratio = on_s / off_s
    event_cost_us = (on_s - off_s) / events * 1e6
    say(f"event loop         {loop_eps:>12,.0f} events/s")
    say(f"event loop uniform {uniform_eps:>12,.0f} events/s")
    say(f"event loop bursty  {bursty_eps:>12,.0f} events/s")
    say(f"event loop bimodal {bimodal_eps:>12,.0f} events/s")
    say(f"batch advance      {batch_eps:>12,.0f} wakes/s")
    say(f"tracer             {tracer_rps:>12,.0f} records/s")
    say(f"resources          {resources_ops:>12,.0f} ops/s")
    say(f"fig16 profile      {profile_s:>12.3f} s (cold build)")
    say(f"fig16 e2e          {e2e_s:>12.3f} s")
    say(
        f"fig16 gc           {fig_gc['gen0']}/{fig_gc['gen1']}/"
        f"{fig_gc['gen2']} collections, {fig_gc['seconds']:.3f} s "
        f"(report only)"
    )
    say(
        f"telemetry cost     {event_cost_us:>12.3f} us/event "
        f"({off_s:.3f} s off -> {on_s:.3f} s full, {events:,} events; "
        f"{telemetry_ratio:.2f} x, report only)"
    )
    counters = bench_counters()
    for run, counted in counters.items():
        say(
            f"kernel work        {counted['resumes_per_kernel']:.4f} resumes, "
            f"{counted['buckets_per_kernel']:.4f} buckets, "
            f"{counted['trace_bytes_per_kernel']:.1f} trace bytes, "
            f"{sum(counted['python_calls_per_kernel'].values()):.2f} "
            f"Python calls per kernel ({run})"
        )
    memory = import_floor()
    say(
        f"memory floor       {memory['import_rss_mb']:>12.1f} MB import, "
        f"scipy {'loaded' if memory['scipy_loaded'] else 'not loaded'}, "
        f"numpy {'loaded' if memory['numpy_loaded'] else 'not loaded'} "
        f"(report only)"
    )
    digests = digest_table()
    digests.update(fig_digests)
    digests.update(telemetry_digests)
    say(f"digest table       {len(digests)} entries")

    return {
        "schema": 1,
        "mode": "quick" if quick else "full",
        "metrics": {
            "event_loop_eps": _metric(loop_eps, "events/s", True),
            "event_loop_uniform_eps": _metric(uniform_eps, "events/s", True),
            "event_loop_bursty_eps": _metric(bursty_eps, "events/s", True),
            "event_loop_bimodal_eps": _metric(bimodal_eps, "events/s", True),
            "batch_advance_eps": _metric(batch_eps, "wakes/s", True),
            "tracer_rps": _metric(tracer_rps, "records/s", True),
            "resources_ops": _metric(resources_ops, "ops/s", True),
            "profile_build_s": _metric(profile_s, "s", False),
            "fig16_e2e_s": _metric(e2e_s, "s", False),
            "telemetry_event_cost_us": _metric(
                event_cost_us, "us/event", False
            ),
            # Report only: it rises when the telemetry-off run gets
            # faster, whatever telemetry itself costs.
            "telemetry_overhead_ratio": _metric(telemetry_ratio, "x", False),
        },
        "digests": digests,
        "counters": counters,
        # Report only: collection counts follow the CPython version,
        # RSS the host and the Python build.
        "gc": fig_gc,
        "memory": memory,
    }


def profile_fig16(out: str, num_batches: int = 2) -> str:
    """Run the Fig 16 end-to-end under cProfile and dump the stats.

    Writes the raw profile to ``out`` (readable with ``python -m
    pstats`` or any profile viewer) and logs the top cumulative-time
    entries, so the CI perf-smoke artifact carries a hotspot breakdown
    alongside the throughput numbers — a regression arrives with its
    own diagnosis attached.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    # Warm: the hotspots of interest are the scheduled runs'.
    bench_fig16(num_batches=num_batches, repeat=1, cold=False)
    profiler.disable()
    profiler.dump_stats(out)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(15)
    _log.info(f"fig16 hotspots (top 15 by cumulative time) -> {out}")
    for line in buf.getvalue().splitlines():
        if line.strip():
            _log.info(line)
    return out


def blame_profile(num_batches: int = _DIGEST_BATCHES) -> Dict[str, Any]:
    """The latency-blame profile of the quick Fig 16 fair run.

    Deterministic (simulated seconds, not wall clock), so the committed
    copy in ``BENCH_BASELINE.json`` stays valid across hosts; any drift
    means scheduling behaviour changed, and the per-component diff
    names *where*.
    """
    from ..analysis import blame_report
    from ..experiments.runner import ExperimentConfig, run_workload
    from ..telemetry import TelemetryConfig, attribute_tracer
    from ..workloads.scenarios import complex_workload

    result = run_workload(
        complex_workload(num_batches=num_batches),
        scheduler="fair",
        config=ExperimentConfig(quantum=_DIGEST_QUANTUM, seed=_DIGEST_SEED),
        telemetry=TelemetryConfig(verbosity="spans"),
    )
    return blame_report(
        attribute_tracer(result.telemetry.tracer),
        "fair",
        include_requests=False,
    )


def _log_blame_context(baseline: Dict[str, Any]) -> None:
    """Attach a latency-blame breakdown to a failed perf gate.

    The regression report says *that* the run changed; the blame
    profile says *where the simulated latency goes*, and the diff
    against the committed baseline profile names the component that
    moved.  Failures here must never mask the gate result.
    """
    try:
        report = blame_profile()
    except Exception as exc:
        _log.error(f"(blame context unavailable: {exc})")
        return
    base_components = baseline.get("blame", {}).get("components", {})
    _log.error(
        "latency blame on the fig16/fair digest run (dominant first):"
    )
    ranked = sorted(
        report["components"].items(), key=lambda kv: -kv[1]["total"]
    )
    for name, entry in ranked:
        base = base_components.get(name)
        drift = ""
        if base is not None:
            delta = entry["total"] - base["total"]
            if abs(delta) > 1e-9:
                drift = f"  [{delta * 1e3:+.3f} ms vs baseline]"
        if entry["total"] <= 0 and not drift:
            continue
        _log.error(
            f"  {name:<13} {entry['total'] * 1e3:10.3f} ms "
            f"({entry['share']:6.1%}){drift}"
        )
    if base_components:
        moved = [
            (abs(entry["total"] - base_components[name]["total"]), name)
            for name, entry in report["components"].items()
            if name in base_components
        ]
        worst = max(moved)
        if worst[0] > 1e-9:
            _log.error(
                f"regressing component: {worst[1]} "
                f"(moved {worst[0] * 1e3:.3f} ms from baseline)"
            )
        else:
            _log.error(
                "blame profile matches baseline — the regression is "
                "host wall-clock, not scheduling behaviour"
            )
    if report["blockers"]:
        blocker = report["blockers"][0]
        _log.error(
            f"  top HOL blocker: {blocker['job_id']} "
            f"({blocker['model']}) {blocker['seconds'] * 1e3:.3f} ms"
        )


def check_against_baseline(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Regression findings (empty = pass).

    Wall-clock metrics compare against the baseline section matching
    the current mode, scaled by the committed per-metric thresholds
    (``min_speedup`` for lower-is-better, ``floor_ratio`` for
    higher-is-better).  Quick mode reads ``quick_thresholds`` when
    present (quick runs are shorter, hence noisier, so they carry
    looser gates).  Metrics without a threshold entry — the cold
    ``profile_build_s``, timed on forked workers whose count follows
    the host — are informational.  Digests must match exactly wherever
    both sides define them, and every per-kernel counter in the
    baseline's ``counters`` section is an exact ceiling on its run.
    """
    failures: List[str] = []
    quick = current.get("mode") == "quick"
    section = "quick_metrics" if quick else "metrics"
    base_metrics = baseline.get(section, {})
    thresholds = baseline.get("thresholds", {})
    if quick and "quick_thresholds" in baseline:
        thresholds = baseline["quick_thresholds"]
    for name, spec in current.get("metrics", {}).items():
        base = base_metrics.get(name)
        gate = thresholds.get(name)
        if base is None or gate is None:
            continue
        value, ref = spec["value"], base["value"]
        if spec["higher_is_better"]:
            floor = ref * gate.get("floor_ratio", 0.5)
            if value < floor:
                failures.append(
                    f"{name}: {value:,.0f} below floor {floor:,.0f} "
                    f"(baseline {ref:,.0f} x {gate.get('floor_ratio', 0.5)})"
                )
        else:
            ceiling = ref / gate.get("min_speedup", 1.0)
            unit = spec.get("unit", "s")
            if value > ceiling:
                failures.append(
                    f"{name}: {value:.3f} {unit} exceeds ceiling "
                    f"{ceiling:.3f} {unit} (baseline {ref:.3f} {unit} / "
                    f"speedup {gate.get('min_speedup', 1.0)})"
                )
    base_counters = baseline.get("counters", {})
    current_counters = current.get("counters", {})
    for run in sorted(set(base_counters) & set(current_counters)):
        ceilings = base_counters[run]
        for counter in sorted(ceilings):
            value = current_counters[run].get(counter)
            if value is not None and value > ceilings[counter]:
                failures.append(
                    f"counter {counter} on {run}: {value:.4f} exceeds "
                    f"ceiling {ceilings[counter]:.4f} — more kernel work "
                    "per executed kernel"
                )
    base_digests = baseline.get("digests", {})
    for key in sorted(set(base_digests) & set(current.get("digests", {}))):
        if current["digests"][key] != base_digests[key]:
            failures.append(
                f"digest drift for {key}: {current['digests'][key]} != "
                f"{base_digests[key]} — determinism broken"
            )
    return failures


def main(
    quick: bool = False,
    check: bool = False,
    out: Optional[str] = None,
    baseline: Optional[str] = None,
    profile_out: Optional[str] = None,
) -> int:
    # The CLI entry point owns the sink; library callers of
    # run_benchmarks/check_against_baseline inherit whatever the
    # process configured (NullSink by default).
    previous = configure_logging(ConsoleSink(stream=sys.stdout))
    try:
        report = run_benchmarks(quick=quick)
        out_path = Path(out or OUTPUT_FILENAME)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        _log.info(f"wrote {out_path}")
        if profile_out is not None:
            # Dump before the gate: a failing check is exactly when the
            # hotspot breakdown is most wanted.
            profile_fig16(profile_out, num_batches=2 if quick else 6)
        if not check:
            return 0
        baseline_path = Path(baseline or BASELINE_FILENAME)
        if not baseline_path.is_file():
            _log.error(f"no baseline at {baseline_path}")
            return 2
        baseline_doc = json.loads(baseline_path.read_text())
        failures = check_against_baseline(report, baseline_doc)
        if failures:
            _log.error(f"PERF REGRESSION vs {baseline_path}:")
            for failure in failures:
                _log.error(f"  - {failure}")
            _log_blame_context(baseline_doc)
            return 1
        _log.info(f"within baseline thresholds ({baseline_path})")
        return 0
    finally:
        configure_logging(previous)
