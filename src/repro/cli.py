"""Command-line interface.

Four commands cover the operator workflow of Figure 7:

* ``repro models`` — the servable model zoo (Table 2 view).
* ``repro profile`` — run the offline profiler for some (model, batch)
  pairs and persist the bundle (profiles, curves, selected Q) to JSON.
* ``repro serve`` — run a serving experiment under a chosen scheduler,
  optionally loading a persisted profile bundle and/or injecting a
  fault plan (``--fault-plan``/``--fault-seed``).
* ``repro faults`` — generate, inspect, or persist deterministic
  fault-injection plans (see :mod:`repro.faults`).
* ``repro chaos`` — run a seeded chaos campaign: random fault storms
  (including device crashes) against every scheduler kind with failure
  recovery attached, asserting the recovery SLAs on each run; exits
  nonzero on any violation (see :mod:`repro.experiments.chaos`).
* ``repro soak`` — run a seeded soak: open-loop traffic through the
  admission gate while the serving process is killed and restarted
  mid-run (plus device crashes), recovering from the durable job
  journal; asserts the no-job-lost SLA and prints the byte-stable
  resume digests; exits nonzero on any violation
  (see :mod:`repro.experiments.soak`).
* ``repro lint`` — the determinism & concurrency static-analysis gate
  (see :mod:`repro.lint`); exits nonzero on findings.
* ``repro reproduce`` — regenerate paper tables/figures, optionally
  several at once across worker processes (``--jobs N``; output is
  byte-identical for every N — see :mod:`repro.experiments.parallel`).
* ``repro bench`` — performance microbenchmarks and the end-to-end
  Fig 16 wall-clock, with a committed-baseline regression check
  (see :mod:`repro.bench`).
* ``repro trace`` — run a workload with span tracing on and export an
  enriched Chrome/Perfetto trace (flow arrows linking request arrival
  → tenures → kernels), plus optional metrics/span documents; every
  artefact is schema-validated before the command exits 0.
* ``repro top`` — a terminal dashboard of a serving run: per-model
  tenure share, queue depths, GPU utilization, one frame per telemetry
  snapshot (``--follow`` replays them paced like a live ``top``).
* ``repro blame`` — per-request critical-path latency attribution: run
  a workload with span tracing and decompose every request's e2e
  latency into exactly-summing components (queue wait, HOL blocking
  with the blocking tenant named, arbitration, interference, kernel
  execution, ...), with JSON / folded-stack / Chrome-annotation
  exports (see :mod:`repro.analysis.blame`).
* ``repro whatif`` — deterministic causal profiling: replay the same
  workload with a perturbed cost model (scale one model's kernels,
  add streams, scale the quantum) and report the measured mean/p99
  movement per component next to the blame profile's prediction
  (see :mod:`repro.experiments.whatif`).

Invoke as ``python -m repro <command> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional

__all__ = ["main", "build_parser"]


def _at_least(kind: Callable[[str], Any], minimum: Any) -> Callable[[str], Any]:
    """argparse type for a numeric flag bounded below by ``minimum``."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            )
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {value}")
        return value

    return parse


_positive_int = _at_least(int, 1)
_non_negative_int = _at_least(int, 0)
_non_negative_float = _at_least(float, 0.0)


def _cmd_models(args: argparse.Namespace) -> int:
    from .metrics.report import render_table
    from .zoo import PAPER_MODELS

    rows = [
        [
            spec.name,
            spec.display_name,
            spec.ref_batch,
            spec.num_nodes,
            spec.num_gpu_nodes,
            f"{spec.solo_runtime:.2f} s",
            f"{spec.memory_mb} MB",
        ]
        for spec in PAPER_MODELS
    ]
    print(
        render_table(
            ["name", "model", "batch", "nodes", "GPU nodes", "solo runtime",
             "memory"],
            rows,
            title="Servable models (calibrated to the paper's Table 2)",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core import OfflineProfiler, save_profiler_output
    from .experiments import get_graph
    from .zoo import MODEL_REGISTRY

    entries = []
    for item in args.model:
        if ":" in item:
            name, batch_text = item.split(":", 1)
            batch = int(batch_text)
        else:
            name, batch = item, None
        if name not in MODEL_REGISTRY:
            print(f"error: unknown model {name!r}", file=sys.stderr)
            return 2
        if batch is None:
            batch = MODEL_REGISTRY[name].ref_batch
        entries.append((get_graph(name, args.scale, args.graph_seed), batch))

    profiler = OfflineProfiler(seed=args.seed)
    output = profiler.build(
        entries,
        tolerance=args.tolerance,
        with_curves=args.quantum is None,
        fixed_quantum=args.quantum,
    )
    save_profiler_output(output, args.out)
    print(f"profiled {len(entries)} (model, batch) pair(s)")
    print(f"selected quantum Q = {output.quantum * 1e6:.0f} us")
    print(f"saved profile bundle to {args.out}")
    return 0


def _load_input(loader: Callable[[str], Any], path: str) -> Any:
    """``loader(path)``, or None after printing a usage error for an
    input file that is missing, unreadable or malformed."""
    try:
        return loader(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import load_profiler_output
    from .experiments import ExperimentConfig, run_workload
    from .faults import FaultPlan
    from .metrics.report import format_seconds, render_table
    from .serving import RetryPolicy
    from .workloads import homogeneous_workload

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        quantum=args.quantum,
        stall_threshold=args.stall_threshold,
        streams=args.streams,
        oversubscription=args.oversubscription,
    )
    specs = homogeneous_workload(
        num_clients=args.clients,
        model=args.model,
        batch_size=args.batch,
        num_batches=args.batches,
    )
    bundle = None
    if args.profiles:
        bundle = _load_input(load_profiler_output, args.profiles)
        if bundle is None:
            return 2
    plan = None
    if args.fault_plan and args.fault_seed is not None:
        print(
            "error: --fault-plan and --fault-seed are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.fault_plan:
        plan = _load_input(FaultPlan.load, args.fault_plan)
        if plan is None:
            return 2
    elif args.fault_seed is not None:
        plan = FaultPlan.generate(
            args.fault_seed,
            client_ids=[spec.client_id for spec in specs],
            kinds=("kernel_crash", "device_hang", "oom"),
            num_faults=args.num_faults,
        )
    retry_policy = None
    if args.retries > 0:
        retry_policy = RetryPolicy(max_attempts=1 + args.retries)
    telemetry_config = None
    if args.telemetry != "off":
        from .telemetry import TelemetryConfig

        telemetry_config = TelemetryConfig(
            verbosity=args.telemetry,
            snapshot_period=args.snapshot_period,
        )
    try:
        result = run_workload(
            specs,
            scheduler=args.scheduler,
            config=config,
            profiler_output=bundle,
            fault_plan=plan,
            retry_policy=retry_policy,
            require_completion=plan is None,
            telemetry=telemetry_config,
            monitor=args.monitor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        [
            client.client_id,
            format_seconds(client.finish_time, 3)
            if client.completed
            else f"DID NOT FINISH ({client.failure!r})",
        ]
        for client in sorted(result.clients, key=lambda c: str(c.client_id))
    ]
    print(
        render_table(
            ["client", "finish time"],
            rows,
            title=(
                f"{args.clients} x {args.model} (batch {args.batch}) under "
                f"{args.scheduler}"
            ),
        )
    )
    if result.quantum is not None:
        print(f"quantum Q = {result.quantum * 1e6:.0f} us")
    print(f"GPU utilization = {result.utilization():.1%}")
    if plan is not None:
        print(
            f"faults injected = {result.faults_injected} "
            f"(plan: {len(plan)} spec(s))   "
            f"retries = {result.total_retries}   "
            f"failed batches = {result.total_failed_batches}"
        )
        if result.scheduler is not None and result.scheduler.evictions:
            for eviction in result.scheduler.evictions:
                print(
                    f"evicted {eviction.job_id} at "
                    f"t={eviction.time:.4f}s: {eviction.reason}"
                )
        print(f"trace digest = {result.trace_digest()}")
    rollup = result.telemetry_rollup
    if rollup is not None:
        print(
            "telemetry    "
            f"events = {rollup['events_published']}   "
            f"snapshots = {rollup['snapshots']}   "
            f"decisions = {rollup['decisions']:.0f}   "
            f"switches = {rollup['switches']:.0f}   "
            f"overflow kernels = {rollup['overflow_kernels']:.0f}   "
            f"retries = {rollup['retries']:.0f}"
        )
        sheds = rollup.get("sheds_by_reason") or {}
        if sheds:
            breakdown = "   ".join(
                f"{reason} = {count:.0f}"
                for reason, count in sorted(sheds.items())
            )
            print(f"sheds        {breakdown}")
        decisions = rollup.get("admission_decisions") or {}
        if decisions:
            breakdown = "   ".join(
                f"{label} = {count:.0f}"
                for label, count in sorted(decisions.items())
            )
            print(f"admission    {breakdown}")
        for model, stats in sorted(rollup.get("latency", {}).items()):
            exemplar = stats.get("exemplar")
            jump = f"   slowest trace = {exemplar}" if exemplar else ""
            print(
                f"latency {model}: "
                f"p50 = {stats['p50'] * 1e3:.3f} ms   "
                f"p95 = {stats['p95'] * 1e3:.3f} ms   "
                f"p99 = {stats['p99'] * 1e3:.3f} ms{jump}"
            )
        if args.metrics_out:
            from .telemetry import render_prometheus

            snapshot = result.telemetry.snapshots[-1]
            with open(args.metrics_out, "w") as handle:
                handle.write(render_prometheus(snapshot))
            print(f"wrote metrics exposition to {args.metrics_out}")
    if result.monitor is not None:
        alerts = result.monitor.alerts
        print(f"profile drift alerts = {len(alerts)}")
        for alert in alerts:
            print(
                f"  drift {alert.model_name}: observed "
                f"{alert.observed_mean * 1e3:.3f} ms vs expected "
                f"{alert.expected * 1e3:.3f} ms "
                f"({alert.relative_error:+.1%})"
            )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultPlan

    if args.action == "show":
        if not args.plan:
            print("error: `faults show` needs a plan file", file=sys.stderr)
            return 2
        plan = _load_input(FaultPlan.load, args.plan)
        if plan is None:
            return 2
        print(plan.describe())
        return 0
    # action == "generate"
    client_ids = [c for c in args.clients.split(",") if c]
    if not client_ids:
        print("error: --clients must name at least one id", file=sys.stderr)
        return 2
    kinds = tuple(k for k in args.kinds.split(",") if k)
    plan = FaultPlan.generate(
        args.seed,
        client_ids=client_ids,
        kinds=kinds,
        num_faults=args.num_faults,
        horizon=args.horizon,
    )
    print(plan.describe())
    if args.out:
        plan.save(args.out)
        print(f"saved fault plan to {args.out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments import ChaosConfig, run_chaos_campaign

    if args.quick:
        config = ChaosConfig.quick(seed=args.seed)
    else:
        config = ChaosConfig(seed=args.seed)
    result = run_chaos_campaign(config)
    print(result.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"wrote campaign report to {args.out}")
    return 0 if result.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from .experiments import SoakConfig, run_soak

    overrides = {}
    if args.gpus is not None:
        overrides["gpus"] = args.gpus
    if args.quick:
        config = SoakConfig.quick(seed=args.seed, **overrides)
    else:
        config = SoakConfig(seed=args.seed, **overrides)
    result = run_soak(config)
    print(result.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"wrote soak report to {args.out}")
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .lint import (
        LintConfig,
        all_rules,
        build_project_context,
        changed_python_files,
        discover_files,
        find_pyproject,
        lint_files,
        load_config,
        render_json,
        render_text,
        resolve_rules,
    )

    if args.list_rules:
        try:
            for rule in all_rules():
                print(rule.catalogue_line())
        except BrokenPipeError:
            _ignore_broken_stdout()
        return 0

    if args.no_config:
        config = LintConfig()
    elif args.config is not None:
        pyproject = Path(args.config)
        if not pyproject.is_file():
            print(f"error: no such config file: {args.config}", file=sys.stderr)
            return 2
        config = load_config(pyproject)
    else:
        config = load_config(find_pyproject(Path(args.paths[0])))

    select = tuple(r for r in (args.select or "").split(",") if r) or config.select
    ignore = tuple(r for r in (args.ignore or "").split(",") if r) or config.ignore
    try:
        rules = resolve_rules(select, ignore)
        files = discover_files(args.paths, config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.changed:
        changed = changed_python_files(args.base)
        if changed is None:
            print(
                "repro.lint: --changed needs a git repository; "
                "linting everything",
                file=sys.stderr,
            )
        else:
            files = [f for f in files if f.resolve() in changed]

    if args.graph is not None:
        project = build_project_context(files, config)
        try:
            if args.graph == "dot":
                print(project.modgraph.to_dot(), end="")
            else:
                document = {
                    "modules": project.modgraph.to_json_dict(),
                    "calls": project.callgraph.to_json_dict(),
                }
                print(_json.dumps(document, indent=2, sort_keys=True))
        except BrokenPipeError:
            _ignore_broken_stdout()
        return 0

    try:
        report = lint_files(files, config, rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(render_json(report))
        else:
            print(render_text(report))
    except BrokenPipeError:
        _ignore_broken_stdout()
    if not report.clean:
        return 1
    if args.sanitize:
        return _lint_sanitize_smoke()
    return 0


def _lint_sanitize_smoke() -> int:
    """Run one fair-scheduler experiment with the sim sanitizer armed.

    The runtime complement to FLOW001: checksum guards around every
    telemetry emission seam catch any observer feedback the static
    analysis cannot see.  Telemetry must be on, or no seam executes.
    """
    from .experiments import ExperimentConfig, run_workload
    from .sanitize import SanitizerViolation, sim_sanitizer
    from .telemetry import TelemetryConfig
    from .workloads import homogeneous_workload

    was_enabled = sim_sanitizer.enabled
    sim_sanitizer.enable()
    sim_sanitizer.reset()
    try:
        specs = homogeneous_workload(num_clients=3, num_batches=2)
        run_workload(
            specs,
            scheduler="fair",
            config=ExperimentConfig(scale=0.05, quantum=0.04),
            telemetry=TelemetryConfig(verbosity="metrics"),
        )
    except SanitizerViolation as exc:
        print(f"repro.lint: sanitize smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        checks = sim_sanitizer.checks
        if not was_enabled:
            sim_sanitizer.disable()
    print(f"repro.lint: sanitize smoke passed ({checks} seam checks)")
    return 0


def _ignore_broken_stdout() -> None:
    # A downstream `| head` closing the pipe is not a lint error; swap
    # stdout for devnull so the interpreter's exit-time flush stays quiet.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


# Artefact registry for `reproduce`: lives with the experiments layer
# (repro.experiments.registry) so the process-pool fan-out can resolve
# names without importing the CLI.
def _artefacts() -> Dict[str, Callable[[], object]]:
    from .experiments.registry import artefact_registry

    return artefact_registry()


def _cmd_validate(args: argparse.Namespace) -> int:
    from .zoo import MODEL_REGISTRY, PAPER_MODELS, validate_calibration

    names = args.model or [spec.name for spec in PAPER_MODELS]
    all_passed = True
    for name in names:
        if name not in MODEL_REGISTRY:
            print(f"error: unknown model {name!r}", file=sys.stderr)
            return 2
        report = validate_calibration(
            MODEL_REGISTRY[name], scale=args.scale,
            measure_runtime=args.runtime,
        )
        print(report.report())
        print()
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    artefacts = _artefacts()
    names = args.artefact
    if not names or names == ["list"]:
        try:
            print("available artefacts:")
            for name in artefacts:
                print(f"  {name}")
        except BrokenPipeError:
            _ignore_broken_stdout()
        return 0
    unknown = [name for name in names if name not in artefacts]
    if unknown:
        print(
            f"error: unknown artefact(s) {', '.join(map(repr, unknown))}; "
            f"try `reproduce list`",
            file=sys.stderr,
        )
        return 2
    from .experiments.parallel import run_artefacts

    # One code path for any --jobs value: outcomes merge in input
    # order, so the printed output is byte-identical for all N.
    outcomes = run_artefacts(names, jobs=args.jobs)
    status = 0
    for outcome in outcomes:
        if outcome.ok:
            print(outcome.report)
        else:
            print(
                f"error: artefact {outcome.name!r} failed: {outcome.error}",
                file=sys.stderr,
            )
            status = 1
    return status


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import main as bench_main

    return bench_main(
        quick=args.quick,
        check=args.check,
        out=args.out,
        baseline=args.baseline,
        profile_out=args.profile_out,
    )


def _trace_workload(args: argparse.Namespace):
    from .workloads import complex_workload, homogeneous_workload

    if args.workload == "fig16":
        return complex_workload(num_batches=args.batches)
    return homogeneous_workload(
        num_clients=args.clients,
        model=args.model,
        batch_size=args.batch,
        num_batches=args.batches,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .analysis import export_chrome_trace
    from .experiments import ExperimentConfig, run_workload
    from .telemetry import (
        TelemetryConfig,
        render_metrics_json,
        render_prometheus,
        validate_chrome_trace,
        validate_metrics_document,
        validate_spans_document,
    )

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    telemetry_config = TelemetryConfig(
        verbosity="spans", snapshot_period=args.snapshot_period
    )
    result = run_workload(
        _trace_workload(args),
        scheduler=args.scheduler,
        config=config,
        telemetry=telemetry_config,
    )
    count = export_chrome_trace(
        result.server, args.out, scheduler=result.scheduler, flows=True
    )
    rollup = result.telemetry_rollup
    print(
        f"ran {args.workload} under {args.scheduler}: "
        f"{rollup['events_published']} events, "
        f"{rollup['spans_finished']} spans, "
        f"{rollup['snapshots']} snapshots"
    )
    print(f"wrote {count} trace events to {args.out}")
    errors = validate_chrome_trace(json.loads(open(args.out).read()))
    if args.metrics_out:
        snapshot = result.telemetry.snapshots[-1]
        if args.metrics_out.endswith((".prom", ".txt")):
            text = render_prometheus(snapshot)
        else:
            text = render_metrics_json(snapshot)
            errors += validate_metrics_document(json.loads(text))
        with open(args.metrics_out, "w") as handle:
            handle.write(text)
        print(f"wrote metrics exposition to {args.metrics_out}")
    if args.spans_out:
        spans = result.telemetry.tracer.to_dicts()
        with open(args.spans_out, "w") as handle:
            json.dump(spans, handle, indent=1)
        errors += validate_spans_document(spans)
        print(f"wrote {len(spans)} spans to {args.spans_out}")
    if errors:
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1
    print("all exported artefacts validate against their schemas")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .experiments import ExperimentConfig, run_workload
    from .telemetry import TelemetryConfig, TopView, render_frame

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    telemetry_config = TelemetryConfig(
        verbosity="metrics", snapshot_period=args.interval
    )
    # --follow collects frames and replays them paced against the wall
    # clock; the default streams each frame as the simulation produces
    # it (CI-friendly, no terminal control codes).
    view = TopView(
        stream=None if args.follow else sys.stdout,
        width=args.width,
        max_frames=args.frames,
    )
    result = run_workload(
        _trace_workload(args),
        scheduler=args.scheduler,
        config=config,
        telemetry=telemetry_config,
        on_snapshot=view.on_snapshot,
    )
    if args.follow:
        for frame in view.frames:
            sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.delay)
    # The finalize() snapshot lands after the run; render it as the
    # closing frame so totals are complete even with --frames 0.
    final = render_frame(
        result.telemetry.snapshots[-1], result.telemetry, width=args.width
    )
    sys.stdout.write(final + "\n")
    rollup = result.telemetry_rollup
    print(
        f"run complete: {rollup['requests_finished']:.0f} requests, "
        f"{rollup['kernels_finished']:.0f} kernels, "
        f"{len(view.frames)} frames rendered"
    )
    for model, stats in sorted(rollup.get("latency", {}).items()):
        exemplar = stats.get("exemplar")
        jump = f"   slowest trace = {exemplar}" if exemplar else ""
        print(
            f"latency {model}: "
            f"p50 = {stats['p50'] * 1e3:.3f} ms   "
            f"p95 = {stats['p95'] * 1e3:.3f} ms   "
            f"p99 = {stats['p99'] * 1e3:.3f} ms{jump}"
        )
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    import json

    from .analysis import (
        blame_report,
        blame_trace_events,
        build_trace_events,
        write_folded,
    )
    from .experiments import ExperimentConfig, run_workload
    from .metrics.report import render_table
    from .telemetry import (
        TelemetryConfig,
        attribute_tracer,
        validate_blame_report,
        validate_chrome_trace,
    )

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    result = run_workload(
        _trace_workload(args),
        scheduler=args.scheduler,
        config=config,
        telemetry=TelemetryConfig(verbosity="spans"),
    )
    attributions = attribute_tracer(result.telemetry.tracer)
    report = blame_report(
        attributions, args.scheduler, include_requests=args.requests
    )
    rows = [
        [
            name,
            f"{entry['total'] * 1e3:.3f} ms",
            f"{entry['mean'] * 1e3:.3f} ms",
            f"{entry['share']:.1%}",
        ]
        for name, entry in report["components"].items()
    ]
    print(
        render_table(
            ["component", "total", "mean/req", "share"],
            rows,
            title=(
                f"latency blame under {args.scheduler} "
                f"({report['num_served']}/{report['num_requests']} served)"
            ),
        )
    )
    e2e = report["e2e"]
    print(
        f"e2e   mean = {e2e['mean'] * 1e3:.3f} ms   "
        f"p50 = {e2e['p50'] * 1e3:.3f} ms   "
        f"p95 = {e2e['p95'] * 1e3:.3f} ms   "
        f"p99 = {e2e['p99'] * 1e3:.3f} ms"
    )
    if report["blockers"]:
        print("top head-of-line blockers:")
        for blocker in report["blockers"]:
            print(
                f"  {blocker['job_id']} ({blocker['model']}): "
                f"{blocker['seconds'] * 1e3:.3f} ms of induced wait"
            )
    for model, stats in sorted(
        (result.telemetry_rollup or {}).get("latency", {}).items()
    ):
        if stats.get("exemplar"):
            print(
                f"slowest {model} bucket exemplar: {stats['exemplar']} "
                f"(find it in --trace-out / --out requests)"
            )
    errors = validate_blame_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"wrote blame report to {args.out}")
    if args.folded:
        count = write_folded(args.folded, attributions, args.scheduler)
        print(f"wrote {count} folded stack(s) to {args.folded}")
    if args.trace_out:
        events = build_trace_events(
            result.server, scheduler=result.scheduler, flows=True
        )
        events += blame_trace_events(attributions)
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(args.trace_out, "w") as handle:
            json.dump(doc, handle)
        errors += validate_chrome_trace(doc)
        print(
            f"wrote {len(events)} trace events (with blame annotations) "
            f"to {args.trace_out}"
        )
    if errors:
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    import json

    from .experiments.whatif import Perturbation, run_whatif
    from .metrics.report import render_table
    from .telemetry import validate_whatif_report

    from .experiments import ExperimentConfig

    quantum = args.quantum
    batches = args.batches
    if args.quick:
        # CI smoke shape: fixed quantum (skips Overhead-Q curve
        # measurement) and a short workload.
        if quantum is None:
            quantum = 1.2e-3
        batches = min(batches, 2)
    args.batches = batches
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, quantum=quantum
    )
    perturbations = [
        Perturbation(
            f"kernels x{args.factor:g}",
            kernel_scale=(args.scale_model, args.factor),
        )
    ]
    if args.streams is not None:
        perturbations.append(
            Perturbation(f"streams={args.streams}", streams=args.streams)
        )
    if args.quantum_scale is not None:
        perturbations.append(
            Perturbation(
                f"quantum x{args.quantum_scale:g}",
                quantum_scale=args.quantum_scale,
            )
        )
    try:
        report = run_whatif(
            _trace_workload(args),
            scheduler=args.scheduler,
            config=config,
            perturbations=perturbations,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = report["baseline"]["e2e"]
    print(
        f"baseline under {args.scheduler}: "
        f"mean = {base['mean'] * 1e3:.3f} ms   "
        f"p99 = {base['p99'] * 1e3:.3f} ms   "
        f"({report['num_requests']} requests)"
    )
    rows = []
    for scenario in report["scenarios"]:
        predicted = scenario.get("predicted")
        rows.append(
            [
                scenario["perturbation"]["name"],
                f"{scenario['e2e']['mean'] * 1e3:.3f} ms",
                f"{scenario['delta']['mean'] * 1e3:+.3f} ms",
                f"{scenario['e2e']['p99'] * 1e3:.3f} ms",
                f"{scenario['delta']['p99'] * 1e3:+.3f} ms",
                f"{predicted['p99'] * 1e3:.3f} ms" if predicted else "-",
                f"{scenario['prediction_error_p99']:.1%}"
                if predicted
                else "-",
            ]
        )
    print(
        render_table(
            ["scenario", "mean", "d mean", "p99", "d p99",
             "predicted p99", "error"],
            rows,
            title="what-if: measured causal deltas vs blame prediction",
        )
    )
    for scenario in report["scenarios"]:
        kernel_scale = scenario["perturbation"].get("kernel_scale")
        if kernel_scale is not None:
            print(
                f"scaled model: {kernel_scale['model']} "
                f"(factor {kernel_scale['factor']:g})"
            )
    errors = validate_whatif_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"wrote what-if report to {args.out}")
    if errors:
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .zoo import MODEL_REGISTRY

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Olympian (Middleware 2018) reproduction: fair GPU "
            "time-slicing for DNN model serving."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    models = sorted(MODEL_REGISTRY)

    sub.add_parser("models", help="list the servable model zoo")

    profile = sub.add_parser(
        "profile", help="run the offline profiler and save a bundle"
    )
    profile.add_argument(
        "model",
        nargs="+",
        help="model name or name:batch (default batch = Table 2 reference)",
    )
    profile.add_argument("--out", default="profiles.json")
    profile.add_argument("--scale", type=float, default=0.05)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--graph-seed", type=int, default=1)
    profile.add_argument("--tolerance", type=float, default=0.025)
    profile.add_argument(
        "--quantum", type=float, default=None,
        help="fixed quantum in seconds (skips Overhead-Q measurement)",
    )

    serve = sub.add_parser("serve", help="run a serving experiment")
    serve.add_argument("--model", default="inception_v4", choices=models)
    serve.add_argument("--batch", type=int, default=100)
    serve.add_argument("--clients", type=_positive_int, default=10)
    serve.add_argument("--batches", type=_positive_int, default=10)
    serve.add_argument(
        "--scheduler",
        default="fair",
        choices=[
            "tf-serving", "fair", "weighted", "priority", "timer",
            "deficit-rr", "lottery", "edf", "srw",
            "spatial", "spatial-rt",
        ],
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument("--quantum", type=float, default=None)
    serve.add_argument(
        "--streams", type=_positive_int, default=None,
        help="GPU compute streams (spatial sharing; default: spec's 1)",
    )
    serve.add_argument(
        "--oversubscription", type=_at_least(float, 1.0), default=1.0,
        help="spatial-rt logical capacity factor (>= 1.0; 1.0 selects "
             "the built-in real-time default)",
    )
    serve.add_argument(
        "--profiles", default=None, help="profile bundle from `profile`"
    )
    serve.add_argument(
        "--fault-plan", default=None,
        help="JSON fault plan to inject (see `repro faults`)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None,
        help="generate a fault plan from this seed instead of a file",
    )
    serve.add_argument(
        "--num-faults", type=_positive_int, default=3,
        help="faults to generate with --fault-seed",
    )
    serve.add_argument(
        "--stall-threshold", type=float, default=None,
        help="evict a token holder stalled this long (simulated seconds)",
    )
    serve.add_argument(
        "--retries", type=_non_negative_int, default=0,
        help="client retries per failed batch (exponential backoff)",
    )
    serve.add_argument(
        "--telemetry", default="off",
        choices=["off", "metrics", "spans", "full"],
        help="runtime telemetry verbosity (default off; digest-neutral)",
    )
    serve.add_argument(
        "--snapshot-period", type=_non_negative_float, default=0.25,
        help="telemetry snapshot cadence in simulated seconds",
    )
    serve.add_argument(
        "--monitor", action="store_true",
        help="run the profile-drift quantum monitor (Olympian schedulers)",
    )
    serve.add_argument(
        "--metrics-out", default=None,
        help="write a Prometheus-text metrics exposition after the run "
             "(needs --telemetry)",
    )

    faults = sub.add_parser(
        "faults", help="generate or inspect deterministic fault plans"
    )
    faults.add_argument(
        "action", choices=["generate", "show"],
        help="generate a plan from a seed, or show a saved plan",
    )
    faults.add_argument(
        "plan", nargs="?", default=None, help="plan file (for `show`)"
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--clients", default="c0",
        help="comma-separated client ids faults may target",
    )
    faults.add_argument(
        "--kinds", default="kernel_crash",
        help="comma-separated kinds: "
             "kernel_crash,device_hang,oom,device_crash",
    )
    faults.add_argument("--num-faults", type=int, default=3)
    faults.add_argument(
        "--horizon", type=float, default=1.0,
        help="latest device_hang start time (simulated seconds)",
    )
    faults.add_argument("--out", default=None, help="save the plan as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign against every scheduler kind",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: one trial per kind, shorter workload",
    )
    chaos.add_argument(
        "--out", default=None,
        help="write the full campaign record (runs + digest) as JSON",
    )

    soak = sub.add_parser(
        "soak",
        help="run a seeded kill/restart soak against the durable "
             "control plane",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: one scheduler kind, one process kill",
    )
    soak.add_argument(
        "--gpus", type=_positive_int, default=None,
        help="serve through a multi-GPU front with this many devices",
    )
    soak.add_argument(
        "--out", default=None,
        help="write the full soak record (runs + digests) as JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (CI gate)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--config", default=None,
        help="pyproject.toml to read [tool.repro.lint] from "
             "(default: discovered from the first path)",
    )
    lint.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml; use built-in defaults",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--graph", choices=["dot", "json"], default=None,
        help="export the module dependency graph (dot) or the module + "
             "call graphs (json) instead of linting",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files differing from the git merge-base "
             "(full run outside a git repo); whole-program rules see "
             "only the changed subgraph — CI always runs everything",
    )
    lint.add_argument(
        "--base", default="main",
        help="base ref for --changed (default: main)",
    )
    lint.add_argument(
        "--sanitize", action="store_true",
        help="after a clean static pass, run a fair-scheduler smoke "
             "experiment with REPRO_SANITIZE-style checksum guards armed",
    )

    validate = sub.add_parser(
        "validate", help="check zoo calibration against the Table 2 specs"
    )
    validate.add_argument("model", nargs="*", help="models (default: all)")
    validate.add_argument("--scale", type=float, default=0.05)
    validate.add_argument(
        "--runtime", action="store_true",
        help="also measure solo runtimes (slower)",
    )

    reproduce = sub.add_parser(
        "reproduce", help="regenerate paper tables/figures"
    )
    reproduce.add_argument(
        "artefact", nargs="*", default=None,
        help="artefact id(s) (e.g. fig11 fig16) or `list`",
    )
    reproduce.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for multiple artefacts (default 1); "
             "output is byte-identical for every N",
    )

    bench = sub.add_parser(
        "bench", help="performance benchmarks + regression check"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced iteration counts (CI smoke variant)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    bench.add_argument(
        "--out", default=None,
        help="result JSON path (default BENCH_current.json)",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default BENCH_BASELINE.json)",
    )
    bench.add_argument(
        "--profile-out", default=None,
        help="also run the fig16 workload under cProfile and dump "
             "hotspot stats to this path",
    )

    def add_workload_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workload", default="fig16",
            choices=["fig16", "homogeneous"],
            help="fig16 = 14 clients x 7 models; homogeneous uses "
                 "--model/--batch/--clients",
        )
        command.add_argument("--model", default="inception_v4", choices=models)
        command.add_argument("--batch", type=int, default=100)
        command.add_argument("--clients", type=int, default=4)
        command.add_argument("--batches", type=int, default=2)
        command.add_argument(
            "--scheduler", default="fair",
            choices=[
                "tf-serving", "fair", "weighted", "priority", "timer",
                "deficit-rr", "lottery", "edf", "srw",
                "spatial", "spatial-rt",
            ],
        )
        command.add_argument("--scale", type=float, default=0.05)
        command.add_argument("--seed", type=int, default=3)

    trace = sub.add_parser(
        "trace",
        help="export an enriched Chrome/Perfetto trace from a traced run",
    )
    add_workload_args(trace)
    trace.add_argument(
        "--out", default="trace.json", help="Chrome trace output path"
    )
    trace.add_argument(
        "--metrics-out", default=None,
        help="also export metrics (.prom/.txt = Prometheus text, "
             "else JSON)",
    )
    trace.add_argument(
        "--spans-out", default=None,
        help="also export the span table as JSON",
    )
    trace.add_argument(
        "--snapshot-period", type=_non_negative_float, default=0.25,
        help="telemetry snapshot cadence in simulated seconds",
    )

    blame = sub.add_parser(
        "blame",
        help="per-request critical-path latency attribution",
    )
    add_workload_args(blame)
    blame.add_argument(
        "--out", default=None, help="write the blame report as JSON"
    )
    blame.add_argument(
        "--folded", default=None,
        help="write folded stacks (flamegraph.pl / speedscope input)",
    )
    blame.add_argument(
        "--trace-out", default=None,
        help="write a Chrome trace with per-request blame annotations",
    )
    blame.add_argument(
        "--requests", action="store_true",
        help="include the per-request decomposition in --out JSON",
    )

    whatif = sub.add_parser(
        "whatif",
        help="deterministic causal profiling (counterfactual replay)",
    )
    add_workload_args(whatif)
    whatif.add_argument(
        "--scale-model", default=None,
        help="model whose kernels to scale (default: heaviest by "
             "attributed execution time)",
    )
    whatif.add_argument(
        "--factor", type=float, default=0.5,
        help="kernel duration scale factor (default 0.5 = 2x faster)",
    )
    whatif.add_argument(
        "--streams", type=int, default=None,
        help="also try this many GPU compute streams",
    )
    whatif.add_argument(
        "--quantum-scale", type=float, default=None,
        help="also try scaling the scheduling quantum by this factor",
    )
    whatif.add_argument(
        "--quantum", type=float, default=None,
        help="fixed baseline quantum in seconds (skips Overhead-Q "
             "curve measurement)",
    )
    whatif.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: fixed quantum, at most 2 batches",
    )
    whatif.add_argument(
        "--out", default=None, help="write the what-if report as JSON"
    )

    top = sub.add_parser(
        "top", help="terminal dashboard of a serving run (repro top)"
    )
    add_workload_args(top)
    top.add_argument(
        "--interval", type=float, default=0.05,
        help="frame cadence in simulated seconds",
    )
    top.add_argument(
        "--frames", type=int, default=None,
        help="cap on rendered frames (default unlimited)",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="replay frames in place with ANSI redraw, paced by --delay",
    )
    top.add_argument(
        "--delay", type=float, default=0.2,
        help="wall-clock seconds per frame with --follow",
    )
    top.add_argument(
        "--width", type=int, default=72, help="frame width in columns"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "faults": _cmd_faults,
        "chaos": _cmd_chaos,
        "soak": _cmd_soak,
        "lint": _cmd_lint,
        "validate": _cmd_validate,
        "reproduce": _cmd_reproduce,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "blame": _cmd_blame,
        "whatif": _cmd_whatif,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
