"""The perf-regression harness: gating logic and baseline integrity.

``check_against_baseline`` is pure, so its pass/fail matrix is tested
directly on hand-built reports.  The microbenchmarks get smoke runs at
tiny sizes (they must return finite positive rates); the expensive
fig16 end-to-end path is exercised by CI's ``bench --quick`` job, not
here.  The committed ``BENCH_BASELINE.json`` is validated structurally
so a hand-edit cannot silently disable the gates.
"""

import gc
import json
from pathlib import Path

from repro.bench import (
    BASELINE_FILENAME,
    GcMeter,
    bench_event_loop,
    bench_resources,
    bench_tracer,
    check_against_baseline,
    count_kernel_work,
    import_floor,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def metric(value, unit="s", higher_is_better=False):
    return {"value": value, "unit": unit, "higher_is_better": higher_is_better}


def report(mode="full", **metrics):
    return {"schema": 1, "mode": mode, "metrics": metrics, "digests": {}}


class TestCheckAgainstBaseline:
    BASELINE = {
        "metrics": {"fig16_e2e_s": metric(3.0)},
        "quick_metrics": {"fig16_e2e_s": metric(1.0)},
        "thresholds": {"fig16_e2e_s": {"min_speedup": 1.5}},
        "quick_thresholds": {"fig16_e2e_s": {"min_speedup": 1.2}},
        "digests": {"fair": "abc"},
    }

    def test_fast_enough_passes(self):
        current = report(fig16_e2e_s=metric(1.9))
        assert check_against_baseline(current, self.BASELINE) == []

    def test_too_slow_fails(self):
        current = report(fig16_e2e_s=metric(2.5))
        failures = check_against_baseline(current, self.BASELINE)
        assert len(failures) == 1 and "fig16_e2e_s" in failures[0]

    def test_quick_mode_uses_quick_sections(self):
        # 0.75s: within quick's 1.0/1.2 ceiling but would fail the full
        # gate's 3.0/1.5 = 2.0 only if the wrong section were read
        # backwards — and fails if the full threshold (1.5) applied to
        # the quick baseline (ceiling 0.667).
        current = report(mode="quick", fig16_e2e_s=metric(0.75))
        assert check_against_baseline(current, self.BASELINE) == []
        too_slow = report(mode="quick", fig16_e2e_s=metric(0.9))
        assert check_against_baseline(too_slow, self.BASELINE) != []

    def test_quick_falls_back_to_shared_thresholds(self):
        baseline = {
            "quick_metrics": {"fig16_e2e_s": metric(1.0)},
            "thresholds": {"fig16_e2e_s": {"min_speedup": 1.0}},
        }
        current = report(mode="quick", fig16_e2e_s=metric(0.95))
        assert check_against_baseline(current, baseline) == []

    def test_higher_is_better_floor(self):
        baseline = {
            "metrics": {"eps": metric(1000, "e/s", True)},
            "thresholds": {"eps": {"floor_ratio": 0.5}},
        }
        ok = report(eps=metric(600, "e/s", True))
        assert check_against_baseline(ok, baseline) == []
        slow = report(eps=metric(400, "e/s", True))
        assert check_against_baseline(slow, baseline) != []

    def test_ungated_metric_is_informational(self):
        # profile_build_s-style entries: baseline value, no threshold.
        baseline = {"metrics": {"profile_build_s": metric(10.0)}}
        current = report(profile_build_s=metric(99.0))
        assert check_against_baseline(current, baseline) == []

    def test_digest_drift_fails(self):
        current = report(fig16_e2e_s=metric(1.0))
        current["digests"] = {"fair": "DIFFERENT", "extra": "ignored"}
        failures = check_against_baseline(current, self.BASELINE)
        assert any("digest drift" in f and "fair" in f for f in failures)

    def test_digest_match_passes(self):
        current = report(fig16_e2e_s=metric(1.0))
        current["digests"] = {"fair": "abc"}
        assert check_against_baseline(current, self.BASELINE) == []


class TestCounterGate:
    BASELINE = {
        "counters": {
            "run-a": {"resumes_per_kernel": 1.5, "buckets_per_kernel": 2.5},
            "run-b": {"buckets_per_kernel": 3.0},
        }
    }

    def current(self, **runs):
        current = report()
        current["counters"] = runs
        return current

    def test_equal_or_lower_passes(self):
        current = self.current(
            **{
                "run-a": {"resumes_per_kernel": 1.5, "buckets_per_kernel": 2.4},
                "run-b": {"buckets_per_kernel": 3.0, "resumes_per_kernel": 9.0},
            }
        )
        # run-b's resumes carry no committed ceiling: reported only.
        assert check_against_baseline(current, self.BASELINE) == []

    def test_any_rise_fails_naming_counter_and_run(self):
        current = self.current(
            **{"run-a": {"resumes_per_kernel": 1.5000001, "buckets_per_kernel": 2.5}}
        )
        failures = check_against_baseline(current, self.BASELINE)
        assert len(failures) == 1
        assert "resumes_per_kernel" in failures[0] and "run-a" in failures[0]


class TestCountKernelWork:
    def test_counts_resumes_and_buckets(self):
        from repro.sim import Simulator

        def run():
            sim = Simulator()

            def ping():
                for _ in range(3):
                    yield sim.timeout(1.0)

            for _ in range(2):
                sim.process(ping())
            sim.run()
            return sim, 4

        counted = count_kernel_work(run)
        # Two kick-offs and three wake-ups each; buckets at t=0..3.
        assert counted["resumes_per_kernel"] == 8 / 4
        assert counted["buckets_per_kernel"] == 4 / 4
        assert counted["python_calls_per_kernel"]["sim"] > 0
        assert "trace_bytes_per_kernel" not in counted

    def test_counts_stored_trace_bytes_given_a_tracer(self):
        from repro.sim import IntervalTracer, Simulator

        def run():
            tracer = IntervalTracer()
            for i in range(4):
                tracer.record_pair(f"job{i % 2}", i, "total", i, i + 0.5)
            return Simulator(), 4, tracer

        counted = count_kernel_work(run)
        # Each span stored once: two float64 bounds, one tag slot, and
        # a 4-byte ordinal for the total.
        assert counted["trace_bytes_per_kernel"] == 28.0


class TestMicrobenchSmoke:
    def test_event_loop_rate_positive(self):
        rate = bench_event_loop(num_procs=2, events_per_proc=200)
        assert rate > 0

    def test_tracer_rate_positive(self):
        assert bench_tracer(records=2000) > 0

    def test_resources_rate_positive(self):
        assert bench_resources(ops=500) > 0


class TestGcMeter:
    def test_counts_collections_by_generation(self):
        with GcMeter() as meter:
            gc.collect(0)
            gc.collect()
        report = meter.report()
        assert (report["gen0"], report["gen1"], report["gen2"]) == (1, 0, 1)
        assert report["seconds"] >= 0.0
        assert meter._on_collection not in gc.callbacks

    def test_counts_nothing_once_closed(self):
        with GcMeter() as meter:
            pass
        gc.collect()
        assert meter.collections == [0, 0, 0]


class TestImportFloor:
    def test_reports_rss_and_no_scipy_or_numpy(self):
        memory = import_floor()
        assert set(memory) == {"import_rss_mb", "scipy_loaded", "numpy_loaded"}
        assert memory["import_rss_mb"] > 0
        assert memory["scipy_loaded"] is False
        assert memory["numpy_loaded"] is False

    def test_reports_the_childs_own_peak(self):
        # On Linux a child's ru_maxrss starts at the peak of the process
        # that spawned it; the floor must not report this one's.
        ballast = b"\x01" * (128 << 20)
        memory = import_floor()
        assert memory["import_rss_mb"] < 100
        assert len(ballast) == 128 << 20


class TestCommittedBaseline:
    def baseline(self):
        return json.loads((REPO_ROOT / BASELINE_FILENAME).read_text())

    def test_baseline_parses_with_required_sections(self):
        baseline = self.baseline()
        for section in ("metrics", "quick_metrics", "thresholds", "digests"):
            assert section in baseline, section

    def test_speedup_gate_is_committed(self):
        """The PR's acceptance criterion lives in the baseline file."""
        gate = self.baseline()["thresholds"]["fig16_e2e_s"]
        assert gate["min_speedup"] >= 1.5

    def test_telemetry_gate_is_the_per_event_cost(self):
        baseline = self.baseline()
        for section in ("thresholds", "quick_thresholds"):
            assert "telemetry_event_cost_us" in baseline[section]
            assert "telemetry_overhead_ratio" not in baseline[section]

    def test_counter_ceilings_cover_both_runs(self):
        counters = self.baseline()["counters"]
        assert "fig16-fair@nb2" in counters
        assert "fig16-spatial@s4" in counters
        assert any(run.startswith("pair:") for run in counters)
        for run in counters:
            assert set(counters[run]) == {
                "resumes_per_kernel",
                "buckets_per_kernel",
                "trace_bytes_per_kernel",
            }

    def test_every_scheduler_kind_has_a_digest(self):
        from repro.experiments.runner import SCHEDULER_KINDS

        digests = self.baseline()["digests"]
        for kind in SCHEDULER_KINDS:
            assert kind in digests
            assert len(digests[kind]) == 64
