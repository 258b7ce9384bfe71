"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "Olympian" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestModels:
    def test_lists_seven_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("Inception", "GoogLeNet", "AlexNet", "VGG", "ResNet-152"):
            assert name in out
        assert "15599" in out  # Table 2 Inception node count


class TestProfile:
    def test_profile_writes_bundle(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        code = main([
            "profile", "inception_v4:100",
            "--out", str(out_path),
            "--scale", "0.02",
            "--quantum", "0.0012",
        ])
        assert code == 0
        assert out_path.exists()
        assert "Q = 1200 us" in capsys.readouterr().out

    def test_profile_default_batch_is_reference(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        code = main([
            "profile", "vgg",
            "--out", str(out_path),
            "--scale", "0.02",
            "--quantum", "0.001",
        ])
        assert code == 0
        from repro.core import load_profiler_output

        bundle = load_profiler_output(out_path)
        assert bundle.store.profiled_batches("vgg") == [120]

    def test_unknown_model_fails(self, tmp_path, capsys):
        code = main(["profile", "lenet", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err


class TestServe:
    def test_serve_fair_prints_finish_times(self, capsys):
        code = main([
            "serve", "--clients", "3", "--batches", "2",
            "--scale", "0.02", "--quantum", "0.0008",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "c0" in out and "c2" in out
        assert "Q = 800 us" in out
        assert "utilization" in out

    def test_serve_with_saved_profiles(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        main([
            "profile", "inception_v4:100",
            "--out", str(out_path),
            "--scale", "0.02",
            "--quantum", "0.0008",
        ])
        code = main([
            "serve", "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--profiles", str(out_path),
            "--quantum", "0.0008",
        ])
        assert code == 0

    def test_serve_baseline(self, capsys):
        code = main([
            "serve", "--scheduler", "tf-serving", "--clients", "2",
            "--batches", "1", "--scale", "0.02",
        ])
        assert code == 0
        assert "tf-serving" in capsys.readouterr().out


class TestServeTelemetry:
    def test_telemetry_flag_prints_rollup(self, capsys):
        code = main([
            "serve", "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--quantum", "0.0008",
            "--telemetry", "metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "events =" in out and "decisions =" in out

    def test_metrics_out_writes_prometheus(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "serve", "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--quantum", "0.0008",
            "--telemetry", "metrics", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE requests_submitted_total counter" in text
        assert "sched_decisions_total" in text

    def test_monitor_reports_drift_summary(self, capsys):
        code = main([
            "serve", "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--quantum", "0.0008", "--monitor",
        ])
        assert code == 0
        assert "drift" in capsys.readouterr().out

    def test_monitor_rejected_for_baseline(self, capsys):
        code = main([
            "serve", "--scheduler", "tf-serving", "--clients", "2",
            "--batches", "1", "--scale", "0.02", "--monitor",
        ])
        assert code == 2
        assert "Olympian" in capsys.readouterr().err


class TestTrace:
    def test_trace_writes_validated_artefacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        spans_path = tmp_path / "spans.json"
        code = main([
            "trace", "--workload", "homogeneous",
            "--clients", "2", "--batches", "1", "--scale", "0.02",
            "--out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--spans-out", str(spans_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace events" in out

        import json

        from repro.telemetry.schema import (
            validate_chrome_trace,
            validate_metrics_document,
            validate_spans_document,
        )

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        # Flow arrows are always on for `repro trace`.
        assert any(e["ph"] == "s" for e in trace["traceEvents"])
        assert validate_metrics_document(
            json.loads(metrics_path.read_text())
        ) == []
        spans = json.loads(spans_path.read_text())
        assert validate_spans_document(spans) == []
        assert any(s["kind"] == "tenure" for s in spans)

    def test_trace_prometheus_suffix_switches_format(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "trace", "--workload", "homogeneous",
            "--clients", "2", "--batches", "1", "--scale", "0.02",
            "--out", str(tmp_path / "trace.json"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert metrics_path.read_text().startswith("# ")


class TestTop:
    def test_top_streams_frames(self, capsys):
        code = main([
            "top", "--workload", "homogeneous",
            "--clients", "2", "--batches", "1", "--scale", "0.02",
            "--interval", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top") >= 2  # several frames streamed
        assert "tenure share by model" in out
        assert "run complete:" in out

    def test_top_follow_replays_with_ansi(self, capsys):
        code = main([
            "top", "--workload", "homogeneous",
            "--clients", "2", "--batches", "1", "--scale", "0.02",
            "--interval", "0.02", "--follow", "--delay", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "\x1b[H" in out  # in-place redraw
        assert "repro top" in out

    def test_top_frames_cap(self, capsys):
        code = main([
            "top", "--workload", "homogeneous",
            "--clients", "2", "--batches", "1", "--scale", "0.02",
            "--interval", "0.02", "--frames", "1",
        ])
        assert code == 0
        # One mid-run frame plus the end-of-run summary frame.
        assert capsys.readouterr().out.count("repro top") == 2


class TestReproduce:
    def test_list_artefacts(self, capsys):
        assert main(["reproduce", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table2" in out and "ext-multigpu" in out

    def test_default_lists(self, capsys):
        assert main(["reproduce"]) == 0
        assert "available artefacts" in capsys.readouterr().out

    def test_unknown_artefact_fails(self, capsys):
        assert main(["reproduce", "fig99"]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    def test_reproduce_fig4_runs(self, capsys):
        assert main(["reproduce", "fig4"]) == 0
        assert "Figure 4" in capsys.readouterr().out


class TestValidate:
    def test_validate_single_model(self, capsys):
        code = main(["validate", "inception_v4", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "GPU nodes" in out

    def test_validate_unknown_model(self, capsys):
        assert main(["validate", "lenet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_validate_all_models_default(self, capsys):
        code = main(["validate", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7


class TestServeSpatial:
    def test_spatial_scheduler_accepted(self, capsys):
        code = main([
            "serve", "--scheduler", "spatial", "--streams", "2",
            "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--quantum", "0.0008",
        ])
        assert code == 0
        assert "spatial" in capsys.readouterr().out

    def test_spatial_rt_scheduler_accepted(self, capsys):
        code = main([
            "serve", "--scheduler", "spatial-rt", "--streams", "2",
            "--clients", "2", "--batches", "1",
            "--scale", "0.02", "--quantum", "0.0008",
        ])
        assert code == 0

    def test_zero_streams_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "--scheduler", "spatial", "--streams", "0",
                "--clients", "2", "--batches", "1", "--scale", "0.02",
            ])
        assert exit_info.value.code == 2
        assert "error: argument --streams: must be >= 1: 0" in (
            capsys.readouterr().err
        )

    def test_negative_streams_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "--streams", "-4",
                "--clients", "2", "--batches", "1", "--scale", "0.02",
            ])
        assert exit_info.value.code == 2

    def test_undersubscription_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "--scheduler", "spatial-rt", "--streams", "2",
                "--oversubscription", "0.5",
                "--clients", "2", "--batches", "1", "--scale", "0.02",
            ])
        assert exit_info.value.code == 2
        assert "error: argument --oversubscription: must be >= 1.0: 0.5" in (
            capsys.readouterr().err
        )

    def test_unknown_scheduler_still_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scheduler", "spatialish"])

    def test_reproduce_lists_ext_spatial(self, capsys):
        assert main(["reproduce", "list"]) == 0
        assert "ext-spatial" in capsys.readouterr().out


class TestSoak:
    def test_quick_soak_passes_and_reports(self, tmp_path, capsys):
        out_path = tmp_path / "soak.json"
        code = main([
            "soak", "--quick", "--seed", "0", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "soak  seed=0" in out
        assert "resume digest:" in out
        assert "soak digest:" in out
        assert "VIOLATED" not in out

        import json

        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["runs"][0]["scheduler"] == "fair"
        assert report["runs"][0]["incarnations"] == 2

    def test_soak_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["soak", "--help"])
        out = capsys.readouterr().out
        for flag in ("--seed", "--quick", "--gpus", "--out"):
            assert flag in out


class TestUnreadableInputFiles:
    """A missing or malformed input file is a usage error (exit 2 with
    one ``error: cannot read`` line), not a traceback."""

    ARGVS = {
        "faults-show": ["faults", "show"],
        "serve-fault-plan": [
            "serve", "--clients", "1", "--batches", "1", "--scale", "0.02",
            "--fault-plan",
        ],
        "serve-profiles": [
            "serve", "--clients", "1", "--batches", "1", "--scale", "0.02",
            "--profiles",
        ],
    }

    @pytest.mark.parametrize("flag", sorted(ARGVS))
    def test_missing_file(self, flag, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(self.ARGVS[flag] + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "No such file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", sorted(ARGVS))
    def test_malformed_file(self, flag, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(self.ARGVS[flag] + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: JSONDecodeError")
        assert err.count("\n") == 1


class TestCountFlags:
    """Count flags reject values below one with an ``error:`` line, exit 2."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_reproduce_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "table2", "--jobs", jobs])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --jobs: must be >= 1: {jobs}" in err
        assert "Traceback" not in err

    def test_reproduce_jobs_not_an_int_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "table2", "--jobs", "x"])
        assert exit_info.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_soak_zero_gpus_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["soak", "--quick", "--gpus", "0"])
        assert exit_info.value.code == 2
        assert "error: argument --gpus: must be >= 1: 0" in capsys.readouterr().err

    def test_serve_zero_clients_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--clients", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --clients: must be >= 1: 0" in err
        assert "Overhead-Q" not in err


class TestBadServeInputs:
    """Out-of-range serve/workload flags are argparse errors (exit 2),
    never a traceback from deep in the run nor silently clamped."""

    SMALL = ["--clients", "1", "--batches", "1", "--scale", "0.02"]
    ARGVS = {
        "serve-unknown-model": (
            ["serve", "--model", "nope"], "argument --model: invalid choice: 'nope'",
        ),
        "trace-unknown-model": (
            ["trace", "--workload", "homogeneous", "--model", "nope"],
            "argument --model: invalid choice: 'nope'",
        ),
        "blame-unknown-model": (
            ["blame", "--workload", "homogeneous", "--model", "nope"],
            "argument --model: invalid choice: 'nope'",
        ),
        "serve-zero-faults": (
            ["serve", *SMALL, "--fault-seed", "1", "--num-faults", "0"],
            "argument --num-faults: must be >= 1: 0",
        ),
        "serve-negative-snapshot-period": (
            ["serve", *SMALL, "--telemetry", "metrics", "--snapshot-period", "-1"],
            "argument --snapshot-period: must be >= 0.0: -1.0",
        ),
        "serve-negative-retries": (
            ["serve", *SMALL, "--retries", "-1"],
            "argument --retries: must be >= 0: -1",
        ),
        "serve-zero-batches": (
            ["serve", "--clients", "1", "--batches", "0"],
            "argument --batches: must be >= 1: 0",
        ),
    }

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_rejected_with_usage_error(self, case, capsys):
        argv, message = self.ARGVS[case]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
