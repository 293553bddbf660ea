"""Smoke tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.api.spec import ExperimentSpec


TINY_RUN = ["--sequences", "1", "--frames", "10"]


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "resnet10a" in out


class TestRun:
    def test_catdet(self, capsys):
        assert main(["run", "catdet", "resnet50", "resnet10a", *TINY_RUN]) == 0
        out = capsys.readouterr().out
        assert "CaTDet" in out
        assert "mAP=" in out and "ops/frame" in out

    def test_new_system_config_flags(self, capsys):
        argv = [
            "run", "cascade", "resnet50", "resnet10a", *TINY_RUN,
            "--no-detailed-ops", "--input-scale", "0.72", "--margin", "10",
        ]
        assert main(argv) == 0
        assert "Cascaded" in capsys.readouterr().out

    def test_keyframe_kind_available(self, capsys):
        assert main(["run", "keyframe", "resnet10a", *TINY_RUN]) == 0
        assert "keyframe" in capsys.readouterr().out

    def test_run_uses_cache(self, tmp_path, capsys):
        argv = ["run", "single", "resnet10a", *TINY_RUN,
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "1 miss(es)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hit(s)" in capsys.readouterr().out

    def test_no_cache_flag(self, tmp_path, capsys):
        argv = ["run", "single", "resnet10a", *TINY_RUN,
                "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        assert "[cache]" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestTable2:
    def test_structure(self, capsys):
        assert main(["table2", "--sequences", "1", "--frames", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        # All five headline systems appear.
        assert out.count("CaTDet") == 2
        assert out.count("Cascaded") == 2
        assert "Faster R-CNN" in out


class TestSweep:
    def test_tiny_grid(self, capsys):
        argv = ["sweep", "--models", "resnet10a", "--c-values", "0.1,0.4",
                "--sequences", "1", "--frames", "10"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "C-thresh sweep" in out
        # 1 model x {tracker, no tracker} x 2 C values = 4 rows.
        assert out.count("resnet10a") == 4


class TestSpecCommand:
    def test_example_is_valid_spec(self, capsys):
        assert main(["spec", "--example"]) == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.system.kind == "catdet"

    def test_missing_file_errors(self, capsys):
        assert main(["spec"]) == 2
        assert "spec file" in capsys.readouterr().err

    def _tiny_spec_file(self, tmp_path, capsys, as_list=False):
        main(["spec", "--example"])
        payload = json.loads(capsys.readouterr().out)
        payload["dataset"]["num_sequences"] = 1
        payload["dataset"]["frames_per_sequence"] = 10
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([payload, payload] if as_list else payload))
        return path

    def test_single_spec_runs(self, tmp_path, capsys):
        path = self._tiny_spec_file(tmp_path, capsys)
        assert main(["spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 spec(s)" in out and "CaTDet" in out

    def test_grid_dedupes_and_caches(self, tmp_path, capsys):
        path = self._tiny_spec_file(tmp_path, capsys, as_list=True)
        cache = tmp_path / "cache"
        assert main(["spec", str(path), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "2 spec(s)" in out
        assert "1 miss(es)" in out  # two identical specs -> one computation
        assert main(["spec", str(path), "--cache-dir", str(cache)]) == 0
        assert "1 hit(s)" in capsys.readouterr().out

    def test_dry_run_prints_fingerprints(self, tmp_path, capsys):
        path = self._tiny_spec_file(tmp_path, capsys)
        assert main(["spec", str(path), "--dry-run"]) == 0
        line = capsys.readouterr().out.strip()
        fingerprint = line.split()[0]
        assert len(fingerprint) == 64
        assert int(fingerprint, 16) >= 0


SERVE_TINY = ["--streams", "2", "--frames", "8", "--sequences", "2",
              "--seq-frames", "15", "--rate", "10"]


class TestServeCommands:
    def test_serve_reports_throughput_and_slo(self, capsys):
        assert main(["serve", "catdet", "resnet50", "resnet10a",
                     *SERVE_TINY, "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "Serving report" in out
        assert "(fleet)" in out and "p99(ms)" in out
        assert "throughput:" in out and "detector invocations" in out

    def test_serve_uses_cache(self, tmp_path, capsys):
        argv = ["serve", "single", "resnet10a", *SERVE_TINY,
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 hit(s)" in second
        # The cached report reproduces the fresh run's numbers exactly
        # (ignoring the [cache]/[trace] bookkeeping lines, which differ
        # between a recording run and a pure hit).
        strip = lambda text: [
            line for line in text.splitlines()[2:]
            if not line.startswith("[")
        ]
        assert strip(first) == strip(second)

    def test_loadgen_summary_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.json"
        assert main(["loadgen", *SERVE_TINY, "--pattern", "uniform",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "uniform load" in out and "aggregate offered rate" in out
        payload = json.loads(out_file.read_text())
        assert payload["load"]["pattern"] == "uniform"
        assert len(payload["schedule"]) == 16

    def test_serve_rejects_bad_shed_policy(self):
        with pytest.raises(SystemExit):
            main(["serve", "single", "resnet10a", "--shed", "coinflip"])


class TestCostModelCommands:
    def test_run_device_reports_modeled_latency(self, capsys):
        assert main(["run", "catdet", "resnet50", "resnet10a", *TINY_RUN,
                     "--device", "titanx"]) == 0
        out = capsys.readouterr().out
        assert "modeled latency on titanx" in out
        assert "ms/frame" in out and "fps" in out

    def test_table7_prints_paper_comparison(self, capsys):
        assert main(["table7", "--frames", "25"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "titanx" in out
        assert "Res50 Faster R-CNN" in out and "CaTDet" in out
        assert "speedup" in out

    def test_serve_accepts_device(self, capsys):
        assert main(["serve", "catdet", "resnet50", "resnet10a",
                     *SERVE_TINY, "--device", "titanx"]) == 0
        assert "Serving report" in capsys.readouterr().out

    def test_serve_device_conflicts_with_explicit_rates(self, capsys):
        assert main(["serve", "catdet", "resnet50", "resnet10a",
                     *SERVE_TINY, "--device", "titanx", "--gops", "100"]) == 2
        assert "explicit service model" in capsys.readouterr().err

    def test_serve_tune_requires_target(self, capsys):
        assert main(["serve", "catdet", "resnet50", "resnet10a",
                     *SERVE_TINY, "--tune"]) == 2
        assert "--slo-p99-ms" in capsys.readouterr().err

    def test_serve_tune_picks_policy(self, tmp_path, capsys):
        argv = ["serve", "catdet", "resnet50", "resnet10a", *SERVE_TINY,
                "--rate", "3", "--overhead-ms", "50", "--gops", "1000000",
                "--tune", "--slo-p99-ms", "2000",
                "--batch-grid", "1,8", "--wait-grid", "0",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Policy sweep" in out and "best policy" in out
        # Re-tune: every grid point must come back from the cache.
        assert main(argv) == 0
        assert "0 miss(es)" in capsys.readouterr().out

    def test_loadgen_bursty_pattern(self, tmp_path, capsys):
        out_file = tmp_path / "bursty.json"
        assert main(["loadgen", *SERVE_TINY, "--pattern", "bursty",
                     "--out", str(out_file)]) == 0
        assert "bursty load" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["load"]["pattern"] == "bursty"


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--workers", "-1"])


class TestClusterCommands:
    def _spec_file(self, tmp_path, capsys):
        main(["spec", "--example"])
        payload = json.loads(capsys.readouterr().out)
        payload["dataset"]["num_sequences"] = 1
        payload["dataset"]["frames_per_sequence"] = 10
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_dispatch_no_wait_then_worker_then_cached_wait(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path, capsys)
        queue_dir = str(tmp_path / "queue")
        assert main(["dispatch", str(spec_file), "--queue-dir", queue_dir,
                     "--no-wait"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1  # one task id
        assert "1 pending" in captured.err

        # Drain with the worker command, then re-dispatch: pure cache hits,
        # so --wait returns the table without any worker running.
        assert main(["worker", queue_dir, "--max-tasks", "1",
                     "--idle-timeout", "30", "--poll", "0.02"]) == 0
        assert "1 task(s) done" in capsys.readouterr().err
        assert main(["dispatch", str(spec_file), "--queue-dir", queue_dir,
                     "--wait", "--timeout", "30", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "1 spec(s)" in out and "CaTDet" in out

    def test_cache_stats_ls_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "single", "resnet10a", "--sequences", "1",
                "--frames", "10", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 cached result(s)" in out and "kitti" in out

        assert main(["cache", "prune", "--older-than", "1h",
                     "--cache-dir", cache_dir]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert main(["cache", "prune", "--older-than", "0s",
                     "--cache-dir", cache_dir]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_ls_labels_every_tune_point(self, tmp_path, capsys):
        """Each store labels its own entries: a serve tune lists one row
        per unique grid point (its batching knobs) plus the compute
        trace, and a fleet tune adds one row per fleet shape."""
        cache_dir = str(tmp_path / "cache")
        load = ["--streams", "2", "--frames", "8", "--sequences", "2",
                "--seq-frames", "15", "--rate", "3", "--cache-dir", cache_dir]

        def listed():
            assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            labels = [row.split("  ")[-1].strip() for row in rows]
            assert "?" not in labels
            traces = [label for label in labels if label.startswith("compute trace:")]
            reports = [label for label in labels if label not in traces]
            return reports, traces

        # batch=1 wait=25 aliases batch=1 wait=0: 3 unique points.
        assert main(["serve", "catdet", "resnet50", "resnet10a", *load,
                     "--device", "titanx", "--tune", "--slo-p99-ms", "300",
                     "--batch-grid", "1,4", "--wait-grid", "0,25"]) == 0
        capsys.readouterr()
        reports, traces = listed()
        serve_label = "resnet10a, resnet50, CaTDet @ kitti x2 poisson"
        assert sorted(reports) == [
            f"{serve_label} batch=1 wait=0ms",
            f"{serve_label} batch=4 wait=0ms",
            f"{serve_label} batch=4 wait=25ms",
        ]
        assert traces == [
            f"compute trace: {serve_label}, 2 stream(s), 16 frame(s)"
        ]

        assert main(["fleet", "tune", "single", "resnet10a", *load,
                     "--slo-p99-ms", "3000", "--replica-grid", "1,2",
                     "--devices", "edge"]) in (0, 1)
        capsys.readouterr()
        reports, traces = listed()
        assert len(set(reports)) == len(reports) == 5
        for count in (1, 2):
            assert sum(
                label.endswith(f"poisson replicas={count} devices=edge batch=8")
                for label in reports
            ) == 1
        # Each trace row names its deployment, so the two are distinct.
        assert len(set(traces)) == len(traces) == 2
        assert (
            "compute trace: resnet10a, Faster R-CNN @ kitti x2 poisson, "
            "2 stream(s), 16 frame(s)"
        ) in traces

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "cache directory" in capsys.readouterr().err

    def test_progress_flag_reports_on_stderr(self, capsys):
        argv = ["run", "single", "resnet10a", "--sequences", "2",
                "--frames", "10", "--progress"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[progress] 1/2" in err and "[progress] 2/2" in err


SERVE_GATE = [
    "serve", "catdet", "resnet50", "resnet10a",
    "--streams", "2", "--frames", "10", "--sequences", "1",
    "--seq-frames", "10",
]


class TestServeSloGate:
    def test_gate_passes_with_generous_target(self, capsys):
        assert main([*SERVE_GATE, "--slo-p99-ms", "100000"]) == 0
        assert "SLO PASS" in capsys.readouterr().out

    def test_gate_fails_on_p99_miss(self, capsys):
        assert main([*SERVE_GATE, "--slo-p99-ms", "0.001"]) == 1
        err = capsys.readouterr().err
        assert "SLO FAIL" in err and "p99" in err

    def test_gate_fails_on_shed_frames(self, capsys):
        # A 1-slot queue under 4 bursty streams must shed; even a huge
        # p99 target cannot make dropped load pass the gate.
        argv = [
            "serve", "catdet", "resnet50", "resnet10a",
            "--streams", "4", "--frames", "10", "--sequences", "1",
            "--seq-frames", "10", "--rate", "1000", "--queue-capacity", "1",
            "--slo-p99-ms", "100000000",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "SLO FAIL" in err and "shed" in err

    def test_gate_fails_on_queue_wait_bound(self, capsys):
        argv = [*SERVE_GATE, "--slo-p99-ms", "100000",
                "--slo-wait-p95-ms", "0.0001"]
        assert main(argv) == 1
        assert "queue-wait p95" in capsys.readouterr().err

    def test_tune_accepts_wait_bound(self, capsys):
        argv = [*SERVE_GATE, "--tune", "--slo-p99-ms", "100000",
                "--slo-wait-p95-ms", "100000",
                "--batch-grid", "1,2", "--wait-grid", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "queue-wait p95 <= 100000 ms" in out and "qwait p95" in out


class TestServeSink:
    def test_jsonl_sink_records_balance(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        assert main([*SERVE_GATE, "--sink", f"jsonl:{path}"]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {}
        for record in records:
            kinds[record["record"]] = kinds.get(record["record"], 0) + 1
        assert kinds["serve.summary"] == 1
        (summary,) = [r for r in records if r["record"] == "serve.summary"]
        # Conservation: every offered frame is served or shed.
        assert summary["frames_offered"] == (
            summary["frames_served"] + summary["frames_shed"]
        )
        assert kinds["serve.frame"] == summary["frames_served"]
        assert kinds.get("serve.shed", 0) == summary["frames_shed"]

    def test_table_sink_prints_summary(self, capsys):
        assert main([*SERVE_GATE, "--sink", "table"]) == 0
        out = capsys.readouterr().out
        assert "sink summary" in out and "serve.frame" in out

    def test_bad_sink_spec_is_a_usage_error(self, capsys):
        assert main([*SERVE_GATE, "--sink", "bogus:x"]) == 2
        assert "unknown sink" in capsys.readouterr().err


class TestQueryCommand:
    QUERY_ARGS = [
        "query", "catdet", "resnet50", "resnet10a",
        "--sequences", "2", "--seq-frames", "30",
        "--streams", "2", "--frames", "30", "--no-cache",
    ]

    def _spec_file(self, tmp_path, capsys):
        assert main(["query", "--example"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "query.json"
        path.write_text(text)
        return str(path)

    def test_example_round_trips(self, capsys):
        from repro.query import QuerySpec

        assert main(["query", "--example"]) == 0
        spec = QuerySpec.from_json(capsys.readouterr().out)
        assert spec.name == "car-enters-and-persists"

    def test_spec_required(self, capsys):
        assert main(["query", "catdet", "resnet50", "resnet10a"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        assert main(["query", "catdet", "resnet50", "resnet10a",
                     "--spec", str(path)]) == 2
        assert "bad query spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr, message",
        [
            ({"kind": "not", "prop": 5}, "Not.prop: expected an object, got int"),
            (
                {"kind": "box_in_region", "region": [0, 0, 1, 1]},
                "BoxInRegion.region: expected an object, got list",
            ),
            ({"kind": "then", "steps": 7}, "Then.steps: expected a list, got int"),
        ],
    )
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, expr, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "expr": expr}))
        assert main(["query", "catdet", "resnet50", "resnet10a",
                     "--spec", str(path)]) == 2
        assert f"error: bad query spec: {message}" in capsys.readouterr().err

    def test_offline_and_serve_print_identical_tables(
        self, tmp_path, capsys
    ):
        spec_file = self._spec_file(tmp_path, capsys)
        assert main([*self.QUERY_ARGS, "--spec", spec_file]) == 0
        offline = capsys.readouterr().out
        assert main([*self.QUERY_ARGS, "--spec", spec_file, "--serve"]) == 0
        served = capsys.readouterr().out
        strip = lambda text: "\n".join(
            line for line in text.splitlines() if not line.startswith("query:")
        )
        assert strip(offline) == strip(served)
        assert "window(s) over 2 stream(s)" in offline

    def test_out_file_and_sink(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path, capsys)
        out = tmp_path / "report.json"
        sink = tmp_path / "events.jsonl"
        assert main([*self.QUERY_ARGS, "--spec", spec_file, "--serve",
                     "--out", str(out), "--sink", f"jsonl:{sink}"]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        total = sum(len(f["windows"]) for f in report["streams"].values())
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        window_records = [r for r in records if r["record"] == "query.window"]
        assert len(window_records) == total
        (summary,) = [r for r in records if r["record"] == "serve.summary"]
        assert summary["query_events"] == total


class TestStatus:
    def test_status_after_dispatch_and_drain(self, tmp_path, capsys):
        spec = ExperimentSpec.from_dict(json.loads(
            _example_spec_json(capsys)
        ))
        payload = spec.to_dict()
        payload["dataset"]["num_sequences"] = 1
        payload["dataset"]["frames_per_sequence"] = 10
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload))
        queue_dir = str(tmp_path / "queue")
        assert main(["dispatch", str(spec_file), "--queue-dir", queue_dir,
                     "--no-wait"]) == 0
        capsys.readouterr()

        assert main(["status", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "pending" in out and "is anything running?" in out

        assert main(["worker", queue_dir, "--max-tasks", "1",
                     "--idle-timeout", "30", "--poll", "0.02"]) == 0
        capsys.readouterr()

        assert main(["status", queue_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["done"] == 1
        assert status["counts"]["dead"] == 0
        assert status["counts"]["pending"] == 0

    def test_status_on_missing_queue_is_empty_not_crash(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nowhere")]) == 0
        assert "pending" in capsys.readouterr().out


TINY_FLEET = [
    "fleet", "run", "single", "resnet10a",
    "--streams", "2", "--frames", "10", "--rate", "5",
    "--devices", "edge", "--replicas", "2",
]


class TestFleet:
    def test_run_report_roundtrip_and_gate(self, tmp_path, capsys):
        report_file = tmp_path / "fleet.json"
        argv = [*TINY_FLEET, "--report-out", str(report_file),
                "--slo-p99-ms", "5000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fleet report" in out and "SLO PASS" in out
        assert main(["fleet", "report", str(report_file),
                     "--slo-p99-ms", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Fleet report" in out and "SLO PASS" in out
        # An unmeetable target fails the same saved report.
        assert main(["fleet", "report", str(report_file),
                     "--slo-p99-ms", "0.001"]) == 1

    def test_run_publishes_fleet_health(self, tmp_path, capsys):
        status_dir = tmp_path / "ops"
        assert main([*TINY_FLEET, "--status-dir", str(status_dir)]) == 0
        capsys.readouterr()
        assert main(["status", str(status_dir)]) == 0
        out = capsys.readouterr().out
        assert "fleets" in out and "peak replicas" in out

    def test_autoscale_flags_and_sink(self, tmp_path, capsys):
        sink_file = tmp_path / "records.jsonl"
        argv = [*TINY_FLEET, "--replicas", "1", "--autoscale",
                "--max-replicas", "2", "--interval-s", "0.5",
                "--sink", f"jsonl:{sink_file}"]
        assert main(argv) == 0
        records = [json.loads(line) for line in
                   sink_file.read_text().splitlines()]
        kinds = {r.get("record") for r in records}
        assert "fleet.summary" in kinds

    def test_tune_picks_and_caches(self, tmp_path, capsys):
        argv = ["fleet", "tune", "single", "resnet10a",
                "--streams", "2", "--frames", "10", "--rate", "5",
                "--devices", "edge", "--slo-p99-ms", "5000",
                "--replica-grid", "1,2", "--batch-grid", "2,4",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fleet sweep" in out and "best fleet:" in out
        assert "4 miss(es)" in out
        assert main(argv) == 0
        assert "4 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_unknown_device_is_a_usage_error(self, capsys):
        argv = ["fleet", "run", "single", "resnet10a", "--devices", "warp"]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_rate_per_stream_flag(self, capsys):
        assert main(["loadgen", "--pattern", "uniform", "--streams", "3",
                     "--frames", "5", "--rate-per-stream", "2,10"]) == 0
        out = capsys.readouterr().out
        assert "~14.0 frames/s" in out


def _example_spec_json(capsys):
    assert main(["spec", "--example"]) == 0
    return capsys.readouterr().out
