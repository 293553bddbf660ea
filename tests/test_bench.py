"""Perf-trajectory harness: BENCH_<n>.json bookkeeping and the CLI gate.

The heavy measurement paths run in ``benchmarks/``; here we cover the
bookkeeping (file indexing, payload shape, regression comparison) plus the
``repro bench`` command wiring with a stubbed measurement.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.bench as bench
from repro.__main__ import main


class TestTrajectoryFiles:
    def test_write_assigns_next_index(self, tmp_path):
        p1 = bench.write_bench(tmp_path, {"schema": 1})
        assert p1.name == "BENCH_1.json"
        p2 = bench.write_bench(tmp_path, {"schema": 1})
        assert p2.name == "BENCH_2.json"
        assert json.loads(p2.read_text())["index"] == 2

    def test_list_sorts_and_ignores_foreign_files(self, tmp_path):
        for name in ("BENCH_10.json", "BENCH_2.json", "BENCH_x.json", "bench_3.json"):
            (tmp_path / name).write_text("{}")
        assert [i for i, _ in bench.list_bench_files(tmp_path)] == [2, 10]

    def test_latest_parses_highest_index(self, tmp_path):
        bench.write_bench(tmp_path, {"marker": "a"})
        bench.write_bench(tmp_path, {"marker": "b"})
        index, payload = bench.latest_bench(tmp_path)
        assert index == 2
        assert payload["marker"] == "b"

    def test_latest_none_when_empty(self, tmp_path):
        assert bench.latest_bench(tmp_path) is None


def _payload(catdet=3.0, sort=2.5):
    return {
        "kernels": {
            "tracker_catdet": {"speedup": catdet},
            "tracker_sort": {"speedup": sort},
        }
    }


class TestRegressionCheck:
    def test_within_tolerance_passes(self):
        assert bench.check_regression(_payload(2.5), _payload(3.0), tolerance=0.2) == []

    def test_beyond_tolerance_fails_with_metric_name(self):
        failures = bench.check_regression(_payload(2.0), _payload(3.0), tolerance=0.2)
        assert len(failures) == 1
        assert "tracker_catdet" in failures[0]

    def test_improvement_passes(self):
        assert bench.check_regression(_payload(9.9), _payload(3.0)) == []

    def test_missing_metric_skipped(self):
        assert bench.check_regression({"kernels": {}}, _payload()) == []
        assert bench.check_regression(_payload(), {"kernels": {}}) == []

    def test_tune_sweep_ratio_is_gated(self):
        assert "tune_sweep.speedup" in bench.GATED_METRICS
        base = {"tune_sweep": {"speedup": 5.0}}
        slower = {"tune_sweep": {"speedup": 3.0}}
        failures = bench.check_regression(slower, base, tolerance=0.2)
        assert len(failures) == 1
        assert "tune_sweep" in failures[0]
        # Baselines predating the metric never gate it.
        assert bench.check_regression(slower, _payload()) == []

    def test_paper_e2e_ratio_is_gated(self):
        assert "paper_e2e.speedup" in bench.GATED_METRICS
        base = {"paper_e2e": {"speedup": 1.4}}
        slower = {"paper_e2e": {"speedup": 1.0}}
        failures = bench.check_regression(slower, base, tolerance=0.2)
        assert len(failures) == 1
        assert "paper_e2e" in failures[0]
        assert bench.check_regression(slower, _payload()) == []


class TestKernelBench:
    def test_tiny_run_has_all_kernels_and_positive_rates(self):
        kernels = bench.bench_kernels(num_tracks=4, num_frames=3, repeats=1)
        assert set(kernels) == {"tracker_catdet", "tracker_sort", "nms", "merge"}
        for entry in kernels.values():
            assert entry["speedup"] > 0
            assert all(v > 0 for k, v in entry.items() if k.endswith(("_fps", "_cps")))

    def test_tracker_frames_deterministic(self):
        a = bench._tracker_frames(4, 6, seed=3)
        b = bench._tracker_frames(4, 6, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.boxes, fb.boxes)
            np.testing.assert_array_equal(fa.scores, fb.scores)


class TestServeE2EBench:
    def test_host_and_device_figures_per_stream_count_and_batch(self, monkeypatch):
        monkeypatch.setattr(bench, "SERVE_E2E_STREAMS", (2,))
        out = bench.bench_serve_e2e()
        assert set(out) == {"streams_2_batch_1", "streams_2_batch_8"}
        for entry in out.values():
            assert entry["cpus"] >= 1
            assert entry["host_us_per_frame"] > 0 and entry["device_us_per_frame"] > 0
            assert entry["replayed_host_us_per_frame"] > 0
            assert entry["replay_speedup"] == pytest.approx(
                entry["host_us_per_frame"] / entry["replayed_host_us_per_frame"]
            )
        # Batching amortizes the modelled per-invocation overhead.
        assert out["streams_2_batch_8"]["device_us_per_frame"] <= (
            out["streams_2_batch_1"]["device_us_per_frame"]
        )

    def test_serve_e2e_is_not_gated(self):
        assert not [m for m in bench.GATED_METRICS if m.startswith("serve_e2e")]


class TestMetricsBench:
    def test_positive_rates_and_host_cpus(self):
        out = bench.bench_metrics(repeats=1)
        assert out["cpus"] >= 1 and out["scores_per_class"] == 2000
        assert out["mean_delay_cps"] > 0 and out["mean_ap_cps"] > 0

    def test_metrics_is_not_gated(self):
        assert not [m for m in bench.GATED_METRICS if m.startswith("metrics")]


class TestBenchCommand:
    @pytest.fixture
    def stubbed(self, monkeypatch):
        def fake_run_bench(quick=False, num_tracks=60, on_progress=None):
            return {
                "schema": 1,
                "quick": quick,
                "systems": {"single": {"fps": 100.0, "frames": 10, "seconds": 0.1}},
                "kernels": {
                    "tracker_catdet": {"speedup": 2.5},
                    "tracker_sort": {"speedup": 2.2},
                },
                "paper_e2e": {
                    "speedup": 1.4,
                    "shared_seconds": 1.0,
                    "per_point_seconds": 1.4,
                    "grid_points": 13,
                },
                "serve_e2e": {
                    "streams_8_batch_1": {
                        "cpus": 2, "host_us_per_frame": 2100.4, "device_us_per_frame": 9670.9,
                    },
                    "streams_8_batch_8": {
                        "cpus": 2, "host_us_per_frame": 1800.2, "device_us_per_frame": 3100.7,
                        "replayed_host_us_per_frame": 300.1, "replay_speedup": 6.0,
                    },
                },
                "metrics": {
                    "cpus": 2, "scores_per_class": 2000,
                    "mean_delay_cps": 812.3, "mean_ap_cps": 2604.9,
                },
            }

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)

    def test_writes_next_entry(self, stubbed, tmp_path, capsys):
        assert main(["bench", "--quick", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_1.json").exists()
        out = capsys.readouterr().out
        assert "tracker_catdet" in out
        assert "paper_e2e: 1.40x" in out
        assert re.search(r"streams_8_batch_1\s+2100\s+9671", out)
        assert re.search(r"streams_8_batch_8\s+1800\s+3101\s+300", out)
        assert "metrics: mean_delay(0.8) 812 calls/s, mean_ap() 2605 calls/s" in out
        assert "(2 classes x 2000 scores, 2 cpus)" in out

    def test_no_write_leaves_directory_empty(self, stubbed, tmp_path):
        assert main(["bench", "--no-write", "--output-dir", str(tmp_path)]) == 0
        assert bench.list_bench_files(tmp_path) == []

    def test_check_gates_against_pre_run_baseline(self, stubbed, tmp_path, capsys):
        bench.write_bench(tmp_path, _payload(catdet=2.4, sort=2.0))
        assert main(["bench", "--check", "--output-dir", str(tmp_path)]) == 0
        # The new entry was still written, with the next index.
        assert (tmp_path / "BENCH_2.json").exists()
        assert "within" in capsys.readouterr().out

    def test_check_fails_on_regression(self, stubbed, tmp_path, capsys):
        bench.write_bench(tmp_path, _payload(catdet=9.0))
        assert main(["bench", "--check", "--output-dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_check_without_baseline_passes(self, stubbed, tmp_path):
        assert main(["bench", "--check", "--no-write", "--output-dir", str(tmp_path)]) == 0
