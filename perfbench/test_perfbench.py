"""Tests of the benchmark itself, at the tiny input size.

Each workload runs once untraced and once traced, the way the benchmark
is run: ``python3 perfbench/run.py ...`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import END_TO_END  # noqa: E402
from tracing import PARENT_ONLY, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, seed: int = 3):
    """``(context, result)`` of one tiny run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    prefix = "perfbench-context "
    assert lines[-2].startswith(prefix), proc.stdout
    return json.loads(lines[-2][len(prefix):]), json.loads(lines[-1])


def test_manifest_matches_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == list(PER_LAYER)
    assert set(PARENT_ONLY) <= {name for name, _, _ in PER_LAYER}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_and_traced_runs_agree(workload):
    context, result = run_benchmark(workload, trace=0)
    traced_context, traced = run_benchmark(workload, trace=1)
    for ctx, res in ((context, result), (traced_context, traced)):
        assert res["correct"] and res["failed"] == 0, ctx["failures"]
        assert res["attempted"] >= 1
        assert ctx["workers"] == WORKLOADS[workload].workers
        assert ctx["host"]["effective_cpu_count"] >= 1
    assert context["digest"] == traced_context["digest"]

    for name, unit, _ in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name

    metrics = traced["metrics"]
    assert [(n, metrics[n]["unit"]) for n, _, _ in PER_LAYER] == [
        (n, unit) for n, unit, _ in PER_LAYER
    ]
    assert metrics["trace.digest_match"]["value"] == 1.0
    # Self times partition the traced spans, so they fit in the traced wall.
    assert 0 < metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]
    assert metrics["simdet.full_frame.frames"]["value"] > 0
    assert (ROOT / ".perfbench" / f"spans-{workload}-seed3.npz").is_file()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_64",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
