"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats measured iterations of the workload for
``--seconds`` and reports the end-to-end metrics (medians over the
iterations).  Its times are reference-host seconds: the speed of a shared
host drifts by tens of percent within minutes, so each iteration's wall
times are scaled by how long a fixed probe (:func:`host_probe`) takes
just before and after it, against that probe's time on the reference
host.  The raw wall times are recorded too.  ``--trace 1`` alternates untraced and traced iterations
instead and reports the per-layer metrics of the traced ones, the
tracing overhead, and whether both kinds produced the same outputs; the
span table is written to ``.perfbench/``.  The workloads, their sizes and
their output checks live in ``workloads.py``; the spans in ``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host, the seed, the workers and the per-iteration times.
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up is repeated this many times, each in a fresh interpreter, and
#: its median reported.
SETUP_REPEATS = 5

#: A fresh interpreter that sets one workload up and prints its import and
#: build seconds (arguments: this directory, workload, seed, size).
_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(*run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4])[1:])"
)

#: Wall seconds :func:`host_probe` takes on the reference host, which
#: fixes the scale of the reported reference-host seconds.
PROBE_REFERENCE_S = 0.05

#: End-to-end metrics of an untraced run: ``(name, unit, better)``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("first_pass_s", "s", "lower"),
    ("second_pass_s", "s", "lower"),
)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def host_facts():
    import numpy

    from repro.engine.scheduler import effective_cpu_count

    return {
        "effective_cpu_count": effective_cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def host_probe() -> float:
    """Wall seconds of a fixed, program-independent mix of interpreter work
    and small numpy calls, the same kinds of work the program does."""
    import numpy as np

    start = time.perf_counter()
    boxes = np.random.default_rng(0).uniform(0, 1000, size=(64, 4))
    boxes[:, 2:] += boxes[:, :2]
    seen = {}
    for i in range(2400):
        a = boxes[i % 64]
        w = np.clip(np.minimum(a[2], boxes[:, 2]) - np.maximum(a[0], boxes[:, 0]), 0, None)
        h = np.clip(np.minimum(a[3], boxes[:, 3]) - np.maximum(a[1], boxes[:, 1]), 0, None)
        for j in np.argsort(w * h)[-8:].tolist():
            seen[i % 97, j] = seen.get((i % 89, j), 0) + j
    return time.perf_counter() - start


def host_scaled(fn):
    """``(fn(), scale)``: ``scale`` turns wall seconds measured during
    ``fn`` into reference-host seconds, from probes just before and after."""
    before = host_probe()
    result = fn()
    after = host_probe()
    return result, 2 * PROBE_REFERENCE_S / (before + after)


def run_iteration(workload, tracer=None):
    """One iteration, its wall time and the failures it raised."""
    from workloads import Iteration

    undo = None
    if tracer is not None:
        from tracing import install

        undo = install(tracer)
    start = time.perf_counter()
    try:
        it = workload.iterate()
    except Exception:  # a crashed iteration is a failed operation, not a crash
        it = Iteration(
            first_s=[], second_s=[], digest="", attempted=1,
            failures=[traceback.format_exc(limit=3)],
        )
    finally:
        wall = time.perf_counter() - start
        if undo is not None:
            undo()
    return it, wall


def finite(value) -> float:
    """``value`` as a float, or 0.0 when it is not finite (JSON has no NaN)."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def pass_seconds(samples):
    """A pass's time from repeated samples of its part times: the sum of
    each part's median (a burst of host noise during one part of one
    sample then moves nothing)."""
    samples = [s for s in samples if s]
    return sum(statistics.median(part) for part in zip(*samples)) if samples else 0.0


def set_up(name, seed, size):
    """Import the program and build ``name``'s inputs.

    Returns ``(workload, import_s, build_s)``; the import time counts from
    the start of this module.
    """
    import_program()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _START
    workload = WORKLOADS[name](seed, size, OUT / f"run-{os.getpid()}")
    start = time.perf_counter()
    workload.build()
    return workload, import_s, time.perf_counter() - start


def setup_samples(args):
    """``(import_s, build_s, scale)`` of :data:`SETUP_REPEATS` fresh set-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc, scale = host_scaled(
            lambda: subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(HERE), args.workload,
                 str(args.seed), args.size],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
        )
        samples.append(tuple(float(x) for x in proc.stdout.split()) + (scale,))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = set_up(args.workload, args.seed, args.size)[0]
    host_probe()  # the first call pays for warming up; it is not used
    try:
        samples = setup_samples(args)
        setup_s = median((i + b) * scale for i, b, scale in samples)
        build_s = median(b for _, b, _ in samples)
        if args.trace:
            context, final = traced_run(workload, args, build_s)
        else:
            context, final = untraced_run(workload, args, setup_s)
    finally:
        shutil.rmtree(workload.scratch, ignore_errors=True)
    context.update(
        workload=workload.name, why=workload.why, seed=args.seed, size=args.size,
        seconds=args.seconds, trace=args.trace, workers=workload.workers,
        first_pass=workload.first_pass, second_pass=workload.second_pass,
        setup_samples=samples, host=host_facts(),
    )
    print("perfbench-context " + json.dumps(context, sort_keys=True, default=str))
    print(json.dumps(final))
    return 0


def measure(workload, seconds):
    """``(iteration, scale)`` pairs until another would overrun ``seconds``.

    The first iteration pays lazy imports and first-touch allocations; it
    is checked like the others but left out of the medians (:func:`steady`).
    """
    runs = []
    start = time.perf_counter()
    while True:
        (it, _), scale = host_scaled(lambda: run_iteration(workload))
        runs.append((it, scale))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            return runs


def steady(iterations):
    """The iterations after the warm-up one (all of them if there is one)."""
    return iterations[1:] or iterations


def verdict(workload, iterations):
    """Failures from the iterations, digest agreement and the final checks."""
    failures = [f for it in iterations for f in it.failures]
    digests = {it.digest for it in iterations if it.digest}
    if len(digests) > 1:
        failures.append(f"iterations produced {len(digests)} different digests")
    if digests:
        failures += workload.golden_failures(iterations[0].digest)
    final = workload.final_checks()
    attempted = sum(it.attempted for it in iterations) + 1
    return failures + final, attempted


def untraced_run(workload, args, setup_s):
    runs = measure(workload, args.seconds)
    iterations = [it for it, _ in runs]
    failures, attempted = verdict(workload, iterations)
    failed = min(len(failures), attempted)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        "first_pass_s": pass_seconds(
            [t * scale for t in it.first_s] for it, scale in steady(runs)
        ),
        "second_pass_s": pass_seconds(
            [t * scale for t in rep] for it, scale in steady(runs) for rep in it.second_s
        ),
    }
    context = {
        "iterations": len(iterations),
        "first_pass_wall_s": [sum(it.first_s) for it in iterations],
        "second_pass_wall_s": [median(map(sum, it.second_s)) for it in iterations],
        "scales": [scale for _, scale in runs],
        "details": iterations[-1].details,
        "digest": iterations[0].digest,
        "quality": workload.quality(),
        "failed_share": failed / attempted,
        "failures": failures[:10],
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return context, final


def traced_run(workload, args, build_s):
    from tracing import PARENT_ONLY, PER_LAYER, Tracer, layer_values

    start = time.perf_counter()
    warmup = run_iteration(workload)[0]
    pairs = []
    while True:
        untraced = run_iteration(workload)
        tracer = Tracer()
        traced = run_iteration(workload, tracer)
        pairs.append((untraced, traced, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pairs) > args.seconds:
            break
    iterations = [warmup] + [it for (u, _), (t, _), _ in pairs for it in (u, t)]
    failures, attempted = verdict(workload, iterations)
    failed = min(len(failures), attempted)

    def e2e(it):
        return sum(it.first_s) + sum(map(sum, it.second_s))

    untraced_s = median(e2e(u) for (u, _), _, _ in pairs)
    traced_s = median(e2e(t) for _, (t, _), _ in pairs)
    per_iteration = [layer_values(tracer) for _, _, tracer in pairs]
    values = {
        name: median(v[name] for v in per_iteration) for name in per_iteration[0]
    }
    details = pairs[-1][0][0].details
    quality = workload.quality()
    values.update(
        {
            "datasets.build_s": build_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
            "trace.digest_match": float(
                all(u.digest == t.digest for (u, _), (t, _), _ in pairs)
            ),
            "trace.wall_s": median(wall for _, (_, wall), _ in pairs),
            "failed_share": failed / attempted,
            "serve_us_per_frame": details.get("serve_us_per_frame", 0.0),
            "fleet_us_per_frame": details.get("fleet_us_per_frame", 0.0),
            "paper.ops_reduction_x": quality.get("ops_reduction_x", 0.0),
            "paper.map_delta": quality.get("map_delta", 0.0),
            "paper.delay_delta_frames": quality.get("delay_delta_frames", 0.0),
        }
    )
    pairs[-1][2].save(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
    context = {
        "iterations": len(pairs),
        "untraced_s": [e2e(u) for (u, _), _, _ in pairs],
        "traced_s": [e2e(t) for _, (t, _), _ in pairs],
        "details": details,
        "digest": warmup.digest,
        "quality": quality,
        "parent_only": list(PARENT_ONLY),
        "failures": failures[:10],
    }
    final = {
        "correct": not failures and values["trace.digest_match"] == 1.0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER
        },
    }
    return context, final


if __name__ == "__main__":
    sys.exit(main())
