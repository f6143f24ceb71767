"""Run one workload of the shirshov benchmark and print its metrics.

    python3 benchmark/run.py --workload fixture-fp --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the same checkout.  Set-up time is
the median time to import it in a fresh interpreter (IMPORT_REPEATS tries)
plus the median of SETUP_REPEATS builds of groups, algebras and seeded
inputs.  Then one caller runs passes over the workload's operations, one
after another, until ``--seconds`` have gone by (at least one pass).  Every operation's output is
checked; a wrong or raising operation counts as failed.

With ``--trace 0`` the metrics are the end-to-end ones, with tracing off.
With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones from the traced passes, plus the tracing overhead (traced
minus untraced pass time).  Lines before the last describe the run; the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

# Gated end-to-end metrics, reported on every workload: (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
OVERHEAD = "trace.overhead_s"

# Units of the figures printed for each workload; None marks one it does not make.
REPORT_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "base_check_s": "s",
    "graded_check_s": "s",
    "certified_ns_per_elem.c17": "ns/elem",
    "certified_ns_per_elem.c4xc4": "ns/elem",
    "certified_ns_per_elem.s5": "ns/elem",
    "certified_ns_per_elem.s6": "ns/elem",
    "factorize_ns_per_letter": "ns/letter",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}


def _import_library() -> None:
    """Import shirshov from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import shirshov
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import shirshov from {src}: {exc}")
    if not Path(shirshov.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"run.py: shirshov came from {shirshov.__file__}, not {src}.")


def _import_seconds() -> float:
    """Median time to import shirshov (and numpy) in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "t = time.perf_counter(); import shirshov; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout))
    return median(times)


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _medians(samples: list[dict]) -> dict:
    return {key: median(s[key] for s in samples) for key in samples[0]}


def _figures(passes: list, inputs: dict, setup_s: float, failed: int, attempted: int) -> dict:
    """Every end-to-end figure, from the untraced passes; None where the workload has none."""
    per_op: dict[str, list[float]] = {}
    for _, ops in passes:
        for op in ops:
            per_op.setdefault(op.name, []).append(op.seconds)
    med = {name: median(times) for name, times in per_op.items()}
    report = {
        "setup_s": setup_s,
        "run_s": median(wall for wall, _ in passes),
        "base_check_s": med.get("base_check"),
        "graded_check_s": med.get("graded_check"),
    }
    seqs = inputs.get("seqs", {})
    for name in ("c17", "c4xc4", "s5", "s6"):
        key = f"certified.{name}"
        report[f"certified_ns_per_elem.{name}"] = (
            med[key] / len(seqs[name]) * 1e9 if key in med else None
        )
    texts = inputs.get("words", {})
    letters = sum(len(word) for _, word in texts.values())
    report["factorize_ns_per_letter"] = (
        median(sum(op.seconds for op in ops if op.name.startswith("factorize.")) for _, ops in passes)
        / letters * 1e9 if letters else None
    )
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["fail_ratio"] = failed / attempted
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(HERE))
    from tracing import COUNT_METRICS, LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}.")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    problems: list[str] = []

    setup_times, setup_layers = [], []
    inputs: dict = {}
    for _ in range(SETUP_REPEATS):
        inputs = {}  # drop the previous inputs before building new ones
        with (Tracer() if trace else nullcontext()) as tracer:
            t0 = perf_counter()
            inputs = workload.setup(args.seed)
            setup_times.append(perf_counter() - t0)
        if trace:
            setup_layers.append(tracer.metrics())
            problems += tracer.span_problems()

    def timed_pass() -> tuple[float, list]:
        t0 = perf_counter()
        ops = workload.run_pass(inputs)
        return perf_counter() - t0, ops

    plain, traced, layers = [], [], []
    start = perf_counter()
    while True:
        plain.append(timed_pass())
        if trace:
            with Tracer() as tracer:
                traced.append(timed_pass())
            layers.append(tracer.metrics())
            problems += tracer.span_problems()
            if all(op.ok for op in plain[0][1]):
                problems += workload.cross_check(inputs, tracer.counts, plain[0][1])
        if perf_counter() - start >= args.seconds:
            break

    all_ops = [op for _, ops in plain + traced for op in ops]
    failed = sum(not op.ok for op in all_ops)
    problems += [f"{op.name} failed: {op.output}" for op in all_ops if not op.ok]
    setup_s = _import_seconds() + median(setup_times)
    report = _figures(plain, inputs, setup_s, failed, len(all_ops))

    if trace:
        for key in COUNT_METRICS:
            if len({m[key] for m in layers}) > 1 or len({m[key] for m in setup_layers}) > 1:
                problems.append(f"count {key} differs between passes over the same inputs.")
        metrics = _medians(layers)
        setup_layer = _medians(setup_layers)
        for key in ("groups.build_s", "groups.table_entries"):
            metrics[key] += setup_layer[key]  # groups are built in set-up too
        metrics[OVERHEAD] = median(w for w, _ in traced) - median(w for w, _ in plain)
        units = {**{k: unit for k, (unit, _) in LAYER_METRICS.items()}, OVERHEAD: "s"}
    else:
        metrics = {key: report[key] for key in END_TO_END}
        units = {k: unit for k, (unit, _) in END_TO_END.items()}

    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(plain)} untraced and {len(traced)} traced passes, "
          f"{SETUP_REPEATS} set-ups, one caller (closed loop)")
    for key, value in report.items():
        shown = "n/a" if value is None else f"{value:.6g} {REPORT_UNITS[key]}"
        print(f"  {key:30s} {shown}")
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "environment": _environment(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "report": report,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
