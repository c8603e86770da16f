"""Benchmark of the szdet checkout this file sits in.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: deep_sweep, cli_cold, table_twisted, orbifold_pool (see
perfbench/README.md).  One process runs a closed loop with one client: each
operation starts when the previous one and its check have finished, until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` traces every other operation and prints the per-layer metrics,
writing the spans to .perfbench/spans-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 2,
with no result, when the checkout has no szdet source tree or szdet would be
imported from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, CheckFailed, SetupError

ROOT = Path(__file__).resolve().parent.parent
P90_MIN_OPS = 100
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("digits_min", "digits"),
    ("peak_rss_mb", "MB"),
)


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """One run: (the result object printed as JSON, extra summary lines)."""
    wl = WORKLOADS[name](ROOT, seed, workdir)
    wl.prepare()
    tracer = tracing.Tracer() if trace else None
    setup_s = [wl.setup(tracer) for _ in range(1 if trace else wl.setup_reps)]

    durations, digits, failures = [], [], []  # durations of checked operations
    busy_s = 0.0  # time inside every operation, failed ones included
    traced_s, untraced_s = [], []
    min_ops = 2 if trace else 1
    start = perf_counter()
    index = 0
    # An untraced run ends on a whole pair of mirrored slots (see workloads.py).
    while index < min_ops or perf_counter() - start < seconds or (index % 2 and not trace):
        # In a traced run, operations 2j (traced) and 2j+1 (untraced) share slot j.
        traced = trace and index % 2 == 0
        inp = wl.make_input(index, index // 2 if trace else index)
        if traced:
            tracer.op = len(traced_s)
        t0 = perf_counter()
        try:
            out = wl.run_traced(inp, tracer) if traced else wl.run(inp)
            error = None
        except Exception:  # an operation that raises is a failure, never dropped
            error = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        busy_s += dt
        if trace:
            (traced_s if traced else untraced_s).append(dt)
        if error is None:
            try:
                digits.append(wl.check(inp, out))
                durations.append(dt)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            failures.append(error)
            if len(failures) <= 5:
                print(f"operation {index} failed: {error}", file=sys.stderr)
        index += 1

    result = {
        "correct": not failures,
        "attempted": index,
        "failed": len(failures),
    }
    summary = {"error_rate": (len(failures) / index, "failed/attempted")}
    if trace:
        op_s = statistics.fmean(traced_s)
        overhead = op_s / statistics.fmean(untraced_s)
        values = tracing.layer_metrics(tracer, len(traced_s), op_s, overhead)
        units = {n: u for n, u, _ in tracing.LAYER_METRICS}
        result["metrics"] = {
            n: {"value": values[n], "unit": units[n]} for n, _, _ in tracing.LAYER_METRICS
        }
        spans = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json"
        tracer.dump(spans, {"workload": name, "seed": seed, "traced_ops": len(traced_s)})
        summary["spans"] = (str(spans.relative_to(ROOT)), "file")
    else:
        ok = len(durations)
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": ok / busy_s if busy_s else 0.0,
            "op_s.p50": statistics.median(durations) if durations else busy_s,
            "digits_min": min(digits) if digits else 0.0,
            "peak_rss_mb": peak_rss_mb(wl.rss_scope),
        }
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        summary["setup_reps"] = (len(setup_s), "count")
        summary["op_s.count"] = (ok, "count")
        if ok >= P90_MIN_OPS:
            summary["op_s.p90"] = (statistics.quantiles(durations, n=10)[-1], "s")
        else:
            summary["op_s.p90"] = (f"not reported ({ok} < {P90_MIN_OPS} operations)", "")
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills a running CLI child and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "szdet" / "__init__.py").is_file():
        print(f"error: no szdet source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, summary = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except (SetupError, CheckFailed) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, (value, unit) in summary.items():
        print(f"  {key:36s} {value} {unit}")
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
