"""Pipeline benchmark for chatterdetect.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_batch2 --seed 1 --seconds 30 --trace 0

It imports the package from ./src, runs one workload in this process and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics named in BENCHMARK.json; with --trace 1 they are the
per-layer metrics, and the spans are written to perfbench/out/. Without
--workload it runs every workload, each in its own process, and prints
one result line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_batch2", "stream_predict", "ingest_eval")


def _pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    On a 2-CPU host, interleaved runs of train_batch2 gave the same
    training throughput with one BLAS thread as with two, while the
    second thread's hand-offs doubled p99 step latency and its spread
    between runs. Returns the CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_package():
    """Import chatterdetect from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import chatterdetect

    where = Path(chatterdetect.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"chatterdetect came from {where}, not from {src}")
    return chatterdetect


def _environment(nproc: int, seed: int, cd) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informative only
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "chatterdetect": getattr(cd, "__version__", "?"),
        "seed": seed,
    }


def _declared_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    nproc = _pin_blas_threads()
    cd = _import_package()
    from workloads import WORKLOADS, Context

    names = _declared_metrics(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), work)
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        c = ctx.checks
        ctx.metric("pass_rate", (c.attempted - c.failed) / c.attempted, "ratio")

    metrics = {}
    for name, unit in names:
        value, got_unit = ctx.metrics.get(name, (0.0, unit))
        if got_unit != unit:
            raise ValueError(f"{name} measured in {got_unit}, declared in {unit}")
        if not args.trace and name not in ctx.metrics:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": ctx.checks.failed == 0 and ctx.checks.attempted > 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "environment": _environment(nproc, args.seed, cd),
        "seconds": args.seconds,
        "trace": args.trace,
        "check_messages": ctx.checks.messages,
        "details": ctx.details,
        "not_exercised": sorted(n for n, _ in names if n not in ctx.metrics),
        "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        ctx.probes.rec.write(OUT / f"{tag}.spans.jsonl")
    print("# environment " + json.dumps(record["environment"]))
    for msg in ctx.checks.messages:
        print("# check failed: " + msg)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as the per-workload runs are."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
