"""fanet benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 benchmarks/run.py                      # every workload, untraced and traced
    python3 benchmarks/run.py --workload scene-small --seed 3 --seconds 15 --trace 0

With --workload NAME the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Without
--workload it runs every workload twice (untraced, then traced) and prints
the end-to-end metrics each workload exercises, the traced numbers next to
them, and the per-layer table.

Each workload run is a separate worker process (worker.py) with BLAS threads
capped at nproc, so peak_rss_mb belongs to that run alone. The worker's
files live in .bench_work/ under the repository root and are removed
afterwards. See benchmarks/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.update({var: str(os.cpu_count() or 1) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work), "--out", str(out)]
    try:
        # the worker's output goes to stderr so that stdout ends with the result line
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=RUN_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited with code {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def pick(metrics: dict, specs: list) -> dict:
    return {
        s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
        for s in specs
        if s["name"] in metrics
    }


def result_line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report_failures(name: str, result: dict) -> None:
    for label, message in result["failures"].items():
        print(f"FAILED {name} {label}: {message}", file=sys.stderr)


def print_layers(result: dict, specs: list) -> None:
    listed = {s["name"] for s in specs}
    layers = result["layers"]
    print(f"  per-layer, per operation ({result['operations']} operations; * = in BENCHMARK.json):")
    for key in sorted(layers):
        if layers[key] or key in listed:
            print(f"    {'*' if key in listed else ' '} {key:48s} {layers[key]:.6g}")


def single(args, bench: dict) -> int:
    result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    report_failures(args.workload, result)
    print(json.dumps({key: result[key] for key in ("environment", "workload", "host", "unscaled")}))
    if args.trace:
        print_layers(result, bench["per_layer"])
        metrics = pick(result["layers"], bench["per_layer"])
    else:
        metrics = pick(result["metrics"], bench["end_to_end"])
        missing = [s["name"] for s in bench["end_to_end"] if s["name"] not in metrics]
        if missing:
            print(f"error: no measurement for {missing}", file=sys.stderr)
            return 1
    print(result_line(result, metrics))
    return 0


def every_workload(args, bench: dict) -> int:
    units = {s["name"]: s["unit"] for s in bench["end_to_end"]}
    started = time.monotonic()
    attempted = failed = 0
    summary = {}
    for name, workload in WORKLOADS.items():
        plain = run_worker(name, args.seed, args.seconds, 0)
        traced = run_worker(name, args.seed, args.seconds, 1)
        print(f"\n== {name} (seed {args.seed}): {workload.why}")
        print(f"  {'metric':18s} {'untraced':>12s} {'traced':>12s} {'overhead':>9s}  unit")
        for metric in workload.exercised:
            value = plain["metrics"][metric]
            summary[f"{name}.{metric}"] = {"value": value, "unit": units[metric]}
            line = f"  {metric:18s} {value:12.6g}"
            if f"traced.{metric}" in traced["layers"]:
                t = traced["layers"][f"traced.{metric}"]
                line += f" {t:12.6g} {abs(t - value) / value:9.1%}"
            else:
                line += f" {'':12s} {'':9s}"
            print(f"{line}  {units[metric]}")
        print_layers(traced, bench["per_layer"])
        for run in (plain, traced):
            report_failures(name, run)
            attempted += run["attempted"]
            failed += run["failed"]
        print(f"  operations: {plain['attempted']} + {traced['attempted']} traced attempted, "
              f"{plain['failed'] + traced['failed']} failed")
    print(f"\nall workloads: {attempted} attempted, {failed} failed, "
          f"{time.monotonic() - started:.0f} s")
    print(result_line({"attempted": attempted, "failed": failed}, summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the generated datasets")
    parser.add_argument("--seconds", type=int, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fanet" / "__init__.py").is_file():
        print(f"error: fanet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    try:
        return single(args, bench) if args.workload else every_workload(args, bench)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
