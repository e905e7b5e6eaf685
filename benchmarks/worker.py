"""Run one workload in this process and write its result as JSON.

Started by run.py, one process per workload run, with the BLAS thread caps
already in its environment. A run has three phases:

  * set-up, repeated `setup_reps` times: `fanet gen`, reading both JSONL files
    back, and for an eval-only workload the `fanet train` run that makes the
    checkpoint;
  * for a training workload, `quality_runs` quality runs: `fanet train` at
    the recipe's full length on separate datasets, each followed by
    `fanet eval` of its checkpoint; the mean of their final test center-mass
    is center_mass_test;
  * operations, repeated until --seconds have passed (at least twice): one
    short `fanet train` (unless eval-only), then `fanet eval` runs on the
    checkpoint it wrote.

On a shared host, the speed one process gets can change by a factor of two
within seconds. Every timed step therefore runs between two runs of a fixed
calibration kernel. The reported time is the
measured one scaled to a host of reference speed; the unscaled medians are
reported alongside.

Every `fanet` command is one attempted operation. Its checks run outside the
timed region, and a failed check marks the operation failed. With --trace 1
the fanet modules are wrapped by tracer.install before anything runs, and
the result carries per-layer metrics per operation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import fanet
from fanet import cli, synthgen
from tracer import Tracer, install
from workloads import WORKLOADS

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 2  # the byte-identity check needs two runs of the same command
REFERENCE_S = 0.03  # calibrate() seconds on an unloaded core of a 2-core x86-64 VM
SAMPLED = ("setup_s", "train_epoch_s", "eval_inst_per_s")
QUALITY_SEED_STRIDE = 1_000_003  # keeps the extra quality datasets clear of other runs' seeds


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the build-info layout differs across numpy versions
        blas = {"unavailable": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "blas": blas,
        "platform": platform.platform(),
    }


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds for a fixed piece of work of the kinds fanet does.

    The kernel mixes small numpy calls on an 8x8 matrix, a pure-Python float
    loop and a JSON round trip. It does not touch fanet, so a change to the
    program leaves it alone, while a busy or slow host slows it as much as
    it slows fanet.
    """
    a = np.arange(64, dtype=np.float64).reshape(8, 8) / 64.0
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(2000):
        w = np.ascontiguousarray(a)
        if not np.all(np.isfinite(w)):
            raise ValueError("calibration matrix is not finite")
        e = np.exp(w - w.max())
        acc += float(np.sum(e / e.sum() * w))
    for i in range(20000):
        x = i * 0.5
        acc += min(x, 3.0) - max(x, 1.0) if x > 2.0 else 0.0
    rows = [{"v": [i * 0.1, i * 0.2, i * 0.3]} for i in range(1500)]
    acc += len(json.loads(json.dumps(rows)))
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ValueError("calibration result is not finite")
    return seconds


# --- probes: counts taken at span boundaries in traced runs ---------------------


def _relation_loss_probe(tracer, args, kwargs, result, seconds):
    target, config = args[1], args[2]
    if np.any(target):
        tracer.count("supervised")
        if result[1] < config.eps:
            tracer.count("eps_clamped")


def _evaluate_probe(tracer, args, kwargs, result, seconds):
    instances = args[0] if args else kwargs["instances"]
    tracer.count("gt_instances", sum(1 for inst in instances if inst.gt_relations))
    if tracer.inside("trainer.train"):
        tracer.count("evaluate_in_train_s", seconds)


PROBES = {
    "losses.relation_loss": _relation_loss_probe,
    "trainer.evaluate": _evaluate_probe,
}


def layer_metrics(tracer: Tracer, n: int) -> dict:
    """Per-module and per-function counts and times, divided by `n`."""
    out = {}
    for span, st in tracer.stats.items():
        module = span.split(".", 1)[0]
        for key, value in (("calls", st.calls), ("self_s", st.self_s)):
            out[f"{module}.{key}"] = out.get(f"{module}.{key}", 0.0) + value / n
        out[f"{span}.calls"] = st.calls / n
        out[f"{span}.self_s"] = st.self_s / n
        out[f"{span}.s"] = st.incl_s / n
    return out


class Run:
    def __init__(self, workload, seed: int, seconds: float, work: Path, tracer):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.ref: dict[str, str] = {}  # first digest of each artifact
        self.calibrations: list[float] = []
        self.op_wall_s = 0.0  # wall time of the operation phase's fanet commands
        self.raw = {name: [] for name in SAMPLED}
        self.scaled = {name: [] for name in SAMPLED}

    def check(self, label: str, ok: bool, message: str) -> bool:
        """Record a failed check against the operation `label`."""
        if not ok:
            self.failures.setdefault(label, message)
        return ok

    def same_as_first(self, label: str, key: str, *paths: Path) -> None:
        digest = _digest(*paths)
        first = self.ref.setdefault(key, digest)
        self.check(label, digest == first, f"{key} differs from the first run with the same seed")

    def timed(self, fn):
        """Run fn between two calibrations; returns (result, seconds, host scale).

        The scale is REFERENCE_S over the mean of the calibrations before and
        after, so seconds * scale is the time on a host of reference speed.
        """
        if not self.calibrations:
            self.calibrations.append(calibrate())
        before = self.calibrations[-1]
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.calibrations.append(calibrate())
        return result, seconds, REFERENCE_S / ((before + self.calibrations[-1]) / 2)

    def sample_time(self, name: str, seconds: float, scale: float) -> None:
        self.raw[name].append(seconds)
        self.scaled[name].append(seconds * scale)

    def sample_rate(self, name: str, count: int, seconds: float, scale: float) -> None:
        self.raw[name].append(count / seconds)
        self.scaled[name].append(count / (seconds * scale))

    def fanet(self, label: str, *argv: str) -> bool:
        """One `fanet` command, counted as one attempted operation."""
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        return self.check(label, code == 0, f"exit code {code}")

    def timed_fanet(self, label: str, *argv: str) -> tuple[bool, float, float]:
        ok, seconds, scale = self.timed(lambda: self.fanet(label, *argv))
        self.op_wall_s += seconds
        return ok, seconds, scale

    # --- set-up -------------------------------------------------------------

    def write_spec(self) -> Path | None:
        if not self.w.spec_overrides:
            return None
        base = (
            synthgen.default_document_spec()
            if self.w.kind == "document"
            else synthgen.default_world_spec()
        )
        path = self.work / "spec.json"
        path.write_text(json.dumps({**base.to_dict(), **self.w.spec_overrides}))
        return path

    def gen_args(self, spec: Path | None, out: Path, n_train: int, n_test: int,
                 seed: int | None = None) -> list:
        source = ["--spec", str(spec)] if spec else ["--kind", self.w.kind]
        return ["gen", *source, "--out", str(out), "--n-train", str(n_train),
                "--n-test", str(n_test), "--seed", str(self.seed if seed is None else seed)]

    def setup(self, rep: int, spec: Path | None) -> None:
        """gen, read both files back, and for scene-large the checkpoint run.

        Each step is timed between its own calibrations; setup_s adds them up.
        """
        label = f"setup{rep}"
        data = self.work / label / "data"
        steps = [
            lambda: self.fanet(f"{label}.gen",
                               *self.gen_args(spec, data, self.w.n_train, self.w.n_test)),
            lambda: (len(synthgen.read_jsonl(data / "train.jsonl")),
                     len(synthgen.read_jsonl(data / "test.jsonl"))),
        ]
        if self.w.checkpoint_epochs:
            ck_data = self.work / label / "ckdata"
            steps += [
                lambda: self.fanet(f"{label}.ckgen", *self.gen_args(None, ck_data, 200, 100)),
                lambda: self.fanet(f"{label}.cktrain", "train", "--data", str(ck_data),
                                   "--out", str(self.work / label / "ckrun"),
                                   *self.w.train_flags(self.w.checkpoint_epochs)),
            ]
        timings = [self.timed(step) for step in steps]
        self.raw["setup_s"].append(sum(seconds for _, seconds, _ in timings))
        self.scaled["setup_s"].append(sum(seconds * scale for _, seconds, scale in timings))
        if self.w.checkpoint_epochs:
            ok, seconds, scale = timings[-1]
            if ok:
                self.sample_time("train_epoch_s", seconds / self.w.checkpoint_epochs, scale)

        sizes = timings[1][0]
        self.check(f"{label}.gen", sizes == (self.w.n_train, self.w.n_test),
                   f"read back {sizes[0]}/{sizes[1]} instances")
        self.same_as_first(f"{label}.gen", "dataset", data / "train.jsonl",
                           data / "test.jsonl", data / "manifest.json")
        if self.w.checkpoint_epochs:
            self.same_as_first(f"{label}.cktrain", "checkpoint",
                               self.work / label / "ckrun" / "checkpoint.json")

    def eval_files(self) -> list[tuple[Path, int]]:
        """(JSONL file, instances) pairs that each `fanet eval` reads."""
        test = self.work / "setup0" / "data" / "test.jsonl"
        if not self.w.eval_per_instance:
            return [(test, self.w.n_test)] * self.w.eval_reps
        files = []
        for i, line in enumerate(test.read_text().splitlines()):
            path = self.work / f"test-{i}.jsonl"
            path.write_text(line + "\n")
            files.append((path, 1))
        return files * self.w.eval_reps

    def check_report(self, label: str, run: Path) -> dict:
        report = json.loads((run / "report.json").read_text())
        self.check(label, _all_finite(report), "non-finite number in report.json")
        return report

    def check_eval(self, label: str, out: Path, report: dict | None) -> dict:
        summary = json.loads((out / "summary.json").read_text())
        self.check(label, _all_finite(summary), "non-finite number in summary.json")
        if report is not None:
            last = report["epochs"][-1]
            self.check(
                label,
                summary["center_mass"]["mean"] == last["center_mass_test"]
                and summary["accuracy"] == last["accuracy"],
                "eval of the checkpoint does not reproduce the report's last epoch",
            )
        return summary

    # --- operations ---------------------------------------------------------

    def quality_run(self, k: int, spec: Path | None) -> float | None:
        """A training run at the recipe's full length; its final center_mass_test.

        Run k trains on the set-up's dataset for k = 0, and on a dataset drawn
        from seed + k * QUALITY_SEED_STRIDE otherwise. It is not timed: a run of
        several seconds spans too many changes of host speed for two
        calibrations to correct.
        """
        label = f"quality{k}"
        data = self.work / "setup0" / "data"
        if k:
            data = self.work / label / "data"
            self.fanet(f"{label}.gen", *self.gen_args(spec, data, self.w.n_train, self.w.n_test,
                                                      self.seed + k * QUALITY_SEED_STRIDE))
        run = self.work / label / "run"
        if not self.fanet(f"{label}.train", "train", "--data", str(data), "--out", str(run),
                          *self.w.train_flags(self.w.quality_epochs)):
            return None
        report = self.check_report(f"{label}.train", run)
        out = self.work / label / "eval"
        if self.fanet(f"{label}.eval", "eval", "--checkpoint", str(run / "checkpoint.json"),
                      "--data", str(data / "test.jsonl"), "--out", str(out)):
            self.check_eval(f"{label}.eval", out, report)
        return report["epochs"][-1]["center_mass_test"]

    def operation(self, i: int, files: list, center_masses: list) -> None:
        data = self.work / "setup0" / "data"
        run = self.work / "run"
        report = None
        if self.w.epochs:
            label = f"op{i}.train"
            ok, seconds, scale = self.timed_fanet(label, "train", "--data", str(data),
                                                  "--out", str(run), *self.w.train_flags())
            if not ok:
                return
            self.sample_time("train_epoch_s", seconds / self.w.epochs, scale)
            report = self.check_report(label, run)
            self.same_as_first(label, "report.csv", run / "report.csv")
            checkpoint = run / "checkpoint.json"
        else:
            checkpoint = self.work / "setup0" / "ckrun" / "checkpoint.json"
        masses = []
        for r, (path, n) in enumerate(files):
            label = f"op{i}.eval{r}"
            out = self.work / "eval"
            ok, seconds, scale = self.timed_fanet(label, "eval", "--checkpoint", str(checkpoint),
                                                  "--data", str(path), "--out", str(out))
            if ok:
                self.sample_rate("eval_inst_per_s", n, seconds, scale)
                summary = self.check_eval(label, out, report)
                self.same_as_first(label, f"metrics.csv of {path.name}", out / "metrics.csv")
                masses.append(summary["center_mass"]["mean"])
        if report is None and masses:  # eval-only: the mean over the evaluated files
            center_masses.append(statistics.fmean(masses))

    # --- the whole run ------------------------------------------------------

    def execute(self) -> dict:
        spec = self.write_spec()
        for rep in range(self.w.setup_reps):
            self.setup(rep, spec)
        setup_layers = {}
        if self.tracer:
            setup_layers = layer_metrics(self.tracer, self.w.setup_reps)

        files = self.eval_files()
        quality = [self.quality_run(k, spec) for k in range(self.w.quality_runs)]
        if self.tracer:
            self.tracer.reset()
        center_masses = []  # eval-only workloads: one per operation
        deadline = time.perf_counter() + self.seconds
        n_ops = 0
        while n_ops < MIN_OPS or time.perf_counter() < deadline:
            self.operation(n_ops, files, center_masses)
            n_ops += 1

        metrics = {k: statistics.median(v) for k, v in self.scaled.items() if v}
        if self.w.epochs:
            if None not in quality:
                metrics["center_mass_test"] = statistics.fmean(quality)
        elif self.check("center_mass_test", len(set(center_masses)) == 1,
                        f"center-mass differs between runs with the same seed: {center_masses}"):
            metrics["center_mass_test"] = center_masses[0]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = self.trace_metrics(n_ops, metrics, setup_layers) if self.tracer else None
        result = {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "operations": n_ops,
            "metrics": metrics,
            "unscaled": {k: statistics.median(v) for k, v in self.raw.items() if v},
            "host": {"reference_s": REFERENCE_S,
                     "calibration_s": statistics.median(self.calibrations),
                     "calibrations": len(self.calibrations)},
        }
        if layers is not None:
            result["layers"] = layers
        return result

    def trace_metrics(self, n_ops: int, metrics: dict, setup_layers: dict) -> dict:
        t = self.tracer
        layers = layer_metrics(t, n_ops)
        c = t.counters
        train = t.stats.get("trainer.train")
        matching = t.stats.get("supervision.entity_gt_matching")
        layers.update({
            "synthgen.generate_dataset.s": setup_layers.get("synthgen.generate_dataset.s", 0.0),
            "op.wall_s": self.op_wall_s / n_ops,
            "op.untraced_s": (self.op_wall_s - t.top_s) / n_ops,
            "trainer.evaluate.epoch_share": (
                c.get("evaluate_in_train_s", 0.0) / train.incl_s if train and train.calls else 0.0
            ),
        })
        if "losses.relation_loss" in t.stats:
            supervised = c.get("supervised", 0.0)
            layers["losses.eps_clamped_ratio"] = (
                c.get("eps_clamped", 0.0) / supervised if supervised else 0.0
            )
        if matching is not None:
            gt = c.get("gt_instances", 0.0)
            layers["supervision.matchings_per_instance"] = matching.calls / gt if gt else 0.0
        layers.update({f"setup.{k}": v for k, v in setup_layers.items()})
        layers.update({f"traced.{k}": v for k, v in metrics.items() if k != "peak_rss_mb"})

        modules = {span.split(".", 1)[0] for span in t.stats}
        covered = sum(layers[f"{m}.self_s"] for m in modules) + layers["op.untraced_s"]
        self.check("trace", abs(covered - layers["op.wall_s"]) <= 1e-9 * max(1.0, covered),
                   f"module self times + untraced = {covered}, traced wall = {layers['op.wall_s']}")
        for metric, state in self.w.coverage:
            if metric not in layers:
                print(f"coverage: {metric} is absent (function not exported); not checked")
                continue
            ok = layers[metric] > 0 if state == "active" else layers[metric] == 0
            self.check(f"coverage {metric}", ok, f"must be {state} on {self.w.name}, "
                                                 f"reads {layers[metric]} per operation")
        return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, fanet, PROBES)
    result = Run(workload, args.seed, args.seconds, args.work, tracer).execute()
    result["environment"] = environment()
    result["workload"] = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                          **dataclasses.asdict(workload)}
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
