"""Command-line entry point: dataset generation, training, evaluation, ablation.

Subcommands: gen, train, eval, ablate, export-attention, gradcheck. Run
``fanet <subcommand> --help`` for the flags.

Conventions shared by every subcommand:

  * exit codes: 0 success, 1 internal error or training divergence, 2 user
    input error (bad flags, malformed files, missing or unwritable paths);
  * configuration comes from one JSON file plus flag overrides, flags win;
    the merged effective config is echoed into the JSON artifacts and as a
    ``# config:`` comment line atop report/ablation CSVs;
  * the FAN_SEED environment variable replaces the built-in default seed;
    precedence is flag > config file > FAN_SEED > 0;
  * per-instance metric CSVs keep the fixed columns documented in `metrics`
    (no comment line, so strict parsers stay happy);
  * everything is deterministic given its inputs: rerunning a subcommand
    writes byte-identical files.

There is no RunConfig object beyond the parsed argument namespace; each
subcommand validates its own paths before doing any work.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from . import __version__
from .attention import EntitySet
from .losses import LOSS_VARIANTS
from .matrices import ValidationError
from .metrics import top_k_pairs, word_importance, write_metrics_csv
from .seeding import STREAM_INSTANCE, stream_rng
from .synthgen import (
    Instance,
    default_document_spec,
    default_world_spec,
    generate_dataset,
    label_distribution,
    load_spec,
    read_jsonl,
    write_jsonl,
)
from .trainer import (
    HEAD_MODES,
    OPTIMIZERS,
    RESULT_COLUMNS,
    STRATEGIES,
    DivergenceError,
    TrainConfig,
    ablation_cells,
    csv_text,
    evaluate,
    forward_task,
    grad_check,
    init_model,
    load_checkpoint,
    recall_columns,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


class UserInputError(Exception):
    """Anything the caller can fix: bad paths, malformed files, bad ids."""


# --- shared plumbing ----------------------------------------------------------


def _env_seed():
    raw = os.environ.get("FAN_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise UserInputError(f"FAN_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise UserInputError(f"FAN_SEED must be >= 0, got {seed}")
    return seed


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = _env_seed()
    return 0 if env is None else env


def _load_json(path, what: str) -> dict:
    if not os.path.exists(path):
        raise UserInputError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UserInputError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise UserInputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_ks(raw: str) -> tuple:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UserInputError(f"expected comma-separated integers, got {raw!r}")
    if not ks or any(k < 1 for k in ks):
        raise UserInputError(f"K values must be positive integers, got {raw!r}")
    return ks


# flag help beyond the name; the rest of a config flag comes from its TrainConfig field
_FLAG_HELP = {
    "lam": "relation-loss weight",
    "focal_r": "focal exponent r",
    "eval_ks": "recall cutoffs, e.g. 1,5,10",
}
_FLAG_CHOICES = {
    "loss_variant": LOSS_VARIANTS,
    "strategy": STRATEGIES,
    "optimizer": OPTIMIZERS,
    "head_mode": HEAD_MODES,
}
_FLAG_TYPES = {"int": int, "float": float}  # annotations are strings
# every TrainConfig field gets a flag but agg_axis, which has one value
_FLAG_FIELDS = tuple(f for f in fields(TrainConfig) if f.name != "agg_axis")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """`--config`, then one flag per field, named after its JSON key (`--lambda` for lam).

    Every flag defaults to None, "not given on the command line".
    """
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in _FLAG_FIELDS:
        flag = "--" + TrainConfig.key(f.name).replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(
                flag,
                dest=f.name,
                type=_FLAG_TYPES.get(f.type),
                choices=_FLAG_CHOICES.get(f.name),
                help=_FLAG_HELP.get(f.name),
            )


def _config_from_args(args) -> TrainConfig:
    """defaults < config file < flags; FAN_SEED fills in a missing seed.

    The file's values are first checked on their own, so that a bad one is
    reported with the file's path.
    """
    file_dict = {}
    if args.config:
        file_dict = _load_json(args.config, "config file")
        try:
            TrainConfig.from_dict(file_dict)
        except ValidationError as exc:
            raise ValidationError(f"{args.config}: {exc}") from exc
    merged = TrainConfig().to_dict()
    merged.update(file_dict)
    for f in _FLAG_FIELDS:
        value = getattr(args, f.name)
        if value is not None:
            merged[TrainConfig.key(f.name)] = _parse_ks(value) if f.name == "eval_ks" else value
    if args.seed is None and "seed" not in file_dict:
        env = _env_seed()
        if env is not None:
            merged["seed"] = env
    return TrainConfig.from_dict(merged)


def _dataset_paths(data_dir: str) -> tuple:
    train_path = os.path.join(data_dir, "train.jsonl")
    test_path = os.path.join(data_dir, "test.jsonl")
    for path in (train_path, test_path):
        if not os.path.exists(path):
            raise UserInputError(f"dataset not found: {path}")
    return train_path, test_path


def _read_dataset(path: str) -> list:
    if not os.path.exists(path):
        raise UserInputError(f"dataset not found: {path}")
    return read_jsonl(path)


def _check_feature_dim(params, instances, checkpoint_path, data_path) -> None:
    dims = sorted({inst.entities.d for inst in instances})
    if dims != [params.d]:
        raise UserInputError(
            f"shape mismatch: checkpoint {checkpoint_path} projects "
            f"{params.d}-dim features, dataset {data_path} has dims {dims}"
        )


def _check_labels(num_classes, instances, source, data_path) -> None:
    """Every label must name one of `source`'s classes (a checkpoint or a manifest spec)."""
    top = max((inst.label for inst in instances), default=0)
    if top >= num_classes:
        raise UserInputError(
            f"label out of range: dataset {data_path} has label {top}, {source} "
            f"has {num_classes} classes (labels 0..{num_classes - 1})"
        )


def _manifest_classes(data_dir: str):
    """(label count, manifest path) from the data directory's manifest spec, or None.

    A directory without a manifest, or with one whose spec does not load, has
    nothing to check labels against.
    """
    path = os.path.join(data_dir, "manifest.json")
    try:
        with open(path) as fh:
            spec = load_spec(json.load(fh)["spec"])
    except (OSError, KeyError, TypeError, AttributeError, ValueError):
        return None
    return spec.n_labels, path


def _comment_csv(fh, config_dict: dict) -> None:
    fh.write("# config: " + json.dumps(config_dict, sort_keys=True) + "\n")


# --- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.spec:
        spec = load_spec(_load_json(args.spec, "world spec"))
    elif args.kind == "document":
        spec = default_document_spec()
    else:
        spec = default_world_spec()
    seed = _resolve_seed(args.seed)
    if args.n_train < 1 or args.n_test < 1:
        raise UserInputError("--n-train and --n-test must be >= 1")
    os.makedirs(args.out, exist_ok=True)
    train_set, test_set = generate_dataset(spec, args.n_train, args.n_test, seed)
    train_path = os.path.join(args.out, "train.jsonl")
    test_path = os.path.join(args.out, "test.jsonl")
    write_jsonl(train_path, train_set)
    write_jsonl(test_path, test_set)
    manifest = {
        "spec": spec.to_dict(),
        "n_train": args.n_train,
        "n_test": args.n_test,
        "seed": seed,
        "label_distribution": {
            "train": {str(k): v for k, v in label_distribution(train_set).items()},
            "test": {str(k): v for k, v in label_distribution(test_set).items()},
        },
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"wrote {len(train_set)} train / {len(test_set)} test instances to {args.out}")
    print(f"train label distribution: {label_distribution(train_set)}")
    print(f"test  label distribution: {label_distribution(test_set)}")
    return EXIT_OK


# --- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = _config_from_args(args)
    train_path, test_path = _dataset_paths(args.data)
    train_set = read_jsonl(train_path)
    test_set = read_jsonl(test_path)
    manifest = _manifest_classes(args.data)
    if manifest is not None:
        num_classes, manifest_path = manifest
        for path, instances in ((train_path, train_set), (test_path, test_set)):
            _check_labels(num_classes, instances, f"manifest {manifest_path} spec", path)
    os.makedirs(args.out, exist_ok=True)
    params, report = train(train_set, test_set, config)

    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    csv_path = os.path.join(args.out, "report.csv")
    with open(csv_path, "w", newline="") as fh:
        _comment_csv(fh, config.to_dict())
        writer = csv.writer(fh)
        writer.writerow(report.csv_header())
        writer.writerows(report.csv_rows())
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), params, config)

    last = report.epochs[-1]
    print(f"trained {config.epochs} epochs on {len(train_set)} instances")
    print(
        f"final: task={last.task_loss:.4f} relation={last.relation_loss:.4f} "
        f"center_mass={last.center_mass:.4f} (test {last.center_mass_test:.4f}) "
        f"accuracy={last.accuracy:.4f}"
    )
    print(f"artifacts in {args.out}: report.json report.csv checkpoint.json")
    return EXIT_OK


# --- eval ------------------------------------------------------------------------


def cmd_eval(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    instances = _read_dataset(args.data)
    if not instances:
        raise UserInputError(f"dataset is empty: {args.data}")
    _check_feature_dim(params, instances, args.checkpoint, args.data)
    _check_labels(params.num_classes, instances, f"checkpoint {args.checkpoint}", args.data)
    ks = _parse_ks(args.ks) if args.ks else config.eval_ks
    result = evaluate(instances, params, config, ks)
    os.makedirs(args.out, exist_ok=True)

    write_metrics_csv(os.path.join(args.out, "metrics.csv"), result.rows)
    summary = {
        "config": config.to_dict(),
        "checkpoint": args.checkpoint,
        "data": args.data,
        "ks": list(ks),
        "n_instances": result.n_instances,
        "accuracy": result.accuracy,
        "center_mass": {
            "mean": result.center_mass.mean_m,
            "n_scored": result.center_mass.n_scored,
            "n_vacuous": result.center_mass.n_vacuous,
        },
        "recall": {f"recall@{k}": result.recall[k] for k in ks},
        "n_recall_vacuous": result.n_recall_vacuous,
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        head = ["n_instances", "accuracy", "center_mass", "n_center_mass_vacuous"]
        writer.writerow(head + recall_columns(ks) + ["n_recall_vacuous"])
        row = [
            result.n_instances,
            result.accuracy,
            result.center_mass.mean_m,
            result.center_mass.n_vacuous,
            *(result.recall[k] for k in ks),
            result.n_recall_vacuous,
        ]
        writer.writerow([csv_text(v) for v in row])

    print(f"evaluated {result.n_instances} instances from {args.data}")
    print(
        f"accuracy={result.accuracy:.4f} center_mass={result.center_mass.mean_m:.4f} "
        f"({result.center_mass.n_vacuous} vacuous)"
    )
    for k in ks:
        print(f"recall@{k} = {result.recall[k]:.4f}")
    return EXIT_OK


# --- ablate -----------------------------------------------------------------------


def _ablate_worker(payload):
    """(cell_id, report, None), or (cell_id, None, error) for a diverged cell."""
    cell_id, config_dict, train_path, test_path = payload
    config = TrainConfig.from_dict(config_dict)
    train_set = read_jsonl(train_path)
    test_set = read_jsonl(test_path)
    try:
        _, report = train(train_set, test_set, config)
    except DivergenceError as exc:
        return cell_id, None, str(exc)
    return cell_id, report, None


def _completed_cells(path) -> set:
    done = set()
    if not os.path.exists(path):
        return done
    with open(path, newline="") as fh:
        for row in csv.reader(r for r in fh if not r.startswith("#")):
            if row and row[0] != "cell_id":
                done.add(row[0])
    return done


def cmd_ablate(args) -> int:
    base = _config_from_args(args)
    grid = _load_json(args.grid, "grid file")
    train_path, test_path = _dataset_paths(args.data)
    if args.jobs < 1:
        raise UserInputError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        cells = ablation_cells(base, grid)  # base is checked, so a fault is the grid's
    except ValidationError as exc:
        raise ValidationError(f"{args.grid}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    cells_path = os.path.join(args.out, "cells.csv")
    curves_path = os.path.join(args.out, "curves.csv")
    _write_json(
        os.path.join(args.out, "manifest.json"),
        {
            "base_config": base.to_dict(),
            "grid": grid,
            "data": args.data,
            "cells": [cell_id for cell_id, _, _ in cells],
        },
    )

    done = _completed_cells(cells_path) if args.resume else set()
    pending = [(c, o, cfg) for c, o, cfg in cells if c not in done]
    fresh_cells = not (args.resume and os.path.exists(cells_path))
    fresh_curves = not (args.resume and os.path.exists(curves_path))
    ks = base.eval_ks

    with (
        open(cells_path, "w" if fresh_cells else "a", newline="") as cells_fh,
        open(curves_path, "w" if fresh_curves else "a", newline="") as curves_fh,
    ):
        cells_writer = csv.writer(cells_fh)
        curves_writer = csv.writer(curves_fh)
        if fresh_cells:
            _comment_csv(cells_fh, base.to_dict())
            cells_writer.writerow(["cell_id", "epochs", *RESULT_COLUMNS, *recall_columns(ks)])
            cells_fh.flush()
        if fresh_curves:
            _comment_csv(curves_fh, base.to_dict())
            curves_writer.writerow(["cell_id", "k", "recall"])
            curves_fh.flush()

        payloads = [
            (cell_id, cfg.to_dict(), train_path, test_path)
            for cell_id, _, cfg in pending
        ]
        if args.jobs > 1 and payloads:
            pool = ProcessPoolExecutor(max_workers=args.jobs)
            results = pool.map(_ablate_worker, payloads)
        else:
            pool = None
            results = map(_ablate_worker, payloads)
        failed = []
        try:
            for cell_id, report, error in results:
                if report is None:  # no row, so --resume runs the cell again
                    failed.append(cell_id)
                    print(f"cell {cell_id} failed: training diverged: {error}", file=sys.stderr)
                    continue
                last = report.epochs[-1]
                epochs = str(report.config.epochs)
                cells_writer.writerow([cell_id, epochs, *last.csv_cells(RESULT_COLUMNS, ks)])
                cells_fh.flush()
                for k in report.config.eval_ks:
                    curves_writer.writerow([cell_id, str(k), csv_text(last.recall[k])])
                curves_fh.flush()
                print(f"cell {cell_id}: accuracy={last.accuracy:.4f}")
        finally:
            if pool is not None:
                pool.shutdown()
    print(f"{len(pending)} cells run ({len(done)} skipped); table in {cells_path}")
    if failed:
        print(f"{len(failed)} of {len(pending)} cells failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# --- export-attention -----------------------------------------------------------


def cmd_export_attention(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    instances = _read_dataset(args.data)
    if not (0 <= args.instance < len(instances)):
        raise UserInputError(
            f"unknown instance id {args.instance}; dataset {args.data} has "
            f"{len(instances)} instances (ids 0..{len(instances) - 1})"
        )
    inst = instances[args.instance]
    _check_feature_dim(params, [inst], args.checkpoint, args.data)
    _check_labels(params.num_classes, [inst], f"checkpoint {args.checkpoint}", args.data)
    if args.top_k < 1:
        raise UserInputError(f"--top-k must be >= 1, got {args.top_k}")
    fwd = forward_task(inst.entities.features, params, config)
    state = fwd.state
    pairs, weights = top_k_pairs(state.focus_weights, args.top_k)
    dump = {
        "config": config.to_dict(),
        "checkpoint": args.checkpoint,
        "data": args.data,
        "instance_id": args.instance,
        "label": inst.label,
        "predicted_label": int(np.argmax(fwd.class_logits)),
        "n_entities": inst.n,
        "logits": state.logits.tolist(),
        "agg_weights": state.agg_weights.tolist(),
        "focus_weights": state.focus_weights.tolist(),
        "word_importance": word_importance(state.focus_weights).tolist(),
        "top_pairs": [
            {"subject": a, "object": b, "weight": w}
            for (a, b), w in zip(pairs.tolist(), weights.tolist())
        ],
        "target": inst.target.tolist(),
        "gt_relations": [sorted((a, b)) for a, b in inst.gt_relations],
        "tokens": list(inst.tokens) if inst.tokens is not None else None,
        "tags": list(inst.tags) if inst.tags is not None else None,
        "categories": (
            [int(c) for c in inst.entities.categories]
            if inst.entities.categories is not None
            else None
        ),
    }
    _write_json(args.out, dump)
    print(
        f"instance {args.instance}: label={inst.label} "
        f"predicted={dump['predicted_label']} top-{len(pairs)} pairs exported"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


# --- gradcheck --------------------------------------------------------------------


def _random_check_instance(n: int, d: int, seed: int, num_classes: int) -> Instance:
    rng = stream_rng(STREAM_INSTANCE, seed)
    features = rng.standard_normal((n, d))
    target = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.4:
                target[i, j] = target[j, i] = 1.0
    target[0, 1] = target[1, 0] = 1.0  # keep the relation path exercised
    label = int(rng.integers(0, num_classes))
    return Instance(entities=EntitySet(features=features), target=target, label=label)


def cmd_gradcheck(args) -> int:
    if args.n < 2 or args.d < 1 or args.d_k < 1 or args.classes < 1:
        raise UserInputError("need --n >= 2 and positive --d, --d-k, --classes")
    if args.seeds < 1:
        raise UserInputError(f"--seeds must be >= 1, got {args.seeds}")
    seed0 = _resolve_seed(args.seed)
    head_modes = HEAD_MODES if args.head_mode is None else (args.head_mode,)
    worst_overall = 0.0
    failed = False
    for head_mode in head_modes:
        for variant in LOSS_VARIANTS:
            for strategy in STRATEGIES:
                worst = 0.0
                for s in range(args.seeds):
                    config = TrainConfig(
                        lam=args.lam if args.lam is not None else 0.1,
                        loss_variant=variant,
                        strategy=strategy,
                        head_mode=head_mode,
                        d_k=args.d_k,
                        seed=seed0 + s,
                    )
                    inst = _random_check_instance(args.n, args.d, seed0 + s, args.classes)
                    params = init_model(args.d, args.classes, config)
                    worst = max(worst, grad_check(params, inst, config, args.step))
                status = "ok" if worst < args.tolerance else "FAIL"
                print(
                    f"{head_mode:9s} {variant:9s} {strategy:9s} "
                    f"max_rel_err={worst:.3e}  {status}"
                )
                worst_overall = max(worst_overall, worst)
                failed = failed or worst >= args.tolerance
    print(f"overall max relative error: {worst_overall:.3e} (tolerance {args.tolerance:g})")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# --- parser / entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanet",
        description="relation-supervised attention: datasets, training, evaluation",
    )
    parser.add_argument("--version", action="version", version=f"fanet {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a synthetic JSONL dataset")
    p.add_argument("--spec", help="world spec JSON (omit for the bundled world)")
    p.add_argument(
        "--kind",
        choices=("vision", "document"),
        default="vision",
        help="which bundled world to use when --spec is omitted",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--data", required=True, help="directory with train/test JSONL")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL dataset file")
    p.add_argument("--ks", help="recall cutoffs, e.g. 1,5,10 (default: checkpoint's)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train every cell of a config grid")
    p.add_argument(
        "--grid", required=True, help="path to a JSON file {field: [values, ...]}"
    )
    p.add_argument("--data", required=True, help="directory with train/test JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel cells")
    p.add_argument(
        "--resume", action="store_true", help="skip cells already in cells.csv"
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "export-attention", help="dump one instance's attention state as JSON"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL dataset file")
    p.add_argument("--instance", type=int, required=True, help="0-based instance id")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_export_attention)

    p = sub.add_parser(
        "gradcheck", help="finite-difference check over strategies and loss variants"
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--d-k", type=int, default=2)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--head-mode", choices=HEAD_MODES, default=None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first `main` call and reused after it.

    parse_args fills a fresh namespace on every call, so no flag or default
    carries over from one call to the next.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # the OSErrors come from paths given on the command line, and their text names the path
    except (UserInputError, ValidationError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
