"""Command-line entry point: dataset generation, training, evaluation, ablation.

Subcommands: gen, train, eval, ablate, export-attention, gradcheck. Run
``fanet <subcommand> --help`` for the flags.

Conventions shared by every subcommand:

  * exit codes: 0 success, 1 internal error or training divergence, 2 user
    input error: a `ValidationError` (bad flags, malformed files, missing
    paths), or an `OSError` that names a file (an unreadable or unwritable
    path); an `OSError` naming no file is internal;
  * configuration comes from one JSON file plus flag overrides, flags win;
    the merged effective config is echoed into the JSON artifacts and as a
    ``# config:`` comment line atop report/ablation CSVs;
  * the FAN_SEED environment variable replaces the built-in default seed;
    precedence is flag > config file > FAN_SEED > 0;
  * what every output file holds is decided here; `trainer` and `metrics`
    only return values. metrics.csv has fixed columns and no comment line,
    so strict parsers stay happy. JSON files and whole CSVs are written
    whole or not at all (`matrices._write_whole`); the dataset JSONL files
    and the appended ablation rows are written in place;
  * everything is deterministic given its inputs: rerunning a subcommand
    writes byte-identical files;
  * on glibc, `main` raises malloc's mmap and trim thresholds, so that
    repeated evaluation at n ~ 300 in one process keeps its heap
    (`_tune_malloc`).

There is no RunConfig object beyond the parsed argument namespace; each
subcommand validates its own paths before doing any work.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .attention import EntitySet
from .losses import LOSS_VARIANTS
from .matrices import ValidationError, _check_keys, _load_json, _upper_cells, _write_json, _write_whole
from .metrics import top_k_pairs, word_importance
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
    STRATEGIES,
    DivergenceError,
    EpochStats,
    TrainConfig,
    _check_dataset,
    _check_matchable,
    _grad_errors,
    evaluate,
    forward_task,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


# --- shared plumbing ----------------------------------------------------------


def _env_seed():
    raw = os.environ.get("FAN_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ValidationError(f"FAN_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ValidationError(f"FAN_SEED must be >= 0, got {seed}")
    return seed


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = _env_seed()
    return 0 if env is None else env


def _parse_ks(raw: str) -> tuple:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {raw!r}")
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """`--config`, then one flag per field, named after its JSON key (`--lambda` for lam).

    Every flag defaults to None, "not given on the command line".
    """
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in fields(TrainConfig):
        flag = "--" + TrainConfig.json_keys.get(f.name, f.name).replace("_", "-")
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

    The file is first read on its own, so that a bad value is reported with
    the file's path.
    """
    config, file_keys = TrainConfig(), ()
    if args.config:
        config, file_keys = _load_json(args.config, lambda d: (TrainConfig.from_dict(d), set(d)))
    flags = {f.name: v for f in fields(TrainConfig) if (v := getattr(args, f.name)) is not None}
    if "eval_ks" in flags:
        flags["eval_ks"] = _parse_ks(flags["eval_ks"])
    if args.seed is None and "seed" not in file_keys:
        env = _env_seed()
        if env is not None:
            flags["seed"] = env
    return replace(config, **flags)


def _read_dataset(data_dir: str) -> tuple:
    """(train path, test path, train set, test set) of a data directory, after
    every check `train` makes of them, so a refused dataset leaves no output."""
    train_path = os.path.join(data_dir, "train.jsonl")
    test_path = os.path.join(data_dir, "test.jsonl")
    train_set = read_jsonl(train_path)
    test_set = read_jsonl(test_path)
    manifest = _manifest_classes(data_dir)
    if manifest is not None:
        num_classes, manifest_path = manifest
        for path, instances in ((train_path, train_set), (test_path, test_set)):
            _check_labels(num_classes, instances, f"manifest {manifest_path} spec", path)
    _check_dataset(train_set, test_set)
    return train_path, test_path, train_set, test_set


def _check_feature_dim(params, instances, checkpoint_path, data_path) -> None:
    dims = sorted({inst.entities.d for inst in instances})
    if dims != [params.d]:
        raise ValidationError(
            f"shape mismatch: checkpoint {checkpoint_path} projects "
            f"{params.d}-dim features, dataset {data_path} has dims {dims}"
        )


def _check_labels(num_classes, instances, source, data_path) -> None:
    """Every label must name one of `source`'s classes (a checkpoint or a manifest spec)."""
    top = max((inst.label for inst in instances), default=0)
    if top >= num_classes:
        raise ValidationError(
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
    except (OSError, KeyError, TypeError, AttributeError, ValueError, RecursionError):
        return None
    return spec.n_labels, path


# --- artifact layout ----------------------------------------------------------------

# the scalar fields of an epoch, in report.csv order; the recall@K columns follow
_EPOCH_COLUMNS = tuple(f.name for f in fields(EpochStats) if f.name != "recall")
# what the last epoch says about a finished run, in cells.csv order
_RESULT_COLUMNS = tuple(name for name in _EPOCH_COLUMNS if name not in ("epoch", "lr"))
_METRICS_COLUMNS = ("instance_id", "k", "recall", "center_mass")


def _recall_columns(ks) -> list:
    return [f"recall@{k}" for k in ks]


def _cell(value) -> str:
    """A CSV cell: a float with 17 significant digits, so it reads back exactly."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_csv(path, header, rows, config=None) -> None:
    """A whole CSV file: a `# config:` line when given a config, the header, the rows.
    Rows in a run with the same cell types are one `%` template, repeated: each cell
    as `_cell` writes it, unquoted."""
    text = [] if config is None else ["# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n"]
    for kind, run in itertools.groupby([header, *rows], key=lambda row: tuple(map(type, row))):
        run = list(run)
        template = ",".join("%.17g" if issubclass(t, float) else "%s" for t in kind) + "\r\n"
        text.append((template * len(run)) % tuple(itertools.chain.from_iterable(run)))
    _write_whole(path, lambda fh: fh.write("".join(text)), newline="")


# the columns of an epoch that average over instances, of which there may be
# none: JSON has no NaN, so report.json writes such an undefined mean as null
_MEAN_COLUMNS = ("center_mass", "center_mass_test", "accuracy")


def _defined(mean: float):
    """A mean as JSON: null when it is undefined (NaN), else the number."""
    return None if math.isnan(mean) else mean


def _epoch_cells(stats: EpochStats, columns, ks) -> list:
    """The `columns` of an epoch, then its recall at each of `ks` (nan for a K not scored)."""
    return [getattr(stats, name) for name in columns] + [stats.recall.get(k, math.nan) for k in ks]


def _epoch_json(stats: EpochStats) -> dict:
    """An epoch's report.json object: its report.csv cells at the K it scored,
    an undefined mean as null."""
    doc = {name: getattr(stats, name) for name in _EPOCH_COLUMNS}
    doc.update((name, _defined(doc[name])) for name in _MEAN_COLUMNS)
    doc.update(zip(_recall_columns(stats.recall), map(_defined, stats.recall.values())))
    return doc


def _write_report(out: str, report) -> None:
    """report.json and report.csv of a training run, into directory `out`."""
    _write_json(os.path.join(out, "report.json"), {
        "config": report.config.to_dict(),
        "num_classes": report.num_classes,
        "feature_dim": report.feature_dim,
        "epochs": [_epoch_json(e) for e in report.epochs],
    })
    ks = report.config.eval_ks
    _write_csv(os.path.join(out, "report.csv"), [*_EPOCH_COLUMNS, *_recall_columns(ks)],
               [_epoch_cells(e, _EPOCH_COLUMNS, ks) for e in report.epochs], report.config)


# --- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.spec:
        spec = _load_json(args.spec, load_spec)
    elif args.kind == "document":
        spec = default_document_spec()
    else:
        spec = default_world_spec()
    seed = _resolve_seed(args.seed)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if args.n_train < 1 or args.n_test < 1:
        raise ValidationError("--n-train and --n-test must be >= 1")
    train_set, test_set = generate_dataset(spec, args.n_train, args.n_test, seed)
    os.makedirs(args.out, exist_ok=True)
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
    _, _, train_set, test_set = _read_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    params, report = train(train_set, test_set, config)
    _write_report(args.out, report)
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
    instances = read_jsonl(args.data)
    if not instances:
        raise ValidationError(f"dataset is empty: {args.data}")
    _check_feature_dim(params, instances, args.checkpoint, args.data)
    _check_labels(params.num_classes, instances, f"checkpoint {args.checkpoint}", args.data)
    _check_matchable(instances, f"dataset {args.data}")
    ks = config.eval_ks if args.ks is None else _parse_ks(args.ks)
    result = evaluate(instances, params, config, ks)
    os.makedirs(args.out, exist_ok=True)

    per_instance = enumerate(zip(result.recalls, result.masses))
    _write_csv(os.path.join(args.out, "metrics.csv"), _METRICS_COLUMNS,
               [(i, k, recall[k], mass) for i, (recall, mass) in per_instance for k in ks])
    summary = {
        "config": config.to_dict(),
        "checkpoint": args.checkpoint,
        "data": args.data,
        "ks": list(ks),
        "n_instances": result.n_instances,
        "accuracy": result.accuracy,
        "center_mass": {
            "mean": _defined(result.center_mass.mean_m),
            "n_scored": result.center_mass.n_scored,
            "n_vacuous": result.center_mass.n_vacuous,
        },
        "recall": dict(zip(_recall_columns(ks), map(result.recall.get, ks))),
        "n_recall_vacuous": result.n_recall_vacuous,
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    header = ["n_instances", "accuracy", "center_mass", "n_center_mass_vacuous",
              *_recall_columns(ks), "n_recall_vacuous"]
    row = [result.n_instances, result.accuracy, result.center_mass.mean_m,
           result.center_mass.n_vacuous, *(result.recall[k] for k in ks), result.n_recall_vacuous]
    _write_csv(os.path.join(args.out, "summary.csv"), header, [row])

    print(f"evaluated {result.n_instances} instances from {args.data}")
    print(
        f"accuracy={result.accuracy:.4f} center_mass={result.center_mass.mean_m:.4f} "
        f"({result.center_mass.n_vacuous} vacuous)"
    )
    for k in ks:
        print(f"recall@{k} = {result.recall[k]:.4f}")
    return EXIT_OK


# --- ablate -----------------------------------------------------------------------


def _ablation_cells(base: TrainConfig, grid: dict) -> list:
    """Expand a {field: [values]} grid into (cell_id, config) pairs, in the
    order of the cartesian product of the grid's keys and values; a cell id
    lists its overrides as `key=<JSON value>`. An empty grid (or any empty
    value list) expands to no cells."""
    if not grid:
        return []
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"{key}: grid values must be a list")
    base_dict = base.to_dict()
    cells = []
    for combo in itertools.product(*grid.values()):
        overrides = dict(zip(grid, combo))
        config = TrainConfig.from_dict({**base_dict, **overrides})  # checks names and values
        cells.append((",".join(f"{k}={json.dumps(v)}" for k, v in overrides.items()), config))
    return cells


def _ablate_cell(cell_id, config, train_set, test_set):
    """(cell_id, report, None), or (cell_id, None, error) for a diverged cell."""
    try:
        _, report = train(train_set, test_set, config)
    except DivergenceError as exc:
        return cell_id, None, str(exc)
    return cell_id, report, None


def _ablate_worker(payload):
    """`_ablate_cell` in a pool worker, which reads both splits itself: they
    are smaller in their files than pickled."""
    cell_id, config, train_path, test_path = payload
    return _ablate_cell(cell_id, config, read_jsonl(train_path), read_jsonl(test_path))


_MANIFEST_KEYS = ("base_config", "grid", "data", "cells")


def _check_resume(path, base: TrainConfig, data: str) -> None:
    """Exit 2 unless the ablation manifest at `path`, if there is one, holds
    this run's base config and --data; the message names the first key that
    differs. Both configs are read as TrainConfigs, so a manifest that holds
    retired keys at their values matches, and both --data paths go through
    `os.path.normpath`, so `data`, `./data` and `data/` match."""
    if not os.path.exists(path):
        return

    def parse(doc):
        _check_keys(doc, _MANIFEST_KEYS, _MANIFEST_KEYS)
        if not isinstance(doc["base_config"], dict):
            raise ValidationError(f"base_config: expected an object, got {doc['base_config']!r}")
        if not isinstance(doc["data"], str):
            raise ValidationError(f"data: expected a string, got {doc['data']!r}")
        return TrainConfig.from_dict(doc["base_config"], "base_config."), doc["data"]

    def keyed(config, data):
        config_keys = {f"base_config.{k}": v for k, v in config.to_dict().items()}
        return {**config_keys, "data": os.path.normpath(data)}

    old, new = keyed(*_load_json(path, parse)), keyed(base, data)
    for key in old:
        was, now = json.dumps(old[key]), json.dumps(new[key])
        if was != now:
            raise ValidationError(
                f"{path}: {key} is {was}, this run has {now}; --resume takes the base config "
                "and --data of the run it resumes"
            )


def _finished_rows(path, done=None) -> tuple:
    """(byte length, first fields) of the rows of table `path` that --resume keeps.

    A row is kept when it ends in a newline and has every column of the
    header and, given `done`, when its first field is in `done`. Only the end
    of the file may go: a last line cut off mid-write, and the curves rows of
    a cell whose cells row was never written. Any other row that cannot be
    kept exits 2 naming its line. A file without a whole header keeps nothing.
    """
    size, ids, header, dropped = 0, set(), None, None
    try:
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, 1):
                line = raw.decode("utf-8")
                row = next(csv.reader([line]), [])
                if not line.endswith("\n"):
                    break  # the last line, cut off mid-write
                if header is not None and len(row) != len(header):
                    raise ValidationError(f"{path}:{number}: expected {len(header)} columns, got {len(row)}")
                if header is not None and done is not None and row[0] not in done:
                    dropped = dropped or number
                    continue
                if dropped:
                    raise ValidationError(f"{path}:{number}: a finished cell's row after line {dropped}, "
                                         "whose cell did not finish")
                if header is not None:
                    ids.add(row[0])
                elif not line.startswith("#"):
                    header = row
                size += len(raw)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: cannot read the finished cells for --resume ({exc})") from exc
    return (size, ids) if header is not None else (0, set())


def cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    base = _config_from_args(args)
    # base is checked, so a fault in a cell is the grid's
    grid, cells = _load_json(args.grid, lambda grid: (grid, _ablation_cells(base, grid)))
    train_path, test_path, train_set, test_set = _read_dataset(args.data)
    manifest_path = os.path.join(args.out, "manifest.json")
    cells_path = os.path.join(args.out, "cells.csv")
    curves_path = os.path.join(args.out, "curves.csv")
    # what a resumed table keeps, read before anything is written
    (cells_size, done), (curves_size, curved) = (0, set()), (0, set())
    if args.resume:
        _check_resume(manifest_path, base, args.data)
        if os.path.exists(cells_path):
            cells_size, done = _finished_rows(cells_path)
        if os.path.exists(curves_path):
            curves_size, curved = _finished_rows(curves_path, done)
        # a resumed grid may gain cells, but every finished row must stay one of its cells
        stray = done - {cell_id for cell_id, _ in cells}
        if stray:
            raise ValidationError(f"{cells_path}: finished cell {min(stray)} is not a cell of --grid")
        # a cell's curves rows are written before its cells row, so only a lost file lacks them
        uncurved = done - curved
        if uncurved:
            raise ValidationError(f"{curves_path}: no rows for finished cell {min(uncurved)}")
    os.makedirs(args.out, exist_ok=True)
    _write_json(
        manifest_path,
        {
            "base_config": base.to_dict(),
            "grid": grid,
            "data": args.data,
            "cells": [cell_id for cell_id, _ in cells],
        },
    )

    pending = [(cell_id, cfg) for cell_id, cfg in cells if cell_id not in done]
    ks = base.eval_ks

    # a resumed table is cut to what it keeps; a new one starts as its header
    for path, size, header in (
        (cells_path, cells_size, ["cell_id", "epochs", *_RESULT_COLUMNS, *_recall_columns(ks)]),
        (curves_path, curves_size, ["cell_id", "k", "recall"]),
    ):
        if size:
            os.truncate(path, size)
        else:
            _write_csv(path, header, [], base)
    with (
        open(cells_path, "a", newline="") as cells_fh,
        open(curves_path, "a", newline="") as curves_fh,
    ):
        # appended rows go through csv: a cell id holds commas and quotes
        cells_writer = csv.writer(cells_fh)
        curves_writer = csv.writer(curves_fh)

        if args.jobs > 1 and pending:
            pool = ProcessPoolExecutor(max_workers=args.jobs)
            payloads = [(cell_id, cfg, train_path, test_path) for cell_id, cfg in pending]
            results = pool.map(_ablate_worker, payloads)
        else:  # serial cells train on the sets read and checked above
            pool = None
            results = (_ablate_cell(cell_id, cfg, train_set, test_set) for cell_id, cfg in pending)
        failed = []
        try:
            for cell_id, report, error in results:
                if report is None:  # no row, so --resume runs the cell again
                    failed.append(cell_id)
                    print(f"cell {cell_id} failed: training diverged: {error}", file=sys.stderr)
                    continue
                # the cells row goes last: it marks the cell finished for --resume
                last = report.epochs[-1]
                for k in report.config.eval_ks:
                    curves_writer.writerow(map(_cell, [cell_id, k, last.recall[k]]))
                curves_fh.flush()
                row = [cell_id, report.config.epochs, *_epoch_cells(last, _RESULT_COLUMNS, ks)]
                cells_writer.writerow(map(_cell, row))
                cells_fh.flush()
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
    instances = read_jsonl(args.data)
    if not (0 <= args.instance < len(instances)):
        raise ValidationError(
            f"unknown instance id {args.instance}; dataset {args.data} has "
            f"{len(instances)} instances (ids 0..{len(instances) - 1})"
        )
    inst = instances[args.instance]
    _check_feature_dim(params, [inst], args.checkpoint, args.data)
    _check_labels(params.num_classes, [inst], f"checkpoint {args.checkpoint}", args.data)
    if args.top_k < 1:
        raise ValidationError(f"--top-k must be >= 1, got {args.top_k}")
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
        "target": inst.target.astype(np.float64).tolist(),  # the mask as 0.0 and 1.0
        "gt_relations": np.sort(inst.relations, axis=1).tolist(),
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
    # one draw per cell i < j, in row-major order; the diagonal stays 0
    cells = rng.uniform(size=n * (n - 1) // 2) < 0.4
    target = np.append(cells, False).take(_upper_cells(n)[1])
    target[0, 1] = target[1, 0] = True  # keep the relation path exercised
    label = int(rng.integers(0, num_classes))
    return Instance(entities=EntitySet(features=features), target=target, label=label)


def cmd_gradcheck(args) -> int:
    if args.n < 2 or args.d < 1 or args.d_k < 1 or args.classes < 1:
        raise ValidationError("need --n >= 2 and positive --d, --d-k, --classes")
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    seed0 = _resolve_seed(args.seed)
    head_modes = HEAD_MODES if args.head_mode is None else (args.head_mode,)
    worst_overall = 0.0
    failed = False
    for head_mode in head_modes:
        for variant in LOSS_VARIANTS:
            for strategy in STRATEGIES:
                worst = worst_raw = 0.0
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
                    err, raw = _grad_errors(params, inst, config, args.step)
                    worst, worst_raw = max(worst, err), max(worst_raw, raw)
                status = "ok" if worst < args.tolerance else "FAIL"
                # the raw gap, before fd's rounding is forgiven, shows the margin
                print(
                    f"{head_mode:9s} {variant:9s} {strategy:9s} "
                    f"max_rel_err={worst:.3e} raw_gap={worst_raw:.3e}  {status}"
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


# glibc's malloc serves a block above its mmap threshold by mmap, and gives
# the free top of its heap back to the OS once it passes the trim threshold.
# Both start at 128 KB and rise only when a freed mmap block is larger, so a
# process whose largest freed block is one 300-entity float64 matrix (0.72 MB)
# trims above 1.44 MB. An evaluate at n = 300 holds several such matrices at
# once, so each evaluate hands the heap back and faults it in again: 936 minor
# page faults per `fanet eval` of a one-scene file, repeated in one process
# (x86-64, glibc 2.36), against ~1 with the thresholds set here, and 5.6
# against 4.1 ms per call. Without a C library's mallopt this does nothing.
def _tune_malloc() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _tune_malloc()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # the caller's fault: a refused input, or an OSError on a path given on the
        # command line, whose text names it; one naming no file (a failed fork) is ours
        if isinstance(exc, ValidationError) or (isinstance(exc, OSError) and exc.filename is not None):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
