"""Command-line surface: artifacts, exit codes, reproducibility, resume."""

import argparse
import base64
import csv
import dataclasses
import errno
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fanet import attention, cli, trainer
from fanet.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USER, main
from fanet.losses import LOSS_VARIANTS
from fanet.matrices import ValidationError, _encode_array, _write_json
from fanet.seeding import STREAM_INSTANCE, stream_rng
from fanet.synthgen import (
    DATASET_VERSION,
    MAX_ITEMS,
    Instance,
    default_document_spec,
    default_world_spec,
    load_spec,
    read_jsonl,
    write_jsonl,
)

FAST_TRAIN = ["--epochs", "3", "--batch-size", "2", "--d-k", "2", "--seed", "0"]


def _payload(entry) -> bytes:
    return base64.b64decode(entry["data"])


def _set_payload(entry, raw: bytes, shape=None) -> None:
    entry["data"] = base64.b64encode(raw).decode("ascii")
    if shape is not None:
        entry["shape"] = shape


def _nan_feature(d) -> None:
    entry = d["entities"]["features"]
    values = np.frombuffer(_payload(entry), dtype="<f8").copy()
    values[5] = np.nan
    _set_payload(entry, values.tobytes())


def _set_padding_bit(d) -> None:
    # 6 to 8 entities give 15, 21 or 28 pairs: the lowest bit of the last byte is padding
    raw = bytearray(_payload(d["target"]))
    raw[-1] |= 1
    _set_payload(d["target"], bytes(raw))


def _pair_out_of_range(d) -> None:
    n = d["entities"]["features"]["shape"][0]
    d["gt_relations"] = [[0, 1], [0, n]]


# A defect in a version 2 line, and the start of the message that names it.
V2_DEFECTS = {
    "unknown_format": (
        lambda d: d.update(format="fanet-other"),
        "format 'fanet-other' version 2, expected 'fanet-instance' version 2",
    ),
    "unknown_version": (
        lambda d: d.update(version=3),
        "format 'fanet-instance' version 3, expected 'fanet-instance' version 2",
    ),
    "version_without_format": (
        lambda d: d.pop("format"),
        "format None version 2, expected",
    ),
    "features_not_base64": (
        lambda d: d["entities"]["features"].update(data="not base64!"),
        "features: data is not base64",
    ),
    "target_not_base64": (
        lambda d: d["target"].update(data="????"),
        "target: data is not base64",
    ),
    "features_short": (
        lambda d: _set_payload(d["entities"]["features"], _payload(d["entities"]["features"])[:-8]),
        "features: payload holds",
    ),
    "boxes_long": (
        lambda d: _set_payload(d["entities"]["boxes"], _payload(d["entities"]["boxes"]) + bytes(8)),
        "boxes: payload holds",
    ),
    "target_short": (
        lambda d: _set_payload(d["target"], _payload(d["target"])[:-1]),
        "target: payload holds",
    ),
    "target_extra_byte": (
        lambda d: _set_payload(d["target"], _payload(d["target"]) + bytes(1),
                               [d["target"]["shape"][0] + 1]),
        "target: packed payload has shape (",
    ),
    "target_padding_bit": (_set_padding_bit, "target: padding bits"),
    "features_dtype": (
        lambda d: d["entities"]["features"].update(dtype="<f4"),
        "features: unsupported dtype '<f4', expected '<f8'",
    ),
    "target_dtype": (
        lambda d: d["target"].update(dtype="<f8"),
        "target: unsupported dtype '<f8', expected 'u1'",
    ),
    "features_nan": (_nan_feature, "features contains non-finite entries"),
    "gt_relation_out_of_range": (_pair_out_of_range, "gt_relations: bad index pair [0, "),
    "features_as_list": (
        lambda d: d["entities"].update(features=[[0.0, 1.0]]),
        "features: expected an encoded array object, got list",
    ),
    "entities_as_list": (
        lambda d: d.update(entities=[d["entities"]]),
        "entities: expected an object, got list",
    ),
    "entities_missing": (lambda d: d.pop("entities"), "entities: missing required field"),
    "features_missing": (lambda d: d["entities"].pop("features"), "features: missing required field"),
    "target_missing": (lambda d: d.pop("target"), "target: missing required field"),
    "label_missing": (lambda d: d.pop("label"), "label: missing required field"),
    "target_data_missing": (lambda d: d["target"].pop("data"), "target: data is not base64"),
}

# label and categories are plain JSON; numpy would read a 1.7 or a true in
# them as 1, so the decoders check the JSON types
FIELD_DEFECTS = {
    "label_float": (lambda d: d.update(label=1.7), "label: expected an int >= 0, got 1.7"),
    "label_bool": (lambda d: d.update(label=True), "label: expected an int >= 0, got True"),
    "label_negative": (lambda d: d.update(label=-1), "label must be >= 0, got -1"),
    "categories_empty": (
        lambda d: d["entities"].update(categories=[]),
        "categories length (0,) does not match n=",
    ),
    "categories_object": (
        lambda d: d["entities"].update(categories={}),
        "categories: expected a list of ints or null, got dict",
    ),
    "categories_float": (
        lambda d: d["entities"]["categories"].__setitem__(1, 1.7),
        "categories: expected a list of ints or null, got entry 1.7",
    ),
    "categories_bool": (
        lambda d: d["entities"]["categories"].__setitem__(1, True),
        "categories: expected a list of ints or null, got entry True",
    ),
    "categories_beyond_int64": (
        lambda d: d["entities"]["categories"].__setitem__(1, 2**70),
        f"categories: expected a list of ints or null, got entry {2**70}",
    ),
}


# tokens and tags are plain JSON: a list of n strings or null;
# each entry maps n to a bad value and the end of the message that names it
STRING_LIST_DEFECTS = {
    "string": lambda n: ("x" * n, "got str"),
    "ints": lambda n: ([1] * n, "got entry 1"),
    "bools": lambda n: ([True] * n, "got entry True"),
    "nulls": lambda n: ([None] * n, "got entry None"),
    "too_long": lambda n: (["w"] * (n + 3), f"got {n + 3} entries"),
    "too_short": lambda n: (["w"] * (n - 1), f"got {n - 1} entries"),
}


def _second_line(data_dir, version) -> dict:
    """The test file's second line, written in dataset version `version`.

    `fanet gen` writes one version; a version 1 line is refused
    (`TestEval.test_version_1_line_is_user_error`).
    """
    second = json.loads(Path(data_dir, "test.jsonl").read_text().splitlines()[1])
    assert second["version"] == version
    return second


def _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, line, message):
    """Replace the test file's second line with `line`, a dict or raw bytes:
    read_jsonl names bad.jsonl:2, eval exits 2."""
    first = Path(data_dir, "test.jsonl").read_bytes().splitlines(keepends=True)[0]
    raw = line if isinstance(line, bytes) else json.dumps(line).encode()
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(first + raw + b"\n")
    named = re.escape(f"bad.jsonl:2: {message}")
    with pytest.raises(ValidationError, match=named):
        read_jsonl(bad)
    code = main(
        ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
         "--data", str(bad), "--out", str(tmp_path / "x")]
    )
    assert code == EXIT_USER
    assert re.search(named, capsys.readouterr().err)


def _box_less_test_file(data_dir, path) -> int:
    """Write data_dir's test file to `path` with the boxes of its second
    instance that has gt relations set to null; returns that instance's index."""
    lines = Path(data_dir, "test.jsonl").read_text().splitlines()
    with_relations = [i for i, inst in enumerate(read_jsonl(Path(data_dir, "test.jsonl")))
                      if len(inst.relations)]
    index = with_relations[1]
    line = json.loads(lines[index])
    line["entities"]["boxes"] = None
    lines[index] = json.dumps(line)
    Path(path).write_text("\n".join(lines) + "\n")
    return index


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    code = main(["gen", "--out", out, "--n-train", "14", "--n-test", "6", "--seed", "0"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", "--data", data_dir, "--out", out] + FAST_TRAIN)
    assert code == EXIT_OK
    return out


class TestGen:
    def test_artifacts(self, data_dir):
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            assert os.path.exists(os.path.join(data_dir, name))
        with open(os.path.join(data_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["n_train"] == 14
        assert manifest["seed"] == 0
        assert manifest["spec"]["kind"] == "vision"
        dist = manifest["label_distribution"]["train"]
        assert sum(dist.values()) == 14

    def test_byte_reproducible(self, tmp_path, data_dir):
        out = tmp_path / "again"
        code = main(
            ["gen", "--out", str(out), "--n-train", "14", "--n-test", "6", "--seed", "0"]
        )
        assert code == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            a = (out / name).read_bytes()
            b = Path(data_dir, name).read_bytes()
            assert a == b, name

    def test_seed_changes_data(self, tmp_path, data_dir):
        out = tmp_path / "other"
        main(["gen", "--out", str(out), "--n-train", "14", "--n-test", "6", "--seed", "1"])
        assert (out / "train.jsonl").read_bytes() != Path(data_dir, "train.jsonl").read_bytes()

    def test_document_kind(self, tmp_path):
        out = tmp_path / "docs"
        code = main(
            ["gen", "--kind", "document", "--out", str(out), "--n-train", "4",
             "--n-test", "2", "--seed", "0"]
        )
        assert code == EXIT_OK
        first = json.loads((out / "train.jsonl").read_text().splitlines()[0])
        assert "tokens" in first and "tags" in first

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "kind": "vision",
            "prototypes": (4.0 * np.eye(5)).tolist(),
            "affine_pairs": [[0, 1]],
            "signature_pairs": [[0, 1]],
            "entities_min": 3,
            "entities_max": 4,
        }
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "custom"
        code = main(
            ["gen", "--spec", str(spec_path), "--out", str(out), "--n-train", "3",
             "--n-test", "2", "--seed", "0"]
        )
        assert code == EXIT_OK
        first = read_jsonl(out / "train.jsonl")[0]
        assert len(first.entities.features[0]) == 5

    def test_bad_counts(self, tmp_path):
        code = main(["gen", "--out", str(tmp_path / "x"), "--n-train", "0"])
        assert code == EXIT_USER

    @pytest.mark.parametrize(
        "kind,key,value",
        [("vision", "entities_min", 6.7), ("vision", "noise_sigma", True),
         ("vision", "entities_max", "8"), ("document", "tokens_min", 6.0),
         ("document", "noise_sigma", "0.1"), ("document", "tokens", "ints"),
         ("document", "tags", "ints"), ("vision", "prototypes", [[1.0, True]]),
         ("document", "embeddings", [[False, 0.5]]), ("document", "pair_table", [7]),
         ("document", "pair_table", [["noun", 1]]), ("document", "pair_table", "noun"),
         pytest.param("vision", "noise_sigma", 10**400, id="vision-noise_sigma-huge_int"),
         pytest.param("document", "noise_sigma", -(10**400), id="document-noise_sigma-huge_int"),
         ("vision", "entities_max", 4097), ("document", "tokens_max", 4097),
         pytest.param("vision", "entities_max", 10**30, id="vision-entities_max-1e30"),
         pytest.param("document", "tokens_max", 10**30, id="document-tokens_max-1e30")],
    )
    def test_mistyped_spec_field_is_user_error(self, tmp_path, capsys, kind, key, value):
        spec = default_document_spec() if kind == "document" else default_world_spec()
        d = spec.to_dict()
        d[key] = list(range(len(d[key]))) if value == "ints" else value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(d))
        out = tmp_path / "out"
        code = main(["gen", "--spec", str(spec_path), "--out", str(out), "--seed", "0"])
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: {key}: expected")
        assert "0" * 100 not in err
        assert not out.exists()

    def test_value_nested_nearly_too_deep_to_load_is_user_error(self, tmp_path, capsys):
        # the deepest nesting json.load takes is also too deep to quote in a message
        spec_path = tmp_path / "spec.json"
        for depth in range(800, 1000):
            d = default_document_spec().to_dict()
            d["tokens"] = "HOLE"
            spec_path.write_text(json.dumps(d).replace('"HOLE"', "[" * depth + "]" * depth))
            assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == EXIT_USER
            assert capsys.readouterr().err.startswith(f"error: {spec_path}: "), depth

    def test_missing_spec_file(self, tmp_path):
        code = main(
            ["gen", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "y")]
        )
        assert code == EXIT_USER

    def test_negative_seed_is_user_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--seed", "-1"]) == EXIT_USER
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["vision", "document"])
    @pytest.mark.parametrize("sigma,text", [(float("inf"), "Infinity"), (float("nan"), "NaN")])
    def test_non_finite_noise_sigma_is_rejected_at_load(self, tmp_path, capsys, kind, sigma, text):
        spec = default_document_spec() if kind == "document" else default_world_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec.to_dict(), "noise_sigma": sigma}))
        assert f'"noise_sigma": {text}' in spec_path.read_text()
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == EXIT_USER
        assert capsys.readouterr().err == (
            f"error: {spec_path}: noise_sigma must be finite and >= 0, got {sigma}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["vision", "document"])
    def test_overflowing_noise_sigma_fails_the_features_check(self, tmp_path, capsys, kind):
        spec = default_document_spec() if kind == "document" else default_world_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec.to_dict(), "noise_sigma": 1e308}))
        argv = ["gen", "--spec", str(spec_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USER
        assert capsys.readouterr().err == "error: features contains non-finite entries\n"
        assert not (tmp_path / "out").exists()  # generated before --out is made


class TestTrain:
    def test_artifacts(self, run_dir):
        for name in ("report.json", "report.csv", "checkpoint.json"):
            assert os.path.exists(os.path.join(run_dir, name))

    def test_report_csv_layout(self, run_dir):
        lines = Path(run_dir, "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config: {")
        echoed = json.loads(lines[0].split("# config: ", 1)[1])
        assert echoed["epochs"] == 3
        assert lines[1].split(",")[0] == "epoch"
        assert len(lines) == 2 + 3  # comment + header + one row per epoch

    def test_report_json_has_lambda_key(self, run_dir):
        with open(os.path.join(run_dir, "report.json")) as fh:
            report = json.load(fh)
        assert "lambda" in report["config"]
        assert len(report["epochs"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "again"
        code = main(["train", "--data", data_dir, "--out", str(out)] + FAST_TRAIN)
        assert code == EXIT_OK
        for name in ("report.csv", "report.json", "checkpoint.json"):
            assert (out / name).read_bytes() == Path(run_dir, name).read_bytes(), name

    def test_missing_dataset_names_path(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        code = main(["train", "--data", str(missing), "--out", str(tmp_path / "o")])
        assert code == EXIT_USER
        assert str(missing) in capsys.readouterr().err

    def test_config_file_plus_flag_precedence(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "lambda": 0.5, "d_k": 2,
                                        "batch_size": 2}))
        out = tmp_path / "cfgrun"
        code = main(
            ["train", "--data", data_dir, "--out", str(out),
             "--config", str(cfg_path), "--lambda", "0.25"]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["lambda"] == 0.25  # flag beats file
        assert report["config"]["epochs"] == 2     # file beats default

    def test_int_and_float_lambda_write_the_same_bytes(self, tmp_path, data_dir):
        runs = []
        for value in ("0", "0.0"):
            cfg_path = tmp_path / f"lambda{value}.json"
            cfg_path.write_text('{"lambda": ' + value + "}")
            runs.append(tmp_path / f"run{value}")
            argv = ["train", "--data", data_dir, "--out", str(runs[-1]), "--config", str(cfg_path)]
            assert main(argv + FAST_TRAIN) == EXIT_OK
        for name in ("report.csv", "report.json", "checkpoint.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_divergence_exits_one(self, tmp_path, data_dir):
        with np.errstate(over="ignore"):
            code = main(
                ["train", "--data", data_dir, "--out", str(tmp_path / "d"),
                 "--lr", "1e200", "--epochs", "3", "--batch-size", "1", "--d-k", "2"]
            )
        assert code == EXIT_INTERNAL

    def test_box_less_test_instance_with_relations_is_refused_before_training(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        """Recall could not match such an instance: train exits 2 naming the
        split and the instance, before the first epoch, not after it."""
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        index = _box_less_test_file(data_dir, data / "test.jsonl")
        epochs = []
        monkeypatch.setattr("fanet.trainer._train_epochs", lambda *args: epochs.append(args))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN) == EXIT_USER
        err = capsys.readouterr().err
        assert f"error: test split instance {index}: entities have no boxes" in err
        assert not epochs
        assert not (out / "report.json").exists()

    @staticmethod
    def _data_with_label(tmp_path, data_dir, split, label):
        """A copy of data_dir whose `split` file's second line has `label`."""
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / f"{split}.jsonl"
        lines = path.read_text().splitlines()
        second = json.loads(lines[1])
        second["label"] = label
        path.write_text("\n".join([lines[0], json.dumps(second), *lines[2:]]) + "\n")
        return data, path

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_beyond_manifest_classes_is_user_error(self, tmp_path, data_dir, capsys, split):
        """A label the manifest's spec has no class for exits 2 before training."""
        manifest = json.loads(Path(data_dir, "manifest.json").read_text())
        n_labels = load_spec(manifest["spec"]).n_labels
        data, path = self._data_with_label(tmp_path, data_dir, split, n_labels)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN) == EXIT_USER
        err = capsys.readouterr().err
        assert f"dataset {path} has label {n_labels}" in err
        assert f"{data / 'manifest.json'} spec has {n_labels} classes" in err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", ["absent", "spec_does_not_load", "top_label"])
    def test_classifier_is_sized_from_the_data(self, tmp_path, data_dir, manifest):
        """Without a loadable manifest there is nothing to check labels against."""
        n_labels = load_spec(
            json.loads(Path(data_dir, "manifest.json").read_text())["spec"]
        ).n_labels
        label = n_labels - 1 if manifest == "top_label" else n_labels
        data, _ = self._data_with_label(tmp_path, data_dir, "train", label)
        if manifest == "absent":
            (data / "manifest.json").unlink()
        elif manifest == "spec_does_not_load":
            (data / "manifest.json").write_text(json.dumps({"spec": {"kind": "other"}}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN) == EXIT_OK
        labels = [inst.label for split in ("train", "test")
                  for inst in read_jsonl(data / f"{split}.jsonl")]
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["num_classes"] == max(labels) + 1

    def test_manifest_nested_too_deeply_is_skipped(self, tmp_path, data_dir):
        """A manifest that recurses too far to parse checks nothing, like any
        other that does not load: the run is the one without a manifest."""
        outs = {}
        for manifest in ("absent", "deep"):
            data = tmp_path / f"data-{manifest}"
            shutil.copytree(data_dir, data)
            if manifest == "absent":
                (data / "manifest.json").unlink()
            else:
                (data / "manifest.json").write_text("[" * 200000)
            outs[manifest] = tmp_path / f"run-{manifest}"
            argv = ["train", "--data", str(data), "--out", str(outs[manifest])]
            assert main(argv + FAST_TRAIN) == EXIT_OK, manifest
        for name in ("report.csv", "checkpoint.json"):
            assert (outs["deep"] / name).read_bytes() == (outs["absent"] / name).read_bytes(), name

    def test_unknown_config_field_in_file(self, tmp_path, data_dir):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(
            ["train", "--data", data_dir, "--out", str(tmp_path / "o"),
             "--config", str(cfg_path)]
        )
        assert code == EXIT_USER

    @pytest.mark.parametrize(
        "key,value,want",
        [("epochs", 2.5, "an integer"), ("seed", 1.5, "an integer"),
         ("batch_size", True, "an integer"), ("epochs", True, "an integer"),
         ("lr", "0.1", "a real number"), ("eval_ks", 5, "a list of integers"),
         ("freeze_attention", "no", "true or false")],
    )
    def test_mistyped_config_number_is_user_error(
        self, tmp_path, data_dir, capsys, key, value, want
    ):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = main(
            ["train", "--data", data_dir, "--out", str(tmp_path / "o"),
             "--config", str(cfg_path)]
        )
        assert code == EXIT_USER
        assert f"{key}: expected {want}, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_int_beyond_float_range_is_user_error(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"lr": 1' + "0" * 400 + "}")
        code = main(
            ["train", "--data", data_dir, "--out", str(tmp_path / "o"),
             "--config", str(cfg_path)]
        )
        assert code == EXIT_USER
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: lr: expected a real number, got a 1329-bit integer\n"
        )
        assert not (tmp_path / "o").exists()


class TestSeedPrecedence:
    def test_env_seed_fills_gap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAN_SEED", "7")
        out = tmp_path / "env"
        main(["gen", "--out", str(out), "--n-train", "3", "--n-test", "2"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAN_SEED", "7")
        out = tmp_path / "flag"
        main(["gen", "--out", str(out), "--n-train", "3", "--n-test", "2", "--seed", "1"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 1

    def test_config_file_beats_env(self, tmp_path, data_dir, monkeypatch):
        monkeypatch.setenv("FAN_SEED", "9")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 2, "epochs": 1, "d_k": 2,
                                        "batch_size": 2}))
        out = tmp_path / "file"
        main(["train", "--data", data_dir, "--out", str(out), "--config", str(cfg_path)])
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 2

    def test_env_applies_to_train_when_unset(self, tmp_path, data_dir, monkeypatch):
        monkeypatch.setenv("FAN_SEED", "5")
        out = tmp_path / "envtrain"
        main(["train", "--data", data_dir, "--out", str(out), "--epochs", "1",
              "--batch-size", "2", "--d-k", "2"])
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 5

    def test_garbage_env_is_user_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAN_SEED", "lots")
        code = main(["gen", "--out", str(tmp_path / "g"), "--n-train", "3",
                     "--n-test", "2"])
        assert code == EXIT_USER


class TestEval:
    def test_artifacts_and_metrics_contract(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"), "--out", str(out)]
        )
        assert code == EXIT_OK
        metrics = (out / "metrics.csv").read_text().splitlines()
        # the per-instance file keeps the bare four-column contract; the
        # config echo lives in summary.json instead
        assert metrics[0] == "instance_id,k,recall,center_mass"
        assert not any(line.startswith("#") for line in metrics)
        assert len(metrics) == 1 + 6 * 3  # header + instances x default ks
        summary = json.loads((out / "summary.json").read_text())
        assert "lambda" in summary["config"]
        assert set(summary["recall"]) == {"recall@1", "recall@5", "recall@10"}
        wide = (out / "summary.csv").read_text().splitlines()
        assert wide[0].split(",")[0] == "n_instances"
        assert len(wide) == 2

    def test_custom_ks(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "evalks"
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"), "--ks", "2,4",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ks"] == [2, 4]

    def test_bad_ks(self, tmp_path, data_dir, run_dir):
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"), "--ks", "a,b",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER

    @pytest.mark.parametrize("ks", ["", ","])
    def test_no_ks_is_refused(self, tmp_path, data_dir, run_dir, capsys, ks):
        """An empty --ks names no cutoff; it does not fall back to the checkpoint's."""
        out = tmp_path / "x"
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"), "--ks", ks, "--out", str(out)]
        )
        assert code == EXIT_USER
        assert "error: ks must be positive ints, got ()" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_mismatch_names_both(self, tmp_path, run_dir, capsys):
        spec = {
            "kind": "vision",
            "prototypes": (4.0 * np.eye(5)).tolist(),
            "affine_pairs": [[0, 1]],
            "signature_pairs": [[0, 1]],
            "entities_min": 3,
            "entities_max": 4,
        }
        spec_path = tmp_path / "world5.json"
        spec_path.write_text(json.dumps(spec))
        data5 = tmp_path / "data5"
        main(["gen", "--spec", str(spec_path), "--out", str(data5), "--n-train", "3",
              "--n-test", "2", "--seed", "0"])
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", str(data5 / "test.jsonl"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert "8" in err and "5" in err  # both dims named

    @pytest.mark.parametrize("field,pairs", [("target", [[0]]), ("gt_relations", [[-1, 3]])])
    def test_malformed_pair_is_user_error(self, tmp_path, data_dir, run_dir, capsys, field, pairs):
        lines = Path(data_dir, "test.jsonl").read_text().splitlines()
        first = json.loads(lines[1])
        first[field] = pairs
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(first)]) + "\n")
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", str(bad), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER
        assert f"bad.jsonl:2: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(V2_DEFECTS))
    def test_malformed_v2_line_is_user_error(self, tmp_path, data_dir, run_dir, capsys, case):
        lines = Path(data_dir, "test.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        mutate, message = V2_DEFECTS[case]
        mutate(second)
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize(
        "line,message",
        [(b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
         (b"[" * 100000, "nested too deeply"),
         (b'{"tags": ' + b"[" * 100000 + b"]" * 100000 + b"}", "nested too deeply")],
        ids=["non_utf8", "deep_nesting", "deep_field"],
    )
    def test_unreadable_line_is_user_error(self, tmp_path, data_dir, run_dir, capsys, line, message):
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, line, message)

    def test_line_above_max_items_is_user_error(self, tmp_path, data_dir, run_dir, capsys):
        """Its entity count is refused before the target, which would unpack
        to n x n floats, is decoded (this one would not match the count)."""
        second = _second_line(data_dir, DATASET_VERSION)
        second["entities"] = {"features": _encode_array(np.zeros((MAX_ITEMS + 1, 1)))}
        message = f"features: expected at most {MAX_ITEMS} entities, got {MAX_ITEMS + 1}"
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("version", [DATASET_VERSION])
    @pytest.mark.parametrize("case", sorted(FIELD_DEFECTS))
    def test_bad_label_or_categories_is_user_error(
        self, tmp_path, data_dir, run_dir, capsys, case, version
    ):
        second = _second_line(data_dir, version)
        mutate, message = FIELD_DEFECTS[case]
        mutate(second)
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("version", [DATASET_VERSION])
    @pytest.mark.parametrize("field", ["tokens", "tags"])
    @pytest.mark.parametrize("case", sorted(STRING_LIST_DEFECTS))
    def test_bad_tokens_or_tags_is_user_error(
        self, tmp_path, data_dir, run_dir, capsys, case, field, version
    ):
        n = read_jsonl(os.path.join(data_dir, "test.jsonl"))[1].n
        second = _second_line(data_dir, version)
        value, got = STRING_LIST_DEFECTS[case](n)
        second[field] = value
        message = f"{field}: expected a list of {n} strings or null, {got}"
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("version", [DATASET_VERSION])
    def test_tokens_and_tags_may_be_strings_null_or_absent(self, tmp_path, data_dir, version):
        n = read_jsonl(os.path.join(data_dir, "test.jsonl"))[1].n
        line = _second_line(data_dir, version)
        words = [f"w{i}" for i in range(n)]
        p = tmp_path / "words.jsonl"
        p.write_text(json.dumps({**line, "tokens": words, "tags": None}) + "\n")
        (back,) = read_jsonl(p)
        assert back.tokens == tuple(words) and back.tags is None

    def test_null_or_absent_boxes_load_as_none(self, tmp_path, data_dir):
        line = json.loads(Path(data_dir, "test.jsonl").read_text().splitlines()[1])
        line["entities"]["boxes"] = None
        absent = json.loads(json.dumps(line))
        del absent["entities"]["boxes"]
        p = tmp_path / "boxless.jsonl"
        p.write_text(json.dumps(line) + "\n" + json.dumps(absent) + "\n")
        assert [inst.entities.boxes for inst in read_jsonl(p)] == [None, None]

    def test_version_1_line_is_user_error(self, tmp_path, data_dir, run_dir, capsys):
        """A line in the old plain-list format names its line and asks for `fanet gen`."""
        inst = read_jsonl(os.path.join(data_dir, "test.jsonl"))[1]
        ent = inst.entities
        v1 = {
            "entities": {
                "features": ent.features.tolist(),
                "boxes": ent.boxes.tolist(),
                "categories": ent.categories.tolist(),
            },
            "target": np.argwhere(np.triu(inst.target)).tolist(),
            "label": inst.label,
        }
        message = (
            "no format or version: version 1 lines are no longer read; "
            "regenerate the data with `fanet gen`"
        )
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, v1, message)

    def test_box_less_instance_with_relations_names_the_file(self, tmp_path, data_dir, run_dir, capsys):
        """Recall cannot match an instance with gt relations and no boxes:
        eval exits 2 naming --data and the 0-based instance, as for labels."""
        data = tmp_path / "boxless.jsonl"
        index = _box_less_test_file(data_dir, data)
        out = tmp_path / "x"
        code = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
                     "--data", str(data), "--out", str(out)])
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert f"error: dataset {data} instance {index}: entities have no boxes" in err
        assert not out.exists()

    def test_label_beyond_checkpoint_classes_is_user_error(
        self, tmp_path, data_dir, run_dir, capsys
    ):
        """A label the checkpoint has no class for exits 2 instead of scoring a miss."""
        checkpoint = os.path.join(run_dir, "checkpoint.json")
        num_classes = json.loads(Path(checkpoint).read_text())["num_classes"]
        lines = Path(data_dir, "test.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        for label, expected in ((num_classes - 1, EXIT_OK), (num_classes, EXIT_USER),
                                (10**6, EXIT_USER)):
            second["label"] = label
            data = tmp_path / f"label{label}.jsonl"
            data.write_text("\n".join([lines[0], json.dumps(second)]) + "\n")
            assert len(read_jsonl(data)) == 2  # the file itself is well formed
            for argv in (
                ["eval", "--checkpoint", checkpoint, "--data", str(data),
                 "--out", str(tmp_path / "x")],
                ["export-attention", "--checkpoint", checkpoint, "--data", str(data),
                 "--instance", "1", "--out", str(tmp_path / "x.json")],
            ):
                assert main(argv) == expected, (label, argv[0])
                err = capsys.readouterr().err
                if expected == EXIT_USER:
                    assert f"dataset {data} has label {label}" in err
                    assert f"{num_classes} classes" in err

    def test_empty_dataset(self, tmp_path, run_dir):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", str(empty), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER

    def test_non_finite_checkpoint_is_user_error(self, tmp_path, data_dir, run_dir, capsys):
        doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
        entry = doc["params"]["w_k"]
        w_k = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        w_k[3] = np.nan
        entry["data"] = base64.b64encode(w_k.tobytes()).decode("ascii")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main(
            ["eval", "--checkpoint", str(bad),
             "--data", os.path.join(data_dir, "test.jsonl"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER
        assert "w_k contains non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: [1], "expected an object, got list"),
            (lambda doc: {**doc, "config": []}, "config: expected an object, got list"),
            (lambda doc: {**doc, "params": []}, "params: expected an object, got list"),
            (lambda doc: {**doc, "num_classes": "x"}, "num_classes: expected an integer, got 'x'"),
            (lambda doc: {**doc, "params": {**doc["params"], "w_k": [1]}},
             "params.w_k: expected an encoded array object, got list"),
            (lambda doc: {**{k: v for k, v in doc.items() if k != "feature_dim"}, "feture_dim": 999},
             "feture_dim: unknown field"),
            (lambda doc: {**doc, "params": {**doc["params"], "w_v": doc["params"]["w_k"]}},
             "params.w_v: unknown field"),
            (lambda doc: {**doc, "params": {"w_k": doc["params"]["w_k"]}},
             "params.w_q: missing required field"),
            (lambda doc: {**doc, "config": {**doc["config"], "lam": 0.5}}, "config.lam: unknown field"),
            (lambda doc: {**doc, "params": {**doc["params"], "classifier_w": _encode_array(
                np.zeros(()))}}, "classifier_w must have 2 dimensions, got shape ()"),
            (lambda doc: {**doc, "config": {**doc["config"], "head_mode": "concat"}},
             "classifier expects pooled dim 8, but concat head over 8-dim features gives 16"),
            (lambda doc: {**doc, "feature_dim": 999, "head_dim": "x"},
             "feature_dim field 999 does not match w_k shape (2, 8)"),
            (lambda doc: {**doc, "feature_dim": 8.0}, "feature_dim: expected an integer, got 8.0"),
            (lambda doc: {**doc, "head_dim": "x"}, "head_dim: expected an integer, got 'x'"),
            (lambda doc: {**doc, "head_dim": 16},
             "head_dim field 16 does not match classifier shape (3, 8)"),
        ],
        ids=["list", "config_list", "params_list", "num_classes_string", "w_k_list",
             "misspelled_size", "unknown_param", "missing_param", "unknown_config_key",
             "classifier_w_scalar", "head_mode_mismatch", "feature_dim_mismatch",
             "feature_dim_float", "head_dim_string", "head_dim_mismatch"],
    )
    def test_malformed_checkpoint_names_its_file(
        self, tmp_path, data_dir, run_dir, capsys, mutate, message
    ):
        doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(mutate(doc)))
        code = main(
            ["eval", "--checkpoint", str(bad),
             "--data", os.path.join(data_dir, "test.jsonl"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_missing_checkpoint(self, tmp_path, data_dir):
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "none.json"),
             "--data", os.path.join(data_dir, "test.jsonl"),
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USER


def _base64_reason(data) -> str:
    """What the standard library's strict base64 decoder says about `data`;
    its wording differs between Python versions."""
    try:
        base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{data!r} decodes")


def _resized(entry, extra: int) -> dict:
    raw = _payload(entry)
    return {**entry, "data": base64.b64encode(raw[:extra] if extra < 0 else raw + bytes(extra)).decode()}


# A fault in an encoded array, as (the faulty entry made from a good one, the
# message it gives after the array's name). The same decoder reads dataset
# lines and checkpoints, so each fault reads the same in both.
PAYLOAD_FAULTS = {
    "list": (lambda e: [1.0], lambda e: "expected an encoded array object, got list"),
    "null": (lambda e: None, lambda e: "expected an encoded array object, got NoneType"),
    "dtype": (lambda e: {**e, "dtype": "<f4"}, lambda e: "unsupported dtype '<f4', expected '<f8'"),
    "dtype_missing": (lambda e: {k: v for k, v in e.items() if k != "dtype"},
                      lambda e: "unsupported dtype None, expected '<f8'"),
    "shape_int": (lambda e: {**e, "shape": 3},
                  lambda e: "shape must be a list of non-negative integers, got 3"),
    "shape_missing": (lambda e: {k: v for k, v in e.items() if k != "shape"},
                      lambda e: "shape must be a list of non-negative integers, got None"),
    "shape_bool": (lambda e: {**e, "shape": [True, e["shape"][1]]},
                   lambda e: f"shape must be a list of non-negative integers, got [True, {e['shape'][1]}]"),
    "shape_negative": (lambda e: {**e, "shape": [-1, e["shape"][1]]},
                       lambda e: f"shape must be a list of non-negative integers, got [-1, {e['shape'][1]}]"),
    "shape_float": (lambda e: {**e, "shape": [float(e["shape"][0]), e["shape"][1]]},
                    lambda e: "shape must be a list of non-negative integers, "
                              f"got [{float(e['shape'][0])}, {e['shape'][1]}]"),
    "data_null": (lambda e: {**e, "data": None},
                  lambda e: f"data is not base64 ({_base64_reason(None)})"),
    "data_missing": (lambda e: {k: v for k, v in e.items() if k != "data"},
                     lambda e: f"data is not base64 ({_base64_reason(None)})"),
    "data_not_base64": (lambda e: {**e, "data": "not base64!"},
                        lambda e: f"data is not base64 ({_base64_reason('not base64!')})"),
    "data_bad_padding": (lambda e: {**e, "data": e["data"][:-1]},
                         lambda e: f"data is not base64 ({_base64_reason(e['data'][:-1])})"),
    "bytes_short": (lambda e: _resized(e, -8),
                    lambda e: f"payload holds {8 * np.prod(e['shape']) - 8} bytes, "
                              f"shape {tuple(e['shape'])} needs {8 * np.prod(e['shape'])}"),
    "bytes_long": (lambda e: _resized(e, 8),
                   lambda e: f"payload holds {8 * np.prod(e['shape']) + 8} bytes, "
                             f"shape {tuple(e['shape'])} needs {8 * np.prod(e['shape'])}"),
}


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
def test_repeated_eval_at_300_entities_keeps_its_heap(tmp_path):
    """`main` raises glibc's malloc thresholds, so an in-process loop of
    `fanet eval` on a 300-entity scene reuses its heap instead of faulting it
    in again each time: 936 minor page faults per eval with the default
    thresholds, ~1 with the CLI's (x86-64, glibc 2.36)."""
    import resource

    spec = default_world_spec().to_dict()
    spec["entities_min"] = spec["entities_max"] = 300
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", data,
                 "--n-train", "1", "--n-test", "1", "--seed", "0"]) == EXIT_OK
    assert main(["train", "--data", data, "--out", run, "--epochs", "1", "--seed", "0"]) == EXIT_OK
    argv = ["eval", "--checkpoint", f"{run}/checkpoint.json", "--data", f"{data}/test.jsonl",
            "--out", str(tmp_path / "eval")]
    for _ in range(3):
        assert main(argv) == EXIT_OK
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        assert main(argv) == EXIT_OK
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5 < 100


class TestPayloadFaults:
    """Every fault in an encoded array exits 2 with a message that names the
    file, the array and the fault; the texts are pinned here."""

    @pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
    def test_dataset_line(self, tmp_path, data_dir, run_dir, capsys, fault):
        lines = Path(data_dir, "test.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        make, message = PAYLOAD_FAULTS[fault]
        good = second["entities"]["features"]
        second["entities"]["features"] = make(good)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[0] + "\n" + json.dumps(second) + "\n")
        code = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
                     "--data", str(bad), "--out", str(tmp_path / "x")])
        assert code == EXIT_USER
        assert capsys.readouterr().err == f"error: {bad}:2: features: {message(good)}\n"

    @pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
    def test_checkpoint(self, tmp_path, data_dir, run_dir, capsys, fault):
        doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
        make, message = PAYLOAD_FAULTS[fault]
        good = doc["params"]["w_k"]
        doc["params"]["w_k"] = make(good)
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", os.path.join(data_dir, "test.jsonl"), "--out", str(tmp_path / "x")])
        assert code == EXIT_USER
        assert capsys.readouterr().err == f"error: {bad}: params.w_k: {message(good)}\n"


class TestExportAttention:
    def export(self, out_path, data_dir, run_dir, instance=0, extra=()):
        return main(
            ["export-attention",
             "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"),
             "--instance", str(instance), "--out", str(out_path), *extra]
        )

    def test_dump_contents(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "dump.json"
        assert self.export(out, data_dir, run_dir) == EXIT_OK
        dump = json.loads(out.read_text())
        n = dump["n_entities"]
        for key in ("logits", "agg_weights", "focus_weights", "target"):
            assert np.asarray(dump[key]).shape == (n, n)
        # focus weights and importance are normalized distributions
        assert np.asarray(dump["focus_weights"]).sum() == pytest.approx(1.0, abs=1e-10)
        assert np.asarray(dump["word_importance"]).sum() == pytest.approx(1.0, abs=1e-10)
        assert len(dump["top_pairs"]) == 10
        weights = [p["weight"] for p in dump["top_pairs"]]
        assert weights == sorted(weights, reverse=True)
        assert dump["categories"] is not None

    def test_round_trip_exact(self, tmp_path, data_dir, run_dir):
        """Dumped matrices reproduce the forward pass bit for bit."""
        from fanet.trainer import forward_task, load_checkpoint

        out = tmp_path / "dump.json"
        self.export(out, data_dir, run_dir, instance=1)
        dump = json.loads(out.read_text())
        params, config = load_checkpoint(os.path.join(run_dir, "checkpoint.json"))
        inst = read_jsonl(os.path.join(data_dir, "test.jsonl"))[1]
        fwd = forward_task(inst.entities.features, params, config)
        assert np.array_equal(np.asarray(dump["logits"]), fwd.state.logits)
        assert np.array_equal(np.asarray(dump["focus_weights"]), fwd.state.focus_weights)
        assert np.array_equal(np.asarray(dump["target"]), inst.target)

    def test_rerun_is_byte_identical(self, tmp_path, data_dir, run_dir):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.export(a, data_dir, run_dir)
        self.export(b, data_dir, run_dir)
        assert a.read_bytes() == b.read_bytes()

    def test_instance_out_of_range(self, tmp_path, data_dir, run_dir, capsys):
        code = self.export(tmp_path / "x.json", data_dir, run_dir, instance=99)
        assert code == EXIT_USER
        assert "99" in capsys.readouterr().err

    def test_bad_top_k(self, tmp_path, data_dir, run_dir):
        code = self.export(
            tmp_path / "x.json", data_dir, run_dir, extra=("--top-k", "0")
        )
        assert code == EXIT_USER


class TestAblate:
    def grid_file(self, tmp_path, grid):
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(grid))
        return str(p)

    def test_grid_runs_and_tables(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {"strategy": ["unsup", "mat_focal"]})
        out = tmp_path / "ab"
        code = main(
            ["ablate", "--grid", grid, "--data", data_dir, "--out", str(out)]
            + FAST_TRAIN
        )
        assert code == EXIT_OK
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0].startswith("# config: {")
        assert lines[1].split(",")[0] == "cell_id"
        assert len(lines) == 2 + 2
        assert lines[2].startswith('strategy=""unsup""') or "unsup" in lines[2]
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[1] == "cell_id,k,recall"
        assert len(curves) == 2 + 2 * 3  # two cells x three ks
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 2

    def test_failed_curves_open_closes_the_cells_file(self, tmp_path, data_dir, capsys):
        grid = self.grid_file(tmp_path, {"strategy": ["unsup"]})
        out = tmp_path / "ab"
        (out / "curves.csv").mkdir(parents=True)  # the second open fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["ablate", "--grid", grid, "--data", data_dir, "--out", str(out)] + FAST_TRAIN)
            gc.collect()
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "curves.csv") in err
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_ablate_runs_cells(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {"strategy": ["unsup", "mat_focal"]})
        out = tmp_path / "ab"
        code = main(
            ["ablate", "--grid", grid, "--data", data_dir, "--out", str(out),
             "--epochs", "1", "--batch-size", "2", "--d-k", "2", "--seed", "0"]
        )
        assert code == EXIT_OK
        with open(out / "cells.csv", newline="") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert [r["cell_id"] for r in rows] == ['strategy="unsup"', 'strategy="mat_focal"']
        assert float(rows[0]["relation_loss"]) == 0.0

    def test_empty_grid_gives_empty_table(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {})
        out = tmp_path / "empty"
        code = main(
            ["ablate", "--grid", grid, "--data", data_dir, "--out", str(out)]
            + FAST_TRAIN
        )
        assert code == EXIT_OK
        lines = (out / "cells.csv").read_text().splitlines()
        assert len(lines) == 2  # comment + header, no cells

    def test_resume_skips_done_cells(self, tmp_path, data_dir):
        out = tmp_path / "resume"
        first = self.grid_file(tmp_path, {"lambda": [0.0]})
        code = main(
            ["ablate", "--grid", first, "--data", data_dir, "--out", str(out)]
            + FAST_TRAIN
        )
        assert code == EXIT_OK
        before = (out / "cells.csv").read_text()

        second = self.grid_file(tmp_path, {"lambda": [0.0, 0.5]})
        code = main(
            ["ablate", "--grid", second, "--data", data_dir, "--out", str(out),
             "--resume"] + FAST_TRAIN
        )
        assert code == EXIT_OK
        after = (out / "cells.csv").read_text()
        assert after.startswith(before)  # old rows untouched, appended only
        rows = [l for l in after.splitlines() if l.startswith("lambda=")]
        assert len(rows) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"cell_id\n" + b"a" * 200000 + b"\n"],
                             ids=["non_utf8", "field_too_large"])
    def test_resume_on_unreadable_cells_is_user_error(self, tmp_path, data_dir, capsys,
                                                      content):
        out = tmp_path / "resume"
        out.mkdir()
        (out / "cells.csv").write_bytes(content)
        code = main(["ablate", "--grid", self.grid_file(tmp_path, {"lambda": [0.0]}),
                     "--data", data_dir, "--out", str(out), "--resume"] + FAST_TRAIN)
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'cells.csv'}: cannot read the finished cells"), err
        assert (out / "cells.csv").read_bytes() == content  # nothing written
        assert sorted(p.name for p in out.iterdir()) == ["cells.csv"]

    def test_parallel_jobs_match_serial(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {"lambda": [0.0, 0.05]})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["ablate", "--grid", grid, "--data", data_dir, "--out", str(serial)]
             + FAST_TRAIN)
        main(["ablate", "--grid", grid, "--data", data_dir, "--out", str(parallel),
              "--jobs", "2"] + FAST_TRAIN)
        assert (serial / "cells.csv").read_bytes() == (parallel / "cells.csv").read_bytes()

    def test_serial_grid_reads_each_split_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--n-train", "20", "--n-test", "10",
                     "--seed", "0"]) == EXIT_OK
        reads = []

        def counting(path):
            reads.append(os.path.basename(path))
            return read_jsonl(path)

        monkeypatch.setattr(cli, "read_jsonl", counting)
        grid = self.grid_file(tmp_path, {"lambda": [0.0, 0.05, 0.5]})
        out = tmp_path / "ab"
        assert main(["ablate", "--grid", grid, "--data", str(data), "--out", str(out),
                     "--jobs", "1"] + FAST_TRAIN) == EXIT_OK
        assert sorted(reads) == ["test.jsonl", "train.jsonl"]
        rows = (out / "cells.csv").read_text().splitlines()
        assert len(rows) == 2 + 3

    def test_jobs_below_one_is_refused_before_the_data_is_read(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path, {"lambda": [0.0]})
        out = tmp_path / "ab"
        argv = ["ablate", "--grid", grid, "--data", str(tmp_path / "missing"),
                "--out", str(out), "--jobs", "0"]
        assert main(argv) == EXIT_USER
        assert capsys.readouterr().err == "error: --jobs must be >= 1, got 0\n"
        assert not out.exists()

    def test_os_error_naming_no_file_is_internal(self, tmp_path, data_dir, capsys, monkeypatch):
        """A pool that cannot start its workers is no fault of the caller's."""
        def no_fork(max_workers):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_fork)
        grid = self.grid_file(tmp_path, {"lambda": [0.0]})
        argv = ["ablate", "--grid", grid, "--data", data_dir, "--out", str(tmp_path / "ab"),
                "--jobs", "2"] + FAST_TRAIN
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: BlockingIOError: [Errno 11]")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_cell_does_not_stop_the_grid(self, tmp_path, data_dir, capsys, jobs):
        grid = self.grid_file(tmp_path, {"lr": [5e-4, 1e200, 1e-3]})
        out, clean = tmp_path / "ab", tmp_path / "clean"
        argv = ["ablate", "--grid", grid, "--data", data_dir, "--out", str(out),
                "--jobs", jobs] + FAST_TRAIN
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv)
        assert code == EXIT_INTERNAL
        good, bad, good2 = json.loads((out / "manifest.json").read_text())["cells"]
        err = capsys.readouterr().err
        assert f"cell {bad} failed: training diverged:" in err
        assert f"1 of 3 cells failed: {bad}" in err
        with open(out / "cells.csv", newline="") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert [r["cell_id"] for r in rows] == [good, good2]

        # the good cells' rows are those of a grid without the bad cell
        clean.mkdir()
        code = main(["ablate", "--grid", self.grid_file(clean, {"lr": [5e-4, 1e-3]}),
                     "--data", data_dir, "--out", str(clean)] + FAST_TRAIN)
        assert code == EXIT_OK
        for name in ("cells.csv", "curves.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

        # --resume runs only the failed cell again
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv + ["--resume"])
        assert code == EXIT_INTERNAL
        assert "1 cells run (2 skipped)" in capsys.readouterr().out
        assert (out / "cells.csv").read_bytes() == (clean / "cells.csv").read_bytes()

    def test_grid_must_be_object(self, tmp_path, data_dir):
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(["strategy"]))
        code = main(
            ["ablate", "--grid", str(p), "--data", data_dir,
             "--out", str(tmp_path / "x")] + FAST_TRAIN
        )
        assert code == EXIT_USER

    def test_unknown_grid_field(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {"warmup": [1]})
        code = main(
            ["ablate", "--grid", grid, "--data", data_dir,
             "--out", str(tmp_path / "x")] + FAST_TRAIN
        )
        assert code == EXIT_USER


def _cut(name, n):
    """An edit that cuts the last n bytes off table `name`, as a kill mid-write does."""
    def edit(out):
        (out / name).write_bytes((out / name).read_bytes()[:-n])
    return edit


def _drop_line(name, number):
    """An edit that deletes line `number` (1-based) of table `name`."""
    def edit(out):
        lines = (out / name).read_bytes().splitlines(keepends=True)
        (out / name).write_bytes(b"".join(lines[:number - 1] + lines[number:]))
    return edit


def _retired_manifest(out):
    doc = json.loads((out / "manifest.json").read_text())
    doc["base_config"].update(agg_axis="row", eps=1e-12)
    (out / "manifest.json").write_text(json.dumps(doc))


# A clean 3-cell table has a comment, a header and rows 3-5 in cells.csv, and
# a comment, a header and three rows per cell (lines 3-5, 6-8, 9-11) in curves.csv.
# Each edit leaves the tables as a kill at some point of the run could have.
RESUMABLE = {
    "clean": None,
    "cells_row_cut": _cut("cells.csv", 40),
    "cells_newline_cut": _cut("cells.csv", 1),
    "cells_header_cut": lambda out: (out / "cells.csv").write_bytes(
        (out / "cells.csv").read_bytes().split(b"\n")[0] + b"\ncell_id,epo"),
    "curves_without_cells_row": _drop_line("cells.csv", 5),
    "curves_row_cut": lambda out: [edit(out) for edit in (_drop_line("cells.csv", 5),
                                                          _cut("curves.csv", 12))],
    "manifest_with_retired_keys": _retired_manifest,
}


class TestAblateResume:
    """--resume continues only the run that its manifest records, and a cell
    counts as finished only when its cells row is whole."""

    GRID = {"lambda": [0.0, 0.5, 0.1]}
    TABLES = ("cells.csv", "curves.csv", "manifest.json")

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory, data_dir):
        root = tmp_path_factory.mktemp("resume")
        (root / "grid.json").write_text(json.dumps(self.GRID))
        assert main(self.argv(root / "grid.json", data_dir, root / "out")) == EXIT_OK
        return root / "out"

    @staticmethod
    def argv(grid, data_dir, out):
        return ["ablate", "--grid", str(grid), "--data", data_dir, "--out", str(out), *FAST_TRAIN,
                "--resume"]

    def copy(self, clean, tmp_path, edit):
        out = tmp_path / "out"
        shutil.copytree(clean, out)
        if edit is not None:
            edit(out)
        return out

    @pytest.mark.parametrize("fault", sorted(RESUMABLE))
    def test_resume_finishes_the_clean_tables(self, clean, tmp_path, data_dir, capsys, fault):
        out = self.copy(clean, tmp_path, RESUMABLE[fault])
        assert main(self.argv(clean.parent / "grid.json", data_dir, out)) == EXIT_OK
        for name in self.TABLES:
            if fault != "manifest_with_retired_keys" or name != "manifest.json":
                assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        runs = {"clean": 0, "manifest_with_retired_keys": 0, "cells_header_cut": 3}.get(fault, 1)
        assert f"{runs} cells run ({3 - runs} skipped)" in capsys.readouterr().out

    @pytest.mark.parametrize("spelling", ["./{}", "{}/"], ids=["dot_slash", "trailing_slash"])
    def test_resume_takes_another_spelling_of_data(self, clean, tmp_path, data_dir, capsys,
                                                   monkeypatch, spelling):
        out = self.copy(clean, tmp_path, None)
        parent, name = os.path.split(data_dir)
        doc = json.loads((out / "manifest.json").read_text())
        doc["data"] = name  # as a run with `--data <name>` from `parent` writes it
        (out / "manifest.json").write_text(json.dumps(doc))
        monkeypatch.chdir(parent)
        assert main(self.argv(clean.parent / "grid.json", spelling.format(name), out)) == EXIT_OK
        assert "0 cells run (3 skipped)" in capsys.readouterr().out
        for table in ("cells.csv", "curves.csv"):
            assert (out / table).read_bytes() == (clean / table).read_bytes(), table
        assert json.loads((out / "manifest.json").read_text())["data"] == spelling.format(name)

    @pytest.mark.parametrize("fault", ["other_config", "other_data", "row_short",
                                       "finished_after_unfinished", "cell_not_in_grid",
                                       "curves_missing", "curves_header_only"])
    def test_resume_of_another_run_or_a_broken_table_writes_nothing(
        self, clean, tmp_path, data_dir, capsys, fault
    ):
        grid, data, extra, edit = clean.parent / "grid.json", data_dir, [], None
        if fault == "other_config":
            extra = ["--epochs", "1", "--lr", "0.01"]
            message = "manifest.json: base_config.lr is 0.0005, this run has 0.01; --resume takes"
        elif fault == "other_data":
            data = str(tmp_path / "data")
            shutil.copytree(data_dir, data)
            message = f"manifest.json: data is {json.dumps(data_dir)}, this run has {json.dumps(data)};"
        elif fault == "row_short":
            edit = lambda out: (out / "cells.csv").write_bytes(
                (out / "cells.csv").read_bytes().replace(b"lambda=0.5,", b"lambda=0.5\r\n", 1))
            message = "cells.csv:4: expected 11 columns, got 1"
        elif fault == "finished_after_unfinished":
            edit = _drop_line("cells.csv", 4)
            message = "curves.csv:9: a finished cell's row after line 6, whose cell did not finish"
        elif fault == "curves_missing":
            edit = lambda out: (out / "curves.csv").unlink()
            message = "curves.csv: no rows for finished cell lambda=0.0"
        elif fault == "curves_header_only":
            edit = lambda out: (out / "curves.csv").write_bytes(
                b"".join((out / "curves.csv").read_bytes().splitlines(keepends=True)[:2]))
            message = "curves.csv: no rows for finished cell lambda=0.0"
        else:
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"lambda": [0.0, 0.1]}))
            message = "cells.csv: finished cell lambda=0.5 is not a cell of --grid"
        out = self.copy(clean, tmp_path, edit)

        def tables():
            return {name: (out / name).read_bytes() for name in self.TABLES if (out / name).exists()}

        before = tables()
        assert main(self.argv(grid, data, out) + extra) == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}/{message}"), err
        assert tables() == before


# Keys that are no longer TrainConfig fields, at the one value a file may
# still hold (the value every file written before they were retired holds),
# and values that exit 2
RETIRED = {"agg_axis": "row", "eps": 1e-12}
RETIRED_REJECTED = [("agg_axis", "col"), ("agg_axis", True), ("eps", 1e-10), ("eps", "1e-12"),
                    ("eps", True)]
# the files that hold a config, and the outputs that must not see a held retired key
RETIRED_OUTPUTS = {
    "config": ("report.csv", "report.json", "checkpoint.json"),
    "checkpoint": ("metrics.csv", "summary.csv"),
    "grid": ("cells.csv", "curves.csv"),
}


def _retired_case(kind, root, data_dir, run_dir, keys: dict) -> tuple:
    """(path, argv, out) of a run on a `kind` file whose config also holds `keys`."""
    root.mkdir()
    path, out = root / f"{kind}.json", root / "out"
    if kind == "config":
        doc = {"lambda": 0.5, **keys}
        argv = ["train", "--data", data_dir, "--config", str(path), *FAST_TRAIN]
    elif kind == "checkpoint":
        doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
        doc["config"].update(keys)
        argv = ["eval", "--checkpoint", str(path), "--data", os.path.join(data_dir, "test.jsonl")]
    else:
        doc = {"lambda": [0.5], **{key: [value] for key, value in keys.items()}}
        argv = ["ablate", "--grid", str(path), "--data", data_dir, *FAST_TRAIN]
    path.write_text(json.dumps(doc))
    return path, argv + ["--out", str(out)], out


class TestRetiredKeys:
    """`agg_axis` and `eps` are read from every file that holds a config and
    never written: at their one value they change no output, any other value
    exits 2 naming the file and the key, and neither is a flag."""

    @pytest.mark.parametrize("kind", sorted(RETIRED_OUTPUTS))
    def test_held_at_their_value_change_no_output(self, tmp_path, data_dir, run_dir, kind):
        _, held_argv, held = _retired_case(kind, tmp_path / "held", data_dir, run_dir, RETIRED)
        _, bare_argv, bare = _retired_case(kind, tmp_path / "bare", data_dir, run_dir, {})
        assert main(held_argv) == EXIT_OK and main(bare_argv) == EXIT_OK
        for name in RETIRED_OUTPUTS[kind]:
            if kind == "grid":  # a cell id names its grid keys; the config line and the rest may not
                first = [(root / name).read_text().splitlines()[0] for root in (held, bare)]
                rows = [[row[1:] for row in _csv_rows(root / name)] for root in (held, bare)]
                assert first[0] == first[1] and rows[0] == rows[1], name
            else:
                assert (held / name).read_bytes() == (bare / name).read_bytes(), name

    @pytest.mark.parametrize("key,value", RETIRED_REJECTED,
                             ids=["agg_axis-col", "agg_axis-true", "eps-1e-10", "eps-string",
                                  "eps-true"])
    @pytest.mark.parametrize("kind", sorted(RETIRED_OUTPUTS))
    def test_other_value_names_file_and_key(self, tmp_path, data_dir, run_dir, capsys,
                                            kind, key, value):
        path, argv, out = _retired_case(kind, tmp_path / "case", data_dir, run_dir, {key: value})
        assert main(argv) == EXIT_USER
        prefix = "config." if kind == "checkpoint" else ""
        accepted = json.dumps(RETIRED[key])
        assert capsys.readouterr().err == (
            f"error: {path}: {prefix}{key}: retired field, only {accepted} is accepted\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--agg-axis", "--eps"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_is_no_flag(self, tmp_path, data_dir, capsys, command, flag):
        value = json.dumps(RETIRED[flag[2:].replace("-", "_")]).strip('"')
        argv = [command, "--data", data_dir, "--out", str(tmp_path / "o"), flag, value]
        if command == "ablate":
            argv += ["--grid", "grid.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USER
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# The fault matrix of the JSON files the CLI reads: for each file, the key
# that a keyed fault changes, where the file has such a key.
FAULT_KEYS = {
    "spec": {"unknown": "bogus", "int": "entities_max", "real": "noise_sigma",
             "missing": "prototypes"},
    "config": {"unknown": "bogus", "int": "epochs", "real": "lr"},
    "grid": {"unknown": "bogus", "int": "epochs", "real": "lr"},
    "checkpoint": {"unknown": "bogus", "int": "num_classes", "real": "config.lr",
                   "missing": "config"},
}
KEYED_FAULTS = {  # fault -> (the value set, the message after "<key>: ")
    "unknown": (1, "unknown field"),
    "int": ("8", "expected an integer, got '8'"),
    "real": ("0.5", "expected a real number, got '0.5'"),
    "missing": (None, "missing required field"),
}
FILE_FAULTS = {  # fault -> (the file's bytes, a pattern for the message)
    "not_object": (b"[1]", "expected an object, got list"),
    "invalid_json": (b'{"a": ', re.escape("invalid JSON (Expecting value: line 1 column 7 (char 6))")),
    "non_utf8": (b"\xff\xfe{", re.escape(
        "invalid JSON ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)")),
    "deep_nesting": (b"[" * 100000, "nested too deeply"),
}
FAULT_CASES = [
    (kind, fault) for kind in FAULT_KEYS for fault in (*KEYED_FAULTS, *FILE_FAULTS)
    if fault in FILE_FAULTS or fault in FAULT_KEYS[kind]
]


class TestConfigFileErrors:
    """A bad value in a config file, checkpoint or grid exits 2 naming the file."""

    @pytest.mark.parametrize("kind,fault", FAULT_CASES)
    def test_fault_reads_the_same_in_every_file(
        self, tmp_path, data_dir, run_dir, capsys, kind, fault
    ):
        path, out = tmp_path / f"{kind}.json", tmp_path / "out"
        if fault in FILE_FAULTS:
            content, message = FILE_FAULTS[fault]
        else:
            doc = {
                "spec": default_world_spec().to_dict(),
                "config": {},
                "grid": {"seed": [0]},
                "checkpoint": json.loads(Path(run_dir, "checkpoint.json").read_text()),
            }[kind]
            key = FAULT_KEYS[kind][fault]
            value, text = KEYED_FAULTS[fault]
            *outer, last = key.split(".")
            target = doc
            for part in outer:
                target = target[part]
            if fault == "missing":
                del target[last]
            else:
                target[last] = [value] if kind == "grid" else value
            content, message = json.dumps(doc).encode(), re.escape(f"{key}: {text}")
        path.write_bytes(content)
        argv = {
            "spec": ["gen", "--spec", str(path), "--out", str(out)],
            "config": ["train", "--data", data_dir, "--out", str(out), "--config", str(path)],
            "grid": ["ablate", "--grid", str(path), "--data", data_dir, "--out", str(out),
                     *FAST_TRAIN],
            "checkpoint": ["eval", "--checkpoint", str(path), "--data",
                           os.path.join(data_dir, "test.jsonl"), "--out", str(out)],
        }[kind]
        assert main(argv) == EXIT_USER
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(path))}: {message}\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_rejected_value_names_its_file(self, tmp_path, data_dir, run_dir, capsys, command):
        out = tmp_path / "out"
        if command == "train":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"epochs": 0}))
            argv = ["train", "--data", data_dir, "--out", str(out), "--config", str(path)]
            message = "epochs must be >= 1, got 0"
        elif command == "eval":
            doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
            doc["config"]["lr"] = -1.0
            path = tmp_path / "ckpt.json"
            path.write_text(json.dumps(doc))
            argv = ["eval", "--checkpoint", str(path), "--data",
                    os.path.join(data_dir, "test.jsonl"), "--out", str(out)]
            message = "lr must be finite and >= 0, got -1.0"
        else:
            path = tmp_path / "grid.json"
            path.write_text(json.dumps({"batch_size": [2, 0]}))
            argv = ["ablate", "--grid", str(path), "--data", data_dir, "--out", str(out)] + FAST_TRAIN
            message = "batch_size must be >= 1, got 0"
        assert main(argv) == EXIT_USER
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_flag_faults_name_no_file(self, tmp_path, data_dir, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 2}))
        argv = ["train", "--data", data_dir, "--out", str(tmp_path / "o"), "--config", str(path),
                "--epochs", "0"]
        assert main(argv) == EXIT_USER
        assert capsys.readouterr().err == "error: epochs must be >= 1, got 0\n"


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(r for r in fh if not r.startswith("#")))


# (option strings, dest, type, choices, default, help, action class): the
# config flags that `train` and `ablate` share, in parser order
_CHOICES = {
    "loss_variant": ("focal", "l2", "smooth_l1"),
    "strategy": ("row", "mat", "mat_focal", "unsup"),
    "optimizer": ("sgd_momentum", "adam"),
    "head_mode": ("residual", "concat"),
}
CONFIG_FLAG_TABLE = [
    (("--config",), "config", None, None, None, "JSON file with TrainConfig fields", "_StoreAction"),
    (("--lambda",), "lam", float, None, None, "relation-loss weight", "_StoreAction"),
    (("--focal-r",), "focal_r", int, None, None, "focal exponent r", "_StoreAction"),
    (("--loss-variant",), "loss_variant", None, _CHOICES["loss_variant"], None, None, "_StoreAction"),
    (("--strategy",), "strategy", None, _CHOICES["strategy"], None, None, "_StoreAction"),
    (("--optimizer",), "optimizer", None, _CHOICES["optimizer"], None, None, "_StoreAction"),
    (("--lr",), "lr", float, None, None, None, "_StoreAction"),
    (("--momentum",), "momentum", float, None, None, None, "_StoreAction"),
    (("--epochs",), "epochs", int, None, None, None, "_StoreAction"),
    (("--batch-size",), "batch_size", int, None, None, None, "_StoreAction"),
    (("--seed",), "seed", int, None, None, None, "_StoreAction"),
    (("--head-mode",), "head_mode", None, _CHOICES["head_mode"], None, None, "_StoreAction"),
    (("--d-k",), "d_k", int, None, None, None, "_StoreAction"),
    (("--freeze-attention", "--no-freeze-attention"), "freeze_attention", None, None, None, None,
     "BooleanOptionalAction"),
    (("--eval-ks",), "eval_ks", None, None, None, "recall cutoffs, e.g. 1,5,10", "_StoreAction"),
]
HELP_FLAG = (("-h", "--help"), "help", None, None, "==SUPPRESS==", "show this help message and exit",
             "_HelpAction")
FLAG_TABLES = {
    "train": [
        HELP_FLAG,
        (("--data",), "data", None, None, None, "directory with train/test JSONL", "_StoreAction"),
        (("--out",), "out", None, None, None, "output directory", "_StoreAction"),
        *CONFIG_FLAG_TABLE,
    ],
    "ablate": [
        HELP_FLAG,
        (("--grid",), "grid", None, None, None, "path to a JSON file {field: [values, ...]}",
         "_StoreAction"),
        (("--data",), "data", None, None, None, "directory with train/test JSONL", "_StoreAction"),
        (("--out",), "out", None, None, None, "output directory", "_StoreAction"),
        (("--jobs",), "jobs", int, None, 1, "parallel cells", "_StoreAction"),
        (("--resume",), "resume", None, None, False, "skip cells already in cells.csv",
         "_StoreTrueAction"),
        *CONFIG_FLAG_TABLE,
    ],
}


class TestConfigFlagsAndColumns:
    """The flags and CSV columns derived from TrainConfig and EpochStats keep their layout."""

    @pytest.mark.parametrize("command", sorted(FLAG_TABLES))
    def test_flag_table(self, command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        table = [
            (tuple(a.option_strings), a.dest, a.type, a.choices, a.default, a.help,
             type(a).__name__)
            for a in sub.choices[command]._actions
        ]
        assert table == FLAG_TABLES[command]

    def test_repeated_k_keeps_every_report_column(self, tmp_path, data_dir):
        out = tmp_path / "run"
        argv = ["train", "--data", data_dir, "--out", str(out), "--eval-ks", "5,5"] + FAST_TRAIN
        assert main(argv) == EXIT_OK
        header, *rows = _csv_rows(out / "report.csv")
        assert header[-3:] == ["accuracy", "recall@5", "recall@5"]
        assert len(rows) == 3
        assert all(len(row) == len(header) and row[-1] == row[-2] for row in rows)

    def test_repeated_k_reports_the_recall_of_one_k(self, tmp_path, data_dir, run_dir):
        """Both recall@5 columns of a 5,5 run hold what a run with K = 5 alone reports."""
        tables = {}
        for ks in ("5", "5,5"):
            train_out, eval_out = tmp_path / f"run{ks}", tmp_path / f"eval{ks}"
            argv = ["train", "--data", data_dir, "--out", str(train_out), "--eval-ks", ks]
            assert main(argv + FAST_TRAIN) == EXIT_OK
            argv = ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
                    "--data", os.path.join(data_dir, "test.jsonl"), "--ks", ks, "--out", str(eval_out)]
            assert main(argv) == EXIT_OK
            tables[ks] = _csv_rows(train_out / "report.csv"), _csv_rows(eval_out / "summary.csv")
        (report, summary), (report2, summary2) = tables["5"], tables["5,5"]
        recalls = [row[-1] for row in report[1:]] + [summary[1][-2]]
        assert any(float(r) > 0 for r in recalls)  # so that counting K twice shows
        assert [row[-2:] for row in report2[1:]] == [[r, r] for r in recalls[:-1]]
        assert summary2[1][-3:-1] == [recalls[-1]] * 2

    def test_cells_keep_the_base_ks_and_curves_each_cells_own(self, tmp_path, data_dir):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"eval_ks": [[1], [1, 5, 10]]}))
        out = tmp_path / "ab"
        argv = ["ablate", "--grid", str(grid), "--data", data_dir, "--out", str(out)] + FAST_TRAIN
        assert main(argv) == EXIT_OK
        header, short, full = _csv_rows(out / "cells.csv")
        assert header == ["cell_id", "epochs", "task_loss", "relation_loss", "combined_loss",
                          "center_mass", "center_mass_test", "accuracy",
                          "recall@1", "recall@5", "recall@10"]
        assert short[0] == "eval_ks=[1]" and short[-2:] == ["nan", "nan"]
        assert full[0] == "eval_ks=[1, 5, 10]" and "nan" not in full
        assert short[1:-2] == full[1:-2]
        curves = _csv_rows(out / "curves.csv")
        assert [row[:2] for row in curves] == [
            ["cell_id", "k"], ["eval_ks=[1]", "1"],
            ["eval_ks=[1, 5, 10]", "1"], ["eval_ks=[1, 5, 10]", "5"], ["eval_ks=[1, 5, 10]", "10"],
        ]


class TestUnwritableOutput:
    """An output path that cannot be written is a user error that names the path."""

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "ablate"])
    def test_out_is_an_existing_file(self, tmp_path, data_dir, run_dir, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambda": [0.0]}))
        argv = {
            "gen": ["gen", "--n-train", "2", "--n-test", "1"],
            "train": ["train", "--data", data_dir] + FAST_TRAIN,
            "eval": ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
                     "--data", os.path.join(data_dir, "test.jsonl")],
            "ablate": ["ablate", "--grid", str(grid), "--data", data_dir] + FAST_TRAIN,
        }[command]
        assert main(argv + ["--out", str(out)]) == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == ""

    def test_export_attention_out_is_a_directory(self, tmp_path, data_dir, run_dir, capsys):
        code = main(
            ["export-attention", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
             "--data", os.path.join(data_dir, "test.jsonl"), "--instance", "0",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err


class TestPathTooLong:
    """A path component longer than the file system allows (ENAMETOOLONG) is
    a user error that names the path, on input and on output alike, and
    nothing is written."""

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--out"), ("train", "--out"), ("eval", "--out"),
        ("export-attention", "--out"), ("ablate", "--out"),
        ("eval", "--data"), ("eval", "--checkpoint"),
        ("train", "--data"), ("ablate", "--data"),
    ])
    def test_exits_two_naming_the_path(self, tmp_path, data_dir, run_dir, capsys, command, flag):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambda": [0.0]}))
        checkpoint = os.path.join(run_dir, "checkpoint.json")
        test_file = os.path.join(data_dir, "test.jsonl")
        argv = {
            "gen": ["gen", "--n-train", "2", "--n-test", "1"],
            "train": ["train", "--data", data_dir] + FAST_TRAIN,
            "eval": ["eval", "--checkpoint", checkpoint, "--data", test_file],
            "export-attention": ["export-attention", "--checkpoint", checkpoint,
                                 "--data", test_file, "--instance", "0"],
            "ablate": ["ablate", "--grid", str(grid), "--data", data_dir] + FAST_TRAIN,
        }[command] + ["--out", str(tmp_path / "out")]
        too_long = tmp_path / ("x" * 300)
        argv[argv.index(flag) + 1] = str(too_long / "y")
        assert main(argv) == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(too_long) in err
        assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]
        if flag == "--data":  # the OS's reason, not a "file not found" of its own
            assert "File name too long" in err
            if command != "eval":
                assert str(too_long / "y" / "train.jsonl") in err


class TestParserReuse:
    ARGVS = [
        ["ablate", "--grid", "g.json", "--data", "d", "--out", "o", "--resume",
         "--jobs", "2", "--lambda", "0.5", "--no-freeze-attention"],
        ["ablate", "--grid", "g.json", "--data", "d", "--out", "o"],
        ["train", "--data", "d", "--out", "o", "--strategy", "row", "--eval-ks", "1,2",
         "--freeze-attention"],
        ["train", "--data", "d", "--out", "o"],
        ["gen", "--out", "o", "--kind", "document", "--n-train", "3", "--seed", "4"],
        ["gen", "--out", "o"],
        ["eval", "--checkpoint", "c", "--data", "d", "--out", "o", "--ks", "3"],
        ["eval", "--checkpoint", "c", "--data", "d", "--out", "o"],
        ["gradcheck", "--n", "5", "--head-mode", "concat"],
        ["gradcheck"],
    ]

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_no_flag_carries_over(self):
        """Each parse through the shared parser equals a parse by a fresh one."""
        for argv in self.ARGVS:
            reused = vars(cli._parser().parse_args(argv))
            assert reused == vars(cli.build_parser().parse_args(argv)), argv
        assert cli._parser().parse_args(self.ARGVS[1]).resume is False
        assert cli._parser().parse_args(self.ARGVS[3]).freeze_attention is None

    def test_artifacts_match_a_fresh_process(self, tmp_path, data_dir):
        """A train after other in-process commands writes what a new process writes."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambda": [0.0]}))
        assert main(["ablate", "--grid", str(grid), "--data", data_dir,
                     "--out", str(tmp_path / "ab"), "--resume"] + FAST_TRAIN) == EXIT_OK
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "row"),
                     "--strategy", "row", "--lambda", "0.5", "--freeze-attention"]
                    + FAST_TRAIN) == EXIT_OK
        argv = ["train", "--data", data_dir, "--out", str(tmp_path / "{}")] + FAST_TRAIN
        assert main([a.format("inproc") for a in argv]) == EXIT_OK
        code = (
            "import sys; from fanet.cli import main; "
            f"sys.exit(main({[a.format('fresh') for a in argv]!r}))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        for name in ("report.csv", "report.json", "checkpoint.json"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "inproc" / name).read_bytes() == fresh, name


class TestGradcheckCommand:
    def test_passes_quickly(self, capsys):
        code = main(["gradcheck", "--seeds", "2", "--seed", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "overall max relative error" in out
        assert "FAIL" not in out

    def test_single_head_mode(self):
        assert main(["gradcheck", "--seeds", "1", "--head-mode", "residual"]) == EXIT_OK

    def test_prints_the_raw_gap(self, capsys):
        """A clean seed's allowed error reads 0, so the raw gap shows the margin."""
        assert main(["gradcheck", "--seeds", "1", "--seed", "0"]) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if "max_rel_err=" in line]
        assert len(lines) == len(trainer.HEAD_MODES) * len(LOSS_VARIANTS) * len(trainer.STRATEGIES)
        for line in lines:
            err = float(re.search(r"max_rel_err=(\S+)", line).group(1))
            raw = float(re.search(r"raw_gap=(\S+)", line).group(1))
            assert raw > 0 and raw >= err, line

    def test_instance_matches_a_per_pair_draw(self):
        """The check instance draws its cells at once, as a loop over the pairs
        i < j drew them one at a time: the same instance, bit for bit."""
        def per_pair(n, d, seed, num_classes):
            rng = stream_rng(STREAM_INSTANCE, seed)
            features = rng.standard_normal((n, d))
            target = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.uniform() < 0.4:
                        target[i, j] = target[j, i] = True
            target[0, 1] = target[1, 0] = True
            return features, target, int(rng.integers(0, num_classes))

        for n in range(2, 10):
            for seed in range(5):
                inst = cli._random_check_instance(n, 3, seed, 4)
                features, target, label = per_pair(n, 3, seed, 4)
                assert inst.entities.features.tobytes() == features.tobytes()
                assert inst.target.dtype == target.dtype
                assert inst.target.tobytes() == target.tobytes(), (n, seed)
                assert inst.label == label

    def test_rejects_bad_dims(self):
        assert main(["gradcheck", "--n", "1"]) == EXIT_USER

    def test_rejects_bad_step(self):
        assert main(["gradcheck", "--seeds", "1", "--step", "1e-2"]) == EXIT_USER

    # seeds whose right gradients failed while the check took the difference
    # quotient's own rounding for an error in the analytic gradient
    ROUNDOFF_SEEDS = ("25", "38", "44", "55")

    def test_passes_where_the_difference_quotient_rounds(self, capsys):
        for seed in self.ROUNDOFF_SEEDS:
            assert main(["gradcheck", "--seeds", "1", "--seed", seed]) == EXIT_OK, seed
        assert "FAIL" not in capsys.readouterr().out

    def test_planted_bug_fails_at_every_seed(self, monkeypatch, capsys):
        """A w_q gradient off by one part in 1e4 fails on the same seeds."""
        exact = attention.backward

        def off(*args):
            d_w_k, d_w_q = exact(*args)
            return d_w_k, d_w_q * (1 + 1e-4)

        monkeypatch.setattr(attention, "backward", off)
        for seed in self.ROUNDOFF_SEEDS:
            assert main(["gradcheck", "--seeds", "1", "--seed", seed]) == EXIT_INTERNAL, seed
        assert "gradient check FAILED" in capsys.readouterr().err


def _strict_json(path):
    """The JSON file at `path`, read by a parser that refuses NaN and infinities."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestStrictJson:
    """An undefined mean is null in JSON, and any other non-finite value is
    an internal error that writes no file; CSVs keep nan."""

    @pytest.fixture(scope="class")
    def vacuous(self, tmp_path_factory, data_dir):
        """train and eval on a copy of data_dir whose targets label no pair."""
        root = tmp_path_factory.mktemp("vacuous")
        data = root / "data"
        shutil.copytree(data_dir, data)
        for name in ("train.jsonl", "test.jsonl"):
            blank = [Instance(entities=inst.entities, target=np.zeros((inst.n, inst.n)),
                              label=inst.label) for inst in read_jsonl(data / name)]
            write_jsonl(data / name, blank)
        run, ev = root / "run", root / "eval"
        assert main(["train", "--data", str(data), "--out", str(run)] + FAST_TRAIN) == EXIT_OK
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data / "test.jsonl"), "--out", str(ev)]) == EXIT_OK
        return root

    def test_all_vacuous_artifacts_parse_strictly(self, vacuous):
        for name in ("run/report.json", "run/checkpoint.json", "eval/summary.json"):
            _strict_json(vacuous / name)
        epochs = _strict_json(vacuous / "run/report.json")["epochs"]
        assert all(e["center_mass"] is None and e["center_mass_test"] is None for e in epochs)
        summary = _strict_json(vacuous / "eval/summary.json")
        assert summary["center_mass"] == {"mean": None, "n_scored": 0, "n_vacuous": 6}
        assert summary["n_recall_vacuous"] == 6
        assert ",nan," in (vacuous / "eval/summary.csv").read_text()
        assert ",nan,nan," in (vacuous / "run/report.csv").read_text().splitlines()[-1]

    def test_empty_test_split_writes_null_means(self, tmp_path, data_dir):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "test.jsonl").write_text("")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + FAST_TRAIN) == EXIT_OK
        last = _strict_json(tmp_path / "run/report.json")["epochs"][-1]
        assert [last[k] for k in ("center_mass_test", "accuracy", "recall@1", "recall@5", "recall@10")] == [None] * 5
        assert isinstance(last["center_mass"], float)

    @pytest.mark.parametrize("field", ["lr", "task_loss", "relation_loss", "combined_loss"])
    def test_nan_elsewhere_in_a_report_raises(self, tmp_path, run_dir, field):
        report = json.loads(Path(run_dir, "report.json").read_text())
        epochs = [trainer.EpochStats(**{k: v for k, v in e.items() if not k.startswith("recall@")},
                                 recall={1: e["recall@1"]}) for e in report["epochs"]]
        epochs[-1] = dataclasses.replace(epochs[-1], **{field: math.nan})
        run = trainer.TrainReport(config=trainer.TrainConfig(), num_classes=3,
                                      feature_dim=report["feature_dim"], epochs=tuple(epochs))
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_report(str(tmp_path), run)
        assert not (tmp_path / "report.json").exists()

    def test_nan_elsewhere_in_a_summary_is_an_internal_error(self, tmp_path, data_dir, run_dir, monkeypatch):
        monkeypatch.setattr(cli, "evaluate", lambda *args: dataclasses.replace(
            trainer.evaluate(*args), accuracy=math.nan))
        code = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
                     "--data", os.path.join(data_dir, "test.jsonl"), "--out", str(tmp_path)])
        assert code == EXIT_INTERNAL
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite_and_keeps_the_old_file(self, tmp_path, value):
        path = tmp_path / "doc.json"
        path.write_text("{}\n")
        with pytest.raises(ValueError):
            _write_json(path, {"a": [1.0, {"b": value}]})
        assert path.read_text() == "{}\n"
        assert os.listdir(tmp_path) == ["doc.json"]


class TestRefusedDatasetLeavesNoOutput:
    """A dataset `train` refuses exits 2 before anything is written, for
    `train` and for `ablate` alike."""

    @staticmethod
    def _box_less(data, data_dir):
        _box_less_test_file(data_dir, data / "test.jsonl")

    @staticmethod
    def _empty_train(data, data_dir):
        (data / "train.jsonl").write_text("")

    @staticmethod
    def _label_beyond_manifest(data, data_dir):
        manifest = json.loads((data / "manifest.json").read_text())
        line = json.loads((data / "train.jsonl").read_text().splitlines()[0])
        line["label"] = load_spec(manifest["spec"]).n_labels
        (data / "train.jsonl").write_text(json.dumps(line) + "\n")

    @pytest.mark.parametrize("fault", ["_box_less", "_empty_train", "_label_beyond_manifest"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_no_output(self, tmp_path, data_dir, capsys, command, fault):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        getattr(self, fault)(data, data_dir)
        out = tmp_path / "out"
        argv = [command, "--data", str(data), "--out", str(out)] + FAST_TRAIN
        if command == "ablate":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"lambda": [0.0]}))
            argv += ["--grid", str(grid)]
        assert main(argv) == EXIT_USER
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
