"""Command-line surface: artifacts, exit codes, reproducibility, resume."""

import argparse
import base64
import csv
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fanet import cli
from fanet.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USER, main
from fanet.matrices import ValidationError, _encode_array
from fanet.synthgen import default_document_spec, default_world_spec, load_spec, read_jsonl

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
}

# label and categories are plain JSON in both versions; numpy would read a
# 1.7 or a true in them as 1, so the decoders check the JSON types
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


# tokens and tags are plain JSON in both versions: a list of n strings or null;
# each entry maps n to a bad value and the end of the message that names it
STRING_LIST_DEFECTS = {
    "string": lambda n: ("x" * n, "got str"),
    "ints": lambda n: ([1] * n, "got entry 1"),
    "bools": lambda n: ([True] * n, "got entry True"),
    "nulls": lambda n: ([None] * n, "got entry None"),
    "too_long": lambda n: (["w"] * (n + 3), f"got {n + 3} entries"),
    "too_short": lambda n: (["w"] * (n - 1), f"got {n - 1} entries"),
}


# version 1 matrices are plain JSON lists; numpy would read a true in them as
# 1.0, and the old `if boxes` read [], 0, {} and false as "no boxes"
V1_DEFECTS = {
    "boxes_empty": (lambda d: d["entities"].update(boxes=[]), "boxes must be ("),
    "boxes_zero": (
        lambda d: d["entities"].update(boxes=0),
        "boxes: expected a list of rows of numbers, got int",
    ),
    "boxes_object": (
        lambda d: d["entities"].update(boxes={}),
        "boxes: expected a list of rows of numbers, got dict",
    ),
    "boxes_false": (
        lambda d: d["entities"].update(boxes=False),
        "boxes: expected a list of rows of numbers, got bool",
    ),
    "boxes_flat_row": (
        lambda d: d["entities"]["boxes"].__setitem__(1, 0.5),
        "boxes: expected a list of rows of numbers, got row 0.5",
    ),
    "box_coordinate_true": (
        lambda d: d["entities"]["boxes"][1].__setitem__(0, True),
        "boxes: expected a list of rows of numbers, got entry True",
    ),
    "feature_true": (
        lambda d: d["entities"]["features"][1].__setitem__(2, True),
        "features: expected a list of rows of numbers, got entry True",
    ),
    "feature_string": (
        lambda d: d["entities"]["features"][0].__setitem__(0, "1.0"),
        "features: expected a list of rows of numbers, got entry '1.0'",
    ),
    "feature_beyond_float64": (
        lambda d: d["entities"]["features"][0].__setitem__(0, 10**400),
        "features: int too large to convert to float",
    ),
}


def _v1_line(inst) -> dict:
    """One instance as a version 1 line: plain JSON lists, the target as index pairs."""
    ent = inst.entities
    return {
        "entities": {
            "features": ent.features.tolist(),
            "boxes": ent.boxes.tolist(),
            "categories": ent.categories.tolist(),
        },
        "target": np.argwhere(np.triu(inst.target)).tolist(),
        "label": inst.label,
    }


def _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, line, message):
    """Replace the test file's second line: read_jsonl names bad.jsonl:2, eval exits 2."""
    first = Path(data_dir, "test.jsonl").read_text().splitlines(keepends=True)[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + json.dumps(line) + "\n")
    named = re.escape(f"bad.jsonl:2: {message}")
    with pytest.raises(ValidationError, match=named):
        read_jsonl(bad)
    code = main(
        ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
         "--data", str(bad), "--out", str(tmp_path / "x")]
    )
    assert code == EXIT_USER
    assert re.search(named, capsys.readouterr().err)


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
         ("document", "pair_table", [["noun", 1]]), ("document", "pair_table", "noun")],
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
        assert f"{key}: expected" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_spec_file(self, tmp_path):
        code = main(
            ["gen", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "y")]
        )
        assert code == EXIT_USER


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

    def test_divergence_exits_one(self, tmp_path, data_dir):
        with np.errstate(over="ignore"):
            code = main(
                ["train", "--data", data_dir, "--out", str(tmp_path / "d"),
                 "--lr", "1e200", "--epochs", "3", "--batch-size", "1", "--d-k", "2"]
            )
        assert code == EXIT_INTERNAL

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

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("case", sorted(FIELD_DEFECTS))
    def test_bad_label_or_categories_is_user_error(
        self, tmp_path, data_dir, run_dir, capsys, case, version
    ):
        path = os.path.join(data_dir, "test.jsonl")
        if version == 1:
            second = _v1_line(read_jsonl(path)[1])
        else:
            second = json.loads(Path(path).read_text().splitlines()[1])
        mutate, message = FIELD_DEFECTS[case]
        mutate(second)
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("case", sorted(V1_DEFECTS))
    def test_malformed_v1_matrix_is_user_error(self, tmp_path, data_dir, run_dir, capsys, case):
        second = _v1_line(read_jsonl(os.path.join(data_dir, "test.jsonl"))[1])
        mutate, message = V1_DEFECTS[case]
        mutate(second)
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("field", ["tokens", "tags"])
    @pytest.mark.parametrize("case", sorted(STRING_LIST_DEFECTS))
    def test_bad_tokens_or_tags_is_user_error(
        self, tmp_path, data_dir, run_dir, capsys, case, field, version
    ):
        path = os.path.join(data_dir, "test.jsonl")
        inst = read_jsonl(path)[1]
        if version == 1:
            second = _v1_line(inst)
        else:
            second = json.loads(Path(path).read_text().splitlines()[1])
        value, got = STRING_LIST_DEFECTS[case](inst.n)
        second[field] = value
        message = f"{field}: expected a list of {inst.n} strings or null, {got}"
        _assert_second_line_rejected(tmp_path, data_dir, run_dir, capsys, second, message)

    @pytest.mark.parametrize("version", [1, 2])
    def test_tokens_and_tags_may_be_strings_null_or_absent(self, tmp_path, data_dir, version):
        path = os.path.join(data_dir, "test.jsonl")
        inst = read_jsonl(path)[1]
        if version == 1:
            line = _v1_line(inst)
        else:
            line = json.loads(Path(path).read_text().splitlines()[1])
        words = [f"w{i}" for i in range(inst.n)]
        p = tmp_path / "words.jsonl"
        p.write_text(json.dumps({**line, "tokens": words, "tags": None}) + "\n")
        (back,) = read_jsonl(p)
        assert back.tokens == tuple(words) and back.tags is None

    def test_v1_null_or_absent_boxes_load_as_none(self, tmp_path, data_dir):
        line = _v1_line(read_jsonl(os.path.join(data_dir, "test.jsonl"))[1])
        p = tmp_path / "v1.jsonl"
        line["entities"]["boxes"] = None
        absent = json.loads(json.dumps(line))
        del absent["entities"]["boxes"]
        p.write_text(json.dumps(line) + "\n" + json.dumps(absent) + "\n")
        assert [inst.entities.boxes for inst in read_jsonl(p)] == [None, None]

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

    def test_unmutated_v1_line_loads(self, tmp_path, data_dir):
        """The v1 cases above fail only through their mutation."""
        inst = read_jsonl(os.path.join(data_dir, "test.jsonl"))[1]
        p = tmp_path / "v1.jsonl"
        p.write_text(json.dumps(_v1_line(inst)) + "\n")
        (back,) = read_jsonl(p)
        assert back.label == inst.label
        assert np.array_equal(back.entities.categories, inst.entities.categories)
        assert np.array_equal(back.target, inst.target)

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
            (lambda doc: [1], "expected a JSON object, got list"),
            (lambda doc: {**doc, "config": []}, "config: expected an object, got list"),
            (lambda doc: {**doc, "params": []}, "params: expected an object, got list"),
            (lambda doc: {**doc, "num_classes": "x"}, "num_classes: expected an integer, got 'x'"),
            (lambda doc: {**doc, "params": {"w_k": [1]}},
             "w_k: expected an encoded array object, got list"),
            (lambda doc: {**doc, "params": {**doc["params"], "classifier_w": _encode_array(
                np.zeros(()))}}, "classifier_w must have 2 dimensions, got shape ()"),
        ],
        ids=["list", "config_list", "params_list", "num_classes_string", "w_k_list",
             "classifier_w_scalar"],
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

    def test_parallel_jobs_match_serial(self, tmp_path, data_dir):
        grid = self.grid_file(tmp_path, {"lambda": [0.0, 0.05]})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["ablate", "--grid", grid, "--data", data_dir, "--out", str(serial)]
             + FAST_TRAIN)
        main(["ablate", "--grid", grid, "--data", data_dir, "--out", str(parallel),
              "--jobs", "2"] + FAST_TRAIN)
        assert (serial / "cells.csv").read_bytes() == (parallel / "cells.csv").read_bytes()

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


class TestColumnAggregationIsGone:
    """"col" is rejected wherever a config enters; `--agg-axis` is no flag."""

    def test_col_exits_two_naming_the_field(self, tmp_path, data_dir, run_dir, capsys):
        cfg_path = tmp_path / "col.json"
        cfg_path.write_text(json.dumps({"agg_axis": "col"}))
        doc = json.loads(Path(run_dir, "checkpoint.json").read_text())
        doc["config"]["agg_axis"] = "col"
        ckpt = tmp_path / "col_checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"agg_axis": ["row", "col"]}))
        argvs = [
            (cfg_path, ["train", "--data", data_dir, "--out", str(tmp_path / "t"),
                        "--config", str(cfg_path)]),
            (ckpt, ["eval", "--checkpoint", str(ckpt), "--data",
                    os.path.join(data_dir, "test.jsonl"), "--out", str(tmp_path / "e")]),
            (grid, ["ablate", "--grid", str(grid), "--data", data_dir,
                    "--out", str(tmp_path / "a")] + FAST_TRAIN),
        ]
        for path, argv in argvs:
            capsys.readouterr()
            assert main(argv) == EXIT_USER, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: agg_axis must be 'row', got 'col'"), argv[0]
            assert not (tmp_path / argv[0][0]).exists(), argv[0]

    def test_agg_axis_flag_is_an_argparse_error(self, tmp_path, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", data_dir, "--out", str(tmp_path / "o"), "--agg-axis", "row"])
        assert exc.value.code == EXIT_USER
        assert "unrecognized arguments: --agg-axis row" in capsys.readouterr().err


class TestConfigFileErrors:
    """A bad value in a config file, checkpoint or grid exits 2 naming the file."""

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
    (("--eps",), "eps", float, None, None, None, "_StoreAction"),
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
        assert not any("--agg-axis" in row[0] for row in table)

    def test_repeated_k_keeps_every_report_column(self, tmp_path, data_dir):
        out = tmp_path / "run"
        argv = ["train", "--data", data_dir, "--out", str(out), "--eval-ks", "5,5"] + FAST_TRAIN
        assert main(argv) == EXIT_OK
        header, *rows = _csv_rows(out / "report.csv")
        assert header[-3:] == ["accuracy", "recall@5", "recall@5"]
        assert len(rows) == 3
        assert all(len(row) == len(header) and row[-1] == row[-2] for row in rows)

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

    def test_rejects_bad_dims(self):
        assert main(["gradcheck", "--n", "1"]) == EXIT_USER

    def test_rejects_bad_step(self):
        assert main(["gradcheck", "--seeds", "1", "--step", "1e-2"]) == EXIT_USER
