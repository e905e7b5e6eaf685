"""Golden fingerprints: SHA-256 of the CLI artifacts for fixed small runs.

`gen` 20/10 at seed 0, `train` for 4 epochs at seed 0, then `eval` of the
checkpoint on the test split, and `export-attention` of its test instance 0.
Two more `gen` runs at seed 0 pin the dataset
writer where the bundled run does not reach: 1/2 scenes of 300 entities each
(the bundled vision world with entities_min = entities_max = 300), 20/10
documents of the bundled document world, and 20/10 long documents (the
bundled document world with tokens_min = 48 and tokens_max = 64, so each
document has over a thousand candidate pairs). Each `gen` pins the cache it
leaves beside each JSONL file too (`<split>.jsonl.cache`), so two runs with
one seed must write it byte for byte. Four more 3-epoch `train` runs at
seed 0 on 20/10 datasets pin the training paths the default recipe leaves
out: the language recipe (adam, lambda 0.1, batch size 2) on documents; the
row strategy with the concat head; the mat strategy
with the l2 loss at batch size 3; and the unsup strategy with the attention
frozen. One `ablate` run pins the grid tables: a two-cell lambda grid
(0.0 and 0.5), 3 epochs at seed 0, run serially on the bundled run's
20/10 dataset. One `eval` pins the 300-entity path (top-K over 44,850
candidate pairs, IoU matching of 300 boxes): a 2-epoch `train` on the
1/2-scene 300-entity dataset above, then `eval` of its test split at
K = 1, 10, 25000, 30000 and 40000 (this model ranks the gt relations low,
so recall first leaves 0 near K = 20000 of the 44,850 pairs). It runs from
the artifact directory on relative paths, so its `summary.json` is pinned
too. The stdout of `gradcheck --seeds 2 --n 6` (25 lines: every head mode,
loss variant and strategy, with each one's error and raw gap) is pinned as
well. A refactor that claims to change no numbers
must leave every hash here unchanged; a change that moves numbers on purpose
updates the hashes and says so in CHANGES.md. The bundled run's
`summary.json` and the ablation's `manifest.json` are left out because they
record absolute paths.
The hashes were taken with float64 numpy on x86-64; the matmuls go through
BLAS, so another BLAS build may round differently.
"""

import hashlib
import json

import pytest

from fanet.cli import EXIT_OK, main
from fanet.synthgen import default_document_spec, default_world_spec

GOLDEN = {
    "data/train.jsonl": "e743684e22c8ee3d093934a44f516eb4389d05e54dcc4b351cc1f7083c55091b",
    "data/test.jsonl": "de1292271d00ac4f1276085eaae2607986f6383d260054aeea7891f70a0964c0",
    "data/train.jsonl.cache": "c92e1a08400c90893784540124bfd75a92a722a6077009915c54ef4c3adfa64e",
    "data/test.jsonl.cache": "25944f3222de768abae13f8822fcf57b1f48a07da77118d7fe7a2a6249a66f2c",
    "data/manifest.json": "1a3962eaffec98b67e10cdee2c6b0f84d536bdc722f58d8a5c0a014ba7ee7542",
    "run/report.csv": "1d0aa932de09d90637d0a28badb10d60bbfa30f2796bdc80bde890c2a01bfff9",
    "run/report.json": "2c8ba793e6cf0498a836e763d3f640722c6a9a71ef48fe9bc4b4d23de8e236e0",
    "run/checkpoint.json": "b7995b63628d85129bb3bd0f466c6d5c9bb1cecc5a32e9c3d98467c0c98e19d2",
    "eval/metrics.csv": "770c0f0ce426262425e7151c9d5112c928da8dcd0ebbee79faf54948a1957ed5",
    "eval/summary.csv": "9fc6e63ca87e396a75385b00723f1a479f8301324de188caaf998d90a5d39d0a",
}

GEN_GOLDEN = {
    "vision300/train.jsonl": "67497830dd8c3f61b82af4d9f113ca01545787582aded72253495d2a1d956db4",
    "vision300/test.jsonl": "7756c9e00964c275681fc06c51998c123464cef61840a63ec365eb0bf85cb0ec",
    "vision300/train.jsonl.cache": "78e4110f550aa492b1953b6e14ab086d03c377683faaf00d83f3a66eebfdb685",
    "vision300/test.jsonl.cache": "7e6399d423d97969f4e892ed0f21d34e799eba0b6c7e05cabfa4ab4d784388f3",
    "vision300/manifest.json": "e652e18914b704e51ef646434bce88dc0973473fa1b659accfe77fc7b2fa25b9",
    "document/train.jsonl": "150b574b94027a97d34d5b7703e1ca0f78d7f9923081c160e22f13e7597e9990",
    "document/test.jsonl": "d122087ce644b60ed25f56d1bf51598dff9ffbb4ba2bf1308c2aeb7146e3afa9",
    "document/train.jsonl.cache": "7edec19da89cf8b931714890b100dbbbc689faa7032fcc401c9c4a3df092e0bb",
    "document/test.jsonl.cache": "968774e8518bdb4b01d3f0182bbb72f41722701de7aafc2fb7514fde0fe56f09",
    "document/manifest.json": "ddcbc495cc05972a6c53e99852a4e59c6d1c64ff9220d04face3e73ee360e654",
    "document_long/train.jsonl": "798f0bf1e1bc3734b1c99076acf030d92bc0f19f4a231ba9de86d35c2226afe2",
    "document_long/test.jsonl": "a3655c04c7d0330fccef19df75d2b4032ddf86e797ba4bf34daeda2c0e051ce0",
    "document_long/train.jsonl.cache": "aa5aed9bc9d31caead1db584bd2d2e8f908bab85e6fa7d6880ffa36594098d1f",
    "document_long/test.jsonl.cache": "f360bf45def6589d3b4046b27eca38bf4bec956eb213c822b615dd726858849d",
    "document_long/manifest.json": "2dd77c766946c1959a3e0c38c83e82b06cf8671b1b230b8fcb71583d90f437df",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data, run, ev = (str(root / name) for name in ("data", "run", "eval"))
    steps = [
        ["gen", "--out", data, "--n-train", "20", "--n-test", "10", "--seed", "0"],
        ["train", "--data", data, "--out", run, "--epochs", "4", "--seed", "0"],
        ["eval", "--checkpoint", f"{run}/checkpoint.json",
         "--data", f"{data}/test.jsonl", "--out", ev],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_hash(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} changed"


EXPORT_GOLDEN = "9fc093725622a70c83cb355c1e99c00cbc8b5f56d65d9cb0f0c4ec87464d986e"


def test_export_attention_hash(artifacts):
    """`export-attention` of the bundled run's test instance 0 (one labeled
    pair), on relative paths from the artifact directory, since the JSON
    records both paths. Its "target" list holds 0.0 and 1.0, as floats."""
    argv = ["export-attention", "--checkpoint", "run/checkpoint.json",
            "--data", "data/test.jsonl", "--instance", "0", "--out", "export.json"]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(artifacts)
        assert main(argv) == EXIT_OK, argv
    raw = (artifacts / "export.json").read_bytes()
    target = json.loads(raw)["target"]
    assert {(type(x), x) for row in target for x in row} == {(float, 0.0), (float, 1.0)}
    assert hashlib.sha256(raw).hexdigest() == EXPORT_GOLDEN


@pytest.fixture(scope="module")
def gen_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_gen")
    spec = default_world_spec().to_dict()
    spec["entities_min"] = spec["entities_max"] = 300
    spec_path = root / "vision300.json"
    spec_path.write_text(json.dumps(spec))
    long_doc = default_document_spec().to_dict()
    long_doc["tokens_min"], long_doc["tokens_max"] = 48, 64
    long_doc_path = root / "document_long.json"
    long_doc_path.write_text(json.dumps(long_doc))
    steps = [
        ["gen", "--spec", str(spec_path), "--out", str(root / "vision300"),
         "--n-train", "1", "--n-test", "2", "--seed", "0"],
        ["gen", "--kind", "document", "--out", str(root / "document"),
         "--n-train", "20", "--n-test", "10", "--seed", "0"],
        ["gen", "--spec", str(long_doc_path), "--out", str(root / "document_long"),
         "--n-train", "20", "--n-test", "10", "--seed", "0"],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    return root


@pytest.mark.parametrize("name", sorted(GEN_GOLDEN))
def test_gen_hash(gen_artifacts, name):
    digest = hashlib.sha256((gen_artifacts / name).read_bytes()).hexdigest()
    assert digest == GEN_GOLDEN[name], f"{name} changed"


EVAL300_GOLDEN = {
    "eval300/metrics.csv": "4bf663f0f4d04cf402b2eb9e747297b5a43691c5a4f5b3eb88d76f4205145156",
    "eval300/summary.csv": "2472e007a00f6622d28a3a49c1aad0c2828033a730f07453c3e2ee783d6fd231",
    "eval300/summary.json": "4b963de5bb061afe178a3c14c49bfd982355254a1380cd394b11d9c842b31043",
}


@pytest.fixture(scope="module")
def eval300_artifacts(gen_artifacts):
    steps = [
        ["train", "--data", "vision300", "--out", "run300", "--epochs", "2", "--seed", "0"],
        ["eval", "--checkpoint", "run300/checkpoint.json", "--data", "vision300/test.jsonl",
         "--ks", "1,10,25000,30000,40000", "--out", "eval300"],
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(gen_artifacts)
        for argv in steps:
            assert main(argv) == EXIT_OK, argv
    return gen_artifacts


@pytest.mark.parametrize("name", sorted(EVAL300_GOLDEN))
def test_eval300_hash(eval300_artifacts, name):
    digest = hashlib.sha256((eval300_artifacts / name).read_bytes()).hexdigest()
    assert digest == EVAL300_GOLDEN[name], f"{name} changed"


TRAIN_RECIPES = {
    "document_adam": (
        ["--kind", "document"],
        ["--optimizer", "adam", "--lr", "1e-3", "--lambda", "0.1", "--batch-size", "2"],
    ),
    "row_concat": (
        [],
        ["--strategy", "row", "--head-mode", "concat", "--lambda", "0.5"],
    ),
    "mat_l2": (
        [],
        ["--strategy", "mat", "--loss-variant", "l2", "--lambda", "0.5", "--batch-size", "3"],
    ),
    "unsup_frozen": ([], ["--strategy", "unsup", "--freeze-attention"]),
}

TRAIN_GOLDEN = {
    "document_adam/report.csv": "3016fdcfde1cd2eace7da66d3cf7de6d3901ccecabac822c5a7cb7b90e1ef29c",
    "document_adam/checkpoint.json": "33a4f0d80ca2f31f3e48743f9ed650a1945dbd9b4ac78811ddad5afaccb80c2f",
    "row_concat/report.csv": "9018806e9bab7d682d8c2f1bf3b514f8ee64b06dcc97fc961e6fb87affc01cc4",
    "row_concat/checkpoint.json": "9bdd7fa0472ef596be8ea8623c90b6d6a0e58ab6ee300587269cfaab87a0cc49",
    "mat_l2/report.csv": "21f051f81e03cc74f96a58a90c3154f3a19df552fdf0d2786f1031789beb8081",
    "mat_l2/checkpoint.json": "314cefdde6cbf2baf3b5caa7a14b6167202b7ffbec4a60d93922c2f21bdc78f0",
    "unsup_frozen/report.csv": "3ce6e7ce2f9957df5ea90d9b6d4b063a44696bcda8d9aeb8340d2223eb3319d1",
    "unsup_frozen/checkpoint.json": "6fb36707d202054de3bfdd6fc6a8ee112b2bfba5c0ca53d6a1ba45e1e124ccb3",
}


@pytest.fixture(scope="module")
def train_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_train")
    for name, (gen_flags, train_flags) in TRAIN_RECIPES.items():
        data, run = str(root / f"{name}_data"), str(root / name)
        steps = [
            ["gen", *gen_flags, "--out", data, "--n-train", "20", "--n-test", "10",
             "--seed", "0"],
            ["train", "--data", data, "--out", run, "--epochs", "3", "--seed", "0",
             *train_flags],
        ]
        for argv in steps:
            assert main(argv) == EXIT_OK, argv
    return root


@pytest.mark.parametrize("name", sorted(TRAIN_GOLDEN))
def test_train_hash(train_artifacts, name):
    digest = hashlib.sha256((train_artifacts / name).read_bytes()).hexdigest()
    assert digest == TRAIN_GOLDEN[name], f"{name} changed"


ABLATE_GOLDEN = {
    "cells.csv": "300cba07bd5cdb993ff3227aebba43281fa7e5cc502a82a5efb839601eff20fa",
    "curves.csv": "05ab89e644f8a54fbb11e9ea6e486af3a40b2a588c340418f19eabfc31e25c9e",
}


@pytest.fixture(scope="module")
def ablate_artifacts(artifacts):
    grid = artifacts / "grid.json"
    grid.write_text(json.dumps({"lambda": [0.0, 0.5]}))
    out = artifacts / "ablate"
    argv = ["ablate", "--grid", str(grid), "--data", str(artifacts / "data"),
            "--out", str(out), "--epochs", "3", "--seed", "0", "--jobs", "1"]
    assert main(argv) == EXIT_OK, argv
    return out


@pytest.mark.parametrize("name", sorted(ABLATE_GOLDEN))
def test_ablate_hash(ablate_artifacts, name):
    digest = hashlib.sha256((ablate_artifacts / name).read_bytes()).hexdigest()
    assert digest == ABLATE_GOLDEN[name], f"{name} changed"


GRADCHECK_GOLDEN = "4b6c66d17c85876b7df26da27895438f57b210f6af6dc0db195575ced54c44dc"


def test_gradcheck_stdout_hash(capsys, monkeypatch):
    monkeypatch.delenv("FAN_SEED", raising=False)
    assert main(["gradcheck", "--seeds", "2", "--n", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 25
    assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_GOLDEN
