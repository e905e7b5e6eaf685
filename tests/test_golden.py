"""Golden fingerprints: SHA-256 of the CLI artifacts for one fixed small run.

`gen` 20/10 at seed 0, `train` for 4 epochs at seed 0, then `eval` of the
checkpoint on the test split. A refactor that claims to change no numbers
must leave every hash here unchanged; a change that moves numbers on purpose
updates the hashes and says so in CHANGES.md. `summary.json` is left out
because it records absolute paths. The hashes were taken with float64 numpy
on x86-64; the matmuls go through BLAS, so another BLAS build may round
differently.
"""

import hashlib

import pytest

from fanet.cli import EXIT_OK, main

GOLDEN = {
    "data/train.jsonl": "4a9c4c256c70826da73058a8eb5d739742a376d91d094b02e44c30ea59dc7a7e",
    "data/test.jsonl": "9dc15973e1bcd3c53a4d3672a189955c704a5078fa844b74098a2ca6f3918a3f",
    "data/manifest.json": "1a3962eaffec98b67e10cdee2c6b0f84d536bdc722f58d8a5c0a014ba7ee7542",
    "run/report.csv": "06adf79e43a3a96217eb0e5ae3047bf74ebd6eea0dcee0f46157a2fb15feb0e9",
    "run/report.json": "b373a3bf635c95adaa9d831dfb049511c8821f83276df14e430b23db25852d26",
    "run/checkpoint.json": "35339970468a851cd7b44386b015c9070a6fab24f9a85a4ebac2a18aea6daf8b",
    "eval/metrics.csv": "770c0f0ce426262425e7151c9d5112c928da8dcd0ebbee79faf54948a1957ed5",
    "eval/summary.csv": "9fc6e63ca87e396a75385b00723f1a479f8301324de188caaf998d90a5d39d0a",
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
