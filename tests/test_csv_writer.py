"""`cli._write_csv` against the writer it replaced, byte for byte.

`_write_csv` formats each row with one `%` template, `%.17g` for a float
cell and `%s` for any other. The writer before it ran every cell through
`cli._cell` and the rows through `csv.writer`; that writer is kept here as
the reference. The two agree as long as no cell needs quoting, which holds
for every whole CSV that `fanet` writes: its cells are column names and
numbers.
"""

import csv
import json
import math

import numpy as np
import pytest

from fanet.cli import _METRICS_COLUMNS, _cell, _write_csv
from fanet.trainer import TrainConfig

EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1.0, 1.0 / 3.0)


def prior_write_csv(path, header, rows, config=None) -> None:
    """`_write_csv` as it was: `_cell` on every cell, then `csv.writer`."""
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n")
        csv.writer(fh).writerows(map(_cell, row) for row in [header, *rows])


def assert_same_bytes(tmp_path, header, rows, config=None) -> bytes:
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_csv(got, header, rows, config)
    prior_write_csv(want, header, rows, config)
    assert got.read_bytes() == want.read_bytes()
    return got.read_bytes()


def assert_floats_read_back(path, rows) -> None:
    """Every float cell parses back to the same float, the sign of a zero
    included; a NaN reads back as a NaN ("nan" carries no sign or payload)."""
    with open(path, newline="") as fh:
        read = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
    assert len(read) == len(rows)
    for cells, row in zip(read, rows):
        for text, value in zip(cells, row):
            if isinstance(value, float):
                back = float(text)
                if math.isnan(value):
                    assert math.isnan(back), text
                    continue
                assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value), text


# name -> (header, rows, config): each shape of table that `fanet` writes whole
TABLES = {
    "report": (
        ["epoch", "lr", "task_loss", "center_mass_test", "recall@1", "recall@5"],
        [(epoch, 0.05, 1.0 / epoch, value, value, math.nan) for epoch, value in enumerate(EDGE_FLOATS, 1)],
        TrainConfig(lam=0.5, eval_ks=(1, 5)),
    ),
    "metrics": (
        list(_METRICS_COLUMNS),
        [(i, np.int64(k), value, np.float64(value)) for i, value in enumerate(EDGE_FLOATS)
         for k in (1, 5, 10)],
        None,
    ),
    "summary": (
        ["n_instances", "accuracy", "center_mass", "n_center_mass_vacuous", "recall@5",
         "n_recall_vacuous"],
        [(np.int64(100), 0.1, -0.0, 0, 5e-324, np.int32(3))],
        None,
    ),
    "ablation_header": (
        ["cell_id", "epochs", "accuracy", "recall@1"],
        [],
        TrainConfig(),
    ),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tables_match_the_prior_writer(tmp_path, name):
    header, rows, config = TABLES[name]
    text = assert_same_bytes(tmp_path, header, rows, config)
    assert text.startswith(b"# config: {" if config else header[0].encode())
    assert text.count(b"\n") == len(rows) + 1 + (config is not None)
    assert text.count(b"\r\n") == len(rows) + 1  # the config line ends in "\n" alone
    assert_floats_read_back(tmp_path / "got.csv", rows)


def test_cell_types_may_change_between_rows(tmp_path):
    """A column may hold an int, a float, a numpy scalar or a bool from row to row;
    each cell is written as its own type is."""
    rows = [(1, 2.0), (1.0, 2), (np.float64(0.1), np.int64(-7)), (True, np.float32(0.1)),
            (10**20, 1e20), (-(2**63), np.uint64(2**64 - 1)), (0.1, 0.1)]
    assert_same_bytes(tmp_path, ["a", "b"], rows)
    assert_floats_read_back(tmp_path / "got.csv", rows)


def test_random_float_bits(tmp_path):
    """Floats drawn from every bit pattern: subnormals, huge and tiny
    magnitudes, both zeros, infinities and NaNs."""
    bits = np.random.default_rng(5).integers(0, 2**64, size=4000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).tolist()
    rows = [(i, values[2 * i], values[2 * i + 1]) for i in range(len(values) // 2)]
    assert_same_bytes(tmp_path, ["i", "x", "y"], rows)
    assert_floats_read_back(tmp_path / "got.csv", rows)
