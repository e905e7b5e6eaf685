"""Largest deviation per column between two CSV files of one layout, and
the keys that differ between their `# config:` lines.

    python tests/csv_deviation.py OLD.csv NEW.csv

Reads two `report.csv`, `metrics.csv`, `cells.csv` or `curves.csv` files,
skipping lines that start with `#` (the `# config:` line), pairs their rows
in order and prints, for each column, the largest absolute deviation
|new - old| and the largest relative one, |new - old| / max(|old|, |new|).
Two cells with the same text or the same number deviate by 0; a cell that is
not a number on both sides, or NaN or inf against another value, deviates by
inf. Then it prints each config key that was removed, added or changed, with
its values; a file without a `# config:` line has no keys. Exits 2 when the
headers, row counts or row lengths differ.
"""

from __future__ import annotations

import csv
import json
import math
import sys

CONFIG_PREFIX = "# config: "


def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _deviation(old: str, new: str) -> tuple:
    """(absolute, relative) deviation of two cells."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return (0.0, 0.0) if old == new else (math.inf, math.inf)
    if a == b or old == new:
        return 0.0, 0.0
    diff = abs(a - b)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff, diff / max(abs(a), abs(b))


def deviations(old_path, new_path) -> list:
    """[(column, largest absolute deviation, largest relative deviation)]."""
    old, new = _rows(old_path), _rows(new_path)
    if not old or not new or old[0] != new[0]:
        raise ValueError(f"{old_path} and {new_path} have different headers")
    header = old[0]
    if len(old) != len(new) or any(len(row) != len(header) for row in old + new):
        raise ValueError(f"{old_path} and {new_path} differ in row count or row length")
    table = []
    for j, name in enumerate(header):
        cells = [_deviation(a[j], b[j]) for a, b in zip(old[1:], new[1:])]
        table.append((name, max((c[0] for c in cells), default=0.0),
                      max((c[1] for c in cells), default=0.0)))
    return table


def _config(path) -> dict:
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith(CONFIG_PREFIX):
                return json.loads(line[len(CONFIG_PREFIX):])
    return {}


def config_changes(old_path, new_path) -> list:
    """[(key, change, old value, new value)] for each key of the `# config:`
    lines that was removed, added or changed, in sorted key order; the value
    of the side without the key is None."""
    old, new = _config(old_path), _config(new_path)
    changes = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            changes.append((key, "removed", old[key], None))
        elif key not in old:
            changes.append((key, "added", None, new[key]))
        elif json.dumps(old[key]) != json.dumps(new[key]):
            changes.append((key, "changed", old[key], new[key]))
    return changes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: csv_deviation.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    try:
        table = deviations(*args)
        changes = config_changes(*args)
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max([len("column")] + [len(name) for name, _, _ in table])
    print(f"{'column':<{width}}  {'max_abs':>10}  {'max_rel':>10}")
    for name, absolute, relative in table:
        print(f"{name:<{width}}  {absolute:>10.3g}  {relative:>10.3g}")
    for key, change, old, new in changes:
        values = {"removed": json.dumps(old), "added": json.dumps(new),
                  "changed": f"{json.dumps(old)} -> {json.dumps(new)}"}[change]
        print(f"config {change}: {key} = {values}")
    if not changes:
        print("config: no key differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
