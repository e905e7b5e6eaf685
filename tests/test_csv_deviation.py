"""tests/csv_deviation.py: the largest deviation per column of two CSV files."""

import math

from csv_deviation import config_changes, deviations, main


def test_reports_largest_deviation_per_column(tmp_path, capsys):
    old, new, other = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "other.csv"
    old.write_text('# config: {"lambda": 0.01}\nepoch,loss,recall@1,tag\n'
                   "1,2.0,0,a\n2,1.0,nan,b\n")
    new.write_text('# config: {"lambda": 0.1}\nepoch,loss,recall@1,tag\n'
                   "1,2.5,0.0,a\n2,0.5,nan,c\n")
    other.write_text("epoch,loss\n1,2.0\n")
    assert deviations(old, new) == [
        ("epoch", 0.0, 0.0), ("loss", 0.5, 0.5), ("recall@1", 0.0, 0.0),
        ("tag", math.inf, math.inf),
    ]
    assert main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["column", "max_abs", "max_rel"]
    assert lines[2].split() == ["loss", "0.5", "0.5"]
    assert lines[5:] == ["config changed: lambda = 0.01 -> 0.1"]
    assert main([str(old), str(other)]) == 2
    assert "different headers" in capsys.readouterr().err


def test_reports_config_keys_removed_added_or_changed(tmp_path, capsys):
    old, new, bare = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "bare.csv"
    old.write_text('# config: {"agg_axis": "row", "eps": 1e-12, "lr": 1, "seed": 0}\n'
                   "epoch\n1\n")
    new.write_text('# config: {"lr": 1.0, "seed": 0, "d_k": 4}\nepoch\n1\n')
    bare.write_text("epoch\n1\n")
    assert config_changes(old, new) == [
        ("agg_axis", "removed", "row", None), ("d_k", "added", None, 4),
        ("eps", "removed", 1e-12, None), ("lr", "changed", 1, 1.0),
    ]
    assert config_changes(new, new) == config_changes(bare, bare) == []
    assert main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        'config removed: agg_axis = "row"', "config added: d_k = 4",
        "config removed: eps = 1e-12", "config changed: lr = 1 -> 1.0",
    ]
    assert main([str(bare), str(bare)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "config: no key differs"
