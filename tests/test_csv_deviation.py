"""tests/csv_deviation.py: the largest deviation per column of two CSV files."""

import math

from csv_deviation import deviations, main


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
    assert main([str(old), str(other)]) == 2
    assert "different headers" in capsys.readouterr().err
