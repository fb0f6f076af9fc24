"""tools/limits.py fails on a row over its bound, a failed row and a wrong
dimension, each alone."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "limits.py"


def _limits():
    spec = importlib.util.spec_from_file_location("limits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(limits, change=None):
    """A `row` stand-in: every row right, 10 MB under its bound or at
    10 GB when it has none, except that change(flavor, name, row) may
    return another."""
    def row(flavor, name):
        mb = limits.BOUNDS.get((flavor, name), 10 ** 4 + 10) - 10
        r = {"dim": 2, "oracle": 2, "cpu_s": 1.0, "maxrss_kb": mb * 1024}
        return change(flavor, name, r) if change else r
    return row


def test_rows_within_their_bounds_pass(monkeypatch, capsys):
    # A row with no bound, as an added triple's, only reports.
    limits = _limits()
    assert set(limits.BOUNDS) == {(f, t) for f in ("hh", "hc")
                                  for t in limits.DEFAULT_TRIPLES}
    monkeypatch.setattr(limits, "row", _rows(limits))
    assert limits.main(["sqzero_dual_x"]) == 0
    out = capsys.readouterr().out
    assert "OVER" not in out and out.count("sqzero_dual_x") == 2


def test_a_row_over_its_bound_a_failed_row_and_a_wrong_dimension_fail(
        monkeypatch, capsys):
    limits = _limits()

    def over(flavor, name, r):
        if (flavor, name) == ("hc", "dual_dual_zero"):
            r["maxrss_kb"] = limits.BOUNDS[flavor, name] * 1024
        return r

    def failed(flavor, name, r):
        return None if (flavor, name) == ("hh", "dual_dual_x") else r

    def wrong(flavor, name, r):
        if (flavor, name) == ("hc", "dual_dual_x"):
            r["dim"] = 3
        return r

    for change, mark in ((over, "OVER 125 MB"), (failed, "FAILED"),
                         (wrong, "!= oracle")):
        monkeypatch.setattr(limits, "row", _rows(limits, change))
        assert limits.main([]) == 1, change.__name__
        out = capsys.readouterr().out
        assert out.count(mark) == 1, change.__name__
