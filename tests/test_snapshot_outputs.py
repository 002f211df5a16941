"""Smoke test of the output snapshot script, tests/snapshot_outputs.py."""

import io
import os
import re

import coalesce
import snapshot_outputs

CHEAP = [("splitting",), ("report",)]


def test_snapshots_compare_and_report_a_planted_drift(tmp_path,
                                                       monkeypatch):
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    monkeypatch.setenv("PYTHONPATH", src)
    a, b = tmp_path / "a", tmp_path / "b"
    snapshot_outputs.write(a, CHEAP)
    snapshot_outputs.write(b, CHEAP)
    assert sorted(os.listdir(a)) == [
        "report.code", "report.err", "report.out",
        "splitting.code", "splitting.err", "splitting.out"]
    assert (a / "splitting.code").read_text() == "0\n"
    report = io.StringIO()
    assert snapshot_outputs.compare(a, b, report)
    assert report.getvalue() == "6 of 6 files identical\n"

    # move one cell of one CSV by 1e-6
    out = b / "splitting.out"
    *head, row = out.read_text().splitlines()
    two_delta, delta = row.split(",")
    out.write_text("\n".join(head + [f"{two_delta},"
                                     f"{float(delta) + 1e-6:.11e}"]) + "\n")
    report = io.StringIO()
    assert not snapshot_outputs.compare(a, b, report)
    assert report.getvalue() == ("splitting.out: differs\n"
                                 "  delta: max |diff| = 1e-06, "
                                 "relative 0.000197\n"
                                 "5 of 6 files identical\n")


def test_counts_tabulate_the_tracker_commands():
    # splitting runs no tracker and gets no row; the figures row is keyed
    # by zeta, the other commands by their arguments
    report = io.StringIO()
    snapshot_outputs.counts([("splitting",), ("sweep-x", "--xpoints=3"),
                             ("figures", "threshold-sweep", "--zeta=-10")],
                            report)
    lines = report.getvalue().splitlines()
    assert lines[0] == "| zeta | fig2 | fig3 | threshold-sweep |"
    assert re.fullmatch(r"\| -10 \|  \|  \| \d+ / 1 \|", lines[2])
    assert re.fullmatch(r"\| `sweep-x --xpoints=3` \| \d+ / 0 \|", lines[-1])
    assert not any("splitting" in line for line in lines)
