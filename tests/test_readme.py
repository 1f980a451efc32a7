"""The README's library tour and CLI demos run and give the values it states."""

import json
import re
from pathlib import Path

from openmap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_matches_its_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["rep"].invertible is True
    assert ns["cp"].is_cp is True
    assert ns["choi_analysis"](ns["inv"].homogeneous).is_cp is False
    realizability = ns["dynamics_realizability"]
    assert realizability(ns["m"]).verdict == "not-applicable"
    assert realizability(ns["bare"]).verdict == "inverse-not-realizable"


def _readme_cli(capsys, line, tmp_path):
    """Run one README `openmap ...` line in-process; the exit code and the parsed JSON."""
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in line.split()[1:]]
    rc = main(argv)
    return rc, json.loads(capsys.readouterr().out)


def test_readme_cli_demos_give_the_stated_numbers(capsys, tmp_path):
    text = README.read_text()
    shown = re.findall(r"^openmap demo [a-z].*$", text, flags=re.M)
    assert len(shown) == 2
    disconnect, paper = shown
    assert disconnect.startswith("openmap demo disconnect ")
    assert _readme_cli(capsys, disconnect, tmp_path)[0] == 0

    (plain,) = re.findall(r"`(demo domain --grid 7 [^`]*)`", text)
    rc, doc = _readme_cli(capsys, "openmap " + plain, tmp_path)
    assert rc == 0
    assert (doc["total"], doc["mean_kind_count"], doc["corr_kind_count"]) == (343, 123, 123)
    assert (doc["mean_only_count"], doc["corr_only_count"]) == (0, 0)

    rc, doc = _readme_cli(capsys, paper, tmp_path)
    assert rc == 0
    counts = ("mean_kind_count", "corr_kind_count", "mean_only_count", "corr_only_count")
    assert tuple(doc[k] for k in counts) == (93, 61, 32, 0)
    assert (doc["mean_undecided_count"], doc["corr_undecided_count"]) == (20, 0)
