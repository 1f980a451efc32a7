"""The README's library tour runs and gives the values its comments state."""

import re
from pathlib import Path

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
