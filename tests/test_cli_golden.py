"""The CLI's output, pinned by golden files.

Each case in golden/cases.json is an argv run in-process through `main`,
with the expected exit code. `{inputs}` names the stored input files,
`{out}` and `{csv}` files in a fresh directory. golden/expected holds what
the case printed (`<name>.stdout`), wrote with --out (`<name>.out.json`)
and wrote with --csv (`<name>.csv`); a missing file means nothing may be
written there. JSON must match key for key in the same order, with the same
types; floats may differ by 1e-12 * max(1, |x|), so that another BLAS build
cannot break a case. CSV text must match exactly.
"""

import json
import math
from pathlib import Path

import pytest

from openmap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text: str):
    """Parse keeping key order (objects become lists of pairs); NaN and Infinity are errors."""
    return json.loads(text, object_pairs_hook=list, parse_constant=_reject_constant)


def _assert_same(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(want))), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, list):
        pairs = bool(want) and all(isinstance(p, tuple) for p in want)
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        if pairs:
            assert [k for k, _ in got] == [k for k, _ in want], f"{where}: keys differ"
            for (key, g), (_, w) in zip(got, want):
                _assert_same(g, w, f"{where}.{key}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _run(case, tmp_path, capsys):
    subs = {"{out}": str(tmp_path / "out.json"), "{csv}": str(tmp_path / "grid.csv")}
    argv = [subs.get(a, a.replace("{inputs}", str(GOLDEN / "inputs"))) for a in case["argv"]]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    rc, stdout = _run(case, tmp_path, capsys)
    assert rc == case["exit"]
    name = case["name"]
    for got_path, suffix in (
        (None, ".stdout"),
        (tmp_path / "out.json", ".out.json"),
        (tmp_path / "grid.csv", ".csv"),
    ):
        want_path = GOLDEN / "expected" / f"{name}{suffix}"
        got = stdout if got_path is None else (got_path.read_text() if got_path.exists() else None)
        if not want_path.exists():
            assert not got, f"{name}: unexpected {suffix} output"
            continue
        assert got is not None, f"{name}: no {suffix} output"
        want = want_path.read_text()
        if suffix == ".csv":
            assert got == want
        else:
            _assert_same(_strict_json(got), _strict_json(want))
