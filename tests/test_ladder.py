"""The transfer-matrix ladder script and the BENCH files it writes."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "ladder.json"
    assert ladder.main(["--rungs", "2", "--seconds", "0.02", "--out", str(out)]) == 0
    return out


def test_committed_bench_files_follow_the_schema():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"
    for path in BENCH_FILES:
        doc = json.loads(path.read_text())
        ladder.check(doc)
        # a committed file is a full run: every column on every rung
        assert [tuple(r["dims"]) for r in doc["rungs"]] == ladder.LADDER, path.name
        for rung in doc["rungs"]:
            assert set(rung) - {"dims"} == set(doc["columns"]), (path.name, rung["dims"])


def test_smoke_run_writes_the_two_smallest_rungs(smoke):
    doc = json.loads(smoke.read_text())
    ladder.check(doc)
    assert [tuple(r["dims"]) for r in doc["rungs"]] == ladder.LADDER[:2]
    assert set(doc["columns"]) == {"change"}
    env = doc["columns"]["change"]["environment"]
    assert env["nproc"] >= 1 and isinstance(env["numpy"], str)


def test_a_second_column_keeps_the_first(smoke, tmp_path):
    out = tmp_path / "ladder.json"
    out.write_text(smoke.read_text())
    assert ladder.main(["--rungs", "1", "--seconds", "0.02", "--column", "parent", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    first, second = doc["rungs"]
    assert set(first) == {"dims", "change", "parent"}
    assert set(second) == {"dims", "change"}
    assert second["change"] == json.loads(smoke.read_text())["rungs"][1]["change"]


def _broken(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(schema="openmap-ladder/0"),
        lambda d: d["rungs"][0]["change"].pop("peak_alloc_mb"),
        lambda d: d["rungs"][0]["change"].update(q1_ms=1e9),
        lambda d: d["rungs"][0]["change"].update(calls=True),
        lambda d: d["rungs"][0]["change"].update(minflt_per_call=-1.0),
        lambda d: d["rungs"][0].update(dims=[5, 5]),
        lambda d: d["rungs"].reverse(),
        lambda d: d["rungs"][0].update(other=d["rungs"][0]["change"]),
        lambda d: d["columns"]["change"]["environment"].pop("nproc"),
        lambda d: d["columns"].update(extra=d["columns"]["change"]),
    ],
)
def test_check_refuses_a_malformed_document(smoke, edit):
    doc = json.loads(smoke.read_text())
    with pytest.raises(ValueError, match="ladder schema"):
        ladder.check(_broken(doc, edit))


def test_update_of_a_malformed_file_exits_1(tmp_path):
    out = tmp_path / "ladder.json"
    out.write_text("{}")
    assert ladder.main(["--rungs", "1", "--seconds", "0.02", "--out", str(out)]) == 1
    assert out.read_text() == "{}"
