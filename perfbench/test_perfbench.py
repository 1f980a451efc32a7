"""Tests of the benchmark itself: metric names, failure counting, span arithmetic."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import openmap as om
from perfbench import metrics, reference, run
from perfbench.spans import NULL_TRACER, Span, Tracer, self_times, summarize

TINY = run.Budget(seconds=0.05, min_tasks=2, repeats=1)
WORKLOAD_NAMES = [w.name for w in metrics.WORKLOADS]


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_json()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result, report = run.run(name, 0, TINY, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m.name: m.unit for m in metrics.END_TO_END
    }
    assert {k: m["unit"] for k, m in report["metrics"].items()} == {
        m.name: m.unit for m in metrics.REPORTED
    }
    values = [m["value"] for m in result["metrics"].values()] + [
        report["metrics"][k]["value"] for k in ("task_p50_ms", "task_p90_ms")
    ]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert report["metrics"]["failure_rate"]["value"] == 0.0
    assert report["latency_samples"] == result["attempted"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(name, tmp_path):
    budget = run.Budget(seconds=0.6 if name == "domain-scan" else 0.05, min_tasks=2, repeats=1)
    result, _ = run.run(name, 0, budget, True, tmp_path)
    assert result["correct"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m.name: m.unit for m in metrics.PER_LAYER
    }
    # every metric predicted to move on this workload is measured on it
    measured_here = [m.name for m in metrics.PER_LAYER if name in m.on]
    assert measured_here and all(values[k] > 0 for k in measured_here), values


def _sample(name, tmp_path):
    wl = run.prepare(name, 3, tmp_path, 1)
    inp = wl.next_input()
    return wl, inp, wl.task(inp)


def _traceless_hermitian(n):
    h = np.zeros((n, n), dtype=complex)
    h[0, 1] = h[1, 0] = 1e-6
    return h


def test_perturbed_offset_fails_the_map_check(tmp_path):
    wl, inp, (fm, *rest) = _sample("unitary-build", tmp_path)
    assert wl.check(inp, (fm, *rest)) == []
    bad = om.AffineMap(fm.homogeneous, fm.offset + _traceless_hermitian(2), fm.kind)
    assert any("map definition" in f for f in wl.check(inp, (bad, *rest)))


def test_wrong_inverse_fails_the_round_trip(tmp_path):
    wl, inp, out = _sample("map-analysis", tmp_path)
    inverse = out.inverse
    out.inverse = om.AffineMap(inverse.homogeneous, inverse.offset + _traceless_hermitian(6), "plain")
    assert any("round trip" in f for f in wl.check(inp, out))


def test_witness_that_is_not_psd_fails(tmp_path):
    wl = run.prepare("domain-scan", 3, tmp_path, 1)
    while True:
        inp = wl.next_input()
        out = wl.task(inp)
        if out.witness is not None:
            break
    assert wl.check(inp, out) == []
    w, v = np.linalg.eigh(out.witness)
    w[0] = -0.05  # one negative eigenvalue
    bad = om.CompatibilityResult(True, (v * w) @ v.conj().T, out.min_eigenvalue, out.method, out.iterations)
    assert any("not PSD" in f for f in wl.check(inp, bad))
    assert wl.stats["compatible"] == 2 and wl.stats["witnessed"] == 1


def test_failed_checks_and_raising_tasks_count_in_failure_rate(tmp_path):
    wl = run.prepare("unitary-build", 3, tmp_path, 1)
    real_task = wl.task
    calls = []

    def flaky(inp):
        calls.append(inp)
        fm, *rest = real_task(inp)
        if len(calls) == 2:
            raise RuntimeError("boom")
        if len(calls) == 3:
            fm = om.AffineMap(fm.homogeneous, fm.offset + _traceless_hermitian(2), fm.kind)
        return (fm, *rest)

    wl.task = flaky
    timed = run.closed_loop(wl, 0.0, 4)
    assert len(timed.latencies) == 4 and timed.failed == 2
    assert any("boom" in f for f in timed.failures)


def test_cli_check_catches_a_failing_demo(tmp_path):
    wl, inp, out = _sample("cli-session", tmp_path)
    assert wl.check(inp, out) == []
    assert any("unreadable" in f for f in wl.check(inp, out))  # the check consumed the outputs
    out = wl.task(inp)
    path = tmp_path / "demo-fixed-corr.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "ok": False}))
    assert wl.check(inp, out) == ["demo-fixed-corr: ok flag is not true"]
    assert wl.check(inp, [0, 0, 3, 0, 0, 0, 0, 0]) == ["analyze exited 3"]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("task", "task", 0, None, 0.0, 10.0),
        Span("a.f", "task", 0, 0, 1.0, 4.0),
        Span("b.g", "task", 0, 1, 2.0, 3.0),
        Span("a.f", "task", 0, 0, 5.0, 9.0),
        Span("c.h", "probe", 0, None, 10.0, 10.5),
        Span("a.f", "setup", None, None, -2.0, -1.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5, 1.0]
    assert summarize(spans, ("task", "probe")) == {
        "task": (3.0, 1), "a.f": (6.0, 2), "b.g": (1.0, 1), "c.h": (0.5, 1),
    }
    assert summarize(spans, ("setup",)) == {"a.f": (1.0, 1)}


def test_tracer_nests_renames_and_survives_exceptions():
    t = Tracer()
    t.phase = "task"

    def inner():
        return t.call("x.inner", lambda: 2)

    assert t.call("x.outer", inner, rename=lambda r: f"x.outer{r}") == 2
    with pytest.raises(ZeroDivisionError):
        t.call("x.bad", lambda: 1 / 0)
    assert [(s.name, s.parent) for s in t.spans] == [("x.outer2", None), ("x.inner", 0), ("x.bad", None)]
    assert t.current_layer() == "bench"
    assert NULL_TRACER.call("ignored", max, 1, 2) == 2


def test_linalg_counting_is_attributed_and_undone():
    original = np.linalg.svd
    t = Tracer()
    with t.counting_linalg():
        t.call("analysis.x", np.linalg.svd, np.eye(2))
        np.linalg.eigvalsh(np.eye(2))
    assert np.linalg.svd is original
    assert t.linalg == {"analysis": 1, "bench": 1}


def test_inputs_follow_the_seed(tmp_path):
    from perfbench.workloads import WORKLOADS

    def first_unitary(seed):
        return WORKLOADS["unitary-build"](seed, tmp_path, run.ROOT, 1).next_input()[0][0]

    assert np.array_equal(first_unitary(5), first_unitary(5))
    assert not np.allclose(first_unitary(5), first_unitary(6))
    u = first_unitary(5)
    assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-12


def test_reference_basis_matches_the_documented_convention():
    for d in (2, 3, 4):
        f = reference.gell_mann(d)
        gram = np.einsum("aij,bji->ab", f, f)
        assert np.allclose(gram, d * np.eye(d * d), atol=1e-12)
        assert np.allclose(f, f.conj().transpose(0, 2, 1))
    paulis = reference.gell_mann(2)[1:]
    assert np.allclose(paulis[2], np.diag([1, -1]))  # sigma_z last
    assert np.allclose(paulis[1], [[0, -1j], [1j, 0]])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
