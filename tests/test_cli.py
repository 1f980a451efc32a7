"""Command-line interface: exit codes, JSON formats, demo wiring."""

import json

import numpy as np
import pytest

from openmap import (
    AffineMap,
    FixedMeanParameters,
    SuperOperator,
    apply,
    compose,
    fixed_mean_value_map,
    two_qubit_unitary,
    vec,
)
from openmap.cli import (
    MAX_GRID,
    _build_parser,
    affine_map_from_json,
    affine_map_to_json,
    main,
    matrix_from_json,
    matrix_to_json,
)
from conftest import random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


def _write_map(path, m):
    path.write_text(json.dumps(affine_map_to_json(m)))
    return str(path)


def _write_params(path, dims, means):
    doc = {"dims": list(dims), "means": [[mu, nu, val] for (mu, nu), val in means.items()]}
    path.write_text(json.dumps(doc))
    return str(path)


def _l_map(g, means=None):
    return fixed_mean_value_map(
        two_qubit_unitary(g), FixedMeanParameters((2, 2), means or {})
    )


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_matrix_json_round_trip():
    rng = np.random.default_rng(241)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = matrix_from_json(matrix_to_json(m))
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_map_json_round_trip():
    m = _l_map(0.7, {(1, 3): 0.3})
    doc = affine_map_to_json(m)
    back = affine_map_from_json(doc)
    assert back.kind == m.kind
    assert np.array_equal(back.homogeneous.rep, m.homogeneous.rep)
    assert np.array_equal(back.offset, m.offset)


def test_build_identity_zero_params(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", np.eye(4))
    p = _write_params(tmp_path / "p.json", (2, 2), {})
    rc, out, _ = _run(capsys, ["build", "--kind", "fixed-mean", "--unitary", u, "--params", p])
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "fixed-mean-value"
    assert doc["dim"] == 2
    rep = matrix_from_json(doc["homogeneous"])
    assert np.max(np.abs(rep - np.eye(4))) < 1e-15
    assert np.max(np.abs(matrix_from_json(doc["offset"]))) < 1e-15
    assert doc["detected_parameters"]["fixed_mean"] == []


def test_build_two_qubit_offset(tmp_path, capsys):
    g = np.pi / 3
    u = _write_matrix(tmp_path / "u.json", two_qubit_unitary(g))
    p = _write_params(tmp_path / "p.json", (2, 2), {(2, 3): 0.4})
    rc, out, _ = _run(capsys, ["build", "--kind", "fixed-mean", "--unitary", u, "--params", p])
    assert rc == 0
    doc = json.loads(out)
    offset = matrix_from_json(doc["offset"])
    want = -0.4 * np.sin(g) * SX / 2
    assert np.max(np.abs(offset - want)) < 1e-12
    assert doc["detected_parameters"]["fixed_mean"] == [[1, 3], [2, 3]]


def test_build_writes_output_file(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", two_qubit_unitary(1.0))
    p = _write_params(tmp_path / "p.json", (2, 2), {(1, 3): 0.2})
    out_file = tmp_path / "map.json"
    rc, out, _ = _run(
        capsys,
        ["build", "--kind", "fixed-mean", "--unitary", u, "--params", p, "--out", str(out_file)],
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    rebuilt = affine_map_from_json(doc)
    direct = _l_map(1.0, {(1, 3): 0.2})
    assert np.array_equal(rebuilt.homogeneous.rep, direct.homogeneous.rep)
    assert np.array_equal(rebuilt.offset, direct.offset)


def test_build_fixed_corr(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", two_qubit_unitary(np.pi / 4))
    p = tmp_path / "p.json"
    p.write_text(
        json.dumps(
            {
                "dims": [2, 2],
                "rho_r": matrix_to_json(np.diag([0.8, 0.2]).astype(complex)),
                "gamma": [[1, 3, 0.2]],
            }
        )
    )
    rc, out, _ = _run(
        capsys, ["build", "--kind", "fixed-corr", "--unitary", u, "--params", str(p)]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "fixed-correlation"
    offset = matrix_from_json(doc["offset"])
    # C = (1/2)(G13 sy - G23 sx) sin g
    want = 0.5 * 0.2 * np.sin(np.pi / 4) * np.array([[0, -1j], [1j, 0]])
    assert np.max(np.abs(offset - want)) < 1e-12


def test_analyze_regular_map(tmp_path, capsys):
    f = _write_map(tmp_path / "m.json", _l_map(np.pi / 3))
    rc, out, _ = _run(capsys, ["analyze", f])
    assert rc == 0
    doc = json.loads(out)
    assert doc["invertible"] is True
    assert abs(doc["smallest_singular_value"] - 0.5) < 1e-12
    sv = np.linalg.svd(_l_map(np.pi / 3).homogeneous.rep, compute_uv=False)
    assert abs(doc["condition_number"] - sv.max() / sv.min()) <= 1e-12 * doc["condition_number"]
    assert doc["is_cp"] is True and doc["is_tp"] is True and doc["is_unital"] is True
    assert doc["realizability"] == "inverse-not-realizable"
    assert doc["choi_rank"] == 2


def test_analyze_singular_map(tmp_path, capsys):
    f = _write_map(tmp_path / "m.json", _l_map(np.pi / 2))
    rc, out, _ = _run(capsys, ["analyze", f])
    assert rc == 0
    doc = json.loads(out)
    assert doc["invertible"] is False
    assert doc["kernel_dimension"] == 2
    assert doc["realizability"] == "not-applicable"


def test_analyze_identity_map(tmp_path, capsys):
    f = _write_map(tmp_path / "m.json", _l_map(0.0))
    rc, out, _ = _run(capsys, ["analyze", f])
    assert rc == 0
    doc = json.loads(out)
    assert doc["invertible"] is True
    assert doc["realizability"] == "inverse-realizable"


def test_invert_round_trip(tmp_path, capsys):
    m = _l_map(1.1, {(2, 3): -0.3})
    f = _write_map(tmp_path / "m.json", m)
    rc, out, _ = _run(capsys, ["invert", f])
    assert rc == 0
    inv = affine_map_from_json(json.loads(out))
    assert inv.kind == "plain"
    c = compose(inv, m)
    assert np.max(np.abs(c.homogeneous.rep - np.eye(4))) < 1e-10
    assert np.max(np.abs(c.offset)) < 1e-10


def test_invert_singular_exits_3(tmp_path, capsys):
    f = _write_map(tmp_path / "m.json", _l_map(np.pi / 2))
    rc, _, err = _run(capsys, ["invert", f])
    assert rc == 3
    assert "precondition" in err


def test_analyze_exactly_singular_map_writes_null_condition_number(tmp_path, capsys):
    dephase = AffineMap(SuperOperator(2, np.diag([1.0, 0.0, 0.0, 1.0])), np.zeros((2, 2)), "plain")
    rc, out, _ = _run(capsys, ["analyze", _write_map(tmp_path / "m.json", dephase)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["invertible"] is False
    assert doc["condition_number"] is None


@pytest.mark.parametrize("command", ["analyze", "invert"])
def test_inconsistent_criteria_exits_3_without_output(tmp_path, capsys, command):
    # h(Q) = Q - Tr[Q] 1/2 kills the identity but not the mean values
    rep = np.eye(4) - np.outer(vec(np.eye(2)), vec(np.eye(2))) / 2
    f = _write_map(tmp_path / "m.json", AffineMap(SuperOperator(2, rep), np.zeros((2, 2)), "plain"))
    out = tmp_path / "out.json"
    rc, _, err = _run(capsys, [command, f, "--out", str(out)])
    assert rc == 3
    assert "precondition failure" in err and "criteria disagree" in err
    assert not out.exists()


def test_build_rejects_non_unitary(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", np.eye(4) * 1.001)
    p = _write_params(tmp_path / "p.json", (2, 2), {})
    rc, _, err = _run(capsys, ["build", "--kind", "fixed-mean", "--unitary", u, "--params", p])
    assert rc == 3
    assert "not unitary" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_unitary(tmp_path, capsys, bad):
    m = np.eye(4, dtype=complex)
    m[0, 0] = bad
    u = _write_matrix(tmp_path / "u.json", m)
    p = _write_params(tmp_path / "p.json", (2, 2), {})
    out_file = tmp_path / "map.json"
    rc, out, err = _run(
        capsys,
        ["build", "--kind", "fixed-mean", "--unitary", u, "--params", p, "--out", str(out_file)],
    )
    assert rc == 2
    assert "finite" in err
    assert out == ""
    assert not out_file.exists()


def test_analyze_rejects_non_finite_map(tmp_path, capsys):
    doc = affine_map_to_json(_l_map(np.pi / 3))
    doc["offset"]["rows"][0][0][0] = float("inf")
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    rc, out, err = _run(capsys, ["analyze", str(f)])
    assert rc == 2
    assert "finite" in err
    assert out == ""


def test_malformed_json_exits_2_without_output(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", np.eye(4))
    bad = tmp_path / "p.json"
    bad.write_text("{not json")
    out_file = tmp_path / "map.json"
    rc, _, err = _run(
        capsys,
        [
            "build",
            "--kind",
            "fixed-mean",
            "--unitary",
            u,
            "--params",
            str(bad),
            "--out",
            str(out_file),
        ],
    )
    assert rc == 2
    assert "input error" in err
    assert not out_file.exists()


def test_missing_file_exits_2(capsys):
    rc, _, err = _run(capsys, ["analyze", "/nonexistent/map.json"])
    assert rc == 2
    assert "input error" in err


def test_bad_params_schema_exits_2(tmp_path, capsys):
    u = _write_matrix(tmp_path / "u.json", np.eye(4))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"dims": [2, 2], "means": [[0, 0, 1.0]]}))  # nu = 0 invalid
    rc, _, err = _run(capsys, ["build", "--kind", "fixed-mean", "--unitary", u, "--params", str(p)])
    assert rc == 2


def test_unknown_demo_name_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["demo", "bogus"])
    assert err.value.code == 2


def test_demo_fixed_mean(capsys):
    rc, out, _ = _run(capsys, ["demo", "fixed-mean", "--gamma", "1.0472", "--mean-s2x3", "0.4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_demo_fixed_corr_singular_point(capsys):
    rc, out, _ = _run(capsys, ["demo", "fixed-corr", "--gamma", "1.5707963267948966", "--xi3", "0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["determinant"] < 1e-12
    assert doc["invertible"] is False
    assert doc["ok"] is True


def test_demo_fixed_corr_xi3_out_of_range(capsys):
    rc, _, err = _run(capsys, ["demo", "fixed-corr", "--xi3", "1.5"])
    assert rc == 3
    assert "precondition" in err


def test_demo_disconnect(capsys):
    rc, out, _ = _run(capsys, ["demo", "disconnect", "--gamma", "1.0472", "--bloch", "1,0,0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["round_trip_deviation"] < 1e-12
    assert doc["ok"] is True


def test_demo_disconnect_bad_bloch_exits_2(capsys):
    rc, _, err = _run(capsys, ["demo", "disconnect", "--bloch", "1,0"])
    assert rc == 2


def test_demo_domain_with_csv(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    rc, out, _ = _run(
        capsys,
        [
            "demo",
            "domain",
            "--grid",
            "5",
            "--mean-s2x3",
            "0.8",
            "--xi3",
            "0.9",
            "--corr13",
            "0.8",
            "--csv",
            str(csv),
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 125
    assert doc["mean_kind_count"] >= doc["corr_kind_count"]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "v1,v2,v3,mean_kind,corr_kind"
    assert len(lines) == 126


def test_domain_subcommand(tmp_path, capsys):
    p = _write_params(tmp_path / "p.json", (2, 2), {(1, 3): 0.3})
    rc, out, _ = _run(capsys, ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "0,0,0.5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["compatible"] is True
    rc, out, _ = _run(capsys, ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "1,1,1"])
    assert rc == 0
    assert json.loads(out)["compatible"] is False


def test_domain_subcommand_fixed_corr(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(
        json.dumps(
            {
                "dims": [2, 2],
                "rho_r": matrix_to_json(np.eye(2, dtype=complex) / 2),
                "gamma": [],
            }
        )
    )
    rc, out, _ = _run(
        capsys, ["domain", "--kind", "fixed-corr", "--params", str(p), "--mean", "0,0,0.9"]
    )
    assert rc == 0
    assert json.loads(out)["compatible"] is True


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("OPENMAP_TOL", "1e-20")
    rc, _, err = _run(capsys, ["demo", "fixed-mean", "--gamma", "0.9"])
    assert rc == 1
    assert "oracle mismatch" in err


def test_explicit_tolerance_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("OPENMAP_TOL", "1e-20")
    rc, _, _ = _run(capsys, ["demo", "fixed-mean", "--gamma", "0.9", "--tol", "1e-10"])
    assert rc == 0


DOMAIN_KEYS = {"compatible", "min_eigenvalue", "method", "iterations", "witness", "verdict", "certified"}


def test_domain_reports_certified_verdict(tmp_path, capsys):
    p = _write_params(tmp_path / "p.json", (2, 2), {(1, 3): 0.3})
    argv = ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "1,1,1", "--thorough"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == DOMAIN_KEYS
    assert doc["compatible"] is False and doc["witness"] is None
    assert doc["verdict"] == "incompatible" and doc["certified"] is True
    assert doc["method"] == "feasibility-search" and 0 < doc["iterations"] < 500


def test_domain_reports_witnessed_verdict(tmp_path, capsys):
    p = _write_params(tmp_path / "p.json", (2, 2), {(3, 3): 0.9})
    argv = ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "0,0,0.9", "--thorough"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == DOMAIN_KEYS
    assert doc["compatible"] is True and doc["witness"] is not None
    assert doc["verdict"] == "compatible" and doc["certified"] is False
    assert doc["method"] == "feasibility-search"


def test_demo_domain_reports_undecided_counts(capsys):
    argv = ["demo", "domain", "--grid", "4", "--mean-s1x3", "0.1", "--mean-s2x3", "0.1",
            "--xi3", "0.3", "--corr13", "0.2", "--corr23", "0.2"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    plain = json.loads(out)
    # without the search, every failed zero completion is undecided
    assert plain["mean_undecided_count"] == plain["total"] - plain["mean_kind_count"]
    assert plain["corr_undecided_count"] == plain["total"] - plain["corr_kind_count"]
    rc, out, _ = _run(capsys, argv + ["--thorough"])
    assert rc == 0
    deep = json.loads(out)
    assert 0 <= deep["mean_undecided_count"] < plain["mean_undecided_count"]
    assert deep["corr_undecided_count"] == 0


def test_repeated_main_calls_match_fresh_parser(tmp_path, capsys):
    # the parser is built once per process; reusing it must not carry
    # values from one call into the next
    p = _write_params(tmp_path / "p.json", (2, 2), {(1, 3): 0.3})
    calls = [
        ["demo", "fixed-mean", "--gamma", "0.5", "--mean-s2x3", "0.4"],
        ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "1,1,1", "--thorough"],
        ["demo", "bogus"],
        ["demo", "fixed-mean"],
        ["domain", "--kind", "fixed-mean", "--params", p, "--mean", "1,1,1"],
        ["demo", "disconnect", "--bloch", "0,1,0"],
    ]

    def call(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        return rc, capsys.readouterr().out

    repeated = [call(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert repeated == fresh
    assert repeated[2][0] == ("exit", 2)
    assert json.loads(repeated[1][1])["verdict"] == "incompatible"
    assert json.loads(repeated[4][1])["verdict"] == "undecided"


def _build_with_means(tmp_path, capsys, doc):
    u = _write_matrix(tmp_path / "u.json", np.eye(4))
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    out_file = tmp_path / "map.json"
    argv = ["build", "--kind", "fixed-mean", "--unitary", u, "--params", str(p), "--out", str(out_file)]
    rc, out, err = _run(capsys, argv)
    return rc, out, err, out_file


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2, 2], "means": [[1, 1, float("nan")]]},
        {"dims": [2, 2], "means": [[1, 1, float("inf")]]},
        {"dims": [2, 2], "means": [[1, 2, True]]},
        {"dims": [2, 2], "means": [[True, 2, 0.5]]},
        {"dims": [True, 4], "means": []},
    ],
    ids=["nan-value", "inf-value", "bool-value", "bool-index", "bool-dim"],
)
def test_build_rejects_non_finite_and_bool_params(tmp_path, capsys, doc):
    rc, out, err, out_file = _build_with_means(tmp_path, capsys, doc)
    assert rc == 2
    assert "input error" in err
    assert out == ""
    assert not out_file.exists()


def test_analyze_rejects_bool_map_dim(tmp_path, capsys):
    # a 1x1 map whose dim is written as true rather than 1
    doc = {"kind": "plain", "dim": True, "homogeneous": {"rows": [[[1, 0]]]}, "offset": {"rows": [[[0, 0]]]}}
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    out_file = tmp_path / "a.json"
    rc, out, err = _run(capsys, ["analyze", str(f), "--out", str(out_file)])
    assert rc == 2
    assert "input error" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["domain", "--kind", "fixed-mean", "--mean", "nan,0,0"],
        ["domain", "--kind", "fixed-mean", "--mean", "0,inf,0", "--thorough"],
        ["demo", "disconnect", "--bloch", "inf,0,0"],
        ["demo", "disconnect", "--contrast", "0,nan,0"],
    ],
    ids=["domain-mean-nan", "domain-mean-inf", "bloch-inf", "contrast-nan"],
)
def test_non_finite_vector_options_exit_2(tmp_path, capsys, argv):
    p = _write_params(tmp_path / "p.json", (2, 2), {(1, 3): 0.3})
    out_file = tmp_path / "out.json"
    if argv[0] == "domain":
        argv = argv + ["--params", p]
    rc, out, err = _run(capsys, argv + ["--out", str(out_file)])
    assert rc == 2
    assert "finite" in err
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, env_tol",
    [
        (["demo", "fixed-mean", "--gamma", "nan"], None),
        (["demo", "fixed-mean", "--mean-s2x3", "inf"], None),
        (["demo", "fixed-corr", "--xi3", "nan"], None),
        (["demo", "fixed-corr", "--corr23=-inf"], None),
        (["demo", "domain", "--corr13", "nan"], None),
        (["demo", "domain", "--mean-s1x3", "nan"], None),
        (["demo", "domain", "--grid", "-1"], None),
        (["demo", "domain", "--grid", "0"], None),
        (["demo", "fixed-mean", "--tol", "nan"], None),
        (["demo", "fixed-mean"], "nan"),
    ],
    ids=[
        "gamma-nan", "mean-s2x3-inf", "xi3-nan", "corr23-inf", "corr13-nan",
        "mean-s1x3-nan", "grid-negative", "grid-zero", "tol-nan", "env-tol-nan",
    ],
)
def test_non_finite_scenario_numbers_exit_2(tmp_path, capsys, monkeypatch, argv, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("OPENMAP_TOL", env_tol)
    out_file = tmp_path / "out.json"
    try:
        rc = main(argv + ["--out", str(out_file)])
    except SystemExit as exc:  # argparse rejects a bad flag value with exit 2
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "finite" in err or "positive_int" in err
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["fixed-mean", "fixed-corr", "domain"])
def test_negative_seed_exits_2(tmp_path, capsys, name):
    out_file = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["demo", name, "--seed", "-1", "--out", str(out_file)])
    assert exc.value.code == 2
    assert "non_negative_int" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("grid", [MAX_GRID + 1, 100_000_000])
def test_grid_above_maximum_exits_2_before_sampling(tmp_path, capsys, monkeypatch, grid):
    def refuse(*args, **kwargs):
        raise AssertionError("domain_shrinkage_demo called")

    monkeypatch.setattr("openmap.cli.domain_shrinkage_demo", refuse)
    out_file = tmp_path / "out.json"
    rc, out, err = _run(capsys, ["demo", "domain", "--grid", str(grid), "--out", str(out_file)])
    assert rc == 2
    assert f"at most {MAX_GRID}" in err
    assert out == ""
    assert not out_file.exists()


def test_demo_domain_xi3_out_of_range_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("openmap.cli.domain_shrinkage_demo", None)  # never reached
    out_file = tmp_path / "out.json"
    rc, out, err = _run(capsys, ["demo", "domain", "--xi3", "1.5", "--out", str(out_file)])
    assert rc == 3
    assert "precondition" in err
    assert out == "" and not out_file.exists()
