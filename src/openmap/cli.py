"""Command-line surface: build, analyze, invert, demo, domain.

Exit codes: 0 success, 1 oracle/assertion failure, 2 input error,
3 precondition failure. Matrices travel as {"rows": [[[re, im], ...]]};
sparse mean and correlation tables as [mu, nu, value] triples. The default
tolerance is ORACLE_TOL (1e-10), overridable by --tol or the OPENMAP_TOL
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    InconsistentCriteriaError,
    choi_analysis,
    dynamics_realizability,
    invert,
    invertibility,
)
from .domain import DomainQuery, compatible, domain_shrinkage_demo
from .mapgen import (
    FixedCorrelationParameters,
    FixedMeanParameters,
    canonical_joint_basis,
    detect_parameters,
    fixed_correlation_map,
    fixed_mean_value_map,
)
from .states import CorrelationTable, DensityMatrix, MeanValueVector
from .superop import AffineMap, SuperOperator, check_unitary, transfer_matrix
from .tolerances import ORACLE_TOL, ROUNDING_TOL
from .twoqubit import (
    TwoQubitScenario,
    disconnection_demo,
    reproduce_fixed_corr,
    reproduce_fixed_mean,
)

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

DEFAULT_SEED = 42
MAX_GRID = 100  # demo domain runs up to 2 * MAX_GRID**3 queries


class CliInputError(Exception):
    pass


class CliPreconditionError(Exception):
    pass


def default_tolerance() -> float:
    raw = os.environ.get("OPENMAP_TOL")
    if raw is None:
        return ORACLE_TOL
    try:
        return finite_non_negative(raw)
    except ValueError as exc:
        raise CliInputError(f"OPENMAP_TOL is not a finite non-negative number: {raw!r}") from exc


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {"rows": np.stack((m.real, m.imag), axis=-1).tolist()}


def _fields(report) -> dict:
    """A dataclass's fields by name, in declaration order."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def to_json(value):
    """A report as JSON values: dataclass fields in declaration order,
    complex arrays as MatrixJSON, real arrays and tuples as lists, and
    non-finite floats as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        doc = matrix_to_json(value) if np.iscomplexobj(value) else value.tolist()
        return doc if np.isfinite(value).all() else to_json(doc)
    return to_json(_fields(value))


def _finite_float(x) -> float | None:
    """x as a float if it is a finite JSON number, else None.

    JSON true/false decode to bool, a subclass of int, and are not numbers
    here; integers too large for a float are not finite.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def finite_number(text: str) -> float:
    """argparse type: a finite float; argparse reports the ValueError with exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def finite_non_negative(text: str) -> float:
    """argparse type: a finite float >= 0; argparse reports the ValueError with exit 2."""
    value = finite_number(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1; argparse reports the ValueError with exit 2."""
    value = int(text)
    if value < 1:
        raise ValueError(f"not positive: {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0; argparse reports the ValueError with exit 2."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise CliInputError("matrix JSON must be an object with a 'rows' field")
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise CliInputError("matrix 'rows' must be a nonempty list")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise CliInputError("matrix rows must be lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CliInputError("matrix rows must all have the same length")
        line = []
        for entry in row:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise CliInputError("matrix entries must be [re, im] pairs")
            re, im = _finite_float(entry[0]), _finite_float(entry[1])
            if re is None or im is None:
                raise CliInputError("matrix entries must be [re, im] pairs of finite numbers")
            line.append(complex(re, im))
        out.append(line)
    return np.array(out, dtype=complex)


def _map_fields(m: AffineMap) -> dict:
    return {"kind": m.kind, "dim": m.dim, "homogeneous": m.homogeneous.rep, "offset": m.offset}


def affine_map_to_json(m: AffineMap) -> dict:
    return to_json(_map_fields(m))


def affine_map_from_json(obj) -> AffineMap:
    if not isinstance(obj, dict):
        raise CliInputError("map JSON must be an object")
    for key in ("kind", "dim", "homogeneous", "offset"):
        if key not in obj:
            raise CliInputError(f"map JSON is missing the {key!r} field")
    dim = obj["dim"]
    if not _is_int(dim) or dim < 1:
        raise CliInputError(f"map dim must be a positive integer, got {dim!r}")
    rep = matrix_from_json(obj["homogeneous"])
    offset = matrix_from_json(obj["offset"])
    try:
        return AffineMap(
            homogeneous=SuperOperator(dim=dim, rep=rep), offset=offset, kind=obj["kind"]
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _triples(obj, what: str) -> list[tuple[int, int, float]]:
    if not isinstance(obj, list):
        raise CliInputError(f"{what} must be a list of [mu, nu, value] triples")
    out = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 3):
            raise CliInputError(f"{what} entries must be [mu, nu, value] triples")
        mu, nu, value = item
        if not (_is_int(mu) and _is_int(nu)):
            raise CliInputError(f"{what} indices must be integers")
        number = _finite_float(value)
        if number is None:
            raise CliInputError(f"{what} values must be finite numbers, got {value!r}")
        out.append((mu, nu, number))
    return out


def _dims_from_json(obj) -> tuple[int, int]:
    if not isinstance(obj, dict):
        raise CliInputError("params JSON must be an object")
    dims = obj.get("dims")
    if not (
        isinstance(dims, list)
        and len(dims) == 2
        and all(_is_int(d) and d >= 1 for d in dims)
    ):
        raise CliInputError("params 'dims' must be a pair of positive integers")
    return (dims[0], dims[1])


def mean_params_from_json(obj) -> FixedMeanParameters:
    dims = _dims_from_json(obj)
    triples = _triples(obj.get("means", []), "means")
    try:
        return FixedMeanParameters(
            dims=dims, fixed_means={(mu, nu): value for mu, nu, value in triples}
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def corr_params_from_json(obj) -> FixedCorrelationParameters:
    dims = _dims_from_json(obj)
    n, m = dims
    if "rho_r" not in obj:
        raise CliInputError("fixed-corr params need a 'rho_r' matrix")
    rho = matrix_from_json(obj["rho_r"])
    try:
        rho_r = DensityMatrix(dim=m, matrix=rho)
    except ValueError as exc:
        raise CliPreconditionError(f"rho_r is not a density matrix: {exc}") from exc
    gamma = np.zeros((n**2 - 1, m**2 - 1))
    specified = np.zeros((n**2 - 1, m**2 - 1), dtype=bool)
    for mu, nu, value in _triples(obj.get("gamma", []), "gamma"):
        if not (1 <= mu < n**2 and 1 <= nu < m**2):
            raise CliInputError(f"correlation index ({mu}, {nu}) out of range for dims {dims}")
        gamma[mu - 1, nu - 1] = value
        specified[mu - 1, nu - 1] = True
    try:
        return FixedCorrelationParameters(
            dims=dims, rho_r=rho_r, gamma=CorrelationTable(gamma=gamma, specified=specified)
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _check_unitary_input(u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise CliInputError(f"unitary must be square, got shape {u.shape}")
    try:
        check_unitary(u, u.shape[0])
    except ValueError as exc:
        raise CliPreconditionError(str(exc)) from exc


# --kind -> (params decoder, map builder, domain query kind)
_KINDS = {
    "fixed-mean": (mean_params_from_json, fixed_mean_value_map, "fixed-mean-value"),
    "fixed-corr": (corr_params_from_json, fixed_correlation_map, "fixed-correlation"),
}


def _emit(doc: dict, out: Path | None) -> None:
    text = json.dumps(to_json(doc), indent=2, allow_nan=False)
    if out is None:
        print(text)
    else:
        _write_text(out, text + "\n")


def cmd_build(args) -> int:
    u = matrix_from_json(_load_json(args.unitary))
    _check_unitary_input(u)
    decode, builder, _ = _KINDS[args.kind]
    params = decode(_load_json(args.params))
    n, m = params.dims
    if u.shape != (n * m, n * m):
        raise CliInputError(
            f"unitary shape {u.shape} does not match params dims {params.dims}"
        )
    basis = canonical_joint_basis(params.dims)
    mapped = builder(u, params, basis=basis)
    report = detect_parameters(transfer_matrix(u, basis))
    detected = {
        "fixed_mean": sorted(report.fixed_mean_indices),
        "environment": sorted(report.environment_mean_indices),
        "correlation": sorted(report.correlation_indices),
    }
    _emit({**_map_fields(mapped), "detected_parameters": detected}, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    m = affine_map_from_json(_load_json(args.map))
    try:
        inv_report = invertibility(m)
    except (ValueError, InconsistentCriteriaError) as exc:
        raise CliPreconditionError(str(exc)) from exc
    cp_report = choi_analysis(m.homogeneous)
    detail = _fields(dynamics_realizability(m))
    doc = {
        **_fields(inv_report),
        **_fields(cp_report),
        "choi_rank": cp_report.choi_rank,
        "realizability": detail.pop("verdict"),
        "realizability_detail": detail,
    }
    del doc["kraus_factors"]
    _emit(doc, args.out)
    return EXIT_OK


def cmd_invert(args) -> int:
    m = affine_map_from_json(_load_json(args.map))
    try:
        inverse = invert(m)
    except (ValueError, InconsistentCriteriaError) as exc:  # SingularMapError is a ValueError
        raise CliPreconditionError(str(exc)) from exc
    _emit(_map_fields(inverse), args.out)
    return EXIT_OK


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        v = np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise CliInputError(f"{what} must be comma-separated numbers, got {text!r}") from exc
    if not np.isfinite(v).all():
        raise CliInputError(f"{what} entries must be finite, got {text!r}")
    return v


def _bloch_option(text: str, what: str) -> np.ndarray:
    """A --bloch or --contrast vector; any length but 3 is an input error."""
    v = _parse_vector(text, what)
    if v.shape != (3,):
        raise CliInputError(f"{what} must have 3 entries, got {v.size}")
    return v


def _scenario(args, *names: str) -> TwoQubitScenario:
    """The scenario at --gamma with the named flags; out of range is exit 3."""
    try:
        return TwoQubitScenario(gamma=args.gamma, **{name: getattr(args, name) for name in names})
    except ValueError as exc:
        raise CliPreconditionError(str(exc)) from exc


def cmd_demo(args) -> int:
    tol = args.tol if args.tol is not None else default_tolerance()
    if args.name == "domain":
        return _demo_domain(args)
    if args.name == "disconnect":
        bloch = _bloch_option(args.bloch, "--bloch")
        contrast = _bloch_option(args.contrast, "--contrast") if args.contrast else None
        try:
            report = disconnection_demo(args.gamma, bloch, contrast, tolerance=tol)
        except ValueError as exc:  # a vector outside the Bloch ball
            raise CliPreconditionError(str(exc)) from exc
        doc = _fields(report)
        contrast_leg = doc.pop("contrast")
        doc["ok"] = report.ok
        if contrast_leg is not None:
            doc["contrast"] = contrast_leg
    elif args.name == "fixed-mean":
        scenario = _scenario(args, "mean_s2x3", "mean_s1x3")
        report = reproduce_fixed_mean(scenario, tolerance=tol, seed=args.seed)
        doc = {**_fields(report), "max_deviation": report.max_deviation, "ok": report.ok}
    else:
        scenario = _scenario(args, "xi3", "corr13", "corr23")
        report = reproduce_fixed_corr(scenario, tolerance=tol, seed=args.seed)
        det = scenario.correlation_determinant
        doc = {
            **_fields(report),
            "max_deviation": report.max_deviation,
            "ok": report.ok,
            "determinant": float(det),
            "invertible": bool(det > ROUNDING_TOL),
        }
    _emit(doc, args.out)
    if not report.ok:
        print(f"oracle mismatch: {', '.join(report.failures())}", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def _demo_domain(args) -> int:
    """Domain comparison over the sampled grid."""
    if args.grid > MAX_GRID:
        raise CliInputError(f"--grid must be at most {MAX_GRID}, got {args.grid}")
    scenario = _scenario(args, "xi3", "corr13", "corr23", "mean_s2x3", "mean_s1x3")
    report = domain_shrinkage_demo(
        scenario.fixed_mean_parameters(),
        scenario.fixed_correlation_parameters(),
        grid_points=args.grid,
        thorough=args.thorough,
        seed=args.seed,
    )
    doc = {
        "dims": report.dims,
        "grid_points": report.grid_points,
        "thorough": report.thorough,
        "total": report.total,
        "mean_kind_count": report.mean_kind_count,
        "corr_kind_count": report.corr_kind_count,
        "mean_only_count": report.mean_only_count,
        "corr_only_count": report.corr_only_count,
        "mean_undecided_count": report.mean_undecided_count,
        "corr_undecided_count": report.corr_undecided_count,
        "mean_only_examples": report.mean_only_examples(),
    }
    if args.csv:
        lines = ["v1,v2,v3,mean_kind,corr_kind"]
        for row, a, b in zip(report.samples, report.mean_kind_ok, report.corr_kind_ok):
            lines.append(
                ",".join(repr(float(x)) for x in row) + f",{int(a)},{int(b)}"
            )
        _write_text(args.csv, "\n".join(lines) + "\n")
    _emit(doc, args.out)
    return EXIT_OK


def cmd_domain(args) -> int:
    decode, _, kind = _KINDS[args.kind]
    params = decode(_load_json(args.params))
    v = _parse_vector(args.mean, "--mean")
    n = params.dims[0]
    try:
        query = DomainQuery(
            mean_vector=MeanValueVector(dim=n, components=v), parameters=params, kind=kind
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    result = compatible(query, thorough=args.thorough)
    doc = {
        "compatible": result.compatible,
        "min_eigenvalue": result.min_eigenvalue,
        "method": result.method,
        "iterations": result.iterations,
        "witness": result.witness,
        "verdict": result.verdict,
        "certified": result.certificate is not None,
    }
    _emit(doc, args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the process."""
    parser = argparse.ArgumentParser(
        prog="openmap",
        description="Build, analyze, and invert affine subsystem maps from bipartite unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=None)

    def command(name, func, text):
        p = sub.add_parser(name, parents=[output], help=text)
        p.set_defaults(func=func)
        return p

    p_build = command("build", cmd_build, "build a map from a unitary and a params file")
    p_build.add_argument("--kind", choices=list(_KINDS), required=True)
    p_build.add_argument("--unitary", required=True, help="MatrixJSON file")
    p_build.add_argument("--params", required=True, help="params JSON file")

    p_analyze = command("analyze", cmd_analyze, "invertibility + CP + realizability report")
    p_analyze.add_argument("map", help="AffineMap JSON file")

    p_invert = command("invert", cmd_invert, "invert a map file")
    p_invert.add_argument("map", help="AffineMap JSON file")

    p_demo = command("demo", cmd_demo, "two-qubit scenarios with closed-form oracles")
    p_demo.add_argument("name", choices=["fixed-mean", "fixed-corr", "disconnect", "domain"])
    p_demo.add_argument("--gamma", type=finite_number, default=np.pi / 3)
    p_demo.add_argument("--xi3", type=finite_number, default=0.0)
    p_demo.add_argument("--corr13", type=finite_number, default=0.0)
    p_demo.add_argument("--corr23", type=finite_number, default=0.0)
    p_demo.add_argument("--mean-s2x3", type=finite_number, default=0.0, dest="mean_s2x3")
    p_demo.add_argument("--mean-s1x3", type=finite_number, default=0.0, dest="mean_s1x3")
    p_demo.add_argument("--bloch", default="1,0,0", help="initial means v1,v2,v3")
    p_demo.add_argument("--contrast", default=None, help="second initial means for disconnect")
    p_demo.add_argument(
        "--grid", type=positive_int, default=20,
        help=f"grid points per axis, at most {MAX_GRID} (domain)",
    )
    p_demo.add_argument("--thorough", action="store_true", help="feasibility search (domain)")
    p_demo.add_argument("--csv", default=None, help="write the domain grid as CSV (domain)")
    p_demo.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
    p_demo.add_argument("--tol", type=finite_non_negative, default=None)

    p_domain = command("domain", cmd_domain, "compatibility of one mean vector with params")
    p_domain.add_argument("--kind", choices=list(_KINDS), required=True)
    p_domain.add_argument("--params", required=True, help="params JSON file")
    p_domain.add_argument("--mean", required=True, help="mean vector v1,v2,...")
    p_domain.add_argument("--thorough", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CliPreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
