"""The four workloads: inputs from the seed, one task, and its output checks.

Every workload is a closed loop with one caller: the harness asks for an
input, runs the task, checks the output outside the timed region, and only
then asks for the next input. Tasks call openmap through ``self.t.call`` so
that the traced run can record a span around each call; only names the
``openmap`` package exports are used, with default arguments, plus
``openmap.cli`` for the CLI workload.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import openmap as om
from openmap import cli

from . import reference as ref
from .spans import NULL_TRACER


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """QR of a complex Ginibre matrix with the phases of R's diagonal fixed."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    p = z @ z.conj().T
    p = (p + p.conj().T) / 2
    return p / np.trace(p).real


def alloc_mb(fn, *args) -> tuple[float, float]:
    """Memory fn(*args) keeps in its result, and its peak above the start, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (current - before) / 2**20, (peak - before) / 2**20


@dataclass
class Analysis:
    invertibility: object
    choi: object
    realizability: object
    inverse: object


def analyse(call, m) -> Analysis:
    """What `openmap analyze` and `openmap invert` do with one map."""
    return Analysis(
        call("analysis.invertibility", om.invertibility, m),
        call("analysis.choi_analysis", om.choi_analysis, m.homogeneous),
        call("analysis.dynamics_realizability", om.dynamics_realizability, m),
        call("analysis.invert", om.invert, m),
    )


def check_analysis(m, a: Analysis, rng: np.random.Generator) -> list[str]:
    rep, offset = m.homogeneous.rep, m.offset
    return (
        ref.check_invertible(rep, a.invertibility.invertible)
        + ref.check_choi(rep, a.choi.is_cp, a.choi.kraus_factors, rng)
        + ref.check_realizability(rep, offset, a.realizability.verdict)
        + ref.check_round_trip(rep, offset, a.inverse.homogeneous.rep, a.inverse.offset, rng)
    )


@dataclass
class BuiltMap:
    """A map together with what it was built from, for the definition check."""

    map: object
    u: np.ndarray
    sigma_r: np.ndarray
    coeffs: np.ndarray  # fixed means, or correlations in [1:, 1:]
    unital: bool

    def check(self, rng: np.random.Generator) -> list[str]:
        return ref.check_map(
            self.map.homogeneous.rep, self.map.offset, self.u, self.sigma_r, self.coeffs, rng, self.unital
        )


def fixed_mean_inputs(rng: np.random.Generator, dims: tuple[int, int]):
    """A Haar unitary and every mean (mu, nu >= 1) fixed, uniform in (-0.1, 0.1)."""
    n, m = dims
    u = haar_unitary(rng, n * m)
    coeffs = np.zeros((n * n, m * m))
    coeffs[:, 1:] = rng.uniform(-0.1, 0.1, size=(n * n, m * m - 1))
    params = om.FixedMeanParameters(
        dims, {(mu, nu): coeffs[mu, nu] for mu in range(n * n) for nu in range(1, m * m)}
    )
    return u, params, np.eye(m) / m, coeffs


def fixed_corr_inputs(rng: np.random.Generator, dims: tuple[int, int], u=None):
    """A random partner state and a full correlation table, uniform in (-0.05, 0.05)."""
    n, m = dims
    u = haar_unitary(rng, n * m) if u is None else u
    rho = random_density(rng, m)
    coeffs = np.zeros((n * n, m * m))
    coeffs[1:, 1:] = rng.uniform(-0.05, 0.05, size=(n * n - 1, m * m - 1))
    params = om.FixedCorrelationParameters(
        dims, om.DensityMatrix(m, rho), om.CorrelationTable(coeffs[1:, 1:])
    )
    return u, params, rho, coeffs


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path, repeats: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.root = root
        self.repeats = repeats
        self.t = NULL_TRACER

    def setup(self) -> None:
        """Build the fixed inputs. Runs once, before warm-up and timing."""

    def next_input(self):
        raise NotImplementedError

    def task(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def probe(self, inp, out) -> None:
        """Traced run only: time inner layer calls by calling them directly."""

    def layer_metrics(self) -> dict[str, float]:
        """Traced run only: per-layer values that are not span sums."""
        return {}


class UnitaryBuild(Workload):
    """(2,8): a fresh Haar unitary per task, both maps built and analysed."""

    name = "unitary-build"
    dims = (2, 8)

    def next_input(self):
        mean = fixed_mean_inputs(self.rng, self.dims)
        corr = fixed_corr_inputs(self.rng, self.dims, u=mean[0])
        return mean, corr

    def task(self, inp):
        c = self.t.call
        (u, mean_params, _, _), (_, corr_params, _, _) = inp
        basis = c("mapgen.canonical_joint_basis", om.canonical_joint_basis, self.dims)
        fm = c("mapgen.fixed_mean_value_map", om.fixed_mean_value_map, u, mean_params)
        fc = c("mapgen.fixed_correlation_map", om.fixed_correlation_map, u, corr_params)
        tm = c("superop.transfer_matrix", om.transfer_matrix, u, basis)
        detected = c("mapgen.detect_parameters", om.detect_parameters, tm)
        return fm, fc, detected, analyse(c, fm), analyse(c, fc)

    def check(self, inp, out) -> list[str]:
        (u, _, eye_r, mean_coeffs), (_, _, rho, corr_coeffs) = inp
        fm, fc, detected, fm_analysis, fc_analysis = out
        rng = self.check_rng
        failures = BuiltMap(fm, u, eye_r, mean_coeffs, True).check(rng)
        failures += BuiltMap(fc, u, rho, corr_coeffs, False).check(rng)
        failures += check_analysis(fm, fm_analysis, rng) + check_analysis(fc, fc_analysis, rng)
        expected, near = ref.parameter_indices(u, *self.dims)
        if (set(detected.fixed_mean_indices) ^ expected) - near:
            failures.append("detected parameters differ from the transfer rows")
        return failures

    def layer_metrics(self) -> dict[str, float]:
        (u, *_), _ = self.next_input()
        basis = om.canonical_joint_basis(self.dims)
        peaks = [alloc_mb(om.transfer_matrix, u, basis)[1] for _ in range(self.repeats)]
        return {
            "superop.transfer_matrix.peak_alloc_mb": max(peaks),
            "mapgen.canonical_joint_basis.alloc_mb": alloc_mb(om.canonical_joint_basis, self.dims)[0],
        }


class MapAnalysis(Workload):
    """N=6 maps from (6,2) unitaries, built in set-up; a task analyses one."""

    name = "map-analysis"
    dims = (6, 2)
    pool_size = 32  # consecutive tasks get distinct maps; openmap caches nothing between calls

    def setup(self) -> None:
        c = self.t.call
        self.pool: list[BuiltMap] = []
        for k in range(self.pool_size):
            if k % 2 == 0:
                u, params, sigma, coeffs = fixed_mean_inputs(self.rng, self.dims)
                m = c("mapgen.fixed_mean_value_map", om.fixed_mean_value_map, u, params)
            else:
                u, params, sigma, coeffs = fixed_corr_inputs(self.rng, self.dims)
                m = c("mapgen.fixed_correlation_map", om.fixed_correlation_map, u, params)
            self.pool.append(BuiltMap(m, u, sigma, coeffs, k % 2 == 0))
        self.map_failures: dict[int, list[str]] = {}
        self.count = 0

    def next_input(self):
        self.count += 1
        return self.count % self.pool_size

    def task(self, inp):
        return analyse(self.t.call, self.pool[inp].map)

    def check(self, inp, out) -> list[str]:
        built = self.pool[inp]
        if inp not in self.map_failures:
            self.map_failures[inp] = built.check(self.check_rng)
        return self.map_failures[inp] + check_analysis(built.map, out, self.check_rng)


# The (2,2) scenario: nonzero fixed means on (1,3) and (2,3), partner
# polarization xi3, and correlations Gamma13 and Gamma23 specified with the
# others free. These values put about a third of the queries on the search
# path and about a sixth into searches that exhaust their iterations, so p50
# stays on the zero completion and p90 inside the exhausted searches.
DOMAIN_MEANS = {(1, 3): 0.1, (2, 3): 0.1}
DOMAIN_XI3 = 0.3
DOMAIN_GAMMA = {(1, 3): 0.2, (2, 3): 0.2}


def domain_params():
    dims = (2, 2)
    rho = np.diag([1 + DOMAIN_XI3, 1 - DOMAIN_XI3]).astype(complex) / 2
    gamma = np.zeros((3, 3))
    specified = np.zeros((3, 3), dtype=bool)
    for (mu, nu), value in DOMAIN_GAMMA.items():
        gamma[mu - 1, nu - 1] = value
        specified[mu - 1, nu - 1] = True
    mean_params = om.FixedMeanParameters(dims, DOMAIN_MEANS)
    corr_params = om.FixedCorrelationParameters(
        dims, om.DensityMatrix(2, rho), om.CorrelationTable(gamma, specified)
    )
    return mean_params, corr_params, rho, gamma, specified


def domain_witness_failures(witness: np.ndarray, v: np.ndarray, kind: str) -> list[str]:
    """Check a witness against the domain scenario's fixed coordinates."""
    fixed = np.zeros((4, 4), dtype=bool)
    values = np.zeros((4, 4))
    partner = correlations = None
    if kind == "fixed-mean-value":
        for (mu, nu), value in DOMAIN_MEANS.items():
            fixed[mu, nu] = True
            values[mu, nu] = value
    else:
        _, _, rho, gamma, specified = domain_params()
        partner = np.array([np.trace(f @ rho).real for f in ref.gell_mann(2)[1:]])
        correlations = (gamma, specified)
    return ref.check_witness(witness, v, fixed, values, (2, 2), partner, correlations)


def _search_limit() -> int | None:
    parameter = inspect.signature(om.compatible).parameters.get("max_iterations")
    return None if parameter is None else parameter.default


def _radical_inverse(i: int, base: int) -> float:
    scale, value = 1.0, 0.0
    while i:
        scale /= base
        value += scale * (i % base)
        i //= base
    return value


def ball_points(rng: np.random.Generator):
    """Points uniform in the unit ball: a Halton sequence shifted at random mod 1.

    Every point is uniformly distributed, as independent draws would be, but
    the share of points in any region varies far less between seeds, so the
    mix of zero-completion and search tasks is nearly the same in every run.
    """
    shift = rng.uniform(size=3)
    i = 0
    while True:
        i += 1
        u = (np.array([_radical_inverse(i, b) for b in (2, 3, 5)]) + shift) % 1.0
        z, phi = 2.0 * u[1] - 1.0, 2.0 * np.pi * u[2]
        side = np.sqrt(1.0 - z * z)
        yield u[0] ** (1 / 3) * np.array([side * np.cos(phi), side * np.sin(phi), z])


class DomainScan(Workload):
    """One thorough compatible() query per task; each point is asked under both kinds in turn."""

    name = "domain-scan"
    dims = (2, 2)

    def setup(self) -> None:
        self.mean_params, self.corr_params, *_ = domain_params()
        self.points = ball_points(self.rng)
        self.count = 0
        self.stats = dict(calls=0, searches=0, iterations=0, exhausted=0, compatible=0, witnessed=0)
        self.limit = _search_limit()

    def next_input(self):
        """A point of the Bloch ball, the set of valid mean vectors, and a kind."""
        self.count += 1
        if self.count % 2:
            self.point = next(self.points)
            kind, params = "fixed-mean-value", self.mean_params
        else:
            kind, params = "fixed-correlation", self.corr_params
        v = self.point
        return v, kind, om.DomainQuery(om.MeanValueVector(2, v), params, kind)

    def task(self, inp):
        return self.t.call(
            "domain.compatible", om.compatible, inp[2], thorough=True,
            rename=lambda r: "domain.zero_completion" if r.method == "zero-completion" else "domain.search",
        )

    def check(self, inp, out) -> list[str]:
        v, kind, _ = inp
        s = self.stats
        s["calls"] += 1
        if out.method != "zero-completion":
            s["searches"] += 1
            s["iterations"] += out.iterations
            s["exhausted"] += self.limit is not None and out.iterations >= self.limit
        failures = []
        if out.witness is not None:
            failures = domain_witness_failures(out.witness, v, kind)
        if out.compatible:
            s["compatible"] += 1
            s["witnessed"] += out.witness is not None and not failures
        return failures

    def probe(self, inp, out) -> None:
        # compatible() rebuilds the joint basis once per call
        self.t.call("mapgen.canonical_joint_basis", om.canonical_joint_basis, self.dims)

    def layer_metrics(self) -> dict[str, float]:
        s = self.stats
        return {
            "domain.search_share": s["searches"] / max(s["calls"], 1),
            "domain.iterations_per_search": s["iterations"] / max(s["searches"], 1),
            "domain.exhausted_share": s["exhausted"] / max(s["searches"], 1),
            "domain.witness_ratio": s["witnessed"] / max(s["compatible"], 1),
            "mapgen.canonical_joint_basis.alloc_mb": alloc_mb(om.canonical_joint_basis, self.dims)[0],
        }


DEMO_GAMMA = np.pi / 3  # the CLI's default angle
DOMAIN_QUERY = "0.1,0.2,0.3"


class CliSession(Workload):
    """A fixed cycle of in-process `openmap` commands; one task is one cycle."""

    name = "cli-session"

    def setup(self) -> None:
        d = self.workdir
        self.u22, mean22, _, self.mean22_coeffs = fixed_mean_inputs(self.rng, (2, 2))
        self.u24, corr24, self.rho24, self.corr24_coeffs = fixed_corr_inputs(self.rng, (2, 4))
        self.docs = {"u22": ref.matrix_to_json(self.u22), "u24": ref.matrix_to_json(self.u24)}
        files = {
            "u22.json": self.docs["u22"],
            "u24.json": self.docs["u24"],
            "mean22.json": {
                "dims": [2, 2],
                "means": [[mu, nu, v] for (mu, nu), v in mean22.fixed_means.items()],
            },
            "corr24.json": {
                "dims": [2, 4],
                "rho_r": ref.matrix_to_json(self.rho24),
                "gamma": [
                    [mu, nu, float(self.corr24_coeffs[mu, nu])] for mu in range(1, 4) for nu in range(1, 16)
                ],
            },
            "corr22.json": {
                "dims": [2, 2],
                "rho_r": ref.matrix_to_json(domain_params()[2]),
                "gamma": [[mu, nu, v] for (mu, nu), v in DOMAIN_GAMMA.items()],
            },
        }
        for filename, doc in files.items():
            (d / filename).write_text(json.dumps(doc))

        def p(name: str) -> str:
            return str(d / name)

        self.cycle = (
            ("build", ["build", "--kind", "fixed-mean", "--unitary", p("u22.json"),
                       "--params", p("mean22.json"), "--out", p("map22.json")]),
            ("build", ["build", "--kind", "fixed-corr", "--unitary", p("u24.json"),
                       "--params", p("corr24.json"), "--out", p("map24.json")]),
            ("analyze", ["analyze", p("map24.json"), "--out", p("analysis24.json")]),
            ("invert", ["invert", p("map24.json"), "--out", p("inverse24.json")]),
            ("domain", ["domain", "--kind", "fixed-corr", "--params", p("corr22.json"),
                        "--mean", DOMAIN_QUERY, "--out", p("domain.json")]),
            ("demo-fixed-mean", ["demo", "fixed-mean", "--out", p("demo-fixed-mean.json")]),
            ("demo-fixed-corr", ["demo", "fixed-corr", "--out", p("demo-fixed-corr.json")]),
            ("demo-disconnect", ["demo", "disconnect", "--out", p("demo-disconnect.json")]),
        )
        # the in-process reference the analyze output must agree with
        map24 = om.fixed_correlation_map(self.u24, corr24)
        self.reference = (
            om.invertibility(map24),
            om.choi_analysis(map24.homogeneous),
            om.dynamics_realizability(map24),
        )
        self.encoded = (om.fixed_mean_value_map(self.u22, mean22), map24, om.invert(map24))
        self.docs["map24"] = json.loads(json.dumps(cli.affine_map_to_json(map24)))

    def next_input(self):
        return None

    def task(self, inp):
        return [self.t.call(f"cli.main.{name}", cli.main, argv) for name, argv in self.cycle]

    def _consume(self, name: str):
        """Read a command's output and delete it, so that the next cycle must write it anew."""
        path = self.workdir / f"{name}.json"
        try:
            return json.loads(path.read_text())
        finally:
            path.unlink(missing_ok=True)

    def check(self, inp, out) -> list[str]:
        failures = [f"{name} exited {code}" for (name, _), code in zip(self.cycle, out) if code != 0]
        if failures:
            return failures
        rng = self.check_rng
        try:
            docs = {name: self._consume(name) for name in (
                "map22", "map24", "analysis24", "inverse24", "domain",
                "demo-fixed-mean", "demo-fixed-corr", "demo-disconnect")}
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable command output: {exc}"]
        maps = {}
        for key, u, sigma, coeffs, unital in (
            ("map22", self.u22, np.eye(2) / 2, self.mean22_coeffs, True),
            ("map24", self.u24, self.rho24, self.corr24_coeffs, False),
        ):
            rep = ref.matrix_from_json(docs[key]["homogeneous"])
            offset = ref.matrix_from_json(docs[key]["offset"])
            maps[key] = rep, offset
            failures += ref.check_map(rep, offset, u, sigma, coeffs, rng, unital)
            expected, near = ref.parameter_indices(u, 2, u.shape[0] // 2)
            detected = {tuple(pair) for pair in docs[key]["detected_parameters"]["fixed_mean"]}
            if (detected ^ expected) - near:
                failures.append(f"{key}: detected parameters differ from the transfer rows")
        inv = docs["inverse24"]
        failures += ref.check_round_trip(
            *maps["map24"], ref.matrix_from_json(inv["homogeneous"]), ref.matrix_from_json(inv["offset"]), rng
        )
        failures += self._check_analyze(docs["analysis24"])
        dom = docs["domain"]
        if dom["witness"] is not None:
            v = np.array([float(x) for x in DOMAIN_QUERY.split(",")])
            failures += domain_witness_failures(ref.matrix_from_json(dom["witness"]), v, "fixed-correlation")
        for name in ("demo-fixed-mean", "demo-fixed-corr", "demo-disconnect"):
            if docs[name].get("ok") is not True:
                failures.append(f"{name}: ok flag is not true")
        return failures

    def _check_analyze(self, doc: dict) -> list[str]:
        inv, cp, real = self.reference
        expected = {
            "invertible": inv.invertible,
            "kernel_dimension": inv.kernel_dimension,
            "is_cp": cp.is_cp,
            "is_tp": cp.is_tp,
            "is_unital": cp.is_unital,
            "choi_rank": cp.choi_rank,
            "realizability": real.verdict,
        }
        failures = [f"analyze {k}: {doc.get(k)!r} != {v!r}" for k, v in expected.items() if doc.get(k) != v]
        eig_dev = np.abs(np.sort(doc["choi_eigenvalues"]) - np.sort(cp.choi_eigenvalues)).max()
        if not eig_dev <= ref.MAP_TOL:
            failures.append(f"analyze choi_eigenvalues deviate by {eig_dev:.3e}")
        if not abs(doc["smallest_singular_value"] - inv.smallest_singular_value) <= ref.MAP_TOL:
            failures.append("analyze smallest_singular_value differs from the in-process value")
        return failures

    def probe(self, inp, out) -> None:
        c = self.t.call
        for key in ("u22", "u24"):  # each build decodes a unitary
            c("cli.decode", cli.matrix_from_json, self.docs[key])
        for _ in range(2):  # analyze and invert decode the map
            c("cli.decode", cli.affine_map_from_json, self.docs["map24"])
        for m in self.encoded:  # the two builds and invert encode a map
            c("cli.encode", cli.affine_map_to_json, m)
        c("twoqubit.reproduce_fixed_mean", om.reproduce_fixed_mean, om.TwoQubitScenario(gamma=DEMO_GAMMA))
        c("twoqubit.reproduce_fixed_corr", om.reproduce_fixed_corr, om.TwoQubitScenario(gamma=DEMO_GAMMA))
        c("twoqubit.disconnection_demo", om.disconnection_demo, DEMO_GAMMA, np.array([1.0, 0.0, 0.0]), None)

    def layer_metrics(self) -> dict[str, float]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        bare, imported, cold = [], [], []
        out = str(self.workdir / "cold.json")
        for _ in range(self.repeats):
            bare.append(_wall([sys.executable, "-c", "pass"], env, self.root))
            imported.append(_wall([sys.executable, "-c", "import openmap.cli"], env, self.root))
            cold.append(_wall([sys.executable, "-m", "openmap.cli", "demo", "fixed-mean", "--out", out], env, self.root))
        return {
            "cli.import_ms": 1e3 * (float(np.median(imported)) - float(np.median(bare))),
            "cli.cold_command_ms": 1e3 * float(np.median(cold)),
        }


def _wall(cmd: list[str], env: dict, cwd: Path) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (UnitaryBuild, MapAnalysis, DomainScan, CliSession)}
