"""End-to-end acceptance criteria.

Every criterion prints one PASS/FAIL line (echoed in the terminal summary)
with the measured quantity and its pinned tolerance. Runtime-bounded
criteria time themselves.
"""

import time

import numpy as np

from openmap import (
    GAMMA_SWEEP,
    XI3_SWEEP,
    AffineMap,
    DensityMatrix,
    FixedCorrelationParameters,
    FixedMeanParameters,
    InconsistentCriteriaError,
    JointBasis,
    TwoQubitScenario,
    apply,
    choi_analysis,
    compose,
    conjugation_superoperator,
    disconnection_demo,
    dynamics_realizability,
    fixed_correlation_map,
    fixed_mean_value_map,
    invert,
    invertibility,
    build_basis,
    mean_affine,
    purity_inequality,
    reproduce_fixed_corr,
    reproduce_fixed_mean,
    transfer_matrix,
    two_qubit_unitary,
)
from conftest import (
    random_corr_params,
    random_hermitian,
    random_mean_params,
    random_unitary,
    record_acceptance,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

DIMS = [(2, 2), (2, 3), (3, 2)]


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    record_acceptance(line)
    return ok


def _l_map(g, means=None):
    return fixed_mean_value_map(
        two_qubit_unitary(g), FixedMeanParameters((2, 2), means or {})
    )


def test_criterion_01_mean_value_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for g in GAMMA_SWEEP:
        m = _l_map(g)
        c = np.cos(g)
        for q, want in (
            (np.eye(2, dtype=complex), np.eye(2)),
            (SX, c * SX),
            (SY, c * SY),
            (SZ, SZ),
        ):
            worst = max(worst, float(np.abs(apply(m, q) - want).max()))
        ma = mean_affine(m)
        worst = max(worst, float(np.abs(ma.matrix - np.diag([c, c, 1.0])).max()))
        worst = max(worst, float(np.abs(ma.shift).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(
        1, ok, f"mean-value closed forms: max dev {worst:.2e} < 1e-10, {elapsed:.2f}s < 1s"
    )


def test_criterion_02_offset_closed_form():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(-1, 1, size=2)
        g = rng.uniform(0, 2 * np.pi)
        m = _l_map(g, {(2, 3): a, (1, 3): b})
        closed = (-a * SX + b * SY) * np.sin(g)
        worst = max(worst, float(np.abs(2 * m.offset - closed).max()))
    ok = worst < 1e-10
    assert _report(2, ok, f"offset vs general sum, 50 random pairs: max dev {worst:.2e} < 1e-10")


def test_criterion_03_fixed_corr_pipeline():
    worst = 0.0
    flips_wrong = 0
    singular_points = 0
    for g in GAMMA_SWEEP:
        for x in XI3_SWEEP:
            rep = reproduce_fixed_corr(
                TwoQubitScenario(gamma=g, xi3=x, corr13=0.3, corr23=-0.2),
                tolerance=1e-10,
            )
            worst = max(worst, rep.max_deviation)
            if not rep.ok:
                flips_wrong += 1
                continue
            rho = DensityMatrix(2, np.diag([(1 + x) / 2, (1 - x) / 2]).astype(complex))
            params = FixedCorrelationParameters((2, 2), rho, np.zeros((3, 3)))
            m = fixed_correlation_map(two_qubit_unitary(g), params)
            det = np.cos(g) ** 2 + x * x * np.sin(g) ** 2
            want_invertible = det > 1e-12
            if not want_invertible:
                singular_points += 1
            if invertibility(m).invertible != want_invertible:
                flips_wrong += 1
    ok = worst < 1e-10 and flips_wrong == 0 and singular_points > 0
    assert _report(
        3,
        ok,
        f"fixed-correlation sweep {len(GAMMA_SWEEP)}x{len(XI3_SWEEP)}: max dev "
        f"{worst:.2e} < 1e-10, verdict flips exactly at det < 1e-12 "
        f"({singular_points} singular points, {flips_wrong} mismatches)",
    )


def test_criterion_04_inverse_round_trip():
    rng = np.random.default_rng(1004)
    probes = {
        n: [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(100)]
        for n in (2, 3)
    }
    worst = 0.0
    count = 0
    for kind in ("mean", "corr"):
        for i in range(20):
            dims = DIMS[i % len(DIMS)]
            n, m = dims
            while True:
                u = random_unitary(rng, n * m)
                if kind == "mean":
                    mp = fixed_mean_value_map(u, random_mean_params(rng, dims))
                else:
                    mp = fixed_correlation_map(u, random_corr_params(rng, dims))
                if invertibility(mp).invertible:
                    break
            c = compose(invert(mp), mp)
            count += 1
            for q in probes[n]:
                worst = max(worst, float(np.abs(apply(c, q) - q).max()))
    ok = worst < 1e-10 and count == 40
    assert _report(
        4,
        ok,
        f"inverse round trip, {count} instances x 100 matrices: max dev {worst:.2e} < 1e-10",
    )


def test_criterion_05_cp_verdicts():
    rng = np.random.default_rng(1005)
    min_eig = np.inf
    kraus_err = 0.0
    for dims in DIMS:
        n, m = dims
        for _ in range(3):
            u = random_unitary(rng, n * m)
            lmap = fixed_mean_value_map(u, random_mean_params(rng, dims))
            dmap = fixed_correlation_map(u, random_corr_params(rng, dims))
            for mp in (lmap, dmap):
                rep = choi_analysis(mp.homogeneous)
                min_eig = min(min_eig, float(rep.choi_eigenvalues.min()))
                if rep.is_cp:
                    for _ in range(5):
                        q = random_hermitian(rng, n)
                        rebuilt = sum(k @ q @ k.conj().T for k in rep.kraus_factors)
                        kraus_err = max(
                            kraus_err, float(np.abs(rebuilt - mp.homogeneous(q)).max())
                        )
    inv_eigs = choi_analysis(invert(_l_map(np.pi / 3)).homogeneous).choi_eigenvalues
    neg = float(inv_eigs.min())
    ok = min_eig >= -1e-10 and neg < -1e-3 and kraus_err < 1e-10
    assert _report(
        5,
        ok,
        f"CP verdicts: generated-map Choi min eig {min_eig:.2e} >= -1e-10, inverse "
        f"Choi eig {neg:.3f} < -1e-3, Kraus error {kraus_err:.2e} < 1e-10",
    )


def test_criterion_06_purity_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = np.inf
    for i in range(20):
        dims = DIMS[i % len(DIMS)]
        n, m = dims
        u = random_unitary(rng, n * m)
        params = FixedCorrelationParameters(
            dims, DensityMatrix(m, np.eye(m, dtype=complex) / m), np.zeros((n * n - 1, m * m - 1))
        )
        d = fixed_correlation_map(u, params)
        worst = min(worst, purity_inequality(d.homogeneous, samples=50, seed=1006 + i))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10 and elapsed < 5.0
    assert _report(
        6,
        ok,
        f"purity inequality, 20 unital instances x 50 states: min slack {worst:.2e} "
        f">= -1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_07_realizability_theorem():
    rng = np.random.default_rng(1007)
    wrong = 0
    if dynamics_realizability(_l_map(np.pi / 3)).verdict != "inverse-not-realizable":
        wrong += 1
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        u = random_unitary(rng, n)
        m = AffineMap(conjugation_superoperator(u), np.zeros((n, n)), "plain")
        if dynamics_realizability(m).verdict != "inverse-realizable":
            wrong += 1
    ok = wrong == 0
    assert _report(
        7, ok, f"realizability: open map + 20 unitary conjugations, {wrong} misclassifications"
    )


def test_criterion_08_disconnection():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-1, 1, size=3)
        norm = np.linalg.norm(v)
        if norm > 1:
            v /= norm
        t = disconnection_demo(rng.uniform(0, 2 * np.pi), v)
        worst = max(worst, t.round_trip_deviation)
    t = disconnection_demo(np.pi / 4, [1.0, 0.0, 0.0], contrast_means=[0.0, 1.0, 0.0])
    diff = t.contrast.offset_difference
    ok = worst < 1e-12 and diff > 0.1
    assert _report(
        8,
        ok,
        f"disconnection: 100 round trips max dev {worst:.2e} < 1e-12, backward-offset "
        f"contrast {diff:.3f} > 0.1",
    )


def test_criterion_09_transfer_orthogonality():
    rng = np.random.default_rng(1009)
    worst = 0.0
    total = 0
    for i, dims in enumerate(DIMS):
        n, m = dims
        jb = JointBasis(build_basis(n), build_basis(m))
        k = n * n * m * m
        for _ in range(17 if i < 2 else 16):
            tm = transfer_matrix(random_unitary(rng, n * m), jb)
            worst = max(worst, float(np.abs(tm.t.T @ tm.t - np.eye(k)).max()))
            total += 1
    ok = worst < 1e-12 and total == 50
    assert _report(
        9, ok, f"transfer orthogonality, {total} unitaries at 3 dim pairs: max dev {worst:.2e} < 1e-12"
    )


def test_criterion_10_criteria_equivalence():
    rng = np.random.default_rng(1010)
    disagreements = 0
    inconsistent_reports = 0
    singular_seen = 0
    maps = []
    for i in range(20):
        maps.append(_l_map(np.pi / 2, {(1, 3): rng.uniform(-1, 1)}))
    for i in range(180):
        dims = DIMS[i % len(DIMS)]
        n, m = dims
        u = random_unitary(rng, n * m)
        if i % 2 == 0:
            maps.append(fixed_mean_value_map(u, random_mean_params(rng, dims)))
        else:
            maps.append(fixed_correlation_map(u, random_corr_params(rng, dims)))
    for mp in maps:
        try:
            rep = invertibility(mp)
        except InconsistentCriteriaError:
            disagreements += 1
            continue
        n2 = mp.dim**2
        consistent = (
            rep.invertible
            == (rep.kernel_dimension == 0)
            == (rep.basis_image_rank == n2)
            == (rep.mean_map_kernel_dimension == 0)
        )
        if not consistent:
            inconsistent_reports += 1
        if not rep.invertible:
            singular_seen += 1
    ok = disagreements == 0 and inconsistent_reports == 0 and singular_seen >= 20
    assert _report(
        10,
        ok,
        f"invertibility criteria on {len(maps)} maps ({singular_seen} singular): "
        f"{disagreements} disagreements, {inconsistent_reports} inconsistent reports",
    )
