"""Map construction from a joint unitary: both families, parameters, unitalization."""

import numpy as np
import pytest

from openmap import (
    CorrelationTable,
    DensityMatrix,
    FixedCorrelationParameters,
    FixedMeanParameters,
    JointState,
    apply,
    build_basis,
    canonical_joint_basis,
    detect_parameters,
    fixed_correlation_map,
    fixed_mean_value_map,
    heisenberg_means,
    is_hermiticity_preserving,
    is_trace_preserving,
    is_unital,
    mean_vector,
    partial_trace_r,
    transfer_matrix,
    two_qubit_unitary,
    unitalize,
)
from openmap.mapgen import _assignment_map
from conftest import (
    random_corr_params,
    random_density,
    random_mean_params,
    random_unitary,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

DIMS = [(2, 2), (2, 3), (3, 2)]


def _bloch_state(v, n):
    b = build_basis(n)
    acc = np.eye(n, dtype=complex)
    acc += np.einsum("a,aij->ij", np.asarray(v, dtype=float), b.elements[1:])
    return acc / n


def _swap_mix(theta):
    # exp(-i theta SWAP) = cos(theta) 1 - i sin(theta) SWAP, since SWAP^2 = 1
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    return np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * swap


@pytest.mark.parametrize("dims", DIMS)
def test_fixed_mean_map_reproduces_joint_evolution(dims):
    # the defining property: for any joint state whose means match the
    # parameters, applying the map to the reduced state equals reducing
    # the conjugated joint state
    n, m = dims
    rng = np.random.default_rng(101 + n * m)
    jb = canonical_joint_basis(dims)
    for _ in range(5):
        u = random_unitary(rng, n * m)
        params = random_mean_params(rng, dims)
        mv_map = fixed_mean_value_map(u, params, basis=jb)
        v = rng.uniform(-0.5, 0.5, size=n * n - 1)
        table = np.zeros((n * n, m * m))
        table[0, 0] = 1.0
        table[1:, 0] = v
        for (mu, nu), value in params.fixed_means.items():
            table[mu, nu] = value
        pi = JointState(jb, table).to_matrix()
        lhs = apply(mv_map, _bloch_state(v, n))
        rhs = partial_trace_r(u @ pi @ u.conj().T, dims)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("dims", DIMS)
def test_fixed_corr_map_reproduces_joint_evolution(dims):
    n, m = dims
    rng = np.random.default_rng(113 + n * m)
    jb = canonical_joint_basis(dims)
    br = build_basis(m)
    for _ in range(5):
        u = random_unitary(rng, n * m)
        params = random_corr_params(rng, dims)
        corr_map = fixed_correlation_map(u, params, basis=jb)
        v = rng.uniform(-0.5, 0.5, size=n * n - 1)
        r = mean_vector(br, params.rho_r.matrix).components
        table = np.zeros((n * n, m * m))
        table[0, 0] = 1.0
        table[1:, 0] = v
        table[0, 1:] = r
        table[1:, 1:] = np.outer(v, r) + params.gamma.gamma
        pi = JointState(jb, table).to_matrix()
        lhs = apply(corr_map, _bloch_state(v, n))
        rhs = partial_trace_r(u @ pi @ u.conj().T, dims)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("dims", DIMS)
def test_map_structure(dims):
    n, m = dims
    rng = np.random.default_rng(127 + n * m)
    u = random_unitary(rng, n * m)
    mv_map = fixed_mean_value_map(u, random_mean_params(rng, dims))
    corr_map = fixed_correlation_map(u, random_corr_params(rng, dims))
    assert mv_map.kind == "fixed-mean-value"
    assert corr_map.kind == "fixed-correlation"
    for mp in (mv_map, corr_map):
        assert is_trace_preserving(mp.homogeneous)
        assert is_hermiticity_preserving(mp.homogeneous)
        off = mp.offset
        assert abs(np.trace(off)) < 1e-12
        assert np.max(np.abs(off - off.conj().T)) < 1e-12
    # the mean-value family throws the partner in maximally mixed: unital
    assert is_unital(mv_map.homogeneous)


def test_omega_applied_to_identity():
    # Omega(1_S) = 1_S + N K, with K the stored offset
    g = np.pi / 3
    params = FixedMeanParameters((2, 2), {(2, 3): 0.4})
    mv_map = fixed_mean_value_map(two_qubit_unitary(g), params)
    got = apply(mv_map, np.eye(2, dtype=complex))
    assert np.max(np.abs(got - (np.eye(2) + 2.0 * mv_map.offset))) < 1e-12


def test_two_qubit_offset_closed_form():
    # 2K = (-a sx + b sy) sin g for fixed <S2X3> = a, <S1X3> = b
    g = np.pi / 3
    a, b = 0.4, 0.0
    params = FixedMeanParameters((2, 2), {(2, 3): a, (1, 3): b})
    mv_map = fixed_mean_value_map(two_qubit_unitary(g), params)
    want = 0.5 * (-a * SX + b * SY) * np.sin(g)
    assert np.max(np.abs(mv_map.offset - want)) < 1e-12


def test_gamma_zero_gives_zero_offset():
    rng = np.random.default_rng(131)
    u = random_unitary(rng, 6)
    params = FixedCorrelationParameters(
        (2, 3), random_density(rng, 3), np.zeros((3, 8))
    )
    corr_map = fixed_correlation_map(u, params)
    assert np.max(np.abs(corr_map.offset)) < 1e-15


def test_no_fixed_means_gives_zero_offset():
    rng = np.random.default_rng(137)
    u = random_unitary(rng, 4)
    mv_map = fixed_mean_value_map(u, FixedMeanParameters((2, 2), {}))
    assert np.max(np.abs(mv_map.offset)) < 1e-15


def test_gamma_zero_identity_unitary():
    mv_map = fixed_mean_value_map(
        two_qubit_unitary(0.0), FixedMeanParameters((2, 2), {(1, 3): 0.7})
    )
    assert np.max(np.abs(mv_map.offset)) < 1e-15
    q = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    assert np.max(np.abs(apply(mv_map, q) - q)) < 1e-12


def test_non_parameter_means_do_not_change_map():
    # junk values at indices the unitary never reads leave the offset alone
    g = 1.1
    u = two_qubit_unitary(g)
    report = detect_parameters(transfer_matrix(u, canonical_joint_basis((2, 2))))
    assert report.fixed_mean_indices == {(1, 3), (2, 3)}
    base = FixedMeanParameters((2, 2), {(1, 3): 0.3, (2, 3): -0.5})
    junk = dict(base.fixed_means)
    for mu in range(4):
        for nu in range(1, 4):
            if (mu, nu) not in report.fixed_mean_indices:
                junk[(mu, nu)] = 0.9
    noisy = fixed_mean_value_map(u, FixedMeanParameters((2, 2), junk))
    clean = fixed_mean_value_map(u, base)
    assert np.max(np.abs(noisy.offset - clean.offset)) < 1e-12


def test_detect_parameters_two_qubit():
    report = detect_parameters(
        transfer_matrix(two_qubit_unitary(0.8), canonical_joint_basis((2, 2)))
    )
    assert report.fixed_mean_indices == {(1, 3), (2, 3)}
    assert report.environment_mean_indices == frozenset()
    assert report.correlation_indices == {(1, 3), (2, 3)}


def test_detect_parameters_swap_family():
    # a partial swap reads the partner means, not the correlations
    report = detect_parameters(
        transfer_matrix(_swap_mix(np.pi / 2), canonical_joint_basis((2, 2)))
    )
    assert report.environment_mean_indices == {1, 2, 3}
    assert report.fixed_mean_indices == {(0, 1), (0, 2), (0, 3)}
    assert report.correlation_indices == frozenset()


def test_detect_parameters_identity():
    report = detect_parameters(
        transfer_matrix(np.eye(4, dtype=complex), canonical_joint_basis((2, 2)))
    )
    assert report.fixed_mean_indices == frozenset()


def test_heisenberg_means_identity():
    rng = np.random.default_rng(139)
    jb = canonical_joint_basis((2, 3))
    pi = random_density(rng, 6).matrix
    state = JointState(jb, __import__("openmap").means_from_matrix(jb, pi))
    before = state.means[1:, 0]
    after = heisenberg_means(np.eye(6, dtype=complex), state)
    assert np.max(np.abs(after.components - before)) < 1e-12


def test_heisenberg_means_matches_conjugation():
    rng = np.random.default_rng(149)
    for dims in DIMS:
        n, m = dims
        jb = canonical_joint_basis(dims)
        u = random_unitary(rng, n * m)
        pi = random_density(rng, n * m).matrix
        from openmap import means_from_matrix

        state = JointState(jb, means_from_matrix(jb, pi))
        got = heisenberg_means(u, state)
        rho = partial_trace_r(u @ pi @ u.conj().T, dims)
        want = mean_vector(build_basis(n), rho).components
        assert np.max(np.abs(got.components - want)) < 1e-12


def test_heisenberg_two_qubit_example():
    # <S1>' = cos g when <S1> = 1 and <S2 X3> = 0
    g = 0.9
    jb = canonical_joint_basis((2, 2))
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    table[1, 0] = 1.0
    state = JointState(jb, table)
    out = heisenberg_means(two_qubit_unitary(g), state)
    assert abs(out.components[0] - np.cos(g)) < 1e-12


def test_unitalize_already_unital_is_identity_change():
    params = FixedCorrelationParameters(
        (2, 2),
        DensityMatrix(2, np.diag([0.75, 0.25]).astype(complex)),
        np.zeros((3, 3)),
    )
    d = fixed_correlation_map(two_qubit_unitary(1.3), params).homogeneous
    assert is_unital(d)
    e = unitalize(d)
    assert np.max(np.abs(e.rep - d.rep)) < 1e-12


def test_unitalize_non_unital_map():
    params = FixedCorrelationParameters(
        (2, 2),
        DensityMatrix(2, np.diag([0.9, 0.1]).astype(complex)),
        np.zeros((3, 3)),
    )
    d = fixed_correlation_map(_swap_mix(0.7), params).homogeneous
    assert not is_unital(d)
    e = unitalize(d)
    assert is_unital(e)
    assert is_trace_preserving(e)
    # agrees with the original on traceless input
    for q in (SX, SY, np.diag([1.0, -1.0]).astype(complex)):
        assert np.max(np.abs(e(q) - d(q))) < 1e-12


def test_unitalize_state_preparation_map():
    # d(Q) = Tr[Q] rho0 collapses to E(Q) = Tr[Q] 1/N
    rng = np.random.default_rng(157)
    rho0 = random_density(rng, 2).matrix
    from openmap import from_action

    d = from_action(2, lambda q: np.trace(q) * rho0)
    e = unitalize(d)
    for _ in range(10):
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = q + q.conj().T
        want = np.trace(q) * np.eye(2) / 2
        assert np.max(np.abs(e(q) - want)) < 1e-12


def _one_hot_offset(u, jb, mu, nu):
    # the kernel's offset for a one-hot table is Tr_R[U F_{mu nu} U^dag] / (N M)
    n, m = jb.dims
    coeffs = np.zeros((n * n, m * m))
    coeffs[mu, nu] = 1.0
    return _assignment_map(u, np.eye(m) / m, coeffs, jb.dims, jb, "plain").offset


def test_reduced_basis_images_match_transfer_rows():
    # Tr_R[U F_{mu nu} U^dag] = M * sum_alpha t[(alpha 0), (mu nu)] F_alpha
    rng = np.random.default_rng(163)
    for dims in DIMS:
        n, m = dims
        jb = canonical_joint_basis(dims)
        bs = build_basis(n)
        u = random_unitary(rng, n * m)
        tm = transfer_matrix(u, jb)
        for mu in range(n * n):
            for nu in range(m * m):
                col = tm.t[:, jb.flat_index(mu, nu)].reshape(n * n, m * m)[:, 0]
                want = m * np.einsum("a,aij->ij", col, bs.elements)
                got = n * m * _one_hot_offset(u, jb, mu, nu)
                assert np.max(np.abs(got - want)) < 1e-12


def test_single_conjugation_offset_matches_per_mean_sum():
    # one conjugation of X equals the sum of the per-mean reduced images
    rng = np.random.default_rng(167)
    u = random_unitary(rng, 4)
    jb = canonical_joint_basis((2, 2))
    params = FixedMeanParameters((2, 2), {(1, 3): 0.3, (0, 2): -0.4})
    a = fixed_mean_value_map(u, params, basis=jb)
    want = sum(
        value * _one_hot_offset(u, jb, mu, nu) for (mu, nu), value in params.fixed_means.items()
    )
    assert np.max(np.abs(a.offset - want)) < 1e-15
    b = fixed_mean_value_map(u, params)
    assert np.max(np.abs(a.offset - b.offset)) < 1e-15


def test_parameter_validation():
    with pytest.raises(ValueError):
        FixedMeanParameters((2, 2), {(0, 0): 1.0})  # nu must be >= 1
    with pytest.raises(ValueError):
        FixedMeanParameters((2, 2), {(4, 1): 1.0})
    with pytest.raises(ValueError):
        FixedCorrelationParameters(
            (2, 2), DensityMatrix(3, np.eye(3) / 3), np.zeros((3, 3))
        )
    with pytest.raises(ValueError):
        FixedCorrelationParameters(
            (2, 2), DensityMatrix(2, np.eye(2) / 2), np.zeros((3, 8))
        )


def test_map_rejects_non_unitary():
    with pytest.raises(ValueError):
        fixed_mean_value_map(np.eye(4) * 1.01, FixedMeanParameters((2, 2), {}))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_maps_reject_non_finite_unitary(bad):
    u = np.eye(4, dtype=complex)
    u[3, 0] = bad
    corr = FixedCorrelationParameters((2, 2), DensityMatrix(2, np.eye(2) / 2), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="not unitary"):
        fixed_mean_value_map(u, FixedMeanParameters((2, 2), {(1, 3): 0.2}))
    with pytest.raises(ValueError, match="not unitary"):
        fixed_correlation_map(u, corr)


def test_detect_parameters_matches_row_by_row_reading():
    # seeded (2,8) unitaries: Haar (every pair enters) and diagonal sz (x) h
    # couplings (only the diagonal partner observables enter)
    rng = np.random.default_rng(163)
    jb = canonical_joint_basis((2, 8))
    for k in range(6):
        if k % 2:
            u = np.diag(np.exp(-1j * np.kron([1.0, -1.0], rng.normal(size=8))))
        else:
            u = random_unitary(rng, 16)
        tm = transfer_matrix(u, jb)
        want = {
            (mu, nu)
            for mu in range(4)
            for nu in range(1, 64)
            if max(abs(tm.row(alpha, 0)[jb.flat_index(mu, nu)]) for alpha in range(1, 4)) > 1e-12
        }
        report = detect_parameters(tm)
        assert report.fixed_mean_indices == want
        assert report.environment_mean_indices == {nu for mu, nu in want if mu == 0}
        assert report.correlation_indices == {(mu, nu) for mu, nu in want if mu >= 1}
        assert all(type(i) is int for pair in report.fixed_mean_indices for i in pair)
        if k % 2:
            assert 0 < len(want) < 4 * 63


def test_detect_parameters_single_level_system():
    # N = 1 has no rows (alpha 0) with alpha >= 1, so nothing is a parameter
    rng = np.random.default_rng(163)
    report = detect_parameters(transfer_matrix(random_unitary(rng, 3), canonical_joint_basis((1, 3))))
    assert report.dims == (1, 3)
    assert report.fixed_mean_indices == frozenset()
    assert report.environment_mean_indices == frozenset()
    assert report.correlation_indices == frozenset()
