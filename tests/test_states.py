"""States and mean-value tables: encodings, reductions, correlations."""

import numpy as np
import pytest

from openmap import (
    AffineMap,
    CorrelationTable,
    DensityMatrix,
    FixedMeanParameters,
    JointState,
    MeanValueVector,
    SuperOperator,
    build_basis,
    correlations,
    identity_superoperator,
    joint_basis,
    joint_from_means,
    mean_vector,
    means_from_matrix,
    partial_trace_r,
    reduce,
)
from conftest import random_density, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _jb(n, m):
    return joint_basis(build_basis(n), build_basis(m))


def _poke(a, where, bad):
    a = np.array(a)
    a[where] = bad
    return a


NON_FINITE_BUILDS = {
    "density-matrix": lambda bad: DensityMatrix(2, _poke(np.eye(2, dtype=complex) / 2, (0, 1), bad)),
    "mean-vector": lambda bad: MeanValueVector(2, _poke(np.zeros(3), 1, bad)),
    "correlation-table": lambda bad: CorrelationTable(_poke(np.zeros((3, 3)), (2, 0), bad)),
    "joint-state": lambda bad: JointState(_jb(2, 2), _poke(np.diag([1.0, 0, 0, 0]), (1, 2), bad)),
    "fixed-means": lambda bad: FixedMeanParameters((2, 2), {(1, 3): bad}),
    "superoperator": lambda bad: SuperOperator(2, _poke(np.eye(4, dtype=complex), (3, 0), bad)),
    "affine-offset": lambda bad: AffineMap(
        identity_superoperator(2), _poke(np.zeros((2, 2), dtype=complex), (1, 1), bad), "plain"
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_BUILDS))
def test_constructors_reject_non_finite(kind, bad):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_BUILDS[kind](bad)


def test_density_matrix_validation():
    DensityMatrix(2, np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix(2, np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(2, np.eye(2))
    hot = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(2, hot)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_means_matrix_round_trip(dims):
    n, m = dims
    rng = np.random.default_rng(31 + n + m)
    jb = _jb(n, m)
    for _ in range(20):
        pi = random_hermitian(rng, n * m)
        pi += (1.0 - np.trace(pi)) * np.eye(n * m) / (n * m)
        means = means_from_matrix(jb, pi)
        assert abs(means[0, 0] - 1.0) < 1e-12
        back = joint_from_means(jb, means).to_matrix()
        assert np.max(np.abs(back - pi)) < 1e-12


def test_joint_state_matrix_hermitian_unit_trace():
    rng = np.random.default_rng(5)
    jb = _jb(2, 2)
    means = rng.uniform(-1, 1, size=(4, 4))
    means[0, 0] = 1.0
    pi = JointState(jb, means).to_matrix()
    assert np.max(np.abs(pi - pi.conj().T)) < 1e-12
    assert abs(np.trace(pi) - 1.0) < 1e-12


def test_two_qubit_termwise_assembly():
    # assemble the two-qubit state from its mean values one term at a time
    jb = _jb(2, 2)
    rng = np.random.default_rng(8)
    means = rng.uniform(-1, 1, size=(4, 4))
    means[0, 0] = 1.0
    pi = JointState(jb, means).to_matrix()
    want = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            want += means[mu, nu] * jb.elements[mu, nu]
    want /= 4.0
    assert np.max(np.abs(pi - want)) < 1e-13


def test_reduce_matches_partial_trace():
    rng = np.random.default_rng(13)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        n, m = dims
        full = random_density(rng, n * m).matrix
        rho = partial_trace_r(full, dims)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        # oracle: explicit index sum
        want = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for k in range(m):
                    want[i, j] += full[i * m + k, j * m + k]
        assert np.max(np.abs(rho - want)) < 1e-14
        assert np.max(np.abs(reduce(full, dims).matrix - want)) < 1e-14


def test_reduce_bell_is_maximally_mixed():
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = np.outer(v, v.conj())
    rho = partial_trace_r(bell, (2, 2))
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-14


def test_reduced_means_consistent_with_table():
    # the S-only rows of the joint table are the mean values of the reduced state
    rng = np.random.default_rng(17)
    jb = _jb(2, 3)
    pi = random_density(rng, 6).matrix
    means = means_from_matrix(jb, pi)
    rho = partial_trace_r(pi, (2, 3))
    v = mean_vector(build_basis(2), rho)
    assert np.max(np.abs(v.components - means[1:, 0])) < 1e-12


def test_correlations_bell_state():
    jb = _jb(2, 2)
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    state = joint_from_means(jb, means_from_matrix(jb, np.outer(v, v.conj())))
    g = correlations(state).gamma
    want = np.diag([1.0, -1.0, 1.0])
    assert np.max(np.abs(g - want)) < 1e-12


def test_correlations_product_state_vanish():
    rng = np.random.default_rng(23)
    jb = _jb(2, 3)
    rho_s = random_density(rng, 2).matrix
    rho_r = random_density(rng, 3).matrix
    state = joint_from_means(jb, means_from_matrix(jb, np.kron(rho_s, rho_r)))
    assert np.max(np.abs(correlations(state).gamma)) < 1e-12


def test_mean_value_vector_to_matrix():
    b = build_basis(2)
    v = MeanValueVector(2, np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(v.to_matrix(b) - np.diag([1.0, 0.0]))) < 1e-14
    # vectors outside the ball still produce unit-trace Hermitian matrices
    w = MeanValueVector(2, np.array([0.9, 0.9, 0.9]))
    q = w.to_matrix(b)
    assert abs(np.trace(q) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(q).min() < 0


def test_mean_value_vector_validation():
    with pytest.raises(ValueError):
        MeanValueVector(2, np.zeros(4))
    with pytest.raises(ValueError):
        MeanValueVector(2, np.array([0.0, 1j, 0.0]))


def test_correlation_table_mask():
    g = np.zeros((3, 3))
    t = CorrelationTable(g)
    assert t.specified.all()
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = True
    t2 = CorrelationTable(g, mask)
    assert t2.specified.sum() == 1
    with pytest.raises(ValueError):
        CorrelationTable(g, np.zeros((2, 3), dtype=bool))


def test_joint_state_validation():
    jb = _jb(2, 2)
    bad = np.zeros((4, 4))
    with pytest.raises(ValueError):
        JointState(jb, bad)  # [0,0] must be 1
    with pytest.raises(ValueError):
        JointState(jb, np.zeros((4, 3)))


def test_means_from_matrix_rejects_non_hermitian():
    jb = _jb(2, 2)
    q = np.zeros((4, 4), dtype=complex)
    q[0, 1] = 1.0
    with pytest.raises(ValueError):
        means_from_matrix(jb, q)
