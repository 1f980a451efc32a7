"""Superoperators, affine maps, transfer matrices, mean-value maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmap import (
    AffineMap,
    FixedCorrelationParameters,
    FixedMeanParameters,
    HermitianBasis,
    JointBasis,
    MeanAffineMap,
    SuperOperator,
    apply,
    build_basis,
    compose,
    conjugation_superoperator,
    fixed_correlation_map,
    fixed_mean_value_map,
    from_action,
    identity_map,
    identity_superoperator,
    is_hermiticity_preserving,
    is_trace_preserving,
    is_unital,
    mean_affine,
    mean_vector,
    means_from_matrix,
    partial_trace_r,
    transfer_matrix,
    two_qubit_unitary,
    unvec,
    vec,
)
from openmap.superop import basis_columns
from conftest import random_density, random_hermitian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _jb(n, m):
    return JointBasis(build_basis(n), build_basis(m))


def _random_affine(rng, n, kind="plain", traceless_offset=False):
    rep = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    off = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if traceless_offset:
        off -= np.trace(off) * np.eye(n) / n
    return AffineMap(SuperOperator(n, rep), off, kind)


def test_vec_column_stacking():
    q = np.arange(9, dtype=complex).reshape(3, 3)
    v = vec(q)
    for i in range(3):
        for j in range(3):
            assert v[i + 3 * j] == q[i, j]
    assert np.array_equal(unvec(v), q)


def test_vec_of_sandwich_product():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3)
    b = random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3)
    q = random_hermitian(rng, 3)
    lhs = vec(a @ q @ b)
    rhs = np.kron(b.T, a) @ vec(q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_from_action_matches_callable():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)

    def action(q):
        return a @ q @ b + 2.0 * q

    s = from_action(3, action)
    for _ in range(10):
        q = random_hermitian(rng, 3)
        assert np.max(np.abs(s(q) - action(q))) < 1e-12


def test_conjugation_superoperator():
    rng = np.random.default_rng(15)
    u = random_unitary(rng, 3)
    s = conjugation_superoperator(u)
    q = random_hermitian(rng, 3)
    assert np.max(np.abs(s(q) - u @ q @ u.conj().T)) < 1e-12
    assert is_trace_preserving(s)
    assert is_hermiticity_preserving(s)
    assert is_unital(s)


def test_transpose_map_checks():
    s = from_action(2, lambda q: q.T)
    assert is_trace_preserving(s)
    assert is_hermiticity_preserving(s)
    assert is_unital(s)


def test_left_multiplication_not_hermiticity_preserving():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    s = from_action(2, lambda q: a @ q)
    assert not is_hermiticity_preserving(s)
    assert not is_trace_preserving(s)
    assert not is_unital(s)


def test_superoperator_validation():
    with pytest.raises(ValueError):
        SuperOperator(2, np.zeros((3, 4), dtype=complex))
    s = identity_superoperator(3)
    with pytest.raises(ValueError):
        s(np.eye(2))


def test_identity_affine_map():
    m = identity_map(2)
    assert m.kind == "plain"
    q = np.array([[1, 2j], [-2j, 3]], dtype=complex)
    assert np.max(np.abs(apply(m, q) - q)) < 1e-15


def test_affine_action_includes_trace_term():
    rng = np.random.default_rng(21)
    m = _random_affine(rng, 2)
    q = random_hermitian(rng, 2)
    want = m.homogeneous(q) + m.offset * np.trace(q)
    assert np.max(np.abs(apply(m, q) - want)) < 1e-13


def test_affine_map_kind_validation():
    with pytest.raises(ValueError):
        AffineMap(identity_superoperator(2), np.zeros((2, 2)), "bogus")
    with pytest.raises(ValueError):
        AffineMap(identity_superoperator(2), np.zeros((3, 3)), "plain")


def test_compose_with_identity():
    rng = np.random.default_rng(27)
    m = _random_affine(rng, 3)
    for c in (compose(m, identity_map(3)), compose(identity_map(3), m)):
        assert np.max(np.abs(c.homogeneous.rep - m.homogeneous.rep)) < 1e-12
        assert np.max(np.abs(c.offset - m.offset)) < 1e-12
        assert c.kind == "plain"


def test_compose_matches_pointwise_application():
    # key exactness property, including maps whose parts do not preserve trace
    rng = np.random.default_rng(33)
    for n in (2, 3):
        for _ in range(5):
            a = _random_affine(rng, n)
            b = _random_affine(rng, n)
            c = compose(a, b)
            for _ in range(10):
                q = random_hermitian(rng, n) + 1j * random_hermitian(rng, n)
                want = apply(a, apply(b, q))
                assert np.max(np.abs(apply(c, q) - want)) < 1e-10


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(identity_map(2), identity_map(3))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_transfer_matrix_orthogonality(dims):
    n, m = dims
    rng = np.random.default_rng(39 + n * m)
    jb = _jb(n, m)
    for _ in range(5):
        tm = transfer_matrix(random_unitary(rng, n * m), jb)
        k = n * n * m * m
        assert tm.t.shape == (k, k)
        assert np.max(np.abs(tm.t.T @ tm.t - np.eye(k))) < 1e-12


def test_transfer_identity_rows_and_columns():
    rng = np.random.default_rng(45)
    jb = _jb(2, 3)
    tm = transfer_matrix(random_unitary(rng, 6), jb)
    e0 = np.zeros(36)
    e0[0] = 1.0
    assert np.max(np.abs(tm.row(0, 0) - e0)) < 1e-12
    assert np.max(np.abs(tm.t[:, 0] - e0)) < 1e-12


def test_transfer_two_qubit_rows():
    jb = _jb(2, 2)
    for g in (np.pi / 2, 0.3, 2.1):
        tm = transfer_matrix(two_qubit_unitary(g), jb)
        row = tm.row(1, 0)
        want = np.zeros(16)
        want[jb.flat_index(1, 0)] = np.cos(g)
        want[jb.flat_index(2, 3)] = -np.sin(g)
        assert np.max(np.abs(row - want)) < 1e-12


def test_transfer_rejects_non_unitary():
    jb = _jb(2, 2)
    with pytest.raises(ValueError):
        transfer_matrix(np.eye(4) * 1.001, jb)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transfer_rejects_non_finite_unitary(bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(ValueError, match="not unitary"):
        transfer_matrix(u, _jb(2, 2))


def test_transfer_propagates_means():
    # t applied to the flattened mean table gives the means of U Pi Udag
    rng = np.random.default_rng(51)
    jb = _jb(2, 3)
    u = random_unitary(rng, 6)
    tm = transfer_matrix(u, jb)
    pi = random_density(rng, 6).matrix
    means = means_from_matrix(jb, pi)
    evolved = tm.t @ means.reshape(-1)
    direct = means_from_matrix(jb, u @ pi @ u.conj().T).reshape(-1)
    assert np.max(np.abs(evolved - direct)) < 1e-12


def test_mean_affine_identity():
    ma = mean_affine(identity_map(3))
    assert np.max(np.abs(ma.matrix - np.eye(8))) < 1e-12
    assert np.max(np.abs(ma.shift)) < 1e-12


def test_mean_affine_matches_density_action():
    # applying the map to rho(v) and re-extracting means equals matrix @ v + shift
    rng = np.random.default_rng(57)
    b = build_basis(2)
    for _ in range(10):
        hom = sum(
            conjugation_superoperator(random_unitary(rng, 2)).rep * rng.uniform(0.1, 1)
            for _ in range(3)
        )
        off = random_hermitian(rng, 2, scale=0.3)
        m = AffineMap(SuperOperator(2, hom), off, "plain")
        ma = mean_affine(m)
        for _ in range(10):
            v = rng.uniform(-1, 1, size=3)
            rho = (np.eye(2) + v[0] * SX + v[1] * SY + v[2] * SZ) / 2
            got = ma(v)
            want = mean_vector(b, apply(m, rho)).components
            assert np.max(np.abs(got - want)) < 1e-12


def test_mean_affine_requires_hermiticity_preservation():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    m = AffineMap(from_action(2, lambda q: a @ q), np.zeros((2, 2)), "plain")
    with pytest.raises(ValueError):
        mean_affine(m)


def test_mean_affine_requires_hermitian_offset():
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    m = AffineMap(identity_superoperator(2), off, "plain")
    with pytest.raises(ValueError):
        mean_affine(m)


def test_mean_affine_two_qubit_fixed_mean_example():
    # diag(cos g, cos g, 1) with zero shift for the zero-parameter map
    g = np.pi / 3
    m = fixed_mean_value_map(two_qubit_unitary(g), FixedMeanParameters((2, 2), {}))
    ma = mean_affine(m)
    assert np.max(np.abs(ma.matrix - np.diag([0.5, 0.5, 1.0]))) < 1e-12
    assert np.max(np.abs(ma.shift)) < 1e-12


def test_mean_affine_two_qubit_fixed_corr_example():
    g = np.pi / 4
    c, s = np.cos(g), np.sin(g)
    rho_r = np.diag([0.8, 0.2]).astype(complex)  # <Xi3> = 0.6
    gamma = np.zeros((3, 3))
    gamma[0, 2] = 0.2
    from openmap import DensityMatrix

    params = FixedCorrelationParameters((2, 2), DensityMatrix(2, rho_r), gamma)
    ma = mean_affine(fixed_correlation_map(two_qubit_unitary(g), params))
    want = np.array([[c, -0.6 * s, 0.0], [0.6 * s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(ma.matrix - want)) < 1e-12
    assert np.max(np.abs(ma.shift - np.array([0.0, 0.2 * s, 0.0]))) < 1e-12


def test_mean_affine_compose_consistency():
    # hat-map of a composition equals composition of hat-maps for
    # trace-preserving inner maps
    rng = np.random.default_rng(63)
    jb = _jb(2, 2)
    u1, u2 = random_unitary(rng, 4), random_unitary(rng, 4)
    p = FixedMeanParameters((2, 2), {(1, 3): 0.4, (2, 1): -0.2})
    m1 = fixed_mean_value_map(u1, p)
    m2 = fixed_mean_value_map(u2, p)
    lhs = mean_affine(compose(m1, m2))
    rhs = mean_affine(m1).compose(mean_affine(m2))
    v = rng.uniform(-1, 1, size=3)
    assert np.max(np.abs(lhs(v) - rhs(v))) < 1e-12
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12
    assert np.max(np.abs(lhs.shift - rhs.shift)) < 1e-12


def test_mean_affine_map_validation():
    with pytest.raises(ValueError):
        MeanAffineMap(2, np.eye(4), np.zeros(3))
    with pytest.raises(ValueError):
        MeanAffineMap(2, np.eye(3), np.zeros(4))


def _hp_map(rng, n):
    """Q -> sum_k c_k A_k Q A_k^dag + offset Tr Q with real c_k of both signs:
    Hermiticity-preserving, and in general neither trace-preserving nor unital."""
    rep = np.zeros((n * n, n * n), dtype=complex)
    for c in rng.uniform(-1.0, 1.0, size=3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rep += c * np.kron(a.conj(), a)
    return AffineMap(SuperOperator(n, rep), random_hermitian(rng, n), "plain")


@settings(max_examples=10, deadline=None)
@given(dim=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_images_and_mean_affine_match_per_element(dim, seed):
    rng = np.random.default_rng(seed)
    m = _hp_map(rng, dim)
    basis = build_basis(dim)
    images = np.stack([vec(m.homogeneous(f)) for f in basis.elements])
    assert np.max(np.abs((m.homogeneous.rep @ basis_columns(basis)).T - images)) < 1e-13
    f = basis.elements[1:]
    h_images = images.reshape(-1, dim, dim).transpose(0, 2, 1)  # h(F_m) from vec(h(F_m))
    matrix = np.einsum("aij,mji->am", f, h_images[1:]).real / dim
    shift = np.einsum("aij,ji->a", f, m.offset).real
    shift = shift + np.einsum("aij,ji->a", f, h_images[0]).real / dim
    ma = mean_affine(m, basis)
    assert np.max(np.abs(ma.matrix - matrix), initial=0.0) < 1e-13
    assert np.max(np.abs(ma.shift - shift), initial=0.0) < 1e-13


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    b_kind=st.sampled_from(["random", "tp", "near-tp"]),
    wobble=st.floats(min_value=0.0, max_value=1e-10),
)
def test_compose_property_matches_pointwise_application(n, seed, b_kind, wobble):
    # one code path for every b: non-TP, exactly TP, and TP perturbed by <= 1e-10
    rng = np.random.default_rng(seed)
    a = _random_affine(rng, n)
    if b_kind == "random":
        b = _random_affine(rng, n)
    else:
        rep = conjugation_superoperator(random_unitary(rng, n)).rep
        if b_kind == "near-tp":
            rep = rep + wobble * (2 * rng.random((n * n, n * n)) - 1)
        b = AffineMap(SuperOperator(n, rep), random_hermitian(rng, n), "plain")
    c = compose(a, b)
    for _ in range(5):
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = apply(a, apply(b, q))
        assert np.max(np.abs(apply(c, q) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("dims, alpha", [((2, 2), 1), ((3, 4), 8)])
def test_transfer_rejects_non_finite_basis(dims, alpha):
    # a NaN in the system family's element alpha reaches t; at (3, 4) it sits in
    # the last, partial block of rows, and no check may pass it as small
    n, m = dims
    bad = build_basis(n).elements.copy()
    bad[alpha, 0, 0] = np.nan
    jb = JointBasis(HermitianBasis(dim=n, elements=bad), build_basis(m))
    with pytest.raises(ValueError):
        transfer_matrix(np.eye(n * m, dtype=complex), jb)
