"""Orthogonal Hermitian bases: construction, Gram relations, expansions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmap import (
    HermitianBasis,
    JointBasis,
    JointState,
    build_basis,
    canonical_joint_basis,
    expand,
    means_from_matrix,
    reconstruct,
)
from conftest import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_dim2_is_pauli():
    b = build_basis(2)
    expected = [np.eye(2), SX, SY, SZ]
    for got, want in zip(b, expected):
        assert np.max(np.abs(got - want)) < 1e-15


def test_gram_dim3_brute_force():
    # oracle: every pairwise trace inner product, no shortcuts
    b = build_basis(3)
    for a in range(9):
        for c in range(9):
            ip = np.trace(b.elements[a] @ b.elements[c])
            want = 3.0 if a == c else 0.0
            assert abs(ip - want) < 1e-12, (a, c, ip)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_identity_first_traceless_hermitian(dim):
    b = build_basis(dim)
    assert len(b) == dim * dim
    assert np.max(np.abs(b.elements[0] - np.eye(dim))) < 1e-15
    for a in range(1, dim * dim):
        f = b.elements[a]
        assert abs(np.trace(f)) < 1e-12
        assert np.max(np.abs(f - f.conj().T)) < 1e-12


def test_joint_gram_2x3():
    jb = JointBasis(build_basis(2), build_basis(3))
    flat = np.array([np.kron(f, g) for f in jb.basis_s for g in jb.basis_r])
    assert flat.shape == (36, 6, 6)
    gram = np.einsum("aij,bji->ab", flat, flat)
    assert np.max(np.abs(gram - 6.0 * np.eye(36))) < 1e-12


def test_joint_flat_index():
    b = build_basis(2)
    jb = JointBasis(b, b)
    for mu in range(4):
        for nu in range(4):
            k = jb.flat_index(mu, nu)
            assert k == mu * 4 + nu
            unit = np.zeros(16)
            unit[k] = 1.0
            want = np.kron(b.elements[mu], b.elements[nu])
            assert np.array_equal(jb.matrix(unit.reshape(4, 4)), want)
    with pytest.raises(ValueError):
        jb.flat_index(4, 0)
    with pytest.raises(ValueError):
        jb.flat_index(0, -1)


def test_joint_elements_are_kron_pairs():
    bs, br = build_basis(2), build_basis(3)
    jb = JointBasis(bs, br)
    assert jb.dims == (2, 3)
    for mu in range(4):
        for nu in range(9):
            want = np.kron(bs.elements[mu], br.elements[nu])
            unit = np.zeros((4, 9))
            unit[mu, nu] = 1.0
            assert np.max(np.abs(jb.matrix(unit) - want)) < 1e-15
    # spot check: the (z, z) pair in the qubit-qubit case
    jb22 = JointBasis(bs, build_basis(2))
    unit = np.zeros((4, 4))
    unit[3, 3] = 1.0
    assert np.max(np.abs(jb22.matrix(unit) - np.kron(SZ, SZ))) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=4),
    stack=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_joint_contractions_match_kron(n, m, stack, seed):
    rng = np.random.default_rng(seed)
    bs, br = build_basis(n), build_basis(m)
    jb = JointBasis(bs, br)
    kron = np.array([[np.kron(f, g) for g in br.elements] for f in bs.elements])
    coeffs = rng.normal(size=stack + (n * n, m * m))
    x = rng.normal(size=stack + (n * m, n * m)) + 1j * rng.normal(size=stack + (n * m, n * m))
    got = jb.matrix(coeffs)
    assert got.shape == stack + (n * m, n * m)
    assert np.abs(got - np.einsum("...ab,abij->...ij", coeffs, kron)).max() <= 1e-13
    traces = jb.traces(x)
    assert traces.shape == stack + (n * n, m * m)
    assert np.abs(traces - np.einsum("abij,...ji->...ab", kron, x)).max() <= 1e-13
    assert np.abs(jb.traces(got) - n * m * coeffs).max() <= 1e-13


def test_joint_round_trip_stores_no_product_table():
    # the (4, 256, 32, 32) table of products would take 16 MB
    rng = np.random.default_rng(5)
    means = np.zeros((4, 256))
    means[0, 0] = 1.0
    means[1:, 1:] = rng.uniform(-0.01, 0.01, size=(3, 255))
    tracemalloc.start()
    try:
        jb = canonical_joint_basis((2, 16))
        back = means_from_matrix(jb, JointState(jb, means).to_matrix())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.abs(back - means).max() < 1e-12


def test_expand_projector():
    b = build_basis(2)
    q = 0.5 * (np.eye(2) + SZ)
    c = expand(q, b)
    assert np.max(np.abs(c - np.array([0.5, 0.0, 0.0, 0.5]))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_expand_round_trip_random(dim):
    rng = np.random.default_rng(7 + dim)
    b = build_basis(dim)
    for _ in range(100):
        q = random_hermitian(rng, dim)
        c = expand(q, b)
        assert np.max(np.abs(c.imag)) < 1e-12
        back = reconstruct(c, b)
        assert np.max(np.abs(back - q)) < 1e-12


def test_expand_general_complex_round_trip():
    rng = np.random.default_rng(11)
    b = build_basis(3)
    for _ in range(20):
        q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = reconstruct(expand(q, b), b)
        assert np.max(np.abs(back - q)) < 1e-12


def test_dim1_is_scalar_identity():
    b = build_basis(1)
    assert len(b) == 1
    assert np.array_equal(b.elements[0], np.ones((1, 1), dtype=complex))


def test_basis_validation():
    with pytest.raises(ValueError):
        HermitianBasis(2, np.zeros((3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        expand(np.eye(3), build_basis(2))


def _loop_basis(dim):
    """The per-element construction build_basis replaced, kept as its reference."""
    mats = [np.eye(dim, dtype=complex)]
    for j in range(dim):
        for k in range(j + 1, dim):
            g = np.zeros((dim, dim), dtype=complex)
            g[j, k] = 1.0
            g[k, j] = 1.0
            mats.append(g)
    for j in range(dim):
        for k in range(j + 1, dim):
            g = np.zeros((dim, dim), dtype=complex)
            g[j, k] = -1.0j
            g[k, j] = 1.0j
            mats.append(g)
    for l in range(1, dim):
        g = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            g[j, j] = 1.0
        g[l, l] = -float(l)
        mats.append(g)
    table = np.empty((dim**2, dim, dim), dtype=complex)
    for a, g in enumerate(mats):
        table[a] = g * np.sqrt(dim / np.trace(g @ g).real)
    return table


@pytest.mark.parametrize("dim", range(1, 13))
def test_build_basis_bit_identical_to_loop_construction(dim):
    got, want = build_basis(dim).elements, _loop_basis(dim)
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))
