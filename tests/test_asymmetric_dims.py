"""Both map families and the transfer matrix at asymmetric dims.

Symmetric dims can hide a transposed reshape, so every check here runs with
N != M against references built straight from the definitions: np.kron for
the product basis and an explicit sum for the partial trace.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmap import (
    build_basis,
    canonical_joint_basis,
    fixed_correlation_map,
    fixed_mean_value_map,
    transfer_matrix,
)
from conftest import random_corr_params, random_mean_params, random_unitary

ASYMMETRIC = [(2, 3), (3, 2), (2, 4), (3, 4), (4, 3)]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _partial_trace(matrix, n, m):
    # sum_r (1 (x) <r|) matrix (1 (x) |r>)
    out = np.zeros((n, n), dtype=complex)
    for r in range(m):
        ket = np.kron(np.eye(n), np.eye(m)[:, [r]])
        out += ket.T @ matrix @ ket
    return out


def _reference_map(u, sigma, coeffs, dims):
    """Column-by-column rep of Q -> Tr_R[U (Q (x) sigma) U^dag] and the offset
    sum_{mu nu} coeffs[mu, nu] Tr_R[U (F_mu (x) G_nu) U^dag] / (N M)."""
    n, m = dims
    bs, br = build_basis(n), build_basis(m)
    rep = np.empty((n * n, n * n), dtype=complex)
    for l in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[j, l] = 1.0
            image = _partial_trace(u @ np.kron(unit, sigma) @ u.conj().T, n, m)
            rep[:, j + n * l] = image.reshape(-1, order="F")
    offset = np.zeros((n, n), dtype=complex)
    for mu, nu in zip(*np.nonzero(coeffs)):
        f = np.kron(bs.elements[mu], br.elements[nu])
        offset += coeffs[mu, nu] * _partial_trace(u @ f @ u.conj().T, n, m)
    return rep, offset / (n * m)


@pytest.mark.parametrize("dims", ASYMMETRIC)
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_maps_match_definitional_reference(dims, seed):
    n, m = dims
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n * m)
    mean_params = random_mean_params(rng, dims)
    corr_params = random_corr_params(rng, dims)
    mean_coeffs = np.zeros((n * n, m * m))
    for (mu, nu), value in mean_params.fixed_means.items():
        mean_coeffs[mu, nu] = value
    corr_coeffs = np.zeros((n * n, m * m))
    corr_coeffs[1:, 1:] = corr_params.gamma.gamma
    cases = [
        (fixed_mean_value_map(u, mean_params), np.eye(m) / m, mean_coeffs),
        (fixed_correlation_map(u, corr_params), corr_params.rho_r.matrix, corr_coeffs),
    ]
    for built, sigma, coeffs in cases:
        rep, offset = _reference_map(u, sigma, coeffs, dims)
        assert np.max(np.abs(built.homogeneous.rep - rep)) < 1e-12
        assert np.max(np.abs(built.offset - offset)) < 1e-12


# (2, 8) and (3, 8) take one alpha per block of rows; (3, 4) and (4, 3) end on
# a partial block
@pytest.mark.parametrize("dims", ASYMMETRIC + [(2, 8), (3, 8)])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_transfer_entries_match_definition(dims, seed):
    # t[(a b), (m n)] = Tr[F_{m n} U^dag F_{a b} U] / (N M), every entry
    n, m = dims
    k, d = n * n * m * m, n * m
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, d)
    jb = canonical_joint_basis(dims)
    tm = transfer_matrix(u, jb)
    bs, br = build_basis(n), build_basis(m)
    flat = np.array([np.kron(f, g) for f in bs.elements for g in br.elements])
    # flat's order is the one jb.flat_index gives, which t's rows and columns follow
    assert [jb.flat_index(mu, nu) for mu in range(n * n) for nu in range(m * m)] == list(range(k))
    conj = u.conj().T @ flat @ u
    # sum_ij (U^dag F_{a b} U)[j, i] F_{m n}[i, j]
    want = conj.reshape(k, d * d) @ flat.transpose(0, 2, 1).reshape(k, d * d).T / d
    assert np.max(np.abs(tm.t - want)) < 1e-12


def test_large_partner_transfer_is_orthogonal():
    # transfer_matrix raises unless t^T t = 1 to 1e-12
    rng = np.random.default_rng(216)
    tm = transfer_matrix(random_unitary(rng, 32), canonical_joint_basis((2, 16)))
    assert tm.t.shape == (1024, 1024)


def test_large_partner_transfer_peak_memory():
    # rows are built a block at a time: the (1024, 32, 32) table of products
    # (16 MB) and a full stack of conjugated products are never formed
    rng = np.random.default_rng(217)
    u, jb = random_unitary(rng, 32), canonical_joint_basis((2, 16))
    tracemalloc.start()
    try:
        tm = transfer_matrix(u, jb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.t.shape == (1024, 1024)
    assert peak <= 32 * 2**20
