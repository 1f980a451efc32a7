"""Compatibility domains: membership checks, witnesses, shrinkage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmap import (
    CorrelationTable,
    DensityMatrix,
    DomainQuery,
    FixedCorrelationParameters,
    FixedMeanParameters,
    JointState,
    MeanValueVector,
    apply,
    canonical_joint_basis,
    compatible,
    domain_shrinkage_demo,
    fixed_mean_value_map,
    means_from_matrix,
    partial_trace_r,
)
from openmap.domain import MAX_ITERATIONS
from conftest import random_unitary

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _mv(*v):
    return MeanValueVector(2, np.array(v, dtype=float))


def _mean_query(v, means=None, dims=(2, 2)):
    n = dims[0]
    vec = MeanValueVector(n, np.asarray(v, dtype=float))
    return DomainQuery(vec, FixedMeanParameters(dims, means or {}), "fixed-mean-value")


def _corr_query(v, rho_r, gamma, specified=None, dims=(2, 2)):
    n, m = dims
    table = CorrelationTable(gamma, specified)
    params = FixedCorrelationParameters(dims, DensityMatrix(m, rho_r), table)
    vec = MeanValueVector(n, np.asarray(v, dtype=float))
    return DomainQuery(vec, params, "fixed-correlation")


def _gell_mann(d):
    """Identity, symmetric pairs, antisymmetric pairs, diagonal ladder; Tr F^2 = d."""
    mats = [np.eye(d, dtype=complex)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        g = np.zeros((d, d), dtype=complex)
        g[j, k] = g[k, j] = 1.0
        mats.append(g)
    for j, k in pairs:
        g = np.zeros((d, d), dtype=complex)
        g[j, k], g[k, j] = -1.0j, 1.0j
        mats.append(g)
    for l in range(1, d):
        g = np.diag([1.0] * l + [-float(l)] + [0.0] * (d - l - 1)).astype(complex)
        mats.append(g)
    return [g * np.sqrt(d / np.trace(g @ g).real) for g in mats]


def _query_table(q):
    """Zero-completion mean table and fixed mask, from the query's definition."""
    n, m = q.parameters.dims
    fs, gr = _gell_mann(n), _gell_mann(m)
    table = np.zeros((n * n, m * m))
    fixed = np.zeros((n * n, m * m), dtype=bool)
    table[0, 0], table[1:, 0] = 1.0, q.mean_vector.components
    fixed[:, 0] = True
    if q.kind == "fixed-mean-value":
        for (mu, nu), value in q.parameters.fixed_means.items():
            table[mu, nu], fixed[mu, nu] = value, True
    else:
        rho = q.parameters.rho_r.matrix
        r = np.array([np.trace(g @ rho).real for g in gr[1:]])
        table[0, 1:], fixed[0, 1:] = r, True
        corr = q.parameters.gamma
        table[1:, 1:] = np.outer(table[1:, 0], r) + np.where(corr.specified, corr.gamma, 0.0)
        fixed[1:, 1:] = corr.specified
    return table, fixed, fs, gr


def _check_certificate(q, z):
    """Z is PSD, has no component on a free coordinate, and pairs negatively with X0."""
    table, fixed, fs, gr = _query_table(q)
    n, m = q.parameters.dims
    scale = np.trace(z).real
    assert scale > 0
    assert np.abs(z - z.conj().T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(z).min() >= -1e-12 * scale
    x0 = sum(
        table[mu, nu] * np.kron(fs[mu], gr[nu]) for mu in range(n * n) for nu in range(m * m)
    ) / (n * m)
    for mu, nu in zip(*np.nonzero(~fixed)):
        assert abs(np.trace(np.kron(fs[mu], gr[nu]) @ z)) <= 1e-12 * scale
    assert np.trace(z @ x0).real < -1e-8 * scale


def _thorough(q):
    """Thorough check; every certificate it returns is verified here."""
    res = compatible(q, thorough=True)
    assert (res.certificate is not None) == (res.verdict == "incompatible")
    assert (res.witness is not None) == (res.verdict == "compatible")
    if res.certificate is not None:
        assert not res.compatible
        _check_certificate(q, res.certificate)
    return res


def test_zero_query_compatible_maximally_mixed():
    res = compatible(_mean_query([0.0, 0.0, 0.0]))
    assert res.compatible
    assert np.max(np.abs(res.witness - np.eye(4) / 4)) < 1e-12


def test_pure_state_zero_params_compatible():
    res = compatible(_mean_query([0.0, 0.0, 1.0]))
    assert res.compatible
    assert np.linalg.eigvalsh(res.witness).min() > -1e-10


def test_outside_bloch_ball_incompatible_even_thorough():
    # the reduced state is fixed by the query, so no completion can help
    q = _mean_query([0.9, 0.9, 0.9])
    assert not compatible(q).compatible
    res = _thorough(q)
    assert not res.compatible
    assert res.min_eigenvalue < -1e-8
    assert res.verdict == "incompatible" and res.certificate is not None
    assert res.method == "feasibility-search"
    assert res.iterations < MAX_ITERATIONS


def test_corr_incompatible_frozen_spectrum():
    # <S3> = <X3> = 1 with correlation 1 on (3,3) pushes <S3 X3> to 2
    gamma = np.zeros((3, 3))
    gamma[2, 2] = 1.0
    mask = np.zeros((3, 3), dtype=bool)
    mask[2, 2] = True
    q = _corr_query([0, 0, 1.0], np.diag([1.0, 0.0]).astype(complex), gamma, mask)
    res = compatible(q)
    assert not res.compatible
    assert abs(res.min_eigenvalue - (-0.25)) < 1e-12
    # the completion spectrum is pinned
    basis = canonical_joint_basis((2, 2))
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    table[3, 0] = 1.0
    table[0, 3] = 1.0
    table[3, 3] = 2.0
    pi = JointState(basis, table).to_matrix()
    eigs = np.sort(np.linalg.eigvalsh(pi))
    assert np.max(np.abs(eigs - np.array([-0.25, -0.25, 0.25, 1.25]))) < 1e-12
    # no completion can rescue it: |<S3 X3>| <= 1 for any state
    deep = _thorough(q)
    assert not deep.compatible
    assert deep.verdict == "incompatible"


def test_fully_pinned_query_certified_from_zero_completion():
    # every coordinate is fixed, so the zero completion is the only one
    gamma = np.zeros((3, 3))
    gamma[2, 2] = 1.0
    q = _corr_query([0, 0, 1.0], np.diag([1.0, 0.0]).astype(complex), gamma)
    assert compatible(q).verdict == "undecided"
    res = _thorough(q)
    assert res.method == "zero-completion" and res.iterations == 0
    assert res.verdict == "incompatible"


def test_corr_pure_product_compatible():
    gamma = np.zeros((3, 3))
    q = _corr_query([0, 0, 1.0], np.diag([1.0, 0.0]).astype(complex), gamma)
    res = compatible(q)
    assert res.compatible
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    assert np.max(np.abs(res.witness - want)) < 1e-12


def test_corr_bell_compatible_pure_witness():
    gamma = np.diag([1.0, -1.0, 1.0])
    q = _corr_query([0, 0, 0], np.eye(2, dtype=complex) / 2, gamma)
    res = compatible(q)
    assert res.compatible
    eigs = np.sort(np.linalg.eigvalsh(res.witness))
    assert np.max(np.abs(eigs - np.array([0, 0, 0, 1.0]))) < 1e-12


def test_witness_reproduces_query():
    rng = np.random.default_rng(223)
    basis = canonical_joint_basis((2, 2))
    hits = 0
    for _ in range(40):
        v = rng.uniform(-0.6, 0.6, size=3)
        means = {(1, 3): rng.uniform(-0.5, 0.5)}
        q = _mean_query(v, means)
        res = compatible(q)
        if not res.compatible:
            continue
        hits += 1
        assert np.linalg.eigvalsh(res.witness).min() > -1e-10
        assert abs(np.trace(res.witness) - 1.0) < 1e-12
        table = means_from_matrix(basis, res.witness)
        assert np.max(np.abs(table[1:, 0] - v)) < 1e-12
        assert abs(table[1, 3] - means[(1, 3)]) < 1e-12
    assert hits > 10


def test_thorough_search_enlarges_membership():
    # <S3> = 0.9 with <S3 X3> pinned at 0.9: the zero completion has a
    # -0.2 eigenvalue, but choosing <X3> appropriately gives a valid state
    q = _mean_query([0, 0, 0.9], {(3, 3): 0.9})
    plain = compatible(q)
    assert not plain.compatible
    assert plain.min_eigenvalue < -0.1
    deep = _thorough(q)
    assert deep.compatible
    assert deep.method == "feasibility-search"
    if deep.witness is not None:
        basis = canonical_joint_basis((2, 2))
        table = means_from_matrix(basis, deep.witness)
        assert abs(table[3, 0] - 0.9) < 1e-12
        assert abs(table[3, 3] - 0.9) < 1e-12
        assert np.linalg.eigvalsh(deep.witness).min() > -1e-10


def test_monotonicity_adding_parameters():
    # pinning one more mean can only shrink the compatible set
    rng = np.random.default_rng(227)
    base = {(1, 3): 0.5}
    extra = {(1, 3): 0.5, (2, 3): 0.6}
    for _ in range(30):
        v = rng.uniform(-1, 1, size=3)
        q_aug = _mean_query(v, extra)
        if _thorough(q_aug).compatible:
            q_base = _mean_query(v, base)
            assert _thorough(q_base).compatible


def test_domain_ties_to_map_evolution():
    # each zero-completion witness evolves exactly as the map predicts
    rng = np.random.default_rng(229)
    u = random_unitary(rng, 4)
    means = {(1, 3): 0.4, (2, 1): -0.3}
    params = FixedMeanParameters((2, 2), means)
    mv_map = fixed_mean_value_map(u, params)
    checked = 0
    for _ in range(20):
        v = rng.uniform(-0.5, 0.5, size=3)
        res = compatible(_mean_query(v, means))
        if not res.compatible or res.method != "zero-completion":
            continue
        checked += 1
        rho = partial_trace_r(res.witness, (2, 2))
        lhs = apply(mv_map, rho)
        rhs = partial_trace_r(u @ res.witness @ u.conj().T, (2, 2))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert checked > 5


def test_shrinkage_demo_two_qubit():
    mean_params = FixedMeanParameters((2, 2), {(1, 3): 0.8})
    gamma = np.zeros((3, 3))
    gamma[0, 2] = 0.8
    corr_params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.diag([0.9, 0.1]).astype(complex)), gamma
    )
    report = domain_shrinkage_demo(mean_params, corr_params, grid_points=7)
    assert report.total == 7**3
    assert report.corr_kind_count < report.mean_kind_count
    assert report.mean_only_count > 0
    assert len(report.mean_only_examples(limit=3)) <= 3


def test_shrinkage_demo_empty_params_identical():
    mean_params = FixedMeanParameters((2, 2), {})
    corr_params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.eye(2, dtype=complex) / 2), np.zeros((3, 3))
    )
    report = domain_shrinkage_demo(mean_params, corr_params, grid_points=5)
    assert np.array_equal(report.mean_kind_ok, report.corr_kind_ok)
    # grid contains the corners, outside the ball
    assert report.mean_kind_count < report.total


def test_query_validation():
    with pytest.raises(ValueError):
        DomainQuery(_mv(0, 0, 0), FixedMeanParameters((2, 2), {}), "bogus")
    with pytest.raises(ValueError):
        DomainQuery(
            _mv(0, 0, 0),
            FixedCorrelationParameters(
                (2, 2), DensityMatrix(2, np.eye(2, dtype=complex) / 2), np.zeros((3, 3))
            ),
            "fixed-mean-value",
        )
    with pytest.raises(ValueError):
        DomainQuery(
            MeanValueVector(3, np.zeros(8)), FixedMeanParameters((2, 2), {}), "fixed-mean-value"
        )


def _state_query(rng, dims, rank, kind, radius=None):
    """A query read off a random joint density matrix of the given rank.

    With radius set, the system means are pushed out to that Bloch radius,
    which no state has, so the query is infeasible.
    """
    n, m = dims
    a = rng.normal(size=(n * m, rank)) + 1j * rng.normal(size=(n * m, rank))
    state = a @ a.conj().T
    state /= np.trace(state).real
    fs, gr = _gell_mann(n), _gell_mann(m)
    table = np.array([[np.trace(np.kron(f, g) @ state).real for g in gr] for f in fs])
    v = table[1:, 0]
    if radius is not None:
        direction = rng.normal(size=n * n - 1)
        v = radius * np.sqrt(n - 1.0) * direction / np.linalg.norm(direction)
    if kind == "fixed-mean-value":
        picks = rng.random(size=(n * n, m * m - 1)) < 0.5
        means = {(mu, nu + 1): table[mu, nu + 1] for mu, nu in zip(*np.nonzero(picks))}
        return _mean_query(v, means, dims)
    rho_r = state.reshape(n, m, n, m).trace(axis1=0, axis2=2)
    gamma = table[1:, 1:] - np.outer(table[1:, 0], table[0, 1:])
    specified = rng.random(size=gamma.shape) < 0.5
    return _corr_query(v, rho_r, gamma, specified, dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["fixed-mean-value", "fixed-correlation"])
@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, full_rank=st.booleans())
def test_feasible_queries_never_certified(dims, kind, seed, full_rank):
    # the query is read off a joint state, so that state carries it
    rng = np.random.default_rng(seed)
    nm = dims[0] * dims[1]
    q = _state_query(rng, dims, nm if full_rank else int(rng.integers(1, nm)), kind)
    res = _thorough(q)
    assert res.certificate is None
    assert res.verdict != "incompatible"
    assert res.compatible or res.verdict == "undecided"


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["fixed-mean-value", "fixed-correlation"])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, radius=st.floats(min_value=1.05, max_value=3.0))
def test_infeasible_queries_certified(dims, kind, seed, radius):
    # the system means lie outside the Bloch ball, so no state carries them
    rng = np.random.default_rng(seed)
    q = _state_query(rng, dims, dims[0] * dims[1], kind, radius=radius)
    res = _thorough(q)
    assert not res.compatible
    assert res.verdict == "incompatible"
    assert res.iterations < MAX_ITERATIONS


def test_shrinkage_demo_thorough_golden_counts():
    # the paper's (2,2) scenario: xi3 = 0.3, the means (1,3) and (2,3) at
    # 0.1, Gamma13 = Gamma23 = 0.2. The four domain counts were recorded
    # before the search could stop at a certificate: no verdict moved.
    mean_params = FixedMeanParameters((2, 2), {(2, 3): 0.1, (1, 3): 0.1})
    gamma = np.zeros((3, 3))
    gamma[0, 2] = gamma[1, 2] = 0.2
    corr_params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.diag([1.3, 0.7]).astype(complex) / 2), gamma
    )
    report = domain_shrinkage_demo(mean_params, corr_params, grid_points=6, thorough=True)
    assert report.total == 216
    assert report.mean_kind_count == 56
    assert report.corr_kind_count == 36
    assert report.mean_only_count == 20
    assert report.corr_only_count == 0
    assert report.mean_undecided_count == 0
    assert report.corr_undecided_count == 0
