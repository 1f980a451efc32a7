"""Invertibility, Choi/Kraus analysis, purity, inverse realizability."""

import numpy as np
import pytest

from openmap import (
    AffineMap,
    DensityMatrix,
    FixedCorrelationParameters,
    FixedMeanParameters,
    InconsistentCriteriaError,
    SingularMapError,
    apply,
    choi_analysis,
    choi_matrix,
    compose,
    conjugation_superoperator,
    dynamics_realizability,
    fixed_correlation_map,
    fixed_mean_value_map,
    from_action,
    identity_map,
    identity_superoperator,
    invert,
    invertibility,
    purity_inequality,
    two_qubit_unitary,
)
from conftest import (
    random_corr_params,
    random_hermitian,
    random_mean_params,
    random_unitary,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _two_qubit_l(g, means=None):
    return fixed_mean_value_map(
        two_qubit_unitary(g), FixedMeanParameters((2, 2), means or {})
    )


def _swap_mix(theta):
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    return np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * swap


def test_invertibility_regular_point():
    rep = invertibility(_two_qubit_l(np.pi / 3))
    assert rep.invertible
    assert rep.kernel_dimension == 0
    assert abs(rep.smallest_singular_value - 0.5) < 1e-12
    assert rep.basis_image_rank == 4
    assert rep.mean_map_kernel_dimension == 0


def test_invertibility_singular_point():
    rep = invertibility(_two_qubit_l(np.pi / 2))
    assert not rep.invertible
    assert rep.kernel_dimension == 2
    assert rep.smallest_singular_value < 1e-12
    assert rep.basis_image_rank == 2
    assert rep.mean_map_kernel_dimension == 2


def test_invertibility_identity():
    rep = invertibility(identity_map(3))
    assert rep.invertible
    assert abs(rep.smallest_singular_value - 1.0) < 1e-12


def test_invertibility_ignores_offset():
    # the verdict concerns the homogeneous part; the offset plays no role
    rng = np.random.default_rng(171)
    for g in (np.pi / 3, np.pi / 2):
        base = invertibility(_two_qubit_l(g))
        for _ in range(5):
            means = {(1, 3): rng.uniform(-1, 1), (2, 3): rng.uniform(-1, 1)}
            rep = invertibility(_two_qubit_l(g, means))
            assert rep.invertible == base.invertible
            assert rep.kernel_dimension == base.kernel_dimension
            assert rep.basis_image_rank == base.basis_image_rank


def test_invertibility_threshold_stability():
    # perturbing the map by 1e-13 noise does not flip the verdict
    rng = np.random.default_rng(173)
    for g in (np.pi / 3, np.pi / 2):
        m = _two_qubit_l(g, {(1, 3): 0.4})
        base = invertibility(m)
        noise = sum(
            conjugation_superoperator(random_unitary(rng, 2)).rep for _ in range(3)
        )
        from openmap import SuperOperator

        wobbled = AffineMap(
            SuperOperator(2, m.homogeneous.rep + 1e-13 * noise),
            m.offset + 1e-13 * random_hermitian(rng, 2),
            m.kind,
        )
        rep = invertibility(wobbled)
        assert rep.invertible == base.invertible
        assert rep.kernel_dimension == base.kernel_dimension


def test_invert_round_trip():
    rng = np.random.default_rng(179)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        n, m = dims
        u = random_unitary(rng, n * m)
        for mp in (
            fixed_mean_value_map(u, random_mean_params(rng, dims)),
            fixed_correlation_map(u, random_corr_params(rng, dims)),
        ):
            inv = invert(mp)
            assert inv.kind == "plain"
            for c in (compose(inv, mp), compose(mp, inv)):
                assert np.max(np.abs(c.homogeneous.rep - np.eye(n * n))) < 1e-10
                assert np.max(np.abs(c.offset)) < 1e-10


def test_invert_closed_form_fixed_mean():
    g = 1.0
    inv = invert(_two_qubit_l(g))
    assert np.max(np.abs(apply(inv, SX) - SX / np.cos(g))) < 1e-12
    assert np.max(np.abs(apply(inv, SZ) - SZ)) < 1e-12


def test_invert_closed_form_fixed_corr():
    # at g = pi/2 with <X3> = 0.5 the determinant is 0.25 and
    # the inverse sends sx to -2 sy
    params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.diag([0.75, 0.25]).astype(complex)), np.zeros((3, 3))
    )
    d = fixed_correlation_map(two_qubit_unitary(np.pi / 2), params)
    inv = invert(d)
    assert np.max(np.abs(apply(inv, SX) - (-2.0 * SY))) < 1e-12


def test_invert_singular_raises_with_report():
    m = _two_qubit_l(np.pi / 2)
    with pytest.raises(SingularMapError) as err:
        invert(m)
    assert err.value.report.kernel_dimension == 2


@pytest.mark.parametrize("dims", [(6, 2), (2, 8)])
def test_invert_rep_is_exactly_inv(dims):
    # the round trip sits near an absolute 1e-10 for maps with condition
    # number ~1e6, so invert must stay np.linalg.inv bit for bit
    rng = np.random.default_rng(191)
    u = random_unitary(rng, dims[0] * dims[1])
    for mp in (
        fixed_mean_value_map(u, random_mean_params(rng, dims)),
        fixed_correlation_map(u, random_corr_params(rng, dims)),
    ):
        assert np.array_equal(invert(mp).homogeneous.rep, np.linalg.inv(mp.homogeneous.rep))


def test_condition_number():
    m = _two_qubit_l(np.pi / 3, {(1, 3): 0.4})
    sv = np.linalg.svd(m.homogeneous.rep, compute_uv=False)
    kappa = invertibility(m).condition_number
    assert abs(kappa - sv.max() / sv.min()) <= 1e-12 * kappa
    assert invertibility(identity_map(3)).condition_number == 1.0
    dephase = AffineMap(from_action(2, lambda q: np.diag(np.diag(q))), np.zeros((2, 2)), "plain")
    assert invertibility(dephase).condition_number == np.inf


def test_inconsistent_criteria_raises():
    # h(Q) = Q - Tr[Q] 1/N kills the identity but acts as the identity on
    # mean values, so the rep criterion and the mean-map criterion disagree
    h = from_action(2, lambda q: q - np.trace(q) * np.eye(2) / 2)
    m = AffineMap(h, np.zeros((2, 2), dtype=complex), "plain")
    with pytest.raises(InconsistentCriteriaError):
        invertibility(m)


def test_choi_identity_map():
    for n in (2, 3):
        rep = choi_analysis(identity_superoperator(n))
        assert rep.is_cp and rep.is_tp and rep.is_unital
        assert rep.choi_rank == 1
        assert abs(rep.choi_eigenvalues[-1] - n) < 1e-12
        # Choi of the identity is N times the maximally entangled projector
        c = choi_matrix(identity_superoperator(n))
        v = np.eye(n).reshape(-1) / np.sqrt(n)
        assert np.max(np.abs(c - n * np.outer(v, v))) < 1e-12


def test_choi_unitary_conjugation():
    rng = np.random.default_rng(181)
    u = random_unitary(rng, 3)
    rep = choi_analysis(conjugation_superoperator(u))
    assert rep.is_cp and rep.choi_rank == 1
    (k,) = rep.kraus_factors
    q = random_hermitian(rng, 3)
    assert np.max(np.abs(k @ q @ k.conj().T - u @ q @ u.conj().T)) < 1e-12


def test_choi_two_qubit_regular():
    rep = choi_analysis(_two_qubit_l(np.pi / 3).homogeneous)
    assert rep.is_cp and rep.is_tp and rep.is_unital
    assert np.max(np.abs(rep.choi_eigenvalues - np.array([0, 0, 0.5, 1.5]))) < 1e-12
    weights = sorted(
        float(np.trace(k.conj().T @ k).real) / 2 for k in rep.kraus_factors
    )
    assert np.max(np.abs(np.array(weights) - np.array([0.25, 0.75]))) < 1e-12


def test_choi_inverse_not_cp():
    inv = invert(_two_qubit_l(np.pi / 3))
    rep = choi_analysis(inv.homogeneous)
    assert not rep.is_cp
    assert rep.kraus_factors is None
    assert np.max(np.abs(rep.choi_eigenvalues - np.array([-1.0, 0, 0, 3.0]))) < 1e-12


def test_choi_transpose_not_cp():
    rep = choi_analysis(from_action(2, lambda q: q.T))
    assert rep.is_tp and rep.is_unital and not rep.is_cp
    assert np.max(np.abs(rep.choi_eigenvalues - np.array([-1.0, 1.0, 1.0, 1.0]))) < 1e-12


def test_kraus_reconstruction_and_sums():
    rng = np.random.default_rng(191)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        n, m = dims
        u = random_unitary(rng, n * m)
        d = fixed_correlation_map(u, random_corr_params(rng, dims)).homogeneous
        rep = choi_analysis(d)
        assert rep.is_cp and rep.is_tp
        total = sum(k.conj().T @ k for k in rep.kraus_factors)
        assert np.max(np.abs(total - np.eye(n))) < 1e-10
        for _ in range(10):
            q = random_hermitian(rng, n)
            rebuilt = sum(k @ q @ k.conj().T for k in rep.kraus_factors)
            assert np.max(np.abs(rebuilt - d(q))) < 1e-10


def test_kraus_unital_sum():
    rep = choi_analysis(_two_qubit_l(0.7).homogeneous)
    assert rep.is_unital
    total = sum(k @ k.conj().T for k in rep.kraus_factors)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_purity_inequality_values():
    # unitary conjugation preserves purity; a proper open map loses some
    rng = np.random.default_rng(193)
    u = random_unitary(rng, 2)
    assert abs(purity_inequality(conjugation_superoperator(u), samples=50)) < 1e-12
    worst = purity_inequality(_two_qubit_l(np.pi / 3).homogeneous, samples=50)
    assert worst > 1e-6


def test_purity_inequality_rejects_wrong_maps():
    rng = np.random.default_rng(197)
    params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.diag([0.9, 0.1]).astype(complex)), np.zeros((3, 3))
    )
    non_unital = fixed_correlation_map(_swap_mix(0.7), params).homogeneous
    with pytest.raises(ValueError):
        purity_inequality(non_unital)
    not_tp = from_action(2, lambda q: 2.0 * q)
    with pytest.raises(ValueError):
        purity_inequality(not_tp)


def test_realizability_verdicts():
    assert dynamics_realizability(identity_map(2)).verdict == "inverse-realizable"
    rng = np.random.default_rng(199)
    u = random_unitary(rng, 3)
    um = AffineMap(conjugation_superoperator(u), np.zeros((3, 3)), "plain")
    assert dynamics_realizability(um).verdict == "inverse-realizable"
    assert dynamics_realizability(_two_qubit_l(np.pi / 3)).verdict == "inverse-not-realizable"


def test_realizability_not_applicable_cases():
    # singular map
    rep = dynamics_realizability(_two_qubit_l(np.pi / 2))
    assert rep.verdict == "not-applicable"
    assert not rep.is_invertible
    # nonzero offset breaks unitality of the affine action
    m = _two_qubit_l(np.pi / 3, {(1, 3): 0.6})
    rep = dynamics_realizability(m)
    assert rep.verdict == "not-applicable"
    assert not rep.is_unital
    # non-unital homogeneous part
    params = FixedCorrelationParameters(
        (2, 2), DensityMatrix(2, np.diag([0.9, 0.1]).astype(complex)), np.zeros((3, 3))
    )
    d = fixed_correlation_map(_swap_mix(0.7), params)
    rep = dynamics_realizability(d)
    assert rep.verdict == "not-applicable"
    assert not rep.is_unital
    # hermiticity-preserving, TP, unital, invertible, but not CP
    t = AffineMap(from_action(2, lambda q: q.T), np.zeros((2, 2)), "plain")
    rep = dynamics_realizability(t)
    assert rep.verdict == "not-applicable"
    assert rep.is_tp and rep.is_unital and not rep.is_cp


def test_realizability_report_fields():
    rep = dynamics_realizability(_two_qubit_l(np.pi / 3))
    assert rep.is_hermiticity_preserving and rep.is_tp and rep.is_cp
    assert rep.is_unital and rep.is_invertible
    assert rep.choi_rank == 2
    assert abs(rep.min_choi_eigenvalue) < 1e-12


def test_realizability_stability_under_noise():
    rng = np.random.default_rng(211)
    from openmap import SuperOperator

    for g, want in ((np.pi / 3, "inverse-not-realizable"), (np.pi / 2, "not-applicable")):
        m = _two_qubit_l(g)
        noise = sum(
            conjugation_superoperator(random_unitary(rng, 2)).rep for _ in range(3)
        )
        wobbled = AffineMap(
            SuperOperator(2, m.homogeneous.rep + 1e-13 * noise),
            m.offset + 1e-13 * random_hermitian(rng, 2),
            m.kind,
        )
        assert dynamics_realizability(wobbled).verdict == want


def _not_trace_preserving(case):
    from openmap import SuperOperator

    if case == "h-not-trace-preserving":  # h = 2 * 1, traceless offset: Tr m(Q) = 2 Tr Q
        return AffineMap(SuperOperator(2, 2.0 * np.eye(4)), 0.3 * SX, "plain")
    # unitary conjugation with offset 1/4: Tr m(Q) = 1.5 Tr Q
    u = random_unitary(np.random.default_rng(5), 2)
    return AffineMap(conjugation_superoperator(u), np.eye(2) / 4, "plain")


@pytest.mark.parametrize("case", ["h-not-trace-preserving", "offset-with-trace"])
def test_invert_refuses_maps_that_do_not_preserve_trace(case):
    # both pass the three criteria, but -h^{-1}(offset) is not their inverse's offset
    m = _not_trace_preserving(case)
    assert invertibility(m).invertible
    with pytest.raises(ValueError, match="trace-preserving") as err:
        invert(m)
    assert not isinstance(err.value, SingularMapError)
