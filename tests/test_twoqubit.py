"""Two-qubit closed forms: the worked family of maps and its round trips."""

import numpy as np
import pytest

from openmap import (
    GAMMA_SWEEP,
    XI3_SWEEP,
    DensityMatrix,
    FixedCorrelationParameters,
    TwoQubitScenario,
    choi_analysis,
    disconnection_demo,
    fixed_correlation_map,
    invert,
    invertibility,
    reproduce_fixed_corr,
    reproduce_fixed_mean,
    two_qubit_unitary,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_unitary_infinitesimal_form():
    for g in (0.0, 0.4, np.pi / 2, np.pi, 5.1):
        u = two_qubit_unitary(g)
        lo, hi = np.exp(-1j * g / 2), np.exp(1j * g / 2)
        want = np.diag([lo, hi, hi, lo])
        assert np.max(np.abs(u - want)) < 1e-15
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-15
    assert np.max(np.abs(two_qubit_unitary(0.0) - np.eye(4))) < 1e-15


def test_heisenberg_images():
    s1 = np.kron(SX, np.eye(2))
    s2 = np.kron(SY, np.eye(2))
    s2x3 = np.kron(SY, SZ)
    s1x3 = np.kron(SX, SZ)
    for g in (0.3, np.pi / 2, np.pi, 4.0):
        u = two_qubit_unitary(g)
        got1 = u.conj().T @ s1 @ u
        got2 = u.conj().T @ s2 @ u
        assert np.max(np.abs(got1 - (s1 * np.cos(g) - s2x3 * np.sin(g)))) < 1e-12
        assert np.max(np.abs(got2 - (s2 * np.cos(g) + s1x3 * np.sin(g)))) < 1e-12


def test_heisenberg_images_special_angles():
    s1 = np.kron(SX, np.eye(2))
    u = two_qubit_unitary(np.pi)
    assert np.max(np.abs(u.conj().T @ s1 @ u - (-s1))) < 1e-12
    u = two_qubit_unitary(np.pi / 2)
    assert np.max(np.abs(u.conj().T @ s1 @ u - (-np.kron(SY, SZ)))) < 1e-12


def test_sweep_constants():
    assert len(GAMMA_SWEEP) == 25
    assert abs(GAMMA_SWEEP[0]) < 1e-15
    assert abs(GAMMA_SWEEP[-1] - 2 * np.pi) < 1e-12
    assert set(np.sign(XI3_SWEEP)) == {-1.0, 0.0, 1.0}
    assert max(XI3_SWEEP) == 1.0 and min(XI3_SWEEP) == -1.0


def test_reproduce_fixed_mean_sweep():
    for g in GAMMA_SWEEP:
        for a, b in ((0.0, 0.0), (0.4, -0.7)):
            report = reproduce_fixed_mean(
                TwoQubitScenario(gamma=g, mean_s2x3=a, mean_s1x3=b)
            )
            assert report.ok, (g, a, b, report.failures())
            assert report.max_deviation < 1e-10


def test_reproduce_fixed_mean_singular_branch():
    report = reproduce_fixed_mean(TwoQubitScenario(gamma=np.pi / 2))
    assert report.ok
    names = [c.name for c in report.checks]
    assert "singular-verdict" in names
    assert "inverse-basis-images" not in names
    regular = reproduce_fixed_mean(TwoQubitScenario(gamma=np.pi / 3))
    names = [c.name for c in regular.checks]
    assert "inverse-basis-images" in names and "inverse-difference-form" in names


def test_reproduce_fixed_corr_full_sweep():
    for g in GAMMA_SWEEP:
        for x in XI3_SWEEP:
            report = reproduce_fixed_corr(
                TwoQubitScenario(gamma=g, xi3=x, corr13=0.25, corr23=-0.15)
            )
            assert report.ok, (g, x, report.failures())


def test_reproduce_fixed_corr_singular_branch():
    report = reproduce_fixed_corr(TwoQubitScenario(gamma=np.pi / 2, xi3=0.0))
    assert report.ok
    assert "singular-verdict" in [c.name for c in report.checks]


def _fixed_corr_map(g, x3):
    rho = DensityMatrix(2, np.diag([(1 + x3) / 2, (1 - x3) / 2]).astype(complex))
    params = FixedCorrelationParameters((2, 2), rho, np.zeros((3, 3)))
    return fixed_correlation_map(two_qubit_unitary(g), params)


def test_inverse_cp_classification():
    # the inverse of the mean-value homogeneous part is completely positive
    # only at the unitary points sin g = 0; the correlation-family inverse
    # also becomes CP when the partner state is pure along z
    from openmap import FixedMeanParameters, fixed_mean_value_map

    for g in GAMMA_SWEEP:
        s, c = np.sin(g), np.cos(g)
        if abs(c) > 1e-6:
            lmap = fixed_mean_value_map(
                two_qubit_unitary(g), FixedMeanParameters((2, 2), {})
            )
            rep = choi_analysis(invert(lmap).homogeneous)
            assert rep.is_cp == (abs(s) < 1e-8), g
        for x3 in (0.0, 0.7, 1.0, -1.0):
            det = c * c + x3 * x3 * s * s
            if det < 1e-6:
                continue
            dmap = _fixed_corr_map(g, x3)
            rep = choi_analysis(invert(dmap).homogeneous)
            want = abs(s) < 1e-8 or abs(abs(x3) - 1.0) < 1e-12
            assert rep.is_cp == want, (g, x3)


def test_pure_partner_rotation():
    # <X3> = 1 makes the map plain rotation about z by g
    g = 0.9
    dmap = _fixed_corr_map(g, 1.0)
    rep = choi_analysis(dmap.homogeneous)
    assert rep.is_cp and rep.choi_rank == 1
    assert invertibility(dmap).smallest_singular_value > 1 - 1e-12


def test_disconnection_example():
    t = disconnection_demo(np.pi / 3, [1.0, 0.0, 0.0])
    assert t.ok, t.failures()
    assert abs(t.evolved_mean_s2x3 - np.sin(np.pi / 3)) < 1e-12
    assert abs(t.evolved_mean_s1x3) < 1e-12
    assert np.max(np.abs(t.returned_means - np.array([1.0, 0.0, 0.0]))) < 1e-12
    assert t.round_trip_deviation < 1e-12


def test_disconnection_zero_vector():
    t = disconnection_demo(1.2, [0.0, 0.0, 0.0], contrast_means=[0.5, 0.0, 0.0])
    assert t.ok
    assert np.max(np.abs(t.backward_offset)) < 1e-15
    assert t.round_trip_deviation < 1e-15


def test_disconnection_random_round_trips():
    rng = np.random.default_rng(233)
    for _ in range(100):
        v = rng.uniform(-1, 1, size=3)
        n = np.linalg.norm(v)
        if n > 1:
            v /= n
        g = rng.uniform(0, 2 * np.pi)
        t = disconnection_demo(g, v)
        assert t.round_trip_deviation < 1e-12
        assert t.ok, t.failures()


def test_disconnection_offsets_differ_between_initial_states():
    t = disconnection_demo(np.pi / 4, [1.0, 0.0, 0.0], contrast_means=[0.0, 1.0, 0.0])
    assert t.contrast is not None
    assert abs(t.contrast.offset_difference - 0.5) < 1e-12
    t = disconnection_demo(np.pi / 3, [1.0, 0.0, 0.0], contrast_means=[0.0, 1.0, 0.0])
    assert abs(t.contrast.offset_difference - 0.75) < 1e-12


def test_scenario_validation():
    with pytest.raises(ValueError):
        TwoQubitScenario(gamma=1.0, xi3=1.5)
    with pytest.raises(ValueError):
        disconnection_demo(1.0, [1.0, 0.0])


@pytest.mark.parametrize("name", ["xi3", "corr13", "corr23", "mean_s2x3", "mean_s1x3"])
def test_scenario_refuses_pauli_moments_above_one(name):
    TwoQubitScenario(gamma=1.0, **{name: -1.0})
    with pytest.raises(ValueError, match=name):
        TwoQubitScenario(gamma=1.0, **{name: 1.001})
    with pytest.raises(ValueError, match=name):
        TwoQubitScenario(gamma=1.0, **{name: float("nan")})


def test_disconnection_refuses_means_outside_bloch_ball():
    disconnection_demo(1.0, [0.6, 0.8, 0.0], contrast_means=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="Bloch ball"):
        disconnection_demo(1.0, [0.6, 0.8, 0.1])
    with pytest.raises(ValueError, match="Bloch ball"):
        disconnection_demo(1.0, [1e300, 0.0, 0.0])
    with pytest.raises(ValueError, match="Bloch ball"):
        disconnection_demo(1.0, [1.0, 0.0, 0.0], contrast_means=[0.0, 2.0, 0.0])


def test_pauli_constants_are_the_pauli_matrices():
    from openmap.twoqubit import SIGMA_X, SIGMA_Y, SIGMA_Z

    assert np.array_equal(SIGMA_X, SX)
    assert np.array_equal(SIGMA_Y, SY)
    assert np.array_equal(SIGMA_Z, SZ)
