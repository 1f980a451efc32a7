"""Two-qubit scenarios where every map has a closed form.

The joint unitary is U = exp(-i gamma/2 sz (x) sz), diagonal with phases
exp(-+ i gamma/2). Conjugation rotates the transverse Pauli matrices into
correlation operators,

    U^dag s1 U = s1 cos g - (s2 (x) sz) sin g,
    U^dag s2 U = s2 cos g + (s1 (x) sz) sin g,

and everything the general machinery produces for this unitary (both map
families, their offsets, mean-value actions, inverses, and the positivity
boundary) has a hand-derivable form. The reproduce_* functions build the
maps through mapgen and report the deviation of each closed form; the
closed forms are the oracles, the general machinery is the thing under
test.

disconnection_demo walks the forward/backward story: evolve mean values
forward, build the backward map from the reversed unitary with the evolved
correlation parameters, and watch the means return exactly while the
backward map itself depends on where the system started, so the backward
maps for different initial states are different maps and none of them is
an inverse map of the forward evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import invertibility, invert
from .basis import build_basis, joint_basis
from .mapgen import (
    FixedCorrelationParameters,
    FixedMeanParameters,
    fixed_correlation_map,
    fixed_mean_value_map,
)
from .states import CorrelationTable, DensityMatrix, JointState
from .superop import AffineMap, apply, mean_affine, transfer_matrix
from .tolerances import ORACLE_TOL, ROUNDING_TOL

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "GAMMA_SWEEP",
    "XI3_SWEEP",
    "TwoQubitScenario",
    "CheckResult",
    "ScenarioReport",
    "ContrastLeg",
    "DisconnectionTranscript",
    "two_qubit_unitary",
    "reproduce_fixed_mean",
    "reproduce_fixed_corr",
    "disconnection_demo",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

# gamma grid covering both signs of cos and the singular points pi/2, 3pi/2
GAMMA_SWEEP = tuple(k * np.pi / 12 for k in range(25))
XI3_SWEEP = (0.0, 0.3, -0.3, 0.7, -0.7, 1.0, -1.0)


@dataclass(frozen=True)
class TwoQubitScenario:
    """Angle and map parameters for the diagonal two-qubit interaction.

    mean_s2x3 and mean_s1x3 are the fixed joint means <s2 (x) sz> and
    <s1 (x) sz> entering the fixed-mean-value map; xi3 is the partner
    polarization <1 (x) sz>, corr13 and corr23 the fixed correlations
    entering the fixed-correlation map.
    """

    gamma: float
    xi3: float = 0.0
    corr13: float = 0.0
    corr23: float = 0.0
    mean_s2x3: float = 0.0
    mean_s1x3: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.xi3) > 1.0:
            raise ValueError(f"partner polarization must lie in [-1, 1], got {self.xi3}")

    @property
    def correlation_determinant(self) -> float:
        """cos^2 g + xi3^2 sin^2 g, the fixed-correlation block determinant."""
        return np.cos(self.gamma) ** 2 + self.xi3**2 * np.sin(self.gamma) ** 2

    def fixed_mean_parameters(self) -> FixedMeanParameters:
        """<s2 (x) sz> and <s1 (x) sz> fixed at mean_s2x3 and mean_s1x3."""
        return FixedMeanParameters(
            dims=(2, 2), fixed_means={(2, 3): self.mean_s2x3, (1, 3): self.mean_s1x3}
        )

    def fixed_correlation_parameters(self) -> FixedCorrelationParameters:
        """Partner state (1 + xi3 sz)/2 with Gamma_13 = corr13 and Gamma_23 = corr23."""
        gamma = np.zeros((3, 3))
        gamma[0, 2] = self.corr13
        gamma[1, 2] = self.corr23
        return FixedCorrelationParameters(
            dims=(2, 2),
            rho_r=DensityMatrix(dim=2, matrix=(_EYE2 + self.xi3 * SIGMA_Z) / 2),
            gamma=CorrelationTable(gamma=gamma),
        )


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    passed: bool


@dataclass(frozen=True)
class ScenarioReport:
    label: str
    scenario: TwoQubitScenario
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def two_qubit_unitary(gamma: float) -> np.ndarray:
    """exp(-i gamma/2 sz (x) sz): diagonal phases (e^-, e^+, e^+, e^-)."""
    lo = np.exp(-0.5j * gamma)
    hi = np.exp(0.5j * gamma)
    return np.diag([lo, hi, hi, lo]).astype(complex)


def _check(name: str, deviation: float, tol: float) -> CheckResult:
    return CheckResult(name=name, deviation=float(deviation), passed=bool(deviation <= tol))


def _random_matrices(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(count)]


def reproduce_fixed_mean(
    scenario: TwoQubitScenario, tolerance: float = ORACLE_TOL, seed: int = 42
) -> ScenarioReport:
    """Build the fixed-mean-value map from the unitary and compare every
    closed form: basis images, two-term operator-sum form, mean-value
    action with shift, offset matrix, and the inverse (or the singular
    verdict with kernel dimension 2 when cos gamma vanishes).
    """
    g = scenario.gamma
    c, s = np.cos(g), np.sin(g)
    a, b = scenario.mean_s2x3, scenario.mean_s1x3
    u = two_qubit_unitary(g)
    m = fixed_mean_value_map(u, scenario.fixed_mean_parameters())
    checks = []

    closed_images = [_EYE2, c * SIGMA_X, c * SIGMA_Y, SIGMA_Z]
    dev = max(
        np.abs(m.homogeneous(f) - img).max()
        for f, img in zip([_EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z], closed_images)
    )
    checks.append(_check("homogeneous-basis-images", dev, tolerance))

    ch, sh = np.cos(g / 2), np.sin(g / 2)
    dev = max(
        np.abs(m.homogeneous(q) - (ch**2 * q + sh**2 * (SIGMA_Z @ q @ SIGMA_Z))).max()
        for q in _random_matrices(seed, 20)
    )
    checks.append(_check("operator-sum-form", dev, tolerance))

    mv = mean_affine(m)
    closed_matrix = np.diag([c, c, 1.0])
    closed_shift = np.array([-a * s, b * s, 0.0])
    dev = max(np.abs(mv.matrix - closed_matrix).max(), np.abs(mv.shift - closed_shift).max())
    checks.append(_check("mean-value-map", dev, tolerance))

    closed_two_k = (-a * SIGMA_X + b * SIGMA_Y) * s
    checks.append(_check("offset-matrix", np.abs(2 * m.offset - closed_two_k).max(), tolerance))

    if abs(c) > ROUNDING_TOL:
        inv = invert(m)
        closed_inv = [_EYE2, SIGMA_X / c, SIGMA_Y / c, SIGMA_Z]
        dev = max(
            np.abs(inv.homogeneous(f) - img).max()
            for f, img in zip([_EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z], closed_inv)
        )
        checks.append(_check("inverse-basis-images", dev, tolerance))
        # two-term difference form of the inverse, sign split on cos gamma
        sign = 1.0 if c > 0 else -1.0
        w = abs(c)
        dev = max(
            np.abs(
                inv.homogeneous(q)
                - sign * (ch**2 * q - sh**2 * (SIGMA_Z @ q @ SIGMA_Z)) / w
            ).max()
            for q in _random_matrices(seed + 1, 20)
        )
        checks.append(_check("inverse-difference-form", dev, tolerance))
    else:
        report = invertibility(m)
        dev = abs(float(report.invertible)) + abs(report.kernel_dimension - 2)
        checks.append(_check("singular-verdict", dev, tolerance))

    return ScenarioReport(
        label="fixed-mean-value",
        scenario=scenario,
        tolerance=tolerance,
        checks=tuple(checks),
    )


def reproduce_fixed_corr(
    scenario: TwoQubitScenario, tolerance: float = ORACLE_TOL, seed: int = 42
) -> ScenarioReport:
    """Build the fixed-correlation map with rho_R = (1 + xi3 sz)/2 and
    compare: basis images, offset, mean-value action, the invertibility
    determinant cos^2 g + xi3^2 sin^2 g, the inverse when it exists, the
    mean-square ratio identity of the inverse, and the positivity boundary
    at the +z pole.
    """
    g = scenario.gamma
    c, s = np.cos(g), np.sin(g)
    x = scenario.xi3
    c13, c23 = scenario.corr13, scenario.corr23
    u = two_qubit_unitary(g)
    m = fixed_correlation_map(u, scenario.fixed_correlation_parameters())
    checks = []

    closed_images = [
        _EYE2,
        c * SIGMA_X + x * s * SIGMA_Y,
        c * SIGMA_Y - x * s * SIGMA_X,
        SIGMA_Z,
    ]
    dev = max(
        np.abs(m.homogeneous(f) - img).max()
        for f, img in zip([_EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z], closed_images)
    )
    checks.append(_check("homogeneous-basis-images", dev, tolerance))

    closed_offset = 0.5 * (c13 * SIGMA_Y - c23 * SIGMA_X) * s
    checks.append(_check("offset-matrix", np.abs(m.offset - closed_offset).max(), tolerance))

    mv = mean_affine(m)
    closed_matrix = np.array([[c, -x * s, 0.0], [x * s, c, 0.0], [0.0, 0.0, 1.0]])
    closed_shift = np.array([-c23 * s, c13 * s, 0.0])
    dev = max(np.abs(mv.matrix - closed_matrix).max(), np.abs(mv.shift - closed_shift).max())
    checks.append(_check("mean-value-map", dev, tolerance))

    det = scenario.correlation_determinant
    block_det = float(np.linalg.det(mv.matrix[:2, :2]))
    checks.append(_check("block-determinant", abs(block_det - det), tolerance))

    if det > ROUNDING_TOL:
        inv = invert(m)
        closed_inv = [
            _EYE2,
            (c * SIGMA_X - x * s * SIGMA_Y) / det,
            (c * SIGMA_Y + x * s * SIGMA_X) / det,
            SIGMA_Z,
        ]
        dev = max(
            np.abs(inv.homogeneous(f) - img).max()
            for f, img in zip([_EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z], closed_inv)
        )
        checks.append(_check("inverse-basis-images", dev, tolerance))

        inv_mv = mean_affine(AffineMap(inv.homogeneous, np.zeros((2, 2)), "plain"))
        rng = np.random.default_rng(seed)
        dev = 0.0
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, size=3)
            out = inv_mv(v)
            dev = max(dev, abs(out[0] ** 2 + out[1] ** 2 - (v[0] ** 2 + v[1] ** 2) / det))
        checks.append(_check("inverse-square-identity", dev, tolerance))
    else:
        checks.append(_check("singular-verdict", float(invertibility(m).invertible), tolerance))

    # output at the +z pole: (1/2)[1 + sz + c13 sy sin g - c23 sx sin g]
    pole = (_EYE2 + SIGMA_Z) / 2
    out = apply(m, pole)
    closed_min_eig = 0.5 * (1.0 - np.sqrt(1.0 + (c13 * s) ** 2 + (c23 * s) ** 2))
    dev = abs(float(np.linalg.eigvalsh(out).min()) - closed_min_eig)
    checks.append(_check("positivity-boundary", dev, tolerance))

    return ScenarioReport(
        label="fixed-correlation",
        scenario=scenario,
        tolerance=tolerance,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class ContrastLeg:
    """Backward-map offset for a second initial state, same dynamics."""

    initial_means: np.ndarray
    backward_offset: np.ndarray
    offset_difference: float


@dataclass(frozen=True)
class DisconnectionTranscript:
    """Forward evolution, state-dependent backward map, and the round trip."""

    gamma: float
    initial_means: np.ndarray
    forward_means: np.ndarray
    evolved_mean_s2x3: float
    evolved_mean_s1x3: float
    backward_offset: np.ndarray
    returned_means: np.ndarray
    round_trip_deviation: float
    checks: tuple[CheckResult, ...]
    contrast: ContrastLeg | None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def _backward_leg(
    gamma: float, means: np.ndarray
) -> tuple[np.ndarray, float, float, np.ndarray, np.ndarray]:
    """Forward means, evolved correlation parameters, backward offset,
    and returned means for one initial mean vector."""
    u = two_qubit_unitary(gamma)
    jb = joint_basis(build_basis(2), build_basis(2))
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    table[1:, 0] = means
    state = JointState(basis=jb, means=table)
    evolved = (transfer_matrix(u, jb).t @ state.means.reshape(-1)).reshape(4, 4)
    forward = evolved[1:, 0]  # the system means <F_{alpha 0}> after the interval
    a_evolved = float(evolved[2, 3])  # <s2 (x) sz> after the interval
    b_evolved = float(evolved[1, 3])  # <s1 (x) sz> after the interval

    back = fixed_mean_value_map(
        u.conj().T,
        FixedMeanParameters(dims=(2, 2), fixed_means={(2, 3): a_evolved, (1, 3): b_evolved}),
    )
    returned = mean_affine(back)(forward)
    return forward, a_evolved, b_evolved, back.offset, returned


def disconnection_demo(
    gamma: float,
    initial_means,
    contrast_means=None,
    tolerance: float = ORACLE_TOL,
) -> DisconnectionTranscript:
    """Round trip forward by U and back by its reverse.

    The initial joint table has zero correlations (the fixed means
    <s2 (x) sz> and <s1 (x) sz> start at zero), so the forward map is the
    homogeneous part alone. Going back requires a fixed-mean-value map for
    the reversed unitary whose parameters are the *evolved* correlation
    means; it returns the initial mean values exactly, but its offset
    depends on them, so backward maps for different initial states are
    different maps. contrast_means (default: the initial vector rotated a
    quarter turn about z) exhibits that difference.
    """
    v = np.asarray(initial_means, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"initial means must be a 3-vector, got shape {v.shape}")
    s = np.sin(gamma)
    forward, a_ev, b_ev, offset, returned = _backward_leg(gamma, v)

    checks = []
    checks.append(
        _check(
            "evolved-parameters",
            max(abs(a_ev - v[0] * s), abs(b_ev - (-v[1] * s))),
            tolerance,
        )
    )
    closed_offset = 0.5 * s**2 * (v[0] * SIGMA_X + v[1] * SIGMA_Y)
    checks.append(_check("backward-offset", np.abs(offset - closed_offset).max(), tolerance))
    round_trip = float(np.abs(returned - v).max())
    checks.append(_check("round-trip", round_trip, tolerance))

    contrast = None
    if contrast_means is None:
        contrast_means = np.array([-v[1], v[0], v[2]])
    w = np.asarray(contrast_means, dtype=float)
    if w.shape != (3,):
        raise ValueError(f"contrast means must be a 3-vector, got shape {w.shape}")
    if np.abs(w - v).max() > 0:
        _, _, _, contrast_offset, contrast_returned = _backward_leg(gamma, w)
        checks.append(
            _check(
                "contrast-round-trip",
                float(np.abs(contrast_returned - w).max()),
                tolerance,
            )
        )
        contrast = ContrastLeg(
            initial_means=w,
            backward_offset=contrast_offset,
            offset_difference=float(np.linalg.norm(offset - contrast_offset)),
        )

    return DisconnectionTranscript(
        gamma=float(gamma),
        initial_means=v,
        forward_means=forward,
        evolved_mean_s2x3=a_ev,
        evolved_mean_s1x3=b_ev,
        backward_offset=offset,
        returned_means=returned,
        round_trip_deviation=round_trip,
        checks=tuple(checks),
        contrast=contrast,
    )
