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
from .basis import JointBasis, build_basis
from .mapgen import (
    FixedCorrelationParameters,
    FixedMeanParameters,
    fixed_correlation_map,
    fixed_mean_value_map,
)
from .states import CorrelationTable, DensityMatrix, JointState
from .superop import AffineMap, SuperOperator, apply, mean_affine, transfer_matrix
from .tolerances import ORACLE_TOL, ROUNDING_TOL

__all__ = [
    "GAMMA_SWEEP",
    "XI3_SWEEP",
    "TwoQubitScenario",
    "ScenarioReport",
    "DisconnectionTranscript",
    "two_qubit_unitary",
    "reproduce_fixed_mean",
    "reproduce_fixed_corr",
    "disconnection_demo",
]

# build_basis(2) is the Pauli family, identity first, bit for bit
_PAULI = build_basis(2).elements
_EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z = _PAULI

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
        # means and covariances of +-1-valued Pauli observables and their products
        for name in ("xi3", "corr13", "corr23", "mean_s2x3", "mean_s1x3"):
            value = getattr(self, name)
            if not abs(value) <= 1.0 + ROUNDING_TOL:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")

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


def _check(name: str, computed, closed_form, tol: float) -> CheckResult:
    """max |computed - closed_form| over equally shaped arrays, or lists of
    them; a NaN deviation fails."""
    if not isinstance(computed, list):
        computed, closed_form = [computed], [closed_form]
    pairs = zip(computed, closed_form, strict=True)
    deviation = float(np.max([np.abs(np.subtract(c, f)).max() for c, f in pairs]))
    return CheckResult(name=name, deviation=deviation, passed=bool(deviation <= tol))


def _images(s: SuperOperator) -> list[np.ndarray]:
    """s(1), s(sx), s(sy), s(sz)."""
    return [s(f) for f in _PAULI]


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
    ch, sh = np.cos(g / 2), np.sin(g / 2)
    a, b = scenario.mean_s2x3, scenario.mean_s1x3
    m = fixed_mean_value_map(two_qubit_unitary(g), scenario.fixed_mean_parameters())
    mv = mean_affine(m)
    qs = _random_matrices(seed, 20)
    triples = [
        ("homogeneous-basis-images", _images(m.homogeneous),
         [_EYE2, c * SIGMA_X, c * SIGMA_Y, SIGMA_Z]),
        ("operator-sum-form", [m.homogeneous(q) for q in qs],
         [ch**2 * q + sh**2 * (SIGMA_Z @ q @ SIGMA_Z) for q in qs]),
        ("mean-value-map", [mv.matrix, mv.shift],
         [np.diag([c, c, 1.0]), np.array([-a * s, b * s, 0.0])]),
        ("offset-matrix", 2 * m.offset, (-a * SIGMA_X + b * SIGMA_Y) * s),
    ]
    if abs(c) > ROUNDING_TOL:
        inv = invert(m)
        sign, w = (1.0 if c > 0 else -1.0), abs(c)
        qs = _random_matrices(seed + 1, 20)
        triples += [
            ("inverse-basis-images", _images(inv.homogeneous),
             [_EYE2, SIGMA_X / c, SIGMA_Y / c, SIGMA_Z]),
            # two-term difference form of the inverse, sign split on cos gamma
            ("inverse-difference-form", [inv.homogeneous(q) for q in qs],
             [sign * (ch**2 * q - sh**2 * (SIGMA_Z @ q @ SIGMA_Z)) / w for q in qs]),
        ]
    else:
        report = invertibility(m)
        triples.append(
            ("singular-verdict", [float(report.invertible), report.kernel_dimension], [0.0, 2])
        )
    checks = tuple(_check(*t, tolerance) for t in triples)
    return ScenarioReport("fixed-mean-value", scenario, tolerance, checks)


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
    m = fixed_correlation_map(two_qubit_unitary(g), scenario.fixed_correlation_parameters())
    mv = mean_affine(m)
    det = scenario.correlation_determinant
    triples = [
        ("homogeneous-basis-images", _images(m.homogeneous),
         [_EYE2, c * SIGMA_X + x * s * SIGMA_Y, c * SIGMA_Y - x * s * SIGMA_X, SIGMA_Z]),
        ("offset-matrix", m.offset, 0.5 * (c13 * SIGMA_Y - c23 * SIGMA_X) * s),
        ("mean-value-map", [mv.matrix, mv.shift],
         [np.array([[c, -x * s, 0.0], [x * s, c, 0.0], [0.0, 0.0, 1.0]]),
          np.array([-c23 * s, c13 * s, 0.0])]),
        ("block-determinant", float(np.linalg.det(mv.matrix[:2, :2])), det),
    ]
    if det > ROUNDING_TOL:
        inv = invert(m)
        inv_mv = mean_affine(AffineMap(inv.homogeneous, np.zeros((2, 2)), "plain"))
        vs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(20, 3))
        outs = np.array([inv_mv(v) for v in vs])
        triples += [
            ("inverse-basis-images", _images(inv.homogeneous),
             [_EYE2, (c * SIGMA_X - x * s * SIGMA_Y) / det,
              (c * SIGMA_Y + x * s * SIGMA_X) / det, SIGMA_Z]),
            ("inverse-square-identity", outs[:, 0] ** 2 + outs[:, 1] ** 2,
             (vs[:, 0] ** 2 + vs[:, 1] ** 2) / det),
        ]
    else:
        triples.append(("singular-verdict", float(invertibility(m).invertible), 0.0))
    # output at the +z pole: (1/2)[1 + sz + c13 sy sin g - c23 sx sin g]
    out = apply(m, (_EYE2 + SIGMA_Z) / 2)
    closed_min_eig = 0.5 * (1.0 - np.sqrt(1.0 + (c13 * s) ** 2 + (c23 * s) ** 2))
    triples.append(("positivity-boundary", np.linalg.eigvalsh(out).min(), closed_min_eig))
    checks = tuple(_check(*t, tolerance) for t in triples)
    return ScenarioReport("fixed-correlation", scenario, tolerance, checks)


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
    jb = JointBasis(build_basis(2), build_basis(2))
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


def _bloch_vector(means, what: str) -> np.ndarray:
    """means as a 3-vector of floats; a shape error or a norm above 1 is a ValueError."""
    v = np.asarray(means, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{what} means must be a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not norm <= 1.0 + ROUNDING_TOL:
        raise ValueError(f"{what} means have norm {norm!r}, outside the Bloch ball")
    return v


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
    quarter turn about z) exhibits that difference. Both vectors must lie
    in the Bloch ball.
    """
    v = _bloch_vector(initial_means, "initial")
    if contrast_means is None:
        contrast_means = np.array([-v[1], v[0], v[2]])
    w = _bloch_vector(contrast_means, "contrast")
    s = np.sin(gamma)
    forward, a_ev, b_ev, offset, returned = _backward_leg(gamma, v)

    triples = [
        ("evolved-parameters", [a_ev, b_ev], [v[0] * s, -v[1] * s]),
        ("backward-offset", offset, 0.5 * s**2 * (v[0] * SIGMA_X + v[1] * SIGMA_Y)),
        ("round-trip", returned, v),
    ]
    contrast = None
    if np.abs(w - v).max() > 0:
        _, _, _, contrast_offset, contrast_returned = _backward_leg(gamma, w)
        triples.append(("contrast-round-trip", contrast_returned, w))
        contrast = ContrastLeg(
            initial_means=w,
            backward_offset=contrast_offset,
            offset_difference=float(np.linalg.norm(offset - contrast_offset)),
        )
    checks = tuple(_check(*t, tolerance) for t in triples)
    return DisconnectionTranscript(
        gamma=float(gamma),
        initial_means=v,
        forward_means=forward,
        evolved_mean_s2x3=a_ev,
        evolved_mean_s1x3=b_ev,
        backward_offset=offset,
        returned_means=returned,
        round_trip_deviation=checks[2].deviation,
        checks=checks,
        contrast=contrast,
    )
