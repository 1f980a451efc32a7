"""Subsystem maps generated by a joint unitary.

Both affine families are one assignment map (Jordan, Shaji and Sudarshan,
PRA 70, 052110, 2004): the system state Q is assigned a joint state, the
joint system evolves by the unitary U, and the partner is traced out,

    Q -> Tr_R[U (Q (x) sigma_R + X Tr[Q]) U^dag],
    X = (1/(N M)) sum_{mu nu} c_{mu nu} F_{mu nu}.

The fixed-mean-value map holds a chosen set of joint mean values
<F_{mu nu}> (nu >= 1) fixed: sigma_R = 1/M and c_{mu nu} = <F_{mu nu}>.
The fixed-correlation map holds the partner state and the correlations
Gamma_{mu nu} = <F_{mu nu}> - <F_{mu 0}><F_{0 nu}> fixed: sigma_R = rho_R
and c_{mu nu} = Gamma_{mu nu} for mu, nu >= 1.

Both offsets are traceless and both homogeneous parts are trace-preserving,
so each family maps unit-trace matrices to unit-trace matrices.

A mean value enters the subsystem dynamics at all only if some row
t[(alpha 0), (mu nu)] of the transfer matrix is nonzero; those index pairs
are the map's parameters, and `detect_parameters` reads them off. Mean
values outside the parameter set multiply a partial trace that is
identically zero, so supplying them changes nothing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .basis import JointBasis, build_basis
from .states import CorrelationTable, DensityMatrix, JointState, MeanValueVector, partial_trace_r
from .superop import (
    AffineMap,
    SuperOperator,
    TransferMatrix,
    check_unitary,
    is_hermiticity_preserving,
    transfer_matrix,
    vec,
)
from .tolerances import ROUNDING_TOL

__all__ = [
    "FixedMeanParameters",
    "FixedCorrelationParameters",
    "ParameterReport",
    "canonical_joint_basis",
    "fixed_mean_value_map",
    "fixed_correlation_map",
    "unitalize",
    "heisenberg_means",
    "detect_parameters",
]

@dataclass(frozen=True)
class FixedMeanParameters:
    """Fixed joint mean values for the fixed-mean-value family.

    fixed_means maps index pairs (mu, nu) with 0 <= mu < N^2 and
    1 <= nu < M^2 to finite real values; pairs not listed are fixed at zero.
    """

    dims: tuple[int, int]
    fixed_means: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        n, m = self.dims
        if n < 1 or m < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        clean: dict[tuple[int, int], float] = {}
        for key, value in dict(self.fixed_means).items():
            mu, nu = key
            if not (0 <= mu < n**2 and 1 <= nu < m**2):
                raise ValueError(
                    f"mean index {key} out of range for dims {self.dims} (need nu >= 1)"
                )
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"fixed mean {key} must be finite, got {value}")
            clean[(int(mu), int(nu))] = value
        object.__setattr__(self, "fixed_means", MappingProxyType(clean))


@dataclass(frozen=True)
class FixedCorrelationParameters:
    """Partner state and correlation table for the fixed-correlation family."""

    dims: tuple[int, int]
    rho_r: DensityMatrix
    gamma: CorrelationTable

    def __post_init__(self) -> None:
        n, m = self.dims
        if self.rho_r.dim != m:
            raise ValueError(
                f"partner state dim {self.rho_r.dim} does not match dims {self.dims}"
            )
        if not isinstance(self.gamma, CorrelationTable):
            object.__setattr__(self, "gamma", CorrelationTable(self.gamma))
        if self.gamma.gamma.shape != (n**2 - 1, m**2 - 1):
            raise ValueError(
                f"correlation table shape {self.gamma.gamma.shape} does not match dims {self.dims}"
            )


@dataclass(frozen=True)
class ParameterReport:
    """Index sets read off the transfer matrix at threshold ROUNDING_TOL.

    fixed_mean_indices: pairs (mu, nu), nu >= 1, whose mean value enters the
    fixed-mean-value map. environment_mean_indices: the nu with (0, nu) a
    parameter (partner means entering). correlation_indices: the pairs with
    mu >= 1 (genuine correlations entering the fixed-correlation map).
    """

    dims: tuple[int, int]
    fixed_mean_indices: frozenset[tuple[int, int]]
    environment_mean_indices: frozenset[int]
    correlation_indices: frozenset[tuple[int, int]]


def canonical_joint_basis(dims: tuple[int, int]) -> JointBasis:
    return JointBasis(build_basis(dims[0]), build_basis(dims[1]))


def _assignment_map(
    u: np.ndarray,
    sigma_r: np.ndarray,
    coeffs: np.ndarray,
    dims: tuple[int, int],
    basis: JointBasis | None,
    kind: str,
) -> AffineMap:
    """Q -> Tr_R[U (Q (x) sigma_R + X Tr[Q]) U^dag], X = sum coeffs F_{mu nu} / (N M).

    coeffs is (N^2, M^2); X is formed from the two single-system families.
    """
    n, m = dims
    check_unitary(u, n * m)
    if basis is None:
        basis = canonical_joint_basis(dims)
    # rep[i + N k, j + N l] = sum_{r s t} U[i r, j s] sigma[s, t] conj(U[k r, l t])
    u_sigma = (u.reshape(n * m * n, m) @ sigma_r).reshape(n, m, n, m)
    left = u_sigma.transpose(0, 2, 1, 3).reshape(n * n, m * m)
    right = u.conj().reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    rep = (left @ right.T).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    homogeneous = SuperOperator(dim=n, rep=rep.reshape(n * n, n * n, order="F"))
    x = basis.matrix(coeffs) / (n * m)
    offset = partial_trace_r(u @ x @ u.conj().T, dims)
    return AffineMap(homogeneous=homogeneous, offset=offset, kind=kind)


def fixed_mean_value_map(
    u: np.ndarray,
    params: FixedMeanParameters,
    basis: JointBasis | None = None,
) -> AffineMap:
    """Affine map with the partner thrown in maximally mixed.

    The homogeneous part Q -> Tr_R[U (Q (x) 1/M) U^dag] is unital and
    trace-preserving; the offset is the traceless sum over the fixed mean
    values.
    """
    n, m = params.dims
    coeffs = np.zeros((n * n, m * m))
    for (mu, nu), value in params.fixed_means.items():
        coeffs[mu, nu] = value
    return _assignment_map(u, np.eye(m) / m, coeffs, params.dims, basis, "fixed-mean-value")


def fixed_correlation_map(
    u: np.ndarray,
    params: FixedCorrelationParameters,
    basis: JointBasis | None = None,
) -> AffineMap:
    """Affine map with the partner thrown in at rho_R and correlations fixed."""
    n, m = params.dims
    coeffs = np.zeros((n * n, m * m))
    coeffs[1:, 1:] = params.gamma.gamma
    return _assignment_map(
        u, params.rho_r.matrix, coeffs, params.dims, basis, "fixed-correlation"
    )


def unitalize(s: SuperOperator) -> SuperOperator:
    """Q -> s(Q) - s(1) Tr[Q]/N + 1 Tr[Q]/N; unital whenever s is TP.

    This is the standard unital companion of the fixed-correlation
    homogeneous part; on traceless matrices it agrees with s.
    """
    if not is_hermiticity_preserving(s):
        raise ValueError("unitalize expects a Hermiticity-preserving map")
    n = s.dim
    eye = np.eye(n, dtype=complex)
    correction = np.outer(vec(s(eye) - eye), vec(eye)) / n
    return SuperOperator(dim=n, rep=s.rep - correction)


def _system_rows(tm: TransferMatrix) -> np.ndarray:
    """Rows (alpha 0), alpha >= 1: t reshaped to (N^2, M^2, N^2 M^2), then [1:, 0]."""
    n, m = tm.dims
    return tm.t.reshape(n**2, m**2, -1)[1:, 0]


def heisenberg_means(u: np.ndarray, state: JointState) -> MeanValueVector:
    """System mean values after the joint unitary, straight from the table.

    <F_{alpha 0}>' = sum_{mu nu} t[(alpha 0), (mu nu)] <F_{mu nu}>.
    """
    tm = transfer_matrix(u, state.basis)
    comps = _system_rows(tm) @ state.means.reshape(-1)
    return MeanValueVector(dim=tm.dims[0], components=comps)


def detect_parameters(tm: TransferMatrix) -> ParameterReport:
    """Read the parameter index sets off a transfer matrix.

    (mu, nu) with nu >= 1 is a parameter when any row (alpha 0), alpha >= 1,
    has |t[(alpha 0), (mu nu)]| > ROUNDING_TOL. The (0 0) row is a delta row and
    never contributes, so at N = 1, with no such row, the report is empty.
    """
    n, m = tm.dims
    influence = np.abs(_system_rows(tm)).max(axis=0, initial=0.0).reshape(n**2, m**2)
    mu, nu = np.nonzero(influence[:, 1:] > ROUNDING_TOL)
    mean_idx = set(zip(mu.tolist(), (nu + 1).tolist()))
    return ParameterReport(
        dims=tm.dims,
        fixed_mean_indices=frozenset(mean_idx),
        environment_mean_indices=frozenset(nu for mu, nu in mean_idx if mu == 0),
        correlation_indices=frozenset((mu, nu) for mu, nu in mean_idx if mu >= 1),
    )
