"""States as matrices and as mean-value tables.

A joint state of an N-dimensional system and its M-dimensional partner is
carried around as the real table of mean values <F_{mu nu}>; the matrix
form is

    Pi = (1/(N*M)) * sum_{mu nu} <F_{mu nu}> F_{mu nu}

and the two encodings are mutual inverses on Hermitian unit-trace matrices.
The system's own state is the mean-value vector <F_{alpha 0}>, alpha >= 1,
with density matrix rho = (1/N)(1 + sum_alpha v_alpha F_{alpha 0});
positivity of that reconstruction is not implied and is checked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import HermitianBasis, JointBasis, _freeze

__all__ = [
    "DensityMatrix",
    "JointState",
    "MeanValueVector",
    "CorrelationTable",
    "HERMITIAN_TOL",
    "PSD_TOL",
    "joint_from_means",
    "means_from_matrix",
    "partial_trace_r",
    "reduce",
    "correlations",
    "mean_vector",
]

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10


def _as_real(values, what: str) -> np.ndarray:
    v = np.asarray(values)
    if np.iscomplexobj(v):
        raise ValueError(f"{what} must be real")
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{what} entries must be finite")
    return v


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Construction validates all three: Hermiticity and trace to 1e-12,
    smallest eigenvalue >= -1e-10. Non-finite entries are rejected.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > HERMITIAN_TOL or abs(np.trace(m).imag) > HERMITIAN_TOL:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(m)}")
        low = float(np.linalg.eigvalsh(m).min())
        if low < PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low}")
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True)
class JointState:
    """Real table of joint mean values, indexed [mu, nu], with <F_00> = 1."""

    basis: JointBasis
    means: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.basis.dims
        t = _as_real(self.means, "mean table")
        if t.shape != (n**2, m**2):
            raise ValueError(
                f"mean table has shape {t.shape}, expected {(n**2, m**2)}"
            )
        if abs(t[0, 0] - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"<F_00> must equal 1, got {t[0, 0]}")
        object.__setattr__(self, "means", _freeze(t))

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis.dims

    def to_matrix(self) -> np.ndarray:
        """Matrix form Pi; Hermitian with unit trace by construction."""
        n, m = self.dims
        return self.basis.matrix(self.means) / (n * m)


@dataclass(frozen=True)
class MeanValueVector:
    """System mean values <F_{alpha 0}>, alpha = 1 .. N^2 - 1."""

    dim: int
    components: np.ndarray

    def __post_init__(self) -> None:
        v = _as_real(self.components, "mean-value components")
        if v.shape != (self.dim**2 - 1,):
            raise ValueError(
                f"component vector has shape {v.shape}, expected ({self.dim**2 - 1},)"
            )
        object.__setattr__(self, "components", _freeze(v))

    def to_matrix(self, basis: HermitianBasis) -> np.ndarray:
        """(1/N)(1 + sum_alpha v_alpha F_alpha). Not necessarily positive."""
        if basis.dim != self.dim:
            raise ValueError(f"basis dim {basis.dim} does not match vector dim {self.dim}")
        acc = np.eye(self.dim, dtype=complex)
        acc += np.einsum("a,aij->ij", self.components, basis.elements[1:])
        return acc / self.dim


@dataclass(frozen=True)
class CorrelationTable:
    """Correlations Gamma[mu-1, nu-1] = <F_{mu nu}> - <F_{mu 0}><F_{0 nu}>.

    `specified` marks which entries are pinned at their value; unspecified
    entries are free to vary in domain-compatibility searches. Default: all
    specified.
    """

    gamma: np.ndarray
    specified: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        g = _as_real(self.gamma, "correlation table")
        if g.ndim != 2:
            raise ValueError(f"correlation table must be 2-d, got shape {g.shape}")
        object.__setattr__(self, "gamma", _freeze(g))
        s = self.specified
        s = np.ones(g.shape, dtype=bool) if s is None else np.asarray(s, dtype=bool)
        if s.shape != g.shape:
            raise ValueError(
                f"specified mask shape {s.shape} does not match table shape {g.shape}"
            )
        object.__setattr__(self, "specified", _freeze(s))


def joint_from_means(basis: JointBasis, means: np.ndarray) -> JointState:
    """Wrap a mean-value table; use .to_matrix() for the matrix form."""
    return JointState(basis=basis, means=means)


def means_from_matrix(basis: JointBasis, matrix: np.ndarray) -> np.ndarray:
    """Mean table <F_{mu nu}> = Tr[F_{mu nu} Pi] of a Hermitian matrix."""
    n, m = basis.dims
    if matrix.shape != (n * m, n * m):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match joint dimension {n * m}"
        )
    if np.abs(matrix - matrix.conj().T).max() > 1e-10:
        raise ValueError("mean extraction expects a Hermitian matrix")
    return basis.traces(matrix).real


def partial_trace_r(matrix: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out the second tensor factor of an (N*M, N*M) matrix."""
    n, m = dims
    if matrix.shape != (n * m, n * m):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    return np.einsum("imjm->ij", matrix.reshape(n, m, n, m))


def reduce(matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """System state of a joint density matrix. Trace is preserved."""
    return DensityMatrix(dim=dims[0], matrix=partial_trace_r(matrix, dims))


def correlations(state: JointState) -> CorrelationTable:
    """Subtract products of single-system means from the joint table."""
    t = state.means
    return CorrelationTable(gamma=t[1:, 1:] - np.outer(t[1:, 0], t[0, 1:]))


def mean_vector(basis: HermitianBasis, matrix: np.ndarray) -> MeanValueVector:
    """Mean values <F_alpha> = Tr[F_alpha rho], alpha >= 1, of a Hermitian matrix."""
    if matrix.shape != (basis.dim, basis.dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}"
        )
    vals = np.einsum("aij,ji->a", basis.elements[1:], matrix)
    return MeanValueVector(dim=basis.dim, components=vals.real)
