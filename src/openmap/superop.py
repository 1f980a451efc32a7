"""Linear and affine maps on matrices, and the transfer matrix of a unitary.

Vectorization is column stacking: vec(Q)[i + N*j] = Q[i, j], so
vec(A Q B) = (B^T (x) A) vec(Q). A SuperOperator is the (N^2, N^2) matrix
acting on vec(Q); an AffineMap adds a trace-coupled offset,

    Q  ->  h(Q) + offset * Tr[Q],

which is the shape of every subsystem map produced in this package: the
homogeneous part is a partial trace of unitary conjugation, the offset
collects the contribution of the fixed mean values or fixed correlations.

The transfer matrix of a joint unitary U is the real table

    t[(alpha beta), (mu nu)] = Tr[F_{mu nu} U^dag F_{alpha beta} U] / (N*M),

a real orthogonal matrix that propagates joint mean tables forward. Its
rows are the traces of the conjugated elements U^dag F_{alpha beta} U
against the joint family, contracted with the two single-system families
by `JointBasis.traces`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HermitianBasis, JointBasis, _freeze, build_basis

__all__ = [
    "SuperOperator",
    "AffineMap",
    "TransferMatrix",
    "MeanAffineMap",
    "MAP_KINDS",
    "UNITARY_TOL",
    "check_unitary",
    "vec",
    "unvec",
    "basis_columns",
    "from_action",
    "identity_superoperator",
    "conjugation_superoperator",
    "is_trace_preserving",
    "is_hermiticity_preserving",
    "is_unital",
    "apply",
    "compose",
    "identity_map",
    "transfer_matrix",
    "mean_affine",
]

MAP_KINDS = ("fixed-mean-value", "fixed-correlation", "plain")
UNITARY_TOL = 1e-10
_CHECK_TOL = 1e-10


def check_unitary(u: np.ndarray, d: int) -> None:
    """Raise ValueError unless u is a d x d unitary to UNITARY_TOL; NaN and inf fail."""
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match joint dimension {d}")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = float(np.abs(u.conj().T @ u - np.eye(d)).max())
    if not (dev <= UNITARY_TOL):
        raise ValueError(f"input matrix is not unitary: max |U^dag U - 1| = {dev:.3e}")


def vec(matrix: np.ndarray) -> np.ndarray:
    """Stack columns: vec(Q)[i + N*j] = Q[i, j]."""
    return matrix.reshape(-1, order="F")


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of vec."""
    n = int(round(np.sqrt(vector.size)))
    if n * n != vector.size:
        raise ValueError(f"vector of length {vector.size} is not a stacked square matrix")
    return vector.reshape((n, n), order="F")


def basis_columns(basis: HermitianBasis) -> np.ndarray:
    """(d^2, d^2) view whose column a is vec(F_a), so rep @ it stacks vec(h(F_a))."""
    d2 = len(basis)
    return basis.elements.transpose(0, 2, 1).reshape(d2, d2).T


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on N x N matrices in the column-stacking representation; finite entries."""

    dim: int
    rep: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rep, dtype=complex)
        if r.shape != (self.dim**2, self.dim**2):
            raise ValueError(f"rep shape {r.shape} does not match dim {self.dim}")
        if not np.isfinite(r).all():
            raise ValueError("superoperator entries must be finite")
        object.__setattr__(self, "rep", _freeze(r))

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match map dimension {self.dim}"
            )
        return unvec(self.rep @ vec(matrix))


def from_action(dim: int, action) -> SuperOperator:
    """Build the rep column by column from a callable Q -> h(Q)."""
    rep = np.empty((dim**2, dim**2), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for i in range(dim):
            unit[i, j] = 1.0
            rep[:, i + dim * j] = vec(np.asarray(action(unit), dtype=complex))
            unit[i, j] = 0.0
    return SuperOperator(dim=dim, rep=rep)


def identity_superoperator(dim: int) -> SuperOperator:
    return SuperOperator(dim=dim, rep=np.eye(dim**2, dtype=complex))


def conjugation_superoperator(v: np.ndarray) -> SuperOperator:
    """Q -> V Q V^dag for a square matrix V (not necessarily unitary)."""
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError(f"conjugation expects a square matrix, got {v.shape}")
    return SuperOperator(dim=n, rep=np.kron(v.conj(), v))


def is_trace_preserving(s: SuperOperator, tol: float = _CHECK_TOL) -> bool:
    # Tr h(Q) = vec(1)^dag rep vec(Q) for all Q
    row = vec(np.eye(s.dim, dtype=complex)) @ s.rep
    return bool(np.abs(row - vec(np.eye(s.dim))).max() <= tol)


def is_hermiticity_preserving(s: SuperOperator, tol: float = _CHECK_TOL) -> bool:
    # h(Q^dag)^dag = h(Q) <=> conj(rep[i+Nj, k+Nl]) = rep[j+Ni, l+Nk]
    n = s.dim
    r = np.reshape(s.rep, (n, n, n, n), order="F")
    # r[i, j, k, l] = rep[i + N*j, k + N*l]
    return bool(np.abs(np.conj(np.transpose(r, (1, 0, 3, 2))) - r).max() <= tol)


def is_unital(s: SuperOperator, tol: float = _CHECK_TOL) -> bool:
    return bool(np.abs(s(np.eye(s.dim, dtype=complex)) - np.eye(s.dim)).max() <= tol)


@dataclass(frozen=True)
class AffineMap:
    """Q -> homogeneous(Q) + offset * Tr[Q].

    kind records how the map was built: "fixed-mean-value" and
    "fixed-correlation" for the two dynamics-derived families, "plain" for
    everything produced by algebra (composition, inversion, hand-built).
    Non-finite entries in the offset are rejected.
    """

    homogeneous: SuperOperator
    offset: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"kind must be one of {MAP_KINDS}, got {self.kind!r}")
        off = np.asarray(self.offset, dtype=complex)
        n = self.homogeneous.dim
        if off.shape != (n, n):
            raise ValueError(f"offset shape {off.shape} does not match dim {n}")
        if not np.isfinite(off).all():
            raise ValueError("offset entries must be finite")
        object.__setattr__(self, "offset", _freeze(off))

    @property
    def dim(self) -> int:
        return self.homogeneous.dim


def apply(m: AffineMap, matrix: np.ndarray) -> np.ndarray:
    return m.homogeneous(matrix) + m.offset * np.trace(matrix)


def identity_map(dim: int) -> AffineMap:
    return AffineMap(
        homogeneous=identity_superoperator(dim),
        offset=np.zeros((dim, dim), dtype=complex),
        kind="plain",
    )


def compose(a: AffineMap, b: AffineMap) -> AffineMap:
    """Affine map equal to Q -> a(b(Q)), exact for arbitrary a and b.

    When b's homogeneous part is trace-preserving the composite rep is the
    matrix product; otherwise Tr[b.homogeneous(Q)] depends on Q and the
    trace functional is folded into the rep as a rank-1 update.
    """
    if a.dim != b.dim:
        raise ValueError(f"cannot compose maps of dimensions {a.dim} and {b.dim}")
    n = a.dim
    rep = a.homogeneous.rep @ b.homogeneous.rep
    off_through = a.homogeneous(b.offset)
    tr_b_off = np.trace(b.offset)
    if is_trace_preserving(b.homogeneous):
        offset = off_through + (1.0 + tr_b_off) * a.offset
    else:
        trace_row = vec(np.eye(n, dtype=complex)) @ b.homogeneous.rep
        rep = rep + np.outer(vec(a.offset), trace_row)
        offset = off_through + tr_b_off * a.offset
    return AffineMap(homogeneous=SuperOperator(dim=n, rep=rep), offset=offset, kind="plain")


@dataclass(frozen=True)
class TransferMatrix:
    """Real orthogonal mean-table propagator of a joint unitary."""

    basis: JointBasis
    t: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.basis.dims
        k = n**2 * m**2
        tt = np.asarray(self.t, dtype=float)
        if tt.shape != (k, k):
            raise ValueError(f"transfer matrix has shape {tt.shape}, expected {(k, k)}")
        object.__setattr__(self, "t", _freeze(tt))

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis.dims

    def row(self, alpha: int, beta: int) -> np.ndarray:
        return self.t[self.basis.flat_index(alpha, beta)]


def transfer_matrix(u: np.ndarray, basis: JointBasis) -> TransferMatrix:
    """t[(a b), (m n)] = Tr[F_{m n} U^dag F_{a b} U] / (N*M).

    Rejects non-unitary input; the result satisfies t^T t = 1 to 1e-12 and
    its (0 0) row and column are delta rows, both consequences of the
    orthogonality of the basis under unitary conjugation.
    """
    n, m = basis.dims
    d = n * m
    check_unitary(u, d)
    conjugated = np.matmul(np.matmul(u.conj().T, basis.flat_elements), u)
    k = conjugated.shape[0]
    t = basis.traces(conjugated).reshape(k, k) / d
    if not (np.abs(t.imag).max() <= 1e-12):
        raise ValueError("transfer matrix should be real for a unitary input")
    t = np.ascontiguousarray(t.real)  # t.T @ t is slower on the strided .real view
    if not (np.abs(t.T @ t - np.eye(k)).max() <= 1e-12):
        raise ValueError("transfer matrix failed the orthogonality check")
    return TransferMatrix(basis=basis, t=t)


@dataclass(frozen=True)
class MeanAffineMap:
    """Induced affine action v -> matrix @ v + shift on mean-value vectors."""

    dim: int
    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        k = self.dim**2 - 1
        mat = np.asarray(self.matrix, dtype=float)
        sh = np.asarray(self.shift, dtype=float)
        if mat.shape != (k, k) or sh.shape != (k,):
            raise ValueError(
                f"mean map pieces have shapes {mat.shape}, {sh.shape}, expected ({k}, {k}) and ({k},)"
            )
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "shift", _freeze(sh))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float) + self.shift

    def compose(self, other: "MeanAffineMap") -> "MeanAffineMap":
        if self.dim != other.dim:
            raise ValueError(f"cannot compose mean maps of dims {self.dim} and {other.dim}")
        return MeanAffineMap(
            dim=self.dim,
            matrix=self.matrix @ other.matrix,
            shift=self.matrix @ other.shift + self.shift,
        )


def mean_affine(m: AffineMap, basis: HermitianBasis | None = None) -> MeanAffineMap:
    """Action of an affine map on mean-value vectors.

    For rho = (1/N)(1 + sum_mu v_mu F_mu) the output mean values are

        v'_alpha = Tr[F_alpha m(rho)]
                 = sum_mu (Tr[F_alpha h(F_mu)] / N) v_mu
                   + Tr[F_alpha offset] + Tr[F_alpha h(1)] / N,

    exact for any Hermiticity-preserving homogeneous part (no unitality
    assumed; the h(1) term carries any non-unital piece into the shift).
    """
    if basis is None:
        basis = build_basis(m.dim)
    if basis.dim != m.dim:
        raise ValueError(f"basis dim {basis.dim} does not match map dim {m.dim}")
    if not is_hermiticity_preserving(m.homogeneous):
        raise ValueError("mean-value action requires a Hermiticity-preserving map")
    if np.abs(m.offset - m.offset.conj().T).max() > _CHECK_TOL:
        raise ValueError("mean-value action requires a Hermitian offset")
    n = m.dim
    # flat[a] @ vec(X) = Tr[F_a X], so traces[a, b] = Tr[F_a h(F_b)]
    flat = basis.elements.reshape(n**2, n**2)
    traces = flat @ (m.homogeneous.rep @ basis_columns(basis))
    shift = (flat[1:] @ vec(m.offset)).real + traces[1:, 0].real / n
    return MeanAffineMap(dim=n, matrix=traces[1:, 1:].real / n, shift=shift)
