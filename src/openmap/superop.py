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
rows are the traces of the conjugated elements U^dag F_{alpha beta} U, made
from the two single-system families a block of rows at a time (the joint
family is never tabulated) and contracted with them by `JointBasis.traces`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HermitianBasis, JointBasis, _freeze, build_basis
from .tolerances import MAP_TOL, ROUNDING_TOL, UNITARY_TOL

__all__ = [
    "SuperOperator",
    "AffineMap",
    "TransferMatrix",
    "MeanAffineMap",
    "vec",
    "unvec",
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


def is_trace_preserving(s: SuperOperator) -> bool:
    # Tr h(Q) = vec(1)^dag rep vec(Q) for all Q
    row = vec(np.eye(s.dim, dtype=complex)) @ s.rep
    return bool(np.abs(row - vec(np.eye(s.dim))).max() <= MAP_TOL)


def is_hermiticity_preserving(s: SuperOperator) -> bool:
    # h(Q^dag)^dag = h(Q) <=> conj(rep[i+Nj, k+Nl]) = rep[j+Ni, l+Nk]
    n = s.dim
    r = np.reshape(s.rep, (n, n, n, n), order="F")
    # r[i, j, k, l] = rep[i + N*j, k + N*l]
    return bool(np.abs(np.conj(np.transpose(r, (1, 0, 3, 2))) - r).max() <= MAP_TOL)


def is_unital(s: SuperOperator) -> bool:
    return bool(np.abs(s(np.eye(s.dim, dtype=complex)) - np.eye(s.dim)).max() <= MAP_TOL)


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

    a.offset * Tr[b(Q)] splits into (1 + Tr[b.offset]) a.offset Tr[Q], kept in
    the offset, and a.offset (Tr[b.homogeneous(Q)] - Tr[Q]), a rank-1 term of
    the rep that is zero when b's homogeneous part is trace-preserving.
    """
    if a.dim != b.dim:
        raise ValueError(f"cannot compose maps of dimensions {a.dim} and {b.dim}")
    one = vec(np.eye(a.dim))
    b_rep = b.homogeneous.rep
    rep = a.homogeneous.rep @ b_rep + np.outer(vec(a.offset), one @ b_rep - one)
    offset = a.homogeneous(b.offset) + (1.0 + np.trace(b.offset)) * a.offset
    return AffineMap(homogeneous=SuperOperator(dim=a.dim, rep=rep), offset=offset, kind="plain")


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


# Complex entries in one block's stack of conjugated products: (2,2), (2,4) and
# (3,3) are one block; at (2,8), (3,8) and (2,16) a block is one alpha's M^2 rows.
_BLOCK_ENTRIES = 2**14


def transfer_matrix(u: np.ndarray, basis: JointBasis) -> TransferMatrix:
    """t[(a b), (m n)] = Tr[F_{m n} U^dag F_{a b} U] / (N*M).

    Built a block of rows (a, .) at a time from the two factor families, never
    from the table of products: U^dag (F_a (x) G_b) U is [(F_a (x) 1) U]^dag
    times (1 (x) G_b) U, the second factor made once for every b, and each
    block's stack is contracted by `JointBasis.traces`.

    Rejects non-unitary input; the result satisfies t^T t = 1 to ROUNDING_TOL and
    its (0 0) row and column are delta rows, both consequences of the
    orthogonality of the basis under unitary conjugation.
    """
    n, m = basis.dims
    d = n * m
    check_unitary(u, d)
    k = n * n * m * m
    # F_a on U's system index, then the dagger; G_b on U's partner index
    left = basis.basis_s.elements.reshape(n**3, n) @ u.reshape(n, m * d)
    left = left.reshape(n * n, d, d).conj().swapaxes(1, 2)
    right = np.matmul(basis.basis_r.elements[:, None], u.reshape(n, m, d)).reshape(m * m, d, d)
    rows = max(1, _BLOCK_ENTRIES // (m * m * d * d))
    t = np.empty((k, k))
    imag = 0.0
    for a in range(0, n * n, rows):
        conjugated = np.matmul(left[a : a + rows, None], right).reshape(-1, d, d)
        block = basis.traces(conjugated).reshape(-1, k)
        imag = np.maximum(imag, np.abs(block.imag).max())  # NaN-safe, unlike max()
        t[a * m * m : a * m * m + len(block)] = block.real
    t /= d
    if not (imag / d <= ROUNDING_TOL):
        raise ValueError("transfer matrix should be real for a unitary input")
    gram = t.T @ t
    gram.flat[:: k + 1] -= 1.0
    if not (np.abs(gram, out=gram).max() <= ROUNDING_TOL):
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
    if np.abs(m.offset - m.offset.conj().T).max() > MAP_TOL:
        raise ValueError("mean-value action requires a Hermitian offset")
    n = m.dim
    # flat[a] @ vec(X) = Tr[F_a X], so traces[a, b] = Tr[F_a h(F_b)]
    flat = basis.elements.reshape(n**2, n**2)
    traces = flat @ (m.homogeneous.rep @ basis_columns(basis))
    shift = (flat[1:] @ vec(m.offset)).real + traces[1:, 0].real / n
    return MeanAffineMap(dim=n, matrix=traces[1:, 1:].real / n, shift=shift)
