"""Hermitian operator bases normalized to Tr[F_a F_b] = dim * delta_ab.

Every construction in this package is phrased in terms of an ordered family
of Hermitian matrices F_0, ..., F_{d^2-1} with F_0 the identity and the
remaining elements traceless. The normalization Tr[F_a F_b] = d * delta_ab
makes mean values and expansion coefficients proportional: any matrix Q
decomposes as Q = sum_a c_a F_a with c_a = Tr[F_a Q] / d.

For a bipartite system the joint family is F_{mu nu} = F_mu (x) G_nu,
flattened as (mu, nu) -> mu * M^2 + nu. `JointBasis` owns this layout and
contracts with the two single-system families instead of storing the
products (reshuffle identities: Wood, Biamonte and Cory, "Tensor networks
and graphical calculus for open quantum systems", 2015).

The single-system family is the generalized Gell-Mann construction:
identity, then the symmetric pairs, the antisymmetric pairs, and the
diagonal ladder, each in lexicographic index order and rescaled to the
normalization above. At dim 2 this is exactly [I, sigma_x, sigma_y,
sigma_z] with no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianBasis",
    "JointBasis",
    "build_basis",
    "joint_basis",
    "expand",
    "reconstruct",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HermitianBasis:
    """Ordered Hermitian family for one system.

    elements has shape (dim^2, dim, dim); elements[0] is the identity and
    Tr[elements[a] @ elements[b]] = dim * delta_ab.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        expected = (self.dim**2, self.dim, self.dim)
        if self.elements.shape != expected:
            raise ValueError(
                f"basis table has shape {self.elements.shape}, expected {expected}"
            )
        object.__setattr__(self, "elements", _freeze(self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.dim**2


@dataclass(frozen=True)
class JointBasis:
    """Tensor-product family F_{mu nu} = F_mu (x) G_nu of a bipartite system.

    F_mu = basis_s.elements[mu] acts on the N-dimensional system of interest,
    G_nu = basis_r.elements[nu] on the M-dimensional partner. Only these two
    families are stored; `matrix` and `traces` contract with them, and the
    table of products is built only when `elements` or `flat_elements` is read.
    """

    basis_s: HermitianBasis
    basis_r: HermitianBasis

    @property
    def dims(self) -> tuple[int, int]:
        return (self.basis_s.dim, self.basis_r.dim)

    @property
    def elements(self) -> np.ndarray:
        """The products F_mu (x) G_nu, shape (N^2, M^2, NM, NM), built on each access."""
        n, m = self.dims
        return self.flat_elements.reshape(n**2, m**2, n * m, n * m)

    @property
    def flat_elements(self) -> np.ndarray:
        """The products in flat pair order, shape (N^2 M^2, NM, NM), built on each access."""
        n, m = self.dims
        # (f * g)[mu, nu, j, s, l, t] = F_mu[j, l] G_nu[s, t], the entries of kron
        f = self.basis_s.elements[:, None, :, None, :, None]
        g = self.basis_r.elements[None, :, None, :, None, :]
        return (f * g).reshape(n**2 * m**2, n * m, n * m)

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_{mu nu} c[..., mu, nu] F_mu (x) G_nu for a (..., N^2, M^2) table."""
        n, m = self.dims
        f = self.basis_s.elements.reshape(n * n, n * n)
        g = self.basis_r.elements.reshape(m * m, m * m)
        # (f.T @ c @ g)[(j l), (s t)] = sum c F_mu[j, l] G_nu[s, t] = kron entry [(j s), (l t)]
        x = (f.T @ (coeffs @ g)).reshape(*coeffs.shape[:-2], n, n, m, m)
        return np.einsum("...jlst->...jslt", x).reshape(*coeffs.shape[:-2], n * m, n * m)

    def traces(self, x: np.ndarray) -> np.ndarray:
        """Tr[(F_mu (x) G_nu) X] for an (..., NM, NM) stack, shape (..., N^2, M^2)."""
        n, m = self.dims
        f = self.basis_s.elements.reshape(n * n, n * n)
        g = self.basis_r.elements.reshape(m * m, m * m)
        # Tr[(F (x) G) X] = sum F[j, l] G[s, t] X[(l t), (j s)]; a stack runs
        # one small product per matrix, below BLAS's threading threshold
        c = np.einsum("...ltjs->...jlst", x.reshape(*x.shape[:-2], n, m, n, m))
        return f @ c.reshape(*x.shape[:-2], n * n, m * m) @ g.T

    def flat_index(self, mu: int, nu: int) -> int:
        n, m = self.dims
        if not (0 <= mu < n**2 and 0 <= nu < m**2):
            raise ValueError(f"pair index ({mu}, {nu}) out of range for dims {self.dims}")
        return mu * m**2 + nu


def build_basis(dim: int) -> HermitianBasis:
    """Generalized Gell-Mann family for one system, identity first.

    Order after the identity: symmetric pair elements (j < k,
    lexicographic), antisymmetric pair elements (same order), then the
    diagonal ladder. Each element is rescaled so Tr[F_a^2] = dim.

    The table is filled by index arithmetic: the pairs j < k, in the order
    np.triu_indices(dim, 1) gives them, place sqrt(dim/2) in the real part
    of both symmetric entries and -/+ sqrt(dim/2) in the imaginary part of
    the (j, k)/(k, j) antisymmetric entries; rung l of the ladder,
    diag(1, ..., 1, -l, 0, ...), is scaled by sqrt(dim / (l (l + 1))) and
    all rungs are scattered onto the diagonals at once.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    i = np.arange(dim)
    j, k = np.nonzero(i[:, None] < i)  # np.triu_indices(dim, 1), without its overhead
    pairs = np.arange(1, len(j) + 1)
    anti = pairs + len(j)
    table = np.zeros((dim**2, dim, dim), dtype=complex)
    table.real[0, i, i] = 1.0
    s = np.sqrt(dim / 2)
    table.real[pairs, j, k] = table.real[pairs, k, j] = s
    table.imag[anti, j, k] = -s
    table.imag[anti, k, j] = s
    rung = i[1:]
    scale = np.sqrt(dim / (rung * (rung + 1)))
    ladder = (i < rung[:, None]) * scale[:, None]  # row l - 1 holds scale_l at i < l
    ladder[rung - 1, rung] = -rung * scale
    table.real[1 + 2 * len(j) :, i, i] = ladder
    return HermitianBasis(dim=dim, elements=table)


def joint_basis(basis_s: HermitianBasis, basis_r: HermitianBasis) -> JointBasis:
    """Product family F_{mu nu} = F_mu (x) G_nu of two single-system families."""
    return JointBasis(basis_s=basis_s, basis_r=basis_r)


def expand(matrix: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Coefficients c_a = Tr[F_a Q] / dim, so Q = sum_a c_a F_a.

    Returns a complex vector; the coefficients are real exactly when Q is
    Hermitian.
    """
    if matrix.shape != (basis.dim, basis.dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}"
        )
    return np.einsum("aij,ji->a", basis.elements, matrix) / basis.dim


def reconstruct(coeffs: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Inverse of expand: sum_a c_a F_a."""
    if coeffs.shape != (basis.dim**2,):
        raise ValueError(
            f"coefficient vector has shape {coeffs.shape}, expected ({basis.dim**2},)"
        )
    return np.einsum("a,aij->ij", coeffs, basis.elements)
