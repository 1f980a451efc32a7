"""Invertibility, complete positivity, and what an inverse map can be.

Three invertibility criteria are computed independently and must agree:
the kernel of the homogeneous rep (SVD), the rank of the basis-element
images, and the kernel of the induced mean-value map. Both the images
and the mean-value map come from one product of the rep with the
column-stacked basis table (column a is vec(F_a)), not from N^2 separate
applications of the map. Singular values at most RANK_TOL times the
largest count as zero. For the trace-preserving maps this package builds,
agreement is a theorem (in basis coordinates the rep is block triangular
over the mean-value block); disagreement therefore means a corrupted
input and raises InconsistentCriteriaError rather than returning a guess.

Complete positivity is read off the Choi matrix, assembled with the
convention C[(i, k), (j, l)] = h(|i><j|)[k, l]: the map is completely
positive iff C >= 0, and then eigenvectors of C give an operator-sum form
h(Q) = sum_a K_a Q K_a^dag.

The punchline is dynamics_realizability: a trace-preserving, completely
positive, unital, invertible map that is not plain unitary conjugation has
an inverse that no partner state plus joint unitary can produce. The
checker decides that over the verifiable hypotheses (TP, CP, unital,
invertible, Choi rank) rather than re-proving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .superop import (
    AffineMap,
    SuperOperator,
    basis_columns,
    is_hermiticity_preserving,
    is_trace_preserving,
    is_unital,
    mean_affine,
    vec,
)
from .tolerances import MAP_TOL, PSD_TOL, RANK_TOL

__all__ = [
    "InvertibilityReport",
    "CPReport",
    "RealizabilityReport",
    "InconsistentCriteriaError",
    "SingularMapError",
    "invertibility",
    "invert",
    "choi_matrix",
    "choi_analysis",
    "purity_inequality",
    "dynamics_realizability",
]

class InconsistentCriteriaError(RuntimeError):
    """The three invertibility criteria disagreed; the input is not trusted."""


class SingularMapError(ValueError):
    """Inversion was requested for a map with a nontrivial kernel."""

    def __init__(self, report: "InvertibilityReport"):
        self.report = report
        super().__init__(
            f"map is singular: kernel dimension {report.kernel_dimension}, "
            f"smallest singular value {report.smallest_singular_value:.3e}"
        )


@dataclass(frozen=True)
class InvertibilityReport:
    invertible: bool
    kernel_dimension: int
    smallest_singular_value: float
    basis_image_rank: int
    mean_map_kernel_dimension: int
    condition_number: float  # largest / smallest singular value; inf when the smallest is 0


@dataclass(frozen=True)
class CPReport:
    """Choi spectrum and the standard map properties read from it."""

    choi_eigenvalues: np.ndarray
    is_cp: bool
    is_tp: bool
    is_unital: bool
    kraus_factors: tuple[np.ndarray, ...] | None

    @property
    def choi_rank(self) -> int:
        return _relative_rank(np.abs(self.choi_eigenvalues))


@dataclass(frozen=True)
class RealizabilityReport:
    """Whether the map's inverse can itself arise from open dynamics.

    For a map that is trace-preserving, completely positive, unital, and
    invertible, the inverse is again realizable by dynamics only in the
    trivial case: when the map is conjugation by a unitary (Choi rank 1).

    verdict is one of:
      "inverse-realizable"      Choi rank 1: the map is unitary conjugation
                                and its inverse is too
      "inverse-not-realizable"  all hypotheses hold with Choi rank > 1: no
                                partner state and joint unitary yield the
                                inverse
      "not-applicable"          some hypothesis fails; the explanatory
                                fields say which
    """

    verdict: str
    is_hermiticity_preserving: bool
    is_tp: bool
    is_cp: bool
    is_unital: bool
    is_invertible: bool
    choi_rank: int
    min_choi_eigenvalue: float


def _relative_rank(values: np.ndarray) -> int:
    """How many nonnegative values exceed RANK_TOL times the largest."""
    top = values.max(initial=0.0)
    if top == 0.0:
        return 0
    return int(np.count_nonzero(values > RANK_TOL * top))


def invertibility(m: AffineMap) -> InvertibilityReport:
    """Evaluate all three invertibility criteria and insist they agree."""
    n = m.dim
    basis = build_basis(n)
    rep = m.homogeneous.rep
    sv = np.linalg.svd(rep, compute_uv=False)
    kernel_dim = n**2 - _relative_rank(sv)

    mean_sv = np.linalg.svd(mean_affine(m, basis).matrix, compute_uv=False)
    mean_kernel = (n**2 - 1) - _relative_rank(mean_sv)

    images = (rep @ basis_columns(basis)).T  # row a is vec(h(F_a))
    image_sv = np.linalg.svd(images, compute_uv=False)
    image_rank = _relative_rank(image_sv)

    verdicts = (kernel_dim == 0, image_rank == n**2, mean_kernel == 0)
    if len(set(verdicts)) != 1:
        raise InconsistentCriteriaError(
            "invertibility criteria disagree: "
            f"rep kernel {kernel_dim}, basis-image rank {image_rank}/{n**2}, "
            f"mean-map kernel {mean_kernel}"
        )
    return InvertibilityReport(
        invertible=verdicts[0],
        kernel_dimension=kernel_dim,
        smallest_singular_value=float(sv.min()),
        basis_image_rank=image_rank,
        mean_map_kernel_dimension=mean_kernel,
        condition_number=float(sv.max() / sv.min()) if sv.min() > 0 else np.inf,
    )


def invert(m: AffineMap) -> AffineMap:
    """Exact affine inverse: h^{-1} and offset -h^{-1}(offset), kind "plain".

    That form is the inverse only when h is trace-preserving and the offset is
    traceless (then Tr[m(Q)] = Tr[Q]), as for both families mapgen builds.
    After the three criteria run, raises SingularMapError (carrying the
    report) when any criterion fails, and ValueError when h is not
    trace-preserving or |Tr offset| > MAP_TOL.
    """
    report = invertibility(m)
    if not report.invertible:
        raise SingularMapError(report)
    if not is_trace_preserving(m.homogeneous) or abs(np.trace(m.offset)) > MAP_TOL:
        raise ValueError(
            "invert needs a trace-preserving homogeneous part and a traceless offset"
        )
    inv_h = SuperOperator(dim=m.dim, rep=np.linalg.inv(m.homogeneous.rep))
    return AffineMap(homogeneous=inv_h, offset=-inv_h(m.offset), kind="plain")


def choi_matrix(s: SuperOperator) -> np.ndarray:
    """C[(i, k), (j, l)] = s(|i><j|)[k, l], shape (N^2, N^2)."""
    n = s.dim
    r = np.reshape(s.rep, (n, n, n, n), order="F")
    # r[k, l, i, j] = rep[k + N*l, i + N*j] = s(|i><j|)[k, l]
    return np.transpose(r, (2, 0, 3, 1)).reshape(n**2, n**2)


def choi_analysis(s: SuperOperator) -> CPReport:
    """Choi spectrum, CP/TP/unital flags, and Kraus factors when CP.

    Requires a Hermiticity-preserving map (otherwise the Choi matrix is not
    Hermitian and the spectrum is meaningless).
    """
    if not is_hermiticity_preserving(s):
        raise ValueError("Choi analysis expects a Hermiticity-preserving map")
    n = s.dim
    c = choi_matrix(s)
    eigs, vecs = np.linalg.eigh(c)
    cp = bool(eigs.min() >= PSD_TOL)
    kraus: tuple[np.ndarray, ...] | None = None
    if cp:
        top = max(float(eigs.max()), 0.0)
        keep = [a for a in range(n**2) if eigs[a] > RANK_TOL * top]
        factors = []
        for a in reversed(keep):  # largest weight first
            w = vecs[:, a].reshape(n, n)  # w[i, k], row index (i, k) -> i*N + k
            factors.append(np.sqrt(eigs[a]) * w.T)
        kraus = tuple(factors)
    return CPReport(
        choi_eigenvalues=eigs,
        is_cp=cp,
        is_tp=is_trace_preserving(s),
        is_unital=is_unital(s),
        kraus_factors=kraus,
    )


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def purity_inequality(s: SuperOperator, samples: int = 100, seed: int = 42) -> float:
    """Smallest slack of Tr[rho^2] - Tr[s(rho)^2] over random states.

    Only meaningful for unital trace-preserving maps, where the slack is
    guaranteed nonnegative; other input is rejected.
    """
    if not is_unital(s) or not is_trace_preserving(s):
        raise ValueError("purity inequality holds for unital trace-preserving maps only")
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        rho = _random_density(rng, s.dim)
        out = s(rho)
        slack = float(np.trace(rho @ rho).real - np.trace(out @ out).real)
        worst = min(worst, slack)
    return worst


def dynamics_realizability(m: AffineMap) -> RealizabilityReport:
    """Decide whether the map's inverse can come from open dynamics.

    The trace-coupled offset is folded into a single linear rep first, so
    the hypotheses are checked on the map actually applied, offset
    included. When the map is trace-preserving, completely positive,
    unital, and invertible, the verdict is "inverse-realizable" for Choi
    rank 1 (unitary conjugation) and "inverse-not-realizable" otherwise;
    if any hypothesis fails the verdict is "not-applicable" and the
    explanatory fields say which one.
    """
    n = m.dim
    eye = np.eye(n, dtype=complex)
    full = SuperOperator(dim=n, rep=m.homogeneous.rep + np.outer(vec(m.offset), vec(eye)))
    herm = is_hermiticity_preserving(full)
    tp = is_trace_preserving(full)
    unital = is_unital(full)
    sv = np.linalg.svd(full.rep, compute_uv=False)
    invertible = _relative_rank(sv) == n**2
    if herm:
        eigs = np.linalg.eigvalsh(choi_matrix(full))
        min_eig = float(eigs.min())
        cp = bool(min_eig >= PSD_TOL)
        choi_rank = _relative_rank(np.abs(eigs))
    else:
        min_eig = float("nan")
        cp = False
        choi_rank = 0
    if herm and tp and cp and unital and invertible:
        verdict = "inverse-realizable" if choi_rank == 1 else "inverse-not-realizable"
    else:
        verdict = "not-applicable"
    return RealizabilityReport(
        verdict=verdict,
        is_hermiticity_preserving=herm,
        is_tp=tp,
        is_cp=cp,
        is_unital=unital,
        is_invertible=invertible,
        choi_rank=choi_rank,
        min_choi_eigenvalue=min_eig,
    )
