"""Compatibility domains: which system states fit the map parameters.

A map built from a joint unitary comes with parameters that are mean
values of the joint system. A mean-value vector for the system alone
belongs to the map's compatibility domain when there is a joint density
matrix carrying both: the vector as its system means and the parameters at
their fixed values. Membership is an existence question over the
unconstrained joint means.

The check is two-tier. The cheap tier tests positivity of the canonical
completion: unconstrained joint means are set to zero for fixed-mean-value
queries, and unconstrained correlations to zero (the product completion)
for fixed-correlation queries. That settles every example this package
ships. The thorough tier (flag-gated) searches the free means by
alternating projections: clip negative eigenvalues, re-impose the fixed
coordinates, repeat. Each result carries a verdict with one of three
outcomes:

- "compatible", backed by a witness: a joint density matrix that strictly
  satisfies the constraints;
- "incompatible", backed by a certificate: a positive semidefinite Z with
  no component on the free coordinates that pairs negatively with every
  completion, so no joint density matrix carries the query (the
  semidefinite theorem of alternatives, Boyd & Vandenberghe, Convex
  Optimization, 2004, section 5.8). Only the thorough tier looks for one,
  and it re-checks each candidate before returning it, with a margin
  that covers the rounding allowed in the re-check (see `compatible`);
- "undecided": neither, because the cheap tier does not search or the
  search ran out of iterations. The compatible flag is then a judgement
  from the last completion's negativity, not a proof.

Results also report the method and iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import JointBasis
from .mapgen import (
    FixedCorrelationParameters,
    FixedMeanParameters,
    canonical_joint_basis,
)
from .states import JointState, MeanValueVector, mean_vector, means_from_matrix
from .tolerances import CERT_TOL, PSD_TOL, RESIDUAL_TOL, ROUNDING_TOL

__all__ = [
    "DomainQuery",
    "CompatibilityResult",
    "ShrinkageReport",
    "compatible",
    "domain_shrinkage_demo",
]

MAX_ITERATIONS = 500


@dataclass(frozen=True)
class DomainQuery:
    """A candidate system state paired with fixed map parameters."""

    mean_vector: MeanValueVector
    parameters: FixedMeanParameters | FixedCorrelationParameters
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("fixed-mean-value", "fixed-correlation"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        expected = (
            FixedMeanParameters if self.kind == "fixed-mean-value" else FixedCorrelationParameters
        )
        if not isinstance(self.parameters, expected):
            raise ValueError(
                f"{self.kind} query requires {expected.__name__}, got "
                f"{type(self.parameters).__name__}"
            )
        if self.mean_vector.dim != self.parameters.dims[0]:
            raise ValueError(
                f"mean vector dim {self.mean_vector.dim} does not match "
                f"parameter dims {self.parameters.dims}"
            )


@dataclass(frozen=True)
class CompatibilityResult:
    """Outcome of a membership check.

    verdict names what backs the answer:

    - "compatible": witness is a joint density matrix that strictly
      carries the query (PSD to PSD_TOL, fixed means to ROUNDING_TOL).
    - "incompatible": certificate is a verified dual certificate Z (see
      `compatible`) proving that no joint density matrix carries it.
    - "undecided": neither. compatible then reports the zero completion,
      or, after a thorough search that ran out of iterations, whether the
      last iterate's negativity stayed within RESIDUAL_TOL
      (compatible=True with witness None).

    min_eigenvalue refers to the last completion tried.
    """

    compatible: bool
    witness: np.ndarray | None
    min_eigenvalue: float
    method: str
    iterations: int
    verdict: str = "undecided"
    certificate: np.ndarray | None = None


def _assemble(query: DomainQuery, basis: JointBasis) -> tuple[np.ndarray, np.ndarray]:
    """Mean table with fixed coordinates filled in, plus the fixed mask."""
    n, m = query.parameters.dims
    table = np.zeros((n**2, m**2))
    fixed = np.zeros((n**2, m**2), dtype=bool)
    table[0, 0] = 1.0
    fixed[0, 0] = True
    table[1:, 0] = query.mean_vector.components
    fixed[1:, 0] = True
    if query.kind == "fixed-mean-value":
        for (mu, nu), value in query.parameters.fixed_means.items():
            table[mu, nu] = value
            fixed[mu, nu] = True
    else:
        r = mean_vector(basis.basis_r, query.parameters.rho_r.matrix).components
        table[0, 1:] = r
        fixed[0, 1:] = True
        gamma = query.parameters.gamma.gamma
        spec_mask = query.parameters.gamma.specified
        v = query.mean_vector.components
        # unspecified correlations start at zero correlation (the product
        # completion), not zero mean value; they stay free for the search
        block = np.outer(v, r)
        block[spec_mask] += gamma[spec_mask]
        table[1:, 1:] = block
        fixed[1:, 1:] = spec_mask
    return table, fixed


def _min_eig(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix).min())


def _certificate_holds(
    z: np.ndarray, x0: np.ndarray, basis: JointBasis, fixed: np.ndarray
) -> bool:
    """Re-check a dual certificate from scratch; see `compatible` for the margin."""
    n, m = basis.dims
    nm = n * m
    trace = float(np.trace(z).real)
    tol = ROUNDING_TOL * trace
    shift = tol * (1.0 + np.sqrt(nm))
    slack = shift + tol * np.sqrt(nm) * float(np.linalg.norm(x0))
    pairing = float(np.einsum("ij,ji->", z, x0).real)
    if not pairing + slack < -CERT_TOL * (trace + nm * shift):
        return False
    free = means_from_matrix(basis, z)[~fixed]
    return bool(np.abs(free).max(initial=0.0) <= tol and _min_eig(z) >= -tol)


def compatible(
    query: DomainQuery,
    thorough: bool = False,
    max_iterations: int = MAX_ITERATIONS,
    basis: JointBasis | None = None,
) -> CompatibilityResult:
    """Decide whether any joint density matrix carries the query.

    The zero completion X0 is checked first; if it is positive to PSD_TOL
    it is the witness. Otherwise, with thorough=True, an
    alternating-projection search follows: project onto the positive cone
    by eigenvalue clipping, re-impose the fixed coordinates, and repeat.
    The search ends in one of three ways.

    - Witness: the re-imposed iterate is positive to PSD_TOL by `eigvalsh`.
      Verdict "compatible".
    - Certificate: a matrix Z >= 0 with no component on the free
      coordinates and Tr[Z X0] < -CERT_TOL Tr[Z]. Tr[Z X] is the same for
      every completion X and at least lambda_min(X) Tr[Z], so every
      completion has an eigenvalue below -CERT_TOL and no density matrix
      carries the query (theorem of alternatives; Boyd & Vandenberghe,
      Convex Optimization, 2004, section 5.8). Verdict "incompatible".
    - Neither within max_iterations: residual negativity above RESIDUAL_TOL is
      reported as compatible=False, otherwise compatible=True without a
      witness. Verdict "undecided".

    A query with no free coordinate is not searched: X0 is its only
    completion, and its negative part is the one candidate Z. In the
    search, the candidate comes from the previous iterate and its
    projection p, whose difference is that iterate's negative part: the
    components of that difference on the fixed coordinates, plus enough
    of the identity (itself a fixed coordinate) to make it positive.

    Margin. A candidate is returned only after a re-check from scratch,
    with tol = ROUNDING_TOL Tr[Z]: eigenvalues at least -tol, free components
    |Tr[F Z]| at most tol, and the pairing with X0 below -CERT_TOL by a
    slack. Dropping the free components, whose sum has spectral and
    Frobenius norm at most tol sqrt(NM), and adding tol (1 + sqrt(NM))
    times the identity gives an exact certificate Z'. That moves the
    pairing by at most tol (1 + sqrt(NM) (1 + |X0|_F)), the slack, and
    the trace by NM tol (1 + sqrt(NM)), which the threshold includes; so
    Z' itself satisfies Tr[Z' X0] < -CERT_TOL Tr[Z']. The rounding of the
    re-check, about NM 2e-16 Tr[Z], lies far inside tol.
    """
    if basis is None:
        basis = canonical_joint_basis(query.parameters.dims)
    table, fixed = _assemble(query, basis)
    x = JointState(basis=basis, means=table).to_matrix()
    low = _min_eig(x)
    if low >= PSD_TOL:
        return CompatibilityResult(
            compatible=True, witness=x, min_eigenvalue=low, method="zero-completion",
            iterations=0, verdict="compatible",
        )
    if not thorough:
        return CompatibilityResult(
            compatible=False, witness=None, min_eigenvalue=low, method="zero-completion", iterations=0
        )

    x0 = x
    w, vecs = np.linalg.eigh(x)
    if fixed.all():
        # X0 is the only completion; its negative part is the candidate Z
        cert = (vecs * np.clip(-w, 0.0, None)) @ vecs.conj().T
        holds = _certificate_holds(cert, x0, basis, fixed)
        return CompatibilityResult(
            compatible=False, witness=None, min_eigenvalue=low, method="zero-completion",
            iterations=0, verdict="incompatible" if holds else "undecided",
            certificate=cert if holds else None,
        )
    pinned = table[fixed]
    nm = x.shape[0]
    # row c is the flattened F_c of the c-th fixed coordinate, in table[fixed]
    # order, so conj(elems) @ vec(p) = Tr[F_c p]; only these are re-imposed
    onehot = np.zeros((len(pinned),) + fixed.shape)
    onehot[(np.arange(len(pinned)),) + np.nonzero(fixed)] = 1.0
    elems = basis.matrix(onehot).reshape(len(pinned), nm * nm)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        p = (vecs * np.clip(w, 0.0, None)) @ vecs.conj().T
        z = (elems.conj() @ p.reshape(-1)).real - pinned
        z1 = (z @ elems).reshape(nm, nm) / nm
        x = p - z1
        w, vecs = np.linalg.eigh(x)
        # eigh and eigvalsh differ in the last digits: the stop is decided
        # by eigvalsh alone, as it is for the zero completion
        if w[0] >= PSD_TOL - ROUNDING_TOL:
            low = _min_eig(x)
            if low >= PSD_TOL:
                break
        # Z1 = sum_fixed z F / NM, with z[0] = Tr[Z1] (the identity comes
        # first); Z = Z1 + s 1 pairs with X0 to z . pinned / NM + s and has
        # trace z[0] + NM s. The smallest diagonal entry bounds lambda_min(Z1)
        # from above, so it screens before any eigvalsh.
        pairing = float(z @ pinned) / nm
        s = max(0.0, -float(z1.diagonal().real.min()))
        if pairing + s < -CERT_TOL * (z[0] + nm * s):
            s = max(0.0, -_min_eig(z1))
            if pairing + s < -CERT_TOL * (z[0] + nm * s):
                cert = z1 + s * np.eye(nm)
                if _certificate_holds(cert, x0, basis, fixed):
                    return CompatibilityResult(
                        compatible=False, witness=None, min_eigenvalue=float(w[0]),
                        method="feasibility-search", iterations=iterations,
                        verdict="incompatible", certificate=cert,
                    )
    else:
        low = _min_eig(x)

    witness = None
    if low >= PSD_TOL:
        reproduced = means_from_matrix(basis, x)
        if np.abs(reproduced[fixed] - table[fixed]).max() <= ROUNDING_TOL:
            witness = x
    return CompatibilityResult(
        compatible=bool(low >= -RESIDUAL_TOL),
        witness=witness,
        min_eigenvalue=low,
        method="feasibility-search",
        iterations=iterations,
        verdict="undecided" if witness is None else "compatible",
    )


@dataclass(frozen=True)
class ShrinkageReport:
    """Side-by-side domain membership over a sampled set of mean vectors.

    The *_ok masks hold each query's compatible flag; the *_undecided masks
    mark the queries whose verdict is "undecided" (neither a witness nor a
    certificate backs the flag).
    """

    dims: tuple[int, int]
    grid_points: int
    thorough: bool
    samples: np.ndarray
    mean_kind_ok: np.ndarray
    corr_kind_ok: np.ndarray
    mean_kind_undecided: np.ndarray
    corr_kind_undecided: np.ndarray

    @property
    def total(self) -> int:
        return self.samples.shape[0]

    @property
    def mean_kind_count(self) -> int:
        return int(np.count_nonzero(self.mean_kind_ok))

    @property
    def corr_kind_count(self) -> int:
        return int(np.count_nonzero(self.corr_kind_ok))

    @property
    def mean_undecided_count(self) -> int:
        return int(np.count_nonzero(self.mean_kind_undecided))

    @property
    def corr_undecided_count(self) -> int:
        return int(np.count_nonzero(self.corr_kind_undecided))

    @property
    def mean_only_count(self) -> int:
        return int(np.count_nonzero(self.mean_kind_ok & ~self.corr_kind_ok))

    @property
    def corr_only_count(self) -> int:
        return int(np.count_nonzero(self.corr_kind_ok & ~self.mean_kind_ok))

    def mean_only_examples(self, limit: int = 5) -> np.ndarray:
        idx = np.nonzero(self.mean_kind_ok & ~self.corr_kind_ok)[0][:limit]
        return self.samples[idx]


def domain_shrinkage_demo(
    mean_params: FixedMeanParameters,
    corr_params: FixedCorrelationParameters,
    grid_points: int = 20,
    thorough: bool = False,
    seed: int = 42,
) -> ShrinkageReport:
    """Sample mean vectors and test membership under both map kinds.

    For a qubit system side the samples are a grid_points^3 cube grid over
    [-1, 1]^3; for larger N, grid_points^3 seeded uniform draws from the
    ball of radius sqrt(N-1) that contains all valid mean vectors.
    """
    if mean_params.dims != corr_params.dims:
        raise ValueError(
            f"parameter dims differ: {mean_params.dims} vs {corr_params.dims}"
        )
    n = mean_params.dims[0]
    basis = canonical_joint_basis(mean_params.dims)
    if n == 2:
        axis = np.linspace(-1.0, 1.0, grid_points)
        samples = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    else:
        rng = np.random.default_rng(seed)
        count = grid_points**3
        raw = rng.normal(size=(count, n**2 - 1))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=count) ** (1.0 / (n**2 - 1))
        samples = raw * radii[:, None] * np.sqrt(n - 1.0)

    kinds = (("fixed-mean-value", mean_params), ("fixed-correlation", corr_params))
    ok = np.zeros((2, samples.shape[0]), dtype=bool)
    undecided = np.zeros((2, samples.shape[0]), dtype=bool)
    for i, row in enumerate(samples):
        v = MeanValueVector(dim=n, components=row)
        for k, (kind, params) in enumerate(kinds):
            result = compatible(DomainQuery(v, params, kind), thorough=thorough, basis=basis)
            ok[k, i] = result.compatible
            undecided[k, i] = result.verdict == "undecided"
    return ShrinkageReport(
        dims=mean_params.dims,
        grid_points=grid_points,
        thorough=thorough,
        samples=samples,
        mean_kind_ok=ok[0],
        corr_kind_ok=ok[1],
        mean_kind_undecided=undecided[0],
        corr_kind_undecided=undecided[1],
    )
