"""Independent output checks, written in plain numpy.

Nothing here calls openmap: the checks rebuild each quantity from its
definition, so a defect in an openmap helper cannot hide itself by being
used to check its own output. Each check returns a list of failure strings;
an empty list means the output passed.

Conventions follow the openmap documentation: generalized Gell-Mann bases
normalized to Tr[F_a F_b] = d delta_ab (identity first, then symmetric
pairs, antisymmetric pairs, the diagonal ladder), joint elements
F_mu (x) F_nu, column-stacking vec, and affine maps Q -> h(Q) + offset Tr Q.
The tolerances are the ones the repository's tests and criteria use.
"""

from __future__ import annotations

import numpy as np

MAP_TOL = 1e-10  # map definition, round trip, Kraus form, TP/HP/unital
PSD_TOL = -1e-10  # smallest eigenvalue of a positive semidefinite matrix
MEANS_TOL = 1e-12  # mean values a witness must reproduce
RANK_TOL = 1e-10  # singular values below this share of the largest are zero


def gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann family, shape (d^2, d, d), Tr[F_a F_b] = d delta_ab."""
    mats = [np.eye(d, dtype=complex)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        g = np.zeros((d, d), dtype=complex)
        g[j, k] = g[k, j] = 1.0
        mats.append(g)
    for j, k in pairs:
        g = np.zeros((d, d), dtype=complex)
        g[j, k], g[k, j] = -1.0j, 1.0j
        mats.append(g)
    for level in range(1, d):
        g = np.diag([1.0] * level + [-float(level)] + [0.0] * (d - level - 1)).astype(complex)
        mats.append(g)
    return np.stack([g * np.sqrt(d / np.trace(g @ g).real) for g in mats])


def partial_trace_r(x: np.ndarray, n: int, m: int) -> np.ndarray:
    return np.trace(x.reshape(n, m, n, m), axis1=1, axis2=3)


def joint_operator(coeffs: np.ndarray, fs: np.ndarray, fr: np.ndarray) -> np.ndarray:
    """sum_{mu nu} coeffs[mu, nu] F_mu (x) F_nu."""
    n, m = fs.shape[1], fr.shape[1]
    return np.einsum("ab,aij,bkl->ikjl", coeffs, fs, fr).reshape(n * m, n * m)


def joint_means(x: np.ndarray, fs: np.ndarray, fr: np.ndarray) -> np.ndarray:
    """Table Tr[(F_mu (x) F_nu) X], shape (N^2, M^2)."""
    n, m = fs.shape[1], fr.shape[1]
    return np.einsum("aij,bkl,jlik->ab", fs, fr, x.reshape(n, m, n, m))


def vec(q: np.ndarray) -> np.ndarray:
    return q.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


def apply_affine(rep: np.ndarray, offset: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    return unvec(rep @ vec(q), n) + offset * np.trace(q)


def random_matrices(rng: np.random.Generator, n: int, count: int = 2) -> list[np.ndarray]:
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(count)]


def _fail(failures: list[str], what: str, deviation: float, tol: float) -> None:
    # written as "not <=" so that NaN fails
    if not deviation <= tol:
        failures.append(f"{what}: deviation {deviation:.3e} > {tol:.0e}")


def check_map(
    rep: np.ndarray,
    offset: np.ndarray,
    u: np.ndarray,
    sigma_r: np.ndarray,
    coeffs: np.ndarray,
    rng: np.random.Generator,
    unital: bool,
) -> list[str]:
    """A map against Q -> Tr_R[U (Q (x) sigma_R) U^dag] + X Tr Q.

    X = Tr_R[U A U^dag] / (N M) with A = sum coeffs[mu, nu] F_mu (x) F_nu:
    coeffs holds the fixed means (fixed-mean-value family) or the
    correlations (fixed-correlation family). Also checks that the map is
    trace- and Hermiticity-preserving and, when asked, that its homogeneous
    part is unital.
    """
    n, m = coeffs.shape[0] ** 0.5, coeffs.shape[1] ** 0.5
    n, m = int(round(n)), int(round(m))
    failures: list[str] = []
    if rep.shape != (n * n, n * n) or offset.shape != (n, n):
        return [f"map pieces have shapes {rep.shape}, {offset.shape} for N={n}"]
    ud = u.conj().T
    expected_offset = partial_trace_r(u @ joint_operator(coeffs, gell_mann(n), gell_mann(m)) @ ud, n, m)
    expected_offset /= n * m
    eye = np.eye(n)
    for q in random_matrices(rng, n):
        expected = partial_trace_r(u @ np.kron(q, sigma_r) @ ud, n, m) + expected_offset * np.trace(q)
        _fail(failures, "map definition", np.abs(apply_affine(rep, offset, q) - expected).max(), MAP_TOL)
        h = unvec(rep @ vec(q), n)
        h_dag = unvec(rep @ vec(q.conj().T), n)
        _fail(failures, "Hermiticity preservation", np.abs(h_dag - h.conj().T).max(), MAP_TOL)
    _fail(failures, "trace preservation", np.abs(vec(eye) @ rep - vec(eye)).max(), MAP_TOL)
    _fail(failures, "traceless offset", abs(np.trace(offset)), MAP_TOL)
    _fail(failures, "Hermitian offset", np.abs(offset - offset.conj().T).max(), MAP_TOL)
    if unital:
        _fail(failures, "unital homogeneous part", np.abs(unvec(rep @ vec(eye), n) - eye).max(), MAP_TOL)
    return failures


def check_round_trip(
    rep: np.ndarray,
    offset: np.ndarray,
    inv_rep: np.ndarray,
    inv_offset: np.ndarray,
    rng: np.random.Generator,
) -> list[str]:
    """inverse(map(Q)) == Q on random Q."""
    n = offset.shape[0]
    if inv_rep.shape != rep.shape or inv_offset.shape != offset.shape:
        return [f"inverse has shapes {inv_rep.shape}, {inv_offset.shape}"]
    failures: list[str] = []
    for q in random_matrices(rng, n):
        back = apply_affine(inv_rep, inv_offset, apply_affine(rep, offset, q))
        _fail(failures, "invert round trip", np.abs(back - q).max(), MAP_TOL)
    return failures


def _images(rep: np.ndarray) -> np.ndarray:
    """r[k, l, i, j] = h(|i><j|)[k, l], from the rep's columns."""
    n = int(round(np.sqrt(rep.shape[0])))
    return rep.reshape((n, n, n, n), order="F")


def choi_eigenvalues(rep: np.ndarray) -> np.ndarray:
    """Spectrum of sum_ij |i><j| (x) h(|i><j|)."""
    n = int(round(np.sqrt(rep.shape[0])))
    return np.linalg.eigvalsh(_images(rep).transpose(2, 0, 3, 1).reshape(n * n, n * n))


def check_choi(rep: np.ndarray, is_cp: bool, kraus, rng: np.random.Generator) -> list[str]:
    """The CP verdict against the Choi spectrum, and the Kraus form when CP."""
    failures: list[str] = []
    low = float(choi_eigenvalues(rep).min())
    if is_cp != (low >= PSD_TOL):
        failures.append(f"CP verdict {is_cp} but smallest Choi eigenvalue {low:.3e}")
    if is_cp:
        if not kraus:
            return failures + ["CP map reported without Kraus factors"]
        n = int(round(np.sqrt(rep.shape[0])))
        for q in random_matrices(rng, n):
            summed = sum(k @ q @ k.conj().T for k in kraus)
            _fail(failures, "Kraus reconstruction", np.abs(summed - unvec(rep @ vec(q), n)).max(), MAP_TOL)
    return failures


def check_invertible(rep: np.ndarray, invertible: bool) -> list[str]:
    sv = np.linalg.svd(rep, compute_uv=False)
    expected = bool(sv.min() > RANK_TOL * sv.max())
    if invertible != expected:
        return [f"invertibility verdict {invertible}, singular values span {sv.min():.3e}..{sv.max():.3e}"]
    return []


def _near(value: float, threshold: float) -> bool:
    """Within a factor of 100 of a threshold, where rounding may decide a verdict."""
    return abs(threshold) / 100 <= abs(value) <= abs(threshold) * 100


def check_realizability(rep: np.ndarray, offset: np.ndarray, verdict: str) -> list[str]:
    """The realizability verdict from the map with its offset folded in.

    TP, CP, unital and invertible with Choi rank 1 give "inverse-realizable",
    with a higher rank "inverse-not-realizable"; any failed hypothesis gives
    "not-applicable". A verdict that rounding could decide is not judged.
    """
    n = offset.shape[0]
    eye = np.eye(n)
    full = rep + np.outer(vec(offset), vec(eye))
    images = _images(full)  # h(|i><j|)^dag must equal h(|j><i|)
    herm_dev = np.abs(images.conj().transpose(1, 0, 2, 3) - images.transpose(0, 1, 3, 2)).max()
    tp_dev = np.abs(vec(eye) @ full - vec(eye)).max()
    unital_dev = np.abs(unvec(full @ vec(eye), n) - eye).max()
    sv = np.linalg.svd(full, compute_uv=False)
    eigs = choi_eigenvalues(full) if herm_dev <= MAP_TOL else np.array([-np.inf])
    top = np.abs(eigs).max()
    tests = [
        (herm_dev, MAP_TOL), (tp_dev, MAP_TOL), (unital_dev, MAP_TOL),
        (sv.min() / sv.max(), RANK_TOL), (eigs.min(), PSD_TOL),
    ]
    if any(_near(value, tol) for value, tol in tests):
        return []
    holds = (
        herm_dev <= MAP_TOL and tp_dev <= MAP_TOL and unital_dev <= MAP_TOL
        and sv.min() > RANK_TOL * sv.max() and eigs.min() >= PSD_TOL
    )
    if not holds:
        expected = "not-applicable"
    elif np.count_nonzero(np.abs(eigs) > RANK_TOL * top) == 1:
        expected = "inverse-realizable"
    else:
        expected = "inverse-not-realizable"
    return [] if verdict == expected else [f"realizability verdict {verdict!r}, expected {expected!r}"]


def parameter_indices(u: np.ndarray, n: int, m: int, threshold: float = 1e-12) -> tuple[set, set]:
    """Pairs (mu, nu >= 1) some transfer row (alpha 0), alpha >= 1, reaches.

    t[(alpha 0), (mu nu)] = Tr[F_{mu nu} U^dag (F_alpha (x) 1) U] / (N M).
    Returns the pairs above the threshold, and the pairs within a factor of
    ten of it, whose classification may differ by rounding.
    """
    fs, fr = gell_mann(n), gell_mann(m)
    influence = np.zeros((n * n, m * m))
    for alpha in range(1, n * n):
        b = u.conj().T @ np.kron(fs[alpha], np.eye(m)) @ u
        influence = np.maximum(influence, np.abs(joint_means(b, fs, fr)) / (n * m))
    pairs = {(mu, nu) for mu in range(n * n) for nu in range(1, m * m) if influence[mu, nu] > threshold}
    near = {
        (mu, nu)
        for mu in range(n * n)
        for nu in range(1, m * m)
        if threshold / 10 < influence[mu, nu] < threshold * 10
    }
    return pairs, near


def check_witness(
    w: np.ndarray,
    system_means: np.ndarray,
    fixed: np.ndarray,
    fixed_values: np.ndarray,
    dims: tuple[int, int],
    partner_means: np.ndarray | None = None,
    correlations: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[str]:
    """A joint density matrix that must carry the query.

    It must be Hermitian with unit trace and PSD, reproduce the system means
    <F_alpha (x) 1>, and reproduce the fixed coordinates: joint means
    (fixed mask over the (N^2, M^2) table) for the fixed-mean-value kind, or
    partner means and the specified correlations <F_mu nu> - <F_mu><F_nu>
    for the fixed-correlation kind.
    """
    n, m = dims
    if w.shape != (n * m, n * m):
        return [f"witness shape {w.shape}"]
    failures: list[str] = []
    _fail(failures, "witness Hermiticity", np.abs(w - w.conj().T).max(), MEANS_TOL)
    _fail(failures, "witness trace", abs(np.trace(w) - 1.0), MEANS_TOL)
    herm = (w + w.conj().T) / 2
    low = float(np.linalg.eigvalsh(herm).min())
    if not low >= PSD_TOL:
        failures.append(f"witness not PSD: smallest eigenvalue {low:.3e}")
    table = joint_means(herm, gell_mann(n), gell_mann(m)).real
    _fail(failures, "witness system means", np.abs(table[1:, 0] - system_means).max(), MEANS_TOL)
    if fixed.any():
        _fail(failures, "witness fixed means", np.abs(table[fixed] - fixed_values[fixed]).max(), MEANS_TOL)
    if partner_means is not None:
        _fail(failures, "witness partner means", np.abs(table[0, 1:] - partner_means).max(), MEANS_TOL)
    if correlations is not None:
        gamma, specified = correlations
        corr = table[1:, 1:] - np.outer(table[1:, 0], table[0, 1:])
        if specified.any():
            _fail(failures, "witness correlations", np.abs(corr[specified] - gamma[specified]).max(), MEANS_TOL)
    return failures


def matrix_to_json(matrix: np.ndarray) -> dict:
    """The CLI's matrix format: {"rows": [[[re, im], ...], ...]}."""
    return {"rows": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]}


def matrix_from_json(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["rows"]], dtype=complex)
