"""Dense-matrix primitives: norms, spectral rounding, corner inverse roots.

Matrices are square complex arrays, one at a time or as a ``(k, d, d)``
stack.  Eigenbases within degenerate eigenspaces are canonicalised so
downstream constructions are reproducible across runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# The tolerance registry: every threshold that decides a result is defined
# here and only here, and reports print all of them as ``config.tolerances``.
AXIOM_TOL = 1e-9  # Hermitian checks; the defects and bundle-axioms decision
CHAR_TOL = 1e-7  # extraction: commuting phi images, joint eigenvalue clusters
CLUSTER_TOL = 1e-8  # eigenvalues this close share one canonical eigenbasis
EXACT_TOL = 1e-12  # the identity is I; the covariant-rep and measure decision
EXTRACT_HERM_TOL = 1e-6  # extraction: Hermitian check of the compressed phi images
GAP_TOL = 1e-6  # least distance of an eigenvalue from the rounding threshold
MATCH_TOL = 1e-6  # extraction: a moved character's distance to its image
NORM_SLACK = 1e-13  # perturb: ||v|| may exceed 1 + eta by this much
PI_TOL = 1e-10  # the perturb certificate's bound on ||u u* u - u||
PIVOT_TOL = 1e-10  # least pivot norm in a canonical eigenbasis
POSITIVITY_TOL = 1e-12  # bundle-axioms: least entry of a* a is at least minus this
PROJECTION_TOL = 1e-8  # corner inverse roots: p = p* = p^2 within this
ROUNDING_THRESHOLD = 0.5  # nearest projections keep the eigenvalues above this
SINGULAR_TOL = 1e-12  # corner inverse roots: relative eigenvalue cutoff
SPECTRAL_TOL = 1e-9  # corner inverse roots: residual of X (W*W) X = P

TOLERANCES = {
    "axiom_tol": AXIOM_TOL,
    "char_tol": CHAR_TOL,
    "cluster_tol": CLUSTER_TOL,
    "exact_tol": EXACT_TOL,
    "extract_herm_tol": EXTRACT_HERM_TOL,
    "gap_tol": GAP_TOL,
    "match_tol": MATCH_TOL,
    "norm_slack": NORM_SLACK,
    "pi_tol": PI_TOL,
    "pivot_tol": PIVOT_TOL,
    "positivity_tol": POSITIVITY_TOL,
    "projection_tol": PROJECTION_TOL,
    "rounding_threshold": ROUNDING_THRESHOLD,
    "singular_tol": SINGULAR_TOL,
    "spectral_tol": SPECTRAL_TOL,
}


class PreconditionError(ValueError):
    """An operation's stated precondition failed."""


class SpectralGapError(PreconditionError):
    """Spectrum too close to a rounding threshold to split reliably."""


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_stack(stack) -> np.ndarray:
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim != 3:
        raise PreconditionError(f"expected a stack of matrices, got shape {a.shape}")
    return a


# Relative slack on a norm bound, far above the rounding of the bound or of
# an SVD on the matrix sizes used here: a norm whose bound, with this slack,
# is at most some value is at most that value.
BOUND_MARGIN = 1e-12


def op_norms(stack) -> np.ndarray:
    """Operator norms of a ``(k, m, n)`` stack, by one stacked SVD."""
    a = _as_stack(stack)
    if a.size == 0:
        return np.zeros(a.shape[0])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def op_norm(m) -> float:
    """Operator (largest singular value) norm."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    if a.ndim != 2:
        raise PreconditionError(f"expected a matrix, got shape {a.shape}")
    return float(op_norms(a[None])[0])


def adjoints(stack: np.ndarray) -> np.ndarray:
    """The conjugate transposes of a ``(k, m, n)`` stack."""
    return stack.conj().transpose(0, 2, 1)


def norm_bounds(stack) -> np.ndarray:
    """Upper bounds on the operator norms of a ``(k, m, n)`` stack, no SVD.

    ``||A||^8 <= sum(sigma^8) = ||(A*A)^2||_F^2``.  When every slice's largest
    real or imaginary part is 0 or within ``(1e-30, 1e30)``, the eighth
    powers neither overflow nor lose the bound to underflow, and the bound
    is ``||(A*A)^2||_F^(1/4)`` as it stands.  Otherwise each matrix is
    divided by its largest entry modulus ``s`` first, and the bound is
    ``s ||(B*B)^2||_F^(1/4)`` with ``B = A / s``.  Exact zeros give 0;
    non-finite input gives ``inf``, so it always reaches the SVD.  Compare
    with ``BOUND_MARGIN`` slack.
    """
    a = np.ascontiguousarray(_as_stack(stack))
    top = np.abs(a.view(np.float64)).max(axis=(1, 2), initial=0.0)
    if not top.any():
        return np.zeros(a.shape[0])
    if ((top == 0.0) | ((1e-30 < top) & (top < 1e30))).all():
        g = adjoints(a) @ a
        g = (g @ g).view(np.float64)
        return (g * g).sum(axis=(1, 2)) ** 0.125
    # an overflow only makes a bound infinite, which sends it to the SVD
    with np.errstate(over="ignore"):
        s = np.abs(a).max(axis=(1, 2))
        out = np.where(np.isfinite(s), 0.0, np.inf)
        live = (s > 0.0) & (out == 0.0)
        if live.any():
            # real division: complex division by a subnormal s overflows
            b = (a[live].view(np.float64) / s[live][:, None, None]).view(np.complex128)
            g = adjoints(b) @ b
            g = (g @ g).view(np.float64)
            out[live] = s[live] * (g * g).sum(axis=(1, 2)) ** 0.125
    return out


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norms of a ``(k, m, n)`` stack, upper bounds on the operator
    norms; ``inf`` on overflow, and 0 where every square underflows."""
    a = _as_stack(stack)
    flat = a.reshape(a.shape[0], a.shape[1] * a.shape[2]).view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.einsum("ki,ki->k", flat, flat))


def norms_unless_below(stack, tol: float) -> np.ndarray:
    """``op_norms(stack)``, with 0.0 wherever a bound puts a norm below ``tol``.

    Every decision against ``tol > 0`` is the one ``op_norms`` gives, and
    most passing checks need no SVD.  The bound is the Frobenius norm while
    it is far from underflow and overflow, else ``norm_bounds``; non-finite
    slices get ``inf`` without an SVD.
    """
    a = _as_stack(stack)
    bounds = frobenius_norms(a)
    odd = ~((1e-140 < bounds) & (bounds < 1e140))
    if odd.any():
        bounds[odd] = norm_bounds(a[odd])
    out = np.zeros(a.shape[0])
    need = np.flatnonzero(~(bounds * (1.0 + BOUND_MARGIN) < tol))
    out[need] = np.inf
    finite = need[np.isfinite(a[need]).all(axis=(1, 2))]
    out[finite] = op_norms(a[finite])
    return out


def norm_unless_below(m, tol: float) -> float:
    """One matrix's ``norms_unless_below``."""
    return float(norms_unless_below(np.asarray(m, dtype=np.complex128)[None], tol)[0])


class Prefix:
    """The slices of a stack that passed every check so far, ``[0, n)``, and
    the error of the first slice that failed one.  Each check runs on the
    prefix only, so its first failure replaces ``error``: the first failing
    slice raises its first failing check, as a loop over the slices would.
    The stack functions below return ``(result, error)``, for the prefix."""

    def __init__(self, k: int) -> None:
        self.n, self.error = k, None

    def cut(self, bad: np.ndarray, error: Callable[[int], Exception]) -> None:
        hit = np.flatnonzero(bad[: self.n])
        if hit.size:
            self.n = int(hit[0])
            self.error = error(self.n)

    def take(self, out, error: Exception | None):
        if error is not None:
            self.n, self.error = len(out), error
        return out


def clusters(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """``(i, j)`` for each run ``vals[i:j]`` of values within ``tol`` of the last."""
    cuts = [0, *(np.flatnonzero(~(np.diff(vals) <= tol)) + 1).tolist(), len(vals)]
    return [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


def _canonicalise(vals, vecs, cluster_tol: float, first: np.ndarray) -> None:
    """Canonicalise, in place, each cluster of slice ``k`` reaching column ``first[k]``."""
    close = np.diff(vals, axis=1) <= cluster_tol
    reach = close & (np.arange(vals.shape[1] - 1) >= first[:, None] - 1)
    for k in np.flatnonzero(reach.any(axis=1)).tolist():
        for i, j in clusters(vals[k], cluster_tol):
            if j - i > 1 and j > first[k]:
                vecs[k, :, i:j] = _canonical_basis(vecs[k, :, i:j])


def _canonical_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block) via coordinate pivots."""
    d, k = block.shape
    proj = block @ block.conj().T
    basis: list[np.ndarray] = []
    for j in range(d):
        v = proj[:, j].copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > PIVOT_TOL:
            basis.append(v / norm)
        if len(basis) == k:
            break
    if len(basis) != k:
        # fall back to the backend basis; spans agree either way
        return block
    return np.column_stack(basis)


def herm_eigs(stack, herm_tol: float = AXIOM_TOL, cluster_tol: float = CLUSTER_TOL):
    """Eigendecompositions of Hermitian matrices by one ``eigh``, values ascending.

    A slice fails if ``||m - m*||`` exceeds ``herm_tol``.  Eigenvalues closer
    than ``cluster_tol`` form a cluster, whose basis is Gram-Schmidt of the
    coordinate projections in coordinate order, so it depends only on the
    eigenspace.  Returns ``(values, vectors, error)``, vectors as columns.
    """
    a = _as_stack(stack)
    ok = Prefix(a.shape[0])
    ok.cut(norms_unless_below(a - adjoints(a), herm_tol) > herm_tol,
           lambda i: PreconditionError("matrix is not Hermitian within tolerance"))
    a = a[: ok.n]
    vals, vecs = np.linalg.eigh(0.5 * (a + adjoints(a)))
    _canonicalise(vals, vecs, cluster_tol, np.zeros(ok.n, dtype=int))
    return vals, vecs, ok.error


def herm_eig(m, herm_tol: float = AXIOM_TOL, cluster_tol: float = CLUSTER_TOL):
    """One matrix's ``herm_eigs``: ``(values, vectors)``."""
    vals, vecs, error = herm_eigs(_as_square(m)[None], herm_tol, cluster_tol)
    if error is not None:
        raise error
    return vals[0], vecs[0]


def nearest_projections(stack):
    """Round almost-idempotent Hermitian matrices to the nearest projections.

    Eigenvalues are split at ``ROUNDING_THRESHOLD``; one within ``GAP_TOL``
    of it is a ``SpectralGapError``.  Returns ``(P, error)``; each ``P = P* = P^2`` to
    machine precision and ``||P - Q|| <= 2 ||Q^2 - Q||``.
    """
    a = _as_stack(stack)
    ok = Prefix(a.shape[0])
    defect = norms_unless_below(a @ a - a, 0.25)
    ok.cut(defect >= 0.25, lambda i: PreconditionError(
        f"||Q^2 - Q|| = {defect[i]:.3g} >= 1/4; rounding is unsafe"))
    vals, vecs, error = herm_eigs(a[: ok.n])
    ok.take(vals, error)
    ok.cut(np.any(np.abs(vals - ROUNDING_THRESHOLD) < GAP_TOL, axis=1), lambda i: SpectralGapError(
        "eigenvalue within gap tolerance of the rounding threshold"))
    d = a.shape[1]
    ranks = (vals[: ok.n] > ROUNDING_THRESHOLD).sum(axis=1)  # the top columns: vals ascend
    p = np.zeros((ok.n, d, d), dtype=np.complex128)
    for r in sorted(set(ranks.tolist()) - {0}):
        g = np.flatnonzero(ranks == r)
        keep = np.ascontiguousarray(vecs[g, :, d - r :])
        p[g] = keep @ keep.conj().transpose(0, 2, 1)
    return 0.5 * (p + adjoints(p)), ok.error


def nearest_projection(q) -> np.ndarray:
    """One matrix's ``nearest_projections``."""
    p, error = nearest_projections(_as_square(q)[None])
    if error is not None:
        raise error
    return p[0]


def corner_inv_sqrts(w, p):
    """Inverse square roots of ``W*W`` taken inside the corners ``P M P``.

    Each ``p`` must be a projection and ``W*W`` invertible on its range.
    Gives the positive ``X`` with ``P X P = X`` and ``X (W*W) X = P``, so
    ``W X`` has ``(WX)*(WX) = P`` whenever ``W = W P``; the residual of that
    identity is checked against ``SPECTRAL_TOL``.  Returns ``(X, error)``.
    """
    w, p = _as_stack(w), _as_stack(p)
    ok = Prefix(p.shape[0])
    ok.cut((norms_unless_below(p @ p - p, PROJECTION_TOL) > PROJECTION_TOL)
           | (norms_unless_below(p - adjoints(p), PROJECTION_TOL) > PROJECTION_TOL),
           lambda i: PreconditionError("p is not a projection"))
    w, p = w[: ok.n], p[: ok.n]
    corner = p @ (adjoints(w) @ w) @ p
    corner = 0.5 * (corner + adjoints(corner))
    d = p.shape[1]
    ranks = np.rint(np.trace(p, axis1=1, axis2=2).real).astype(int)
    live = np.flatnonzero(ranks > 0)  # a rank-0 corner has the root 0
    # the corner is exactly Hermitian, so herm_eigs' check would pass
    vals, vecs = np.linalg.eigh(0.5 * (corner[live] + adjoints(corner[live])))
    top = ranks[live]
    singular = np.zeros(len(p), dtype=bool)
    singular[live] = vals[np.arange(len(live)), d - top] <= SINGULAR_TOL * vals.max(1, initial=1.0)
    ok.cut(singular, lambda i: PreconditionError("corner operator is singular; no inverse root"))
    m = np.searchsorted(live, ok.n)
    live, vals, vecs, top = live[:m], vals[:m], vecs[:m], top[:m]
    _canonicalise(vals, vecs, CLUSTER_TOL, d - top)  # the root reads the top columns only
    # rank-one terms added column by column, on which the bits depend; a
    # column below a slice's rank adds 0 before its first term
    xs = np.zeros((len(live), d, d), dtype=np.complex128)
    for j in range(d - top.max(initial=0), d):
        col = np.ascontiguousarray(vecs[:, :, j : j + 1])
        c = np.array([lam ** -0.5 if j >= d - r else 0.0 for lam, r in zip(vals[:, j], top.tolist())])
        xs = xs + c[:, None, None] * (col @ col.conj().reshape(len(live), 1, d))
    x = np.zeros((ok.n, d, d), dtype=np.complex128)
    x[live] = 0.5 * (xs + adjoints(xs))
    n = ok.n
    residual = norms_unless_below(x @ corner[:n] @ x - p[:n], SPECTRAL_TOL)
    ok.cut((residual > SPECTRAL_TOL) & (ranks[:n] > 0), lambda i: PreconditionError(
        f"inverse-root residual {residual[i]:.3g} exceeds tolerance"))
    return x[: ok.n], ok.error


def corner_inv_sqrt(w, p) -> np.ndarray:
    """One matrix's ``corner_inv_sqrts``."""
    x, error = corner_inv_sqrts(np.asarray(w)[None], _as_square(p)[None])
    if error is not None:
        raise error
    return x[0]


def is_partial_isometry(v) -> tuple[bool, float]:
    """Whether ``V V* V = V`` holds within ``EXACT_TOL``; returns (flag, defect)."""
    a = _as_square(v)
    defect = op_norm(a @ a.conj().T @ a - a)
    return (defect <= EXACT_TOL, defect)
