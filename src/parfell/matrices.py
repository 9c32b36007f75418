"""Dense-matrix primitives: norms, spectral rounding, corner inverse roots.

All matrices are square complex numpy arrays.  Eigenbases within degenerate
eigenspaces are canonicalised so downstream constructions are reproducible
across runs.
"""

from __future__ import annotations

import numpy as np

# The package's named tolerances, each defined only here.
AXIOM_TOL = 1e-9
SPECTRAL_TOL = 1e-9
EXACT_TOL = 1e-12
GAP_TOL = 1e-6
NORM_TOL = 1e-8
PI_TOL = 1e-10


class PreconditionError(ValueError):
    """An operation's stated precondition failed."""


class SpectralGapError(PreconditionError):
    """Spectrum too close to a rounding threshold to split reliably."""


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def op_norm(m) -> float:
    """Operator (largest singular value) norm."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    if a.ndim != 2:
        raise PreconditionError(f"expected a matrix, got shape {a.shape}")
    return float(np.linalg.norm(a, 2))


def herm_eig(m, herm_tol: float = AXIOM_TOL, cluster_tol: float = 1e-8):
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Parameters
    ----------
    m : array_like
        Hermitian matrix; fails if ``||m - m*||`` exceeds ``herm_tol``.
    cluster_tol : float
        Eigenvalues closer than this are treated as one degenerate cluster,
        whose basis is replaced by Gram-Schmidt of the coordinate projections
        in coordinate order.  That makes the returned basis depend only on
        the eigenspaces, not on backend rounding.

    Returns
    -------
    (values, vectors) : eigenvalues ascending, eigenvectors as columns.
    """
    a = _as_square(m)
    if op_norm(a - a.conj().T) > herm_tol:
        raise PreconditionError("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(a)
    d = a.shape[0]
    i = 0
    while i < d:
        j = i + 1
        while j < d and vals[j] - vals[j - 1] <= cluster_tol:
            j += 1
        if j - i > 1:
            vecs[:, i:j] = _canonical_basis(vecs[:, i:j])
        i = j
    return vals, vecs


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
        if norm > 1e-10:
            basis.append(v / norm)
        if len(basis) == k:
            break
    if len(basis) != k:
        # fall back to the backend basis; spans agree either way
        return block
    return np.column_stack(basis)


def nearest_projection(q, threshold: float = 0.5, gap_tol: float = GAP_TOL) -> np.ndarray:
    """Round an almost-idempotent Hermitian matrix to the nearest projection.

    Eigenvalues are split at ``threshold``; a spectral point within
    ``gap_tol`` of the threshold raises ``SpectralGapError``.  The output
    satisfies ``P = P* = P^2`` to machine precision and
    ``||P - Q|| <= 2 ||Q^2 - Q||``.
    """
    a = _as_square(q)
    defect = op_norm(a @ a - a)
    if defect >= 0.25:
        raise PreconditionError(f"||Q^2 - Q|| = {defect:.3g} >= 1/4; rounding is unsafe")
    vals, vecs = herm_eig(a)
    if np.any(np.abs(vals - threshold) < gap_tol):
        raise SpectralGapError("eigenvalue within gap tolerance of the rounding threshold")
    keep = vecs[:, vals > threshold]
    p = keep @ keep.conj().T
    return 0.5 * (p + p.conj().T)


def corner_inv_sqrt(w, p, residual_tol: float = SPECTRAL_TOL) -> np.ndarray:
    """Inverse square root of ``W*W`` taken inside the corner ``P M P``.

    ``p`` must be a projection and ``W*W`` must be invertible on its range.
    Returns the positive ``X`` with ``P X P = X`` and ``X (W*W) X = P`` on
    the corner (the inverse-root identity), so ``W X`` has ``(WX)*(WX) = P``
    whenever ``W = W P``.  The residual of that identity is checked against
    ``residual_tol``.
    """
    w = np.asarray(w, dtype=np.complex128)
    p = _as_square(p)
    if op_norm(p @ p - p) > 1e-8 or op_norm(p - p.conj().T) > 1e-8:
        raise PreconditionError("p is not a projection")
    gram = w.conj().T @ w
    corner = p @ gram @ p
    corner = 0.5 * (corner + corner.conj().T)
    rank = int(round(float(np.real(np.trace(p)))))
    if rank == 0:
        return np.zeros_like(p)
    vals, vecs = herm_eig(corner)
    top = vals[-rank:]
    scale = max(1.0, float(top.max()))
    if top.min() <= 1e-12 * scale:
        raise PreconditionError("corner operator is singular; no inverse root")
    x = np.zeros_like(p)
    for lam, v in zip(top, vecs[:, -rank:].T):
        col = v.reshape(-1, 1)
        x = x + (lam ** -0.5) * (col @ col.conj().T)
    x = 0.5 * (x + x.conj().T)
    residual = op_norm(x @ corner @ x - p)
    if residual > residual_tol:
        raise PreconditionError(f"inverse-root residual {residual:.3g} exceeds tolerance")
    return x


def is_partial_isometry(v, tol: float = EXACT_TOL) -> tuple[bool, float]:
    """Whether ``V V* V = V`` holds within ``tol``; returns (flag, defect)."""
    a = _as_square(v)
    defect = op_norm(a @ a.conj().T @ a - a)
    return (defect <= tol, defect)
