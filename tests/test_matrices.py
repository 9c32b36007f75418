"""Matrix primitives: norms, eigenbases, rounding, corner roots."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from parfell.matrices import (
    AXIOM_TOL,
    BOUND_MARGIN,
    GAP_TOL,
    SPECTRAL_TOL,
    corner_inv_sqrts,
    herm_eigs,
    nearest_projections,
    norm_unless_below,
    norms_unless_below,
)
from parfell import matrices


def e(i, j, d=2):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# op_norm


def test_op_norm_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(pf.op_norm(a) - want) < 1e-12


def test_op_norm_empty_and_bad_shape():
    assert pf.op_norm(np.zeros((0, 0))) == 0.0
    with pytest.raises(pf.PreconditionError):
        pf.op_norm(np.zeros((2, 2, 2)))


def test_op_norms_match_op_norm_bit_for_bit():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5, 12, 17):
        a = rng.standard_normal((9, d, d)) + 1j * rng.standard_normal((9, d, d))
        assert pf.op_norms(a).tolist() == [pf.op_norm(m) for m in a]
    assert pf.op_norms(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
    assert pf.op_norms(np.zeros((0, 4, 4))).shape == (0,)


@st.composite
def spectra(draw):
    """A d x d matrix U diag(sigma) V* of a given rank, scale and spread."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 40))
    rank = draw(st.integers(0, d))
    scale = 10.0 ** draw(st.integers(-200, 200))
    spread = draw(st.sampled_from(["random", "equal", "clustered"]))
    if spread == "random":
        sigma = rng.random(rank)
    elif spread == "equal":
        sigma = np.ones(rank)
    else:
        sigma = 1.0 - 1e-14 * rng.random(rank)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (u[:, :rank] * (scale * sigma)) @ v[:, :rank].conj().T


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_norm_bounds_bound_the_operator_norm(a):
    bound = pf.norm_bounds(a[None])[0]
    assert bound * (1.0 + BOUND_MARGIN) >= pf.op_norm(a)
    # sum(sigma^8)^(1/8) is at most d^(1/8) times the norm
    assert bound <= 40 ** 0.125 * pf.op_norm(a) * (1.0 + BOUND_MARGIN)


@settings(max_examples=200, deadline=None)
@given(spectra(), st.sampled_from([0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 2.0, 1e3]))
def test_norm_unless_below_decides_as_op_norm(a, factor):
    norm = pf.op_norm(a)
    tol = norm * factor if norm > 0 else 1e-300
    got = norm_unless_below(a, tol)
    assert got == norm or (got == 0.0 and norm < tol)


def test_norms_unless_below_bounds_no_slice_of_exact_zeros(monkeypatch):
    # an exact-zero slice is settled by its Frobenius bound 0; a slice whose
    # squares underflow to 0 still reaches norm_bounds and, against a tiny
    # tolerance, the SVD
    bounded = []
    real = matrices.norm_bounds
    monkeypatch.setattr(matrices, "norm_bounds", lambda a: bounded.append(len(a)) or real(a))
    stack = np.zeros((2, 3, 3), dtype=complex)
    stack[1] = 1e-170 * np.eye(3)
    got = norms_unless_below(stack, 1e-300)
    assert bounded == [1]
    assert got[0] == 0.0 and got[1] == pytest.approx(1e-170, rel=1e-12)


def test_norm_bounds_direct_and_scaled_paths_agree():
    # every slice in range takes the direct path; one slice of 1e-100 sends
    # the whole stack through the scaled one
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7))
    a[1] = 0.0
    direct = pf.norm_bounds(a)
    scaled = pf.norm_bounds(np.concatenate([a, 1e-100 * a[:1]]))
    assert direct[1] == scaled[1] == 0.0
    np.testing.assert_allclose(direct, scaled[:5], rtol=1e-13, atol=0.0)
    assert (direct * (1.0 + BOUND_MARGIN) >= pf.op_norms(a)).all()


def test_norm_bounds_zeros_and_non_finite():
    stack = np.zeros((4, 3, 3), dtype=complex)
    stack[1, 0, 0] = np.inf
    stack[2, 1, 2] = np.nan
    stack[3, 2, 2] = 1e-320  # subnormal: still a positive bound
    bounds = pf.norm_bounds(stack)
    assert bounds[0] == 0.0 and bounds[1] == np.inf and bounds[2] == np.inf
    assert bounds[3] == pytest.approx(1e-320, rel=1e-3)
    assert pf.norm_bounds(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# herm_eig


def test_herm_eig_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        a = random_hermitian(rng, d)
        vals, vecs = pf.herm_eig(a)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(d), atol=1e-10)
        assert np.allclose(a @ vecs, vecs @ np.diag(vals), atol=1e-9)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(pf.PreconditionError):
        pf.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_deterministic_across_runs():
    rng = np.random.default_rng(2)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    a = u @ np.diag([1.0, 1.0, 2.0, 2.0]) @ u.conj().T
    vals1, vecs1 = pf.herm_eig(a)
    vals2, vecs2 = pf.herm_eig(a.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)


# ---------------------------------------------------------------------------
# nearest_projection


def test_nearest_projection_rounds_diagonal():
    p = pf.nearest_projection(np.diag([0.1, 0.9]).astype(complex))
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-12)


def test_nearest_projection_defect_bound():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(0, d + 1))
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        exact = u[:, :k] @ u[:, :k].conj().T
        q = exact + 0.05 * random_hermitian(rng, d)
        defect = pf.op_norm(q @ q - q)
        if defect >= 0.25:
            continue
        try:
            p = pf.nearest_projection(q)
        except pf.SpectralGapError:
            continue
        assert pf.op_norm(p @ p - p) < 1e-12
        assert pf.op_norm(p - p.conj().T) < 1e-12
        assert pf.op_norm(p - q) <= 2 * defect + 1e-10


def test_nearest_projection_rejects_large_defect():
    with pytest.raises(pf.PreconditionError):
        pf.nearest_projection(0.5 * np.eye(2, dtype=complex))


def test_nearest_projection_gap_error():
    q = np.diag([0.5 + 1e-8, 0.9]).astype(complex)
    with pytest.raises(pf.SpectralGapError):
        pf.nearest_projection(q)


# ---------------------------------------------------------------------------
# corner_inv_sqrt


def test_corner_inv_sqrt_scalar_corner():
    w = 1.01 * e(1, 0)
    p = e(0, 0)
    x = pf.corner_inv_sqrt(w, p)
    assert abs(x[0, 0] - 1.0 / 1.01) < 1e-12
    assert abs(x[0, 1]) == 0.0 and abs(x[1, 0]) == 0.0 and abs(x[1, 1]) == 0.0
    c = w.conj().T @ w
    assert pf.op_norm(x @ c @ x - p) < 1e-12


def test_corner_inv_sqrt_projection_corner():
    # W*W already equals P: the inverse root is P itself
    w = e(1, 0)
    p = e(0, 0)
    x = pf.corner_inv_sqrt(w, p)
    assert np.allclose(x, p, atol=1e-12)


def test_corner_inv_sqrt_zero_projection():
    x = pf.corner_inv_sqrt(np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.array_equal(x, np.zeros((2, 2)))


def test_corner_inv_sqrt_singular_corner():
    with pytest.raises(pf.PreconditionError):
        pf.corner_inv_sqrt(np.zeros((2, 2)), e(0, 0))


def test_corner_inv_sqrt_near_singular_corner():
    # the top eigenvalue 2.5e-9 lies within 1e-8 of the kernel's zero, and
    # the root still reads its own eigenvector
    w = np.diag([1.0, 5e-5, 0.0]).astype(complex)
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = pf.corner_inv_sqrt(w, p)
    np.testing.assert_allclose(x, np.diag([1.0, 2e4, 0.0]), rtol=1e-12, atol=1e-12)
    assert pf.op_norm(x @ w.conj().T @ w @ x - p) <= SPECTRAL_TOL


def test_corner_inv_sqrt_rejects_non_projection():
    with pytest.raises(pf.PreconditionError):
        pf.corner_inv_sqrt(np.eye(2), np.diag([0.5, 0.0]).astype(complex))


def test_corner_inv_sqrt_random_identity():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(0, d + 1))
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        p = u[:, :k] @ u[:, :k].conj().T
        # take w with w = w p and w*w invertible on range(p)
        w = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) @ p
        w = w + 0.5 * p  # push the corner spectrum away from zero
        x = pf.corner_inv_sqrt(w, p)
        c = p @ w.conj().T @ w @ p
        assert pf.op_norm(x @ c @ x - p) < 1e-8
        # x lives in the corner
        assert pf.op_norm(x - p @ x @ p) < 1e-10


# ---------------------------------------------------------------------------
# is_partial_isometry


def test_is_partial_isometry_exact():
    flag, defect = pf.is_partial_isometry(e(1, 0))
    assert flag and defect < 1e-15


def test_is_partial_isometry_scaled_defect():
    flag, defect = pf.is_partial_isometry(1.01 * e(1, 0))
    assert not flag
    assert abs(defect - 0.020301) < 1e-12


def test_unitary_and_projection_are_partial_isometries():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    _, defect = pf.is_partial_isometry(u)
    assert defect <= 1e-10
    p = u[:, :2] @ u[:, :2].conj().T
    _, defect = pf.is_partial_isometry(p)
    assert defect <= 1e-10


# ---------------------------------------------------------------------------
# the stacked spectral functions, slice by slice against one-matrix references

# herm_eig, nearest_projection and corner_inv_sqrt as they were written for
# one matrix at a time, before each became the one-slice case of its stacked
# version; kept verbatim apart from the names, and with the eigenvectors that
# eigh returns.


def ref_herm_eig(m, herm_tol=AXIOM_TOL):
    a = np.asarray(m, dtype=np.complex128)
    if norm_unless_below(a - a.conj().T, herm_tol) > herm_tol:
        raise pf.PreconditionError("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    return np.linalg.eigh(a)


def ref_nearest_projection(q, threshold=0.5, gap_tol=GAP_TOL):
    a = np.asarray(q, dtype=np.complex128)
    defect = norm_unless_below(a @ a - a, 0.25)
    if defect >= 0.25:
        raise pf.PreconditionError(f"||Q^2 - Q|| = {defect:.3g} >= 1/4; rounding is unsafe")
    vals, vecs = ref_herm_eig(a)
    if np.any(np.abs(vals - threshold) < gap_tol):
        raise pf.SpectralGapError("eigenvalue within gap tolerance of the rounding threshold")
    keep = vecs[:, vals > threshold]
    p = keep @ keep.conj().T
    return 0.5 * (p + p.conj().T)


def ref_corner_inv_sqrt(w, p, residual_tol=SPECTRAL_TOL):
    w = np.asarray(w, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)
    if (
        norm_unless_below(p @ p - p, 1e-8) > 1e-8
        or norm_unless_below(p - p.conj().T, 1e-8) > 1e-8
    ):
        raise pf.PreconditionError("p is not a projection")
    gram = w.conj().T @ w
    corner = p @ gram @ p
    corner = 0.5 * (corner + corner.conj().T)
    rank = int(round(float(np.real(np.trace(p)))))
    if rank == 0:
        return np.zeros_like(p)
    vals, vecs = ref_herm_eig(corner)
    top = vals[-rank:]
    scale = max(1.0, float(top.max()))
    if top.min() <= 1e-12 * scale:
        raise pf.PreconditionError("corner operator is singular; no inverse root")
    x = np.zeros_like(p)
    for lam, v in zip(top, vecs[:, -rank:].T):
        col = v.reshape(-1, 1)
        x = x + (lam ** -0.5) * (col @ col.conj().T)
    x = 0.5 * (x + x.conj().T)
    residual = norm_unless_below(x @ corner @ x - p, residual_tol)
    if residual > residual_tol:
        raise pf.PreconditionError(f"inverse-root residual {residual:.3g} exceeds tolerance")
    return x


def per_slice(ref, slices):
    """The reference's outputs slice by slice, up to its first error."""
    outs = []
    for args in slices:
        try:
            outs.append(ref(*args))
        except pf.PreconditionError as err:
            return outs, err
    return outs, None


def assert_same_error(got, want):
    assert (type(got), str(got)) == (type(want), str(want))


def unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spectral(rng, d, vals):
    u = unitary(rng, d)
    return (u * np.asarray(vals, dtype=float)) @ u.conj().T


def projection(rng, d, rank, coordinate):
    """A rank-``rank`` projection, on coordinates or on a random subspace."""
    if coordinate:
        return np.diag((np.arange(d) < rank).astype(complex))
    u = unitary(rng, d)
    return u[:, :rank] @ u[:, :rank].conj().T


QUOTIENT_KINDS = ["noisy", "exact", "coordinate", "gap", "defect", "non_hermitian"]


def quotient(rng, d, kind):
    """A ``Q`` for nearest_projection: near or exact projections of any rank
    (exact ones have degenerate clusters at 0 and 1), or one that fails a
    check: an eigenvalue within the gap of 1/2, ``||Q^2 - Q|| >= 1/4``, or
    a non-Hermitian part above the tolerance."""
    rank = int(rng.integers(0, d + 1))
    vals = (np.arange(d) < rank).astype(float)
    if kind == "noisy":
        return spectral(rng, d, vals + 1e-3 * rng.standard_normal(d))
    if kind in ("exact", "coordinate"):
        return projection(rng, d, rank, kind == "coordinate")
    if kind == "gap":
        vals[0] = 0.5 + 5e-7
        return spectral(rng, d, vals)
    if kind == "defect":
        vals[0] = 0.5
        return spectral(rng, d, vals)
    skew = rng.standard_normal((d, d))
    return spectral(rng, d, vals) + 1e-6 * (skew - skew.T)


CORNER_KINDS = ["random", "unitary", "boundary", "singular", "rank0", "not_projection"]


def corner_case(rng, d, kind):
    """``(w, p)`` for corner_inv_sqrt.  ``unitary`` gives a corner equal to
    ``p``: a degenerate top eigenvalue above a degenerate zero.  ``boundary``
    puts the lowest top eigenvalue, 2.5e-9, within 1e-8 of the zeros below
    it.  The rest are a singular corner, a rank-0 ``p`` and a ``p``
    that is not a projection."""
    rank = int(rng.integers(1, d + 1))
    if kind == "rank0":
        rank = 0
    p = projection(rng, d, rank, bool(rng.integers(0, 2)))
    if kind == "not_projection":
        return rng.standard_normal((d, d)), 0.5 * p
    if kind == "unitary":
        return unitary(rng, d) @ p, p
    w = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) @ p + 0.5 * p
    if kind in ("boundary", "singular") and rank:
        # shrink one direction of range(p) to norm 5e-5 (boundary) or 0
        u, s, vh = np.linalg.svd(w)
        s[rank - 1] = 5e-5 if kind == "boundary" else 0.0
        w = (u * s) @ vh
    return w, p


@st.composite
def stacks(draw, kinds, build):
    """One seed, one size in 1..16 and 1 to 6 slices of mixed kinds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 16))
    picked = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    return [build(rng, d, kind) for kind in picked]


@settings(max_examples=150, deadline=None)
@given(stacks(QUOTIENT_KINDS + ["hermitian"], lambda rng, d, kind: (
    random_hermitian(rng, d) if kind == "hermitian" else quotient(rng, d, kind),)))
def test_herm_eigs_match_herm_eig_slice_by_slice(slices):
    vals, vecs, err = herm_eigs(np.stack([q for q, in slices]))
    want, want_err = per_slice(ref_herm_eig, slices)
    assert len(vals) == len(vecs) == len(want)
    for k, (wv, wu) in enumerate(want):
        assert np.array_equal(vals[k], wv) and np.array_equal(vecs[k], wu)
    assert_same_error(err, want_err)


@settings(max_examples=200, deadline=None)
@given(stacks(QUOTIENT_KINDS, lambda rng, d, kind: (quotient(rng, d, kind),)))
def test_nearest_projections_match_nearest_projection_slice_by_slice(slices):
    got, err = nearest_projections(np.stack([q for q, in slices]))
    want, want_err = per_slice(ref_nearest_projection, slices)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert_same_error(err, want_err)


@settings(max_examples=200, deadline=None)
@given(stacks(CORNER_KINDS, corner_case))
def test_corner_inv_sqrts_match_corner_inv_sqrt_slice_by_slice(slices):
    w = np.stack([w for w, _ in slices])
    p = np.stack([p for _, p in slices])
    got, err = corner_inv_sqrts(w, p)
    want, want_err = per_slice(ref_corner_inv_sqrt, slices)
    assert len(got) == len(want)
    assert all(np.array_equal(g, x) for g, x in zip(got, want))
    assert_same_error(err, want_err)


def test_stack_functions_report_the_first_failing_slice():
    # slice 0 fails a late check, slice 1 an early one: slice 0's error wins
    gap = np.diag([0.5 + 5e-7, 1.0]).astype(complex)
    p, err = nearest_projections(np.stack([np.eye(2), gap, 0.5 * np.eye(2)]))
    assert len(p) == 1 and isinstance(err, pf.SpectralGapError)
    x, err = corner_inv_sqrts(np.zeros((2, 2, 2)), np.stack([e(0, 0), 0.5 * e(0, 0)]))
    assert len(x) == 0 and str(err) == "corner operator is singular; no inverse root"
