"""Matrix primitives: norms, canonical eigenbases, rounding, corner roots."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from parfell.matrices import BOUND_MARGIN, norm_unless_below


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


def test_herm_eig_degenerate_basis_is_canonical():
    # identity has a fully degenerate spectrum; basis must be coordinates
    vals, vecs = pf.herm_eig(np.eye(3, dtype=complex))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs, np.eye(3), atol=1e-12)

    # rank-2 projector spanning coordinates 0 and 2
    proj = np.diag([1.0, 0.0, 1.0]).astype(complex)
    vals, vecs = pf.herm_eig(proj)
    top = vecs[:, 1:]
    assert np.allclose(np.abs(top[:, 0]), [1, 0, 0], atol=1e-12)
    assert np.allclose(np.abs(top[:, 1]), [0, 0, 1], atol=1e-12)


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
    flag, _ = pf.is_partial_isometry(u, tol=1e-10)
    assert flag
    p = u[:, :2] @ u[:, :2].conj().T
    flag, _ = pf.is_partial_isometry(p, tol=1e-10)
    assert flag
