"""Covariant representations: the standard model, defects, rounding, extraction."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from conftest import random_cyclic_action, random_free_action, random_valid_action
from parfell import reps


def e(i, j, d=2):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# the standard model


def test_std_rep_swap_matrices(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    assert rep.n == 2 and rep.dim == 2
    assert np.array_equal(rep.phi_indicator(0), e(0, 0))
    assert np.array_equal(rep.phi_indicator(1), e(1, 1))
    assert np.array_equal(rep.v.matrix(1), e(0, 1) + e(1, 0))
    assert np.array_equal(rep.v.matrix(0), np.eye(2))
    # phi is linear
    assert np.array_equal(rep.phi([2.0, 3.0]), np.diag([2.0, 3.0]).astype(complex))


def test_std_rep_fixed_point(fixed_point_action):
    rep = pf.std_covariant_rep(fixed_point_action)
    assert np.array_equal(rep.v.matrix(1), e(0, 0))


def test_std_rep_exact_relations_random():
    rng = np.random.default_rng(17)
    for _ in range(30):
        act = random_valid_action(rng)
        rep = pf.std_covariant_rep(act)
        elems = pf.scan_elements(act.group, 3)
        rel = pf.partial_rep_defects(rep.v, elements=elems)
        cov = pf.covariance_defects(rep, elements=elems)
        assert rel.max_defect() <= 1e-12, rel.to_json()
        assert cov.max_defect() <= 1e-12, cov.to_json()
        assert not rel.skipped


def test_positivity_flag(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    assert pf.positivity_flag(rep)
    bad = pf.CovariantRep(rep.dual, [-e(0, 0), e(1, 1)], rep.v)
    assert not pf.positivity_flag(bad)


# ---------------------------------------------------------------------------
# defect reports on corrupted families


def test_scaled_family_defects(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.PartialRepFamily(
        swap_action.group, 2,
        mats={0: np.eye(2), 1: 1.1 * rep.v.matrix(1)},
    )
    report = pf.partial_rep_defects(fam, elements=[0, 1])
    assert report.entries["selfadjoint"] == pytest.approx(0.0, abs=1e-15)
    assert report.entries["triple_product"] == pytest.approx(0.231, abs=1e-12)
    assert report.entries["intertwine"] == pytest.approx(0.231, abs=1e-12)
    assert report.entries["commuting_ranges"] == pytest.approx(0.0, abs=1e-15)
    assert not report.ok(1e-9)
    assert report.witnesses["triple_product"] == "1 , 1"


def test_zeroed_family_covariance(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.PartialRepFamily(
        swap_action.group, 2, mats={0: np.eye(2), 1: np.zeros((2, 2))}
    )
    noisy = pf.CovariantRep(rep.dual, rep.phi_mats, fam)
    report = pf.covariance_defects(noisy, elements=[1])
    assert report.entries["covariance"] == pytest.approx(1.0, abs=1e-15)


def test_defects_require_identity():
    g = pf.cyclic_group(2)
    fam = pf.PartialRepFamily(g, 2, mats={0: 2 * np.eye(2), 1: e(0, 1) + e(1, 0)})
    with pytest.raises(pf.PreconditionError):
        pf.partial_rep_defects(fam, elements=[0, 1])
    fam2 = pf.PartialRepFamily(pf.FreeGroup(rank=1), 2, mats={(1,): np.eye(2)})
    with pytest.raises(pf.PreconditionError):
        pf.partial_rep_defects(fam2, elements=[(1,)])


def test_defects_skip_unavailable_elements():
    f1 = pf.FreeGroup(rank=1)
    fam = pf.PartialRepFamily(f1, 2, mats={(): np.eye(2), (1,): e(1, 0)})
    report = pf.partial_rep_defects(fam, elements=[(), (1,)])
    assert any(s["entry"] == "selfadjoint" for s in report.skipped)
    assert any(s["entry"] == "triple_product" for s in report.skipped)


# ---------------------------------------------------------------------------
# defect scans against a reference that runs op_norm on every pair


class _RefWorst:
    def __init__(self) -> None:
        self.value, self.witness = 0.0, ""

    def feed(self, d, label: str) -> None:
        self.feed_value(pf.op_norm(d), label)

    def feed_value(self, value: float, label: str) -> None:
        if value > self.value:
            self.value, self.witness = float(value), label


def _ref_report(worst: dict, skipped: list) -> dict:
    return {
        "entries": {k: w.value for k, w in worst.items()},
        "witnesses": {k: w.witness for k, w in worst.items()},
        "skipped": skipped,
    }


def ref_partial_rep_defects(v, elems) -> dict:
    group = v.group
    label = partial(pf.word_to_str, group)

    def get(g):
        return v.matrix(g) if v.has(g) else None

    worst = {k: _RefWorst() for k in ("selfadjoint", "triple_product", "commuting_ranges", "intertwine")}
    skipped = []
    for t in elems:
        vti = get(group.inverse(t))
        if vti is None:
            skipped.append({"entry": "selfadjoint", "elements": [label(t)]})
        else:
            worst["selfadjoint"].feed(v.matrix(t).conj().T - vti, label(t))
    for s in elems:
        vs, vsi = v.matrix(s), get(group.inverse(s))
        ps = vs @ vs.conj().T
        for t in elems:
            vt, vst = v.matrix(t), get(group.multiply(s, t))
            pt = vt @ vt.conj().T
            pair = f"{label(s)} , {label(t)}"
            if vsi is None or vst is None:
                skipped.append({"entry": "triple_product", "elements": [label(s), label(t)]})
            else:
                worst["triple_product"].feed(vsi @ vs @ vt - vsi @ vst, pair)
            worst["commuting_ranges"].feed(ps @ pt - pt @ ps, pair)
            if vst is None:
                skipped.append({"entry": "intertwine", "elements": [label(s), label(t)]})
            else:
                worst["intertwine"].feed(vs @ pt - vst @ vst.conj().T @ vs, pair)
    return _ref_report(worst, skipped)


def ref_covariance(rep, elems) -> _RefWorst:
    cov = _RefWorst()
    for t in elems:
        vt = rep.v.matrix(t)
        for z, w in rep.dual.action.element_map(t).pairs:
            cov.feed(vt @ rep.phi_mats[z] @ vt.conj().T - rep.phi_mats[w],
                     f"{pf.word_to_str(rep.group, t)} @ {z}")
    return cov


def ref_perturb_scans(v, rounded, rep, elems) -> dict:
    """The certificate's entries, witnesses and skipped pairs, recomputed
    from the rounded family that perturb_to_partial_isometries returned."""
    group = v.group
    ident = group.identity
    elems = elems if ident in elems else [ident] + elems
    label = partial(pf.word_to_str, group)
    out = {t: rounded.matrix(t) for t in elems}
    worst = {k: _RefWorst() for k in ("distance_bound", "selfadjoint", "triple_product")}
    pi = _RefWorst()
    for t in elems:
        if t != ident:
            worst["distance_bound"].feed(out[t] - v.matrix(t), label(t))
            pi.feed_value(pf.is_partial_isometry(out[t])[1], label(t))
    skipped = []
    for t in elems:
        ti = group.inverse(t)
        if ti in out:
            worst["selfadjoint"].feed(out[t].conj().T - out[ti], label(t))
        else:
            skipped.append({"entry": "selfadjoint", "elements": [label(t)]})
    for s in elems:
        si = group.inverse(s)
        for t in elems:
            st_ = group.multiply(s, t)
            if si not in out or st_ not in out:
                skipped.append({"entry": "triple_product", "elements": [label(s), label(t)]})
            else:
                worst["triple_product"].feed(out[si] @ out[s] @ out[t] - out[si] @ out[st_],
                                             f"{label(s)} , {label(t)}")
    cov = ref_covariance(
        pf.CovariantRep(rep.dual, rep.phi_mats, rounded), [t for t in elems if t != ident]
    )
    report = _ref_report({**worst, "covariance": cov}, skipped)
    report["entries"]["pi_defect"] = pi.value
    report["witnesses"]["pi_defect"] = pi.witness
    return report


def ref_perturb_elements(v, eta, rep, elems):
    """The rounded matrices, per-element distances and contraction constant
    of perturb_to_partial_isometries, one matrix at a time: the loop that
    function ran before its norms were stacked, kept verbatim."""
    group = v.group
    ident = group.identity
    elems = elems if ident in elems else [ident] + elems
    out, per_element = {}, {}
    for t in elems:
        label = pf.word_to_str(group, t)
        vt = v.matrix(t)
        if t == ident:
            out[t] = np.eye(v.dim, dtype=np.complex128)
            per_element[label] = 0.0
            continue
        defect = pf.op_norm(vt @ vt.conj().T @ vt - vt)
        if defect >= 2.0 * eta:
            raise pf.PreconditionError(
                f"partial-isometry defect {defect:.3g} of {label} is not below 2*eta"
            )
        norm = pf.op_norm(vt)
        if norm > 1.0 + eta + 1e-13:
            raise pf.PreconditionError(f"||v|| = {norm:.6g} of {label} exceeds 1 + eta")
        q = vt.conj().T @ vt
        p = pf.nearest_projection(q)
        w = vt @ p
        x = pf.corner_inv_sqrt(w, p)
        u = w @ x
        out[t] = u
        d = pf.op_norm(u - vt)
        per_element[label] = float(d)
    contraction = max(
        (pf.op_norm(rep.phi_mats[z]) for z in range(rep.n)), default=0.0
    )
    return out, per_element, contraction


def _noise(rng, kind: str, d: int) -> np.ndarray:
    """Gaussian noise of unit scale, or a random unitary, whose singular
    values are all 1 (so the top ones cluster)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    if kind == "unitary":
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return g


@st.composite
def noisy_families(draw):
    """A standard model with noise, some elements dropped (so pairs are
    skipped), and optionally one shared matrix for every non-identity
    element (so many pairs tie exactly).  The noise is Gaussian, unitary
    (clustered top singular values), or Gaussian of scale 1e-170, whose
    squares underflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cyclic", "free"]))
    if kind == "cyclic":
        act = random_cyclic_action(rng, draw(st.integers(2, 6)), draw(st.integers(2, 5)))
        scan = act.group.ball(1)
    else:
        act = random_free_action(rng, draw(st.integers(1, 2)), draw(st.integers(2, 5)))
        scan = act.group.ball(draw(st.integers(1, 2)))
    noise = draw(st.sampled_from(["gaussian", "unitary", "tiny"]))
    sigma = 1e-170 if noise == "tiny" else draw(st.sampled_from([0.0, 1e-3, 0.05]))
    drop = draw(st.sampled_from([0.0, 0.3]))
    tie = draw(st.booleans())
    rep = pf.std_covariant_rep(act)
    ident = act.group.identity
    mats, shared = {}, None
    for t in scan:
        if t != ident and rng.random() < drop:
            continue
        m = rep.v.matrix(t)
        if t != ident:
            if tie and shared is not None:
                m = shared
            elif sigma > 0:
                m = m + sigma * _noise(rng, noise, rep.dim)
            shared = m
        mats[t] = m
    return rep, pf.PartialRepFamily(act.group, rep.dim, mats=mats), list(mats)


@settings(max_examples=60, deadline=None)
@given(noisy_families())
def test_defect_scans_match_every_pair_reference(case):
    rep, fam, elems = case
    got = pf.partial_rep_defects(fam, elements=elems).to_json()
    want = ref_partial_rep_defects(fam, elems)
    assert got["entries"] == dict(sorted(want["entries"].items()))
    assert got["witnesses"] == dict(sorted(want["witnesses"].items()))
    assert got["skipped"] == want["skipped"]

    noisy = pf.CovariantRep(rep.dual, rep.phi_mats, fam)
    cov = pf.covariance_defects(noisy, elements=elems)
    ref = ref_covariance(noisy, elems)
    assert (cov.entries, cov.witnesses, cov.skipped) == (
        {"covariance": ref.value}, {"covariance": ref.witness}, [])

    try:
        rounded, cert = pf.perturb_to_partial_isometries(fam, 0.12, rep=rep, elements=elems)
    except pf.PreconditionError as err:
        # too noisy to round: the same element fails first, with the same text
        with pytest.raises(pf.PreconditionError) as want_err:
            ref_perturb_elements(fam, 0.12, rep, elems)
        assert (type(want_err.value), str(want_err.value)) == (type(err), str(err))
        return
    want = ref_perturb_scans(fam, rounded, rep, elems)
    assert cert.entries == want["entries"]
    assert cert.witnesses == want["witnesses"]
    assert cert.skipped == want["skipped"]
    out, per_element, contraction = ref_perturb_elements(fam, 0.12, rep, elems)
    assert set(out) == set(rounded.elements())
    assert all(np.array_equal(rounded.matrix(t), m) for t, m in out.items())
    assert cert.per_element == per_element
    assert cert.contraction_constant == contraction


def test_feed_stack_skips_only_what_cannot_win(monkeypatch):
    sizes = []  # matrices per stacked SVD
    monkeypatch.setattr(reps, "op_norms", lambda a: sizes.append(len(a)) or pf.op_norms(a))
    labels = []
    worst = reps._Worst()

    def label(i):
        labels.append(i)
        return f"w{i}"

    worst.feed_stack(np.zeros((3, 2, 2)), label)  # exact zeros: no SVD
    assert (sizes, labels, worst.value) == ([], [], 0.0)
    worst.feed_stack(np.eye(2)[None], label)
    assert (sizes, labels, worst.value) == ([1], [0], 1.0)
    worst.feed_stack(0.5 * np.eye(2)[None], label)  # bound 0.5 * 2^(1/8) below the worst
    assert sizes == [1]
    # the bounds 1.2 could win: the first is taken alone, its exact tie in
    # one more SVD, and the first index keeps the maximum; 0.5 I is skipped
    stack = np.stack([0.5 * np.eye(2), np.full((2, 2), 0.6), np.full((2, 2), 0.6)])
    worst.feed_stack(stack, label)
    assert (sizes, labels, worst.witness) == ([1, 1, 1], [0, 1], "w1")
    assert worst.value == pytest.approx(1.2, rel=1e-15)
    # the largest bound goes first and settles the rest: no further SVD
    stack = np.stack([1.3 * np.eye(2), np.full((2, 2), 1.0), np.full((2, 2), 0.95)])
    worst.feed_stack(stack, label)
    assert (sizes, labels, worst.witness) == ([1, 1, 1, 1], [0, 1, 1], "w1")
    assert worst.value == pytest.approx(2.0, rel=1e-15)
    worst.value = np.inf
    worst.feed_stack(np.full((1, 2, 2), np.inf), label)  # non-finite: always the SVD
    assert sizes[-1] == 1 and len(sizes) == 5


def test_selfadjoint_defect_below_frobenius_underflow():
    # |1e-170|^2 underflows to 0, so a Frobenius norm of this defect reads 0
    fam = pf.PartialRepFamily(
        pf.cyclic_group(2), 2, mats={0: np.eye(2), 1: np.array([[1e-170j, 1], [1, 0]])}
    )
    report = pf.partial_rep_defects(fam, elements=[0, 1])
    assert report.entries["selfadjoint"] == pytest.approx(2e-170, rel=1e-12, abs=0.0)
    assert report.witnesses["selfadjoint"] == "1"


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_hand_example():
    f1 = pf.FreeGroup(rank=1)
    fam = pf.PartialRepFamily(
        f1, 2,
        mats={(): np.eye(2), (1,): 1.01 * e(1, 0), (-1,): 1.01 * e(0, 1)},
    )
    rounded, cert = pf.perturb_to_partial_isometries(
        fam, 0.011, elements=[(), (1,), (-1,)]
    )
    assert cert.ok
    assert np.allclose(rounded.matrix((1,)), e(1, 0), atol=1e-13)
    assert cert.entries["distance_bound"] == pytest.approx(0.01, abs=1e-12)
    assert cert.bounds["distance_bound"] == pytest.approx(0.11)
    assert cert.entries["pi_defect"] <= 1e-10
    assert cert.entries["selfadjoint"] <= 1e-13
    # squares are not in the family, so those triples are skipped
    assert any(s["entry"] == "triple_product" for s in cert.skipped)


def test_perturb_eta_range():
    g = pf.cyclic_group(2)
    fam = pf.PartialRepFamily(g, 2, mats={0: np.eye(2), 1: e(0, 1) + e(1, 0)})
    for eta in (0.0, 0.125, 0.2, -0.5):
        with pytest.raises(pf.PreconditionError):
            pf.perturb_to_partial_isometries(fam, eta, elements=[0, 1])


def test_perturb_rejects_bad_input():
    g = pf.cyclic_group(2)
    fam = pf.PartialRepFamily(g, 2, mats={0: np.eye(2), 1: 1.2 * (e(0, 1) + e(1, 0))})
    with pytest.raises(pf.PreconditionError):
        pf.perturb_to_partial_isometries(fam, 0.05, elements=[0, 1])


def test_perturb_reports_the_first_failing_element():
    # element 1 fails its defect check before element 2's NaN reaches an SVD
    g = pf.cyclic_group(3)
    perm = np.roll(np.eye(3), 1, axis=0)
    fam = pf.PartialRepFamily(
        g, 3, mats={0: np.eye(3), 1: 1.5 * perm, 2: np.full((3, 3), np.nan)}
    )
    with pytest.raises(pf.PreconditionError, match="defect 1.88 of 1 is not below"):
        pf.perturb_to_partial_isometries(fam, 0.1, elements=[0, 1, 2])


def test_perturb_randomized_bounds():
    rng = np.random.default_rng(29)
    eta = 1e-2
    for _ in range(50):
        act = random_valid_action(rng)
        rep = pf.std_covariant_rep(act)
        elems = pf.scan_elements(act.group, 2)
        mats = {}
        for t in elems:
            m = rep.v.matrix(t).copy()
            if t != act.group.identity:
                noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                norm = pf.op_norm(noise)
                if norm > 0:
                    m = m + (eta / 4.0) * noise / norm
            mats[t] = m
        fam = pf.PartialRepFamily(act.group, rep.dim, mats=mats)
        rounded, cert = pf.perturb_to_partial_isometries(
            fam, eta, rep=rep, elements=elems
        )
        assert cert.ok, cert.to_json()
        assert cert.entries["pi_defect"] <= 1e-10
        assert cert.entries["covariance"] <= cert.bounds["covariance"]
        for t in elems:
            flag, _ = pf.is_partial_isometry(rounded.matrix(t), tol=1e-10)
            assert flag


def test_perturb_covariance_entry_needs_rep(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.PartialRepFamily(swap_action.group, 2,
                              mats={0: np.eye(2), 1: rep.v.matrix(1)})
    _, cert = pf.perturb_to_partial_isometries(fam, 0.01, elements=[0, 1])
    assert "covariance" not in cert.entries
    assert cert.contraction_constant is None
    _, cert2 = pf.perturb_to_partial_isometries(fam, 0.01, rep=rep, elements=[0, 1])
    assert "covariance" in cert2.entries
    assert cert2.contraction_constant == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fiber-map families


def test_exact_bundle_family_is_star_symmetric(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    dual = rep.dual
    fam = pf.exact_bundle_family(rep, elements=[0, 1])
    sym = pf.symmetrize(fam, dual)
    for t in fam:
        assert np.array_equal(sym[t], fam[t])


def test_symmetrize_idempotent(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    dual = rep.dual
    rng = np.random.default_rng(31)
    fam = pf.exact_bundle_family(rep, elements=[0, 1])
    noisy = {}
    for t, arr in fam.items():
        pert = arr.copy()
        for z in dual.support(t):
            pert[z] = pert[z] + 0.1 * (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
        noisy[t] = pert
    once = pf.symmetrize(noisy, dual)
    twice = pf.symmetrize(once, dual)
    for t in once:
        assert np.array_equal(once[t], twice[t])
    # the fixed point satisfies the reflection identity exactly
    ti = dual.group.inverse(1)
    back = dual.action.element_map(ti).as_dict()
    for z in dual.support(1):
        assert np.array_equal(once[1][z].conj().T, once[ti][back[z]])


def test_symmetrize_requires_inverse_closed():
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 2, {(1,): {0: 1, 1: 0}})
    dual = pf.DualSystem(act)
    fam = {(1,): np.zeros((2, 2, 2), dtype=complex)}
    with pytest.raises(pf.MalformedDataError):
        pf.symmetrize(fam, dual)


def test_bundle_round_trip(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.exact_bundle_family(rep, elements=[0, 1])
    back = pf.bundle_rep_to_covariant(fam, rep.dual)
    assert np.array_equal(back.phi_mats, rep.phi_mats)
    for t in (0, 1):
        assert np.array_equal(back.v.matrix(t), rep.v.matrix(t))


def test_bundle_rep_needs_identity_fiber(swap_action):
    dual = pf.DualSystem(swap_action)
    with pytest.raises(pf.MalformedDataError):
        pf.bundle_rep_to_covariant({1: np.zeros((2, 2, 2))}, dual)


# ---------------------------------------------------------------------------
# extraction


def test_extract_swap(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    ext = pf.extract_finite_system(rep)
    assert ext.rho == (0, 1)
    assert ext.multiplicities == (1, 1)
    assert swap_action.same_data(ext.action)


def test_extract_with_multiplicity(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    phi2 = np.stack([np.kron(rep.phi_mats[z], np.eye(2)) for z in range(2)])
    fam2 = pf.PartialRepFamily(
        swap_action.group, 4,
        rule=lambda key: np.kron(rep.v.matrix(key), np.eye(2)),
    )
    rep2 = pf.CovariantRep(rep.dual, phi2, fam2)
    ext = pf.extract_finite_system(rep2)
    assert ext.multiplicities == (2, 2)
    assert swap_action.same_data(ext.action)


def test_extract_ignores_kernel_block(swap_action):
    # third coordinate is killed by every indicator image
    phi = np.stack([
        np.diag([1.0, 0.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0, 0.0]).astype(complex),
    ])
    v1 = np.zeros((3, 3), dtype=complex)
    v1[0, 1] = v1[1, 0] = 1.0
    fam = pf.PartialRepFamily(swap_action.group, 3, mats={0: np.eye(3), 1: v1})
    rep = pf.CovariantRep(pf.DualSystem(swap_action), phi, fam)
    ext = pf.extract_finite_system(rep)
    assert ext.action.n == 2
    assert ext.multiplicities == (1, 1)
    assert swap_action.same_data(ext.action)


def test_extract_follows_v_not_the_declared_map(fixed_point_action):
    # the declared map of 1 fixes point 0 and leaves point 1 out; v swaps them
    rep = pf.std_covariant_rep(fixed_point_action)
    fam = pf.PartialRepFamily(rep.group, 2, mats={0: np.eye(2), 1: e(0, 1) + e(1, 0)})
    ext = pf.extract_finite_system(pf.CovariantRep(rep.dual, rep.phi_mats, fam))
    assert ext.action.element_map(1).as_dict() == {0: 1, 1: 0}


def test_extract_rejects_non_commuting(swap_action):
    x = e(0, 1) + e(1, 0)
    rep = pf.CovariantRep(
        pf.DualSystem(swap_action),
        np.stack([e(0, 0), x]),
        pf.PartialRepFamily(swap_action.group, 2, mats={0: np.eye(2), 1: x}),
    )
    with pytest.raises(pf.PreconditionError):
        pf.extract_finite_system(rep)


def test_extract_random_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(15):
        act = random_valid_action(rng)
        rep = pf.std_covariant_rep(act)
        ext = pf.extract_finite_system(rep, elements=act.declared_elements())
        assert ext.rho == tuple(range(act.n))
        assert all(m == 1 for m in ext.multiplicities)
        assert act.same_data(ext.action, elements=act.declared_elements())
