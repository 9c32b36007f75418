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


@st.composite
def noisy_families(draw):
    """A standard model with noise, some elements dropped (so pairs are
    skipped), and optionally one shared matrix for every non-identity
    element (so many pairs tie exactly)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cyclic", "free"]))
    if kind == "cyclic":
        act = random_cyclic_action(rng, draw(st.integers(2, 6)), draw(st.integers(2, 5)))
        scan = act.group.ball(1)
    else:
        act = random_free_action(rng, draw(st.integers(1, 2)), draw(st.integers(2, 5)))
        scan = act.group.ball(draw(st.integers(1, 2)))
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.05]))
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
                m = m + sigma * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)) / np.sqrt(2.0)
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
    except pf.PreconditionError:
        return  # too noisy to round; the scans above were still compared
    want = ref_perturb_scans(fam, rounded, rep, elems)
    assert cert.entries == want["entries"]
    assert cert.witnesses == want["witnesses"]
    assert cert.skipped == want["skipped"]


def test_feed_diff_skips_only_what_cannot_win(monkeypatch):
    calls = []
    monkeypatch.setattr(reps, "op_norm", lambda d: calls.append(d) or pf.op_norm(d))
    labels = []
    worst = reps._Worst()

    def label():
        labels.append(1)
        return "w"

    worst.feed_diff(np.zeros((2, 2)), label)  # exact zero: no SVD
    assert (calls, labels, worst.value) == ([], [], 0.0)
    worst.feed_diff(np.eye(2), label)
    assert (len(calls), len(labels), worst.value) == (1, 1, 1.0)
    worst.feed_diff(0.5 * np.eye(2), label)  # Frobenius bound below the worst
    assert len(calls) == 1
    worst.feed_diff(np.full((2, 2), 0.6), label)  # bound 1.2 could win, norm 1.2 does
    assert (len(calls), len(labels), worst.value) == (2, 2, pytest.approx(1.2))
    worst.value = np.inf
    worst.feed_diff(np.full((2, 2), np.inf), label)  # non-finite: always the SVD
    assert len(calls) == 3


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
