"""Covariant representations: the standard model, defects, rounding, extraction."""

import json
import tracemalloc
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from conftest import (
    composed_map,
    random_cyclic_action,
    random_free_action,
    random_valid_action,
    restriction_action,
    symmetric_group,
)
from parfell import reps
from parfell.matrices import (
    AXIOM_TOL, CHAR_TOL, MATCH_TOL, adjoints, norm_unless_below, norms_unless_below,
)
from test_actions import partial_injections, partial_maps, table_action


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


def test_std_model_scans_hold_no_phi_cube():
    """The standard phi is a diagonal with no stack: building the model of
    a 1000-point action and scanning its relations and covariance stays
    far below one ``n^3`` array, of 16 GB as complex entries."""
    n = 1000
    act = pf.FinitePartialAction(pf.cyclic_group(2), n, {1: {z: z ^ 1 for z in range(n)}})
    tracemalloc.start()
    try:
        rep = pf.std_covariant_rep(act)
        rel = pf.partial_rep_defects(rep.v, elements=[0, 1])
        cov = pf.covariance_defects(rep, elements=[0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel.max_defect() == cov.max_defect() == 0.0
    assert rep.phi_mats is None and rep.phi_indicator(3).shape == (n, n)
    assert peak < 64 * 2**20 < n**3


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
    noisy = pf.CovariantRep(rep.action, rep.phi_mats, fam)
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
    # a^-1 and a a are missing: selfadjointness of a reads a^-1, the triple
    # products of (a, e) and (a, a) read it too, and (a, a) intertwines a a
    assert report.skipped == [
        {"entry": "selfadjoint", "count": 1, "elements": ["a"]},
        {"entry": "triple_product", "count": 2, "elements": ["a", "e"]},
        {"entry": "intertwine", "count": 1, "elements": ["a", "a"]},
    ]


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


def counted(skipped: list) -> list:
    """Every-pair skipped records as a report gives them: one per relation,
    in relation order, with the count and the first record's elements."""
    out = []
    for entry in ("selfadjoint", "triple_product", "intertwine"):
        hits = [r["elements"] for r in skipped if r["entry"] == entry]
        if hits:
            out.append({"entry": entry, "count": len(hits), "elements": hits[0]})
    return out


def _ref_report(worst: dict, skipped: list) -> dict:
    return {
        "entries": {k: w.value for k, w in worst.items()},
        "witnesses": {k: w.witness for k, w in worst.items()},
        "skipped": counted(skipped),
    }


def ref_matrix(v, g):
    """``v``'s matrix of ``g``; a standard model's from ``composed_map``, so
    that the references read no int row of the action."""
    if v.action is None:
        return v.matrix(g)
    m = np.zeros((v.dim, v.dim), dtype=complex)
    for z, w in composed_map(v.action, g).items():
        m[w, z] = 1.0
    return m


def ref_partial_rep_defects(v, elems) -> dict:
    group = v.group
    label = partial(pf.word_to_str, group)

    matrix = cache(partial(ref_matrix, v))

    def get(g):
        return matrix(g) if v.has(g) else None

    worst = {k: _RefWorst() for k in ("selfadjoint", "triple_product", "commuting_ranges", "intertwine")}
    skipped = []
    for t in elems:
        vti = get(group.inverse(t))
        if vti is None:
            skipped.append({"entry": "selfadjoint", "elements": [label(t)]})
        else:
            worst["selfadjoint"].feed(matrix(t).conj().T - vti, label(t))
    for s in elems:
        vs, vsi = matrix(s), get(group.inverse(s))
        ps = vs @ vs.conj().T
        for t in elems:
            vt, vst = matrix(t), get(group.multiply(s, t))
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
        vt = ref_matrix(rep.v, t)
        for z, w in sorted(composed_map(rep.action, t).items()):
            cov.feed(vt @ rep.phi_indicator(z) @ vt.conj().T - rep.phi_indicator(w),
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
        pf.CovariantRep(rep.action, rep.phi_mats, rounded), [t for t in elems if t != ident]
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
        (pf.op_norm(rep.phi_indicator(z)) for z in range(rep.n)), default=0.0
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

    noisy = pf.CovariantRep(rep.action, rep.phi_mats, fam)
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


@st.composite
def invalid_std_models(draw):
    """Standard models of actions that mostly fail validation: free actions
    with arbitrary letter maps and declared longer words that disagree
    with their letters, arbitrary maps declared on every word a scan
    reads, and finite groups with arbitrary maps; with the scan elements."""
    kind = draw(st.sampled_from(["free", "table", "finite"]))
    n = draw(st.integers(1, 3))
    if kind == "finite":
        group = draw(st.sampled_from([pf.cyclic_group(3), pf.cyclic_group(4), symmetric_group(3)]))
        maps = {g: draw(partial_maps(n, n)) for g in range(1, group.order)}
        return pf.FinitePartialAction(group, n, maps), list(range(group.order))
    group = pf.FreeGroup(draw(st.integers(1, 2)))
    words = [w for w in group.ball(2) if w]
    radius = draw(st.integers(1, 2))
    elems = group.ball(radius)
    if kind == "table":
        table = {w: draw(partial_maps(n, n)) for w in draw(st.lists(st.sampled_from(words), unique=True))}
        return table_action(group, n, table, 2 * radius), elems
    maps = {w: draw(partial_maps(n, n)) for w in group.ball(1) if w}
    for w in draw(st.lists(st.sampled_from([w for w in words if len(w) == 2]), unique=True, max_size=3)):
        if group.inverse(w) not in maps:
            maps[w] = draw(partial_maps(n, n))
    return pf.FinitePartialAction(group, n, maps), elems


@settings(max_examples=150, deadline=None)
@given(invalid_std_models(), st.data())
def test_std_model_scans_match_every_pair_reference(case, data):
    """The row-settled scans of the standard model report the entries,
    witnesses and skipped pairs of the every-pair reference, also where
    rows are not injective and defects are nonzero; a custom phi over the
    standard v takes the full scan."""
    act, elems = case
    rep = pf.std_covariant_rep(act)
    got = pf.partial_rep_defects(rep.v, elements=elems).to_json()
    want = ref_partial_rep_defects(rep.v, elems)
    assert got["entries"] == dict(sorted(want["entries"].items()))
    assert got["witnesses"] == dict(sorted(want["witnesses"].items()))
    assert got["skipped"] == want["skipped"] == []
    cov = pf.covariance_defects(rep, elements=elems)
    ref = ref_covariance(rep, elems)
    assert (cov.entries, cov.witnesses, cov.skipped) == (
        {"covariance": ref.value}, {"covariance": ref.witness}, [])
    assert ref.value == 0.0
    standard = (cov.entries, cov.witnesses)
    units = rep.phi_indicators(np.arange(act.n))
    weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=act.n, max_size=act.n))
    for ws in (weights, [1.0] * act.n):
        custom = pf.CovariantRep(rep.action, units * np.array(ws)[:, None, None], rep.v)
        cov = pf.covariance_defects(custom, elements=elems)
        ref = ref_covariance(custom, elems)
        assert (cov.entries, cov.witnesses) == ({"covariance": ref.value}, {"covariance": ref.witness})
    # all ones: a declared unit stack takes the full scan and reports what the standard phi does
    assert (cov.entries, cov.witnesses) == standard


@st.composite
def valid_actions(draw):
    """Actions that pass ``validate`` at the drawn radius, with that radius:
    restrictions of global actions of finite groups (regular, plus the
    natural action of S3); free actions generated by partial injections on
    the letters, some longer words declared with their composite maps; and
    restrictions of global free actions declared on every word a scan
    reads, whose maps exceed the composites of their letters."""
    kind = draw(st.sampled_from(["finite", "letters", "longer"]))
    if kind == "finite":
        group = draw(st.sampled_from([pf.cyclic_group(1), pf.cyclic_group(2), pf.cyclic_group(5),
                                      pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(2)),
                                      symmetric_group(3)]))
        perms = [list(row) for row in group.table]  # x -> g x
        if group.order == 6:  # S3 on three points as well
            perms = [p + [6 + int(c) for c in group.labels[g]] for g, p in enumerate(perms)]
        points = len(perms[0])
        subset = draw(st.lists(st.integers(0, points - 1), unique=True, min_size=1))
        return restriction_action(group, dict(enumerate(perms)), subset), 1
    rank = draw(st.integers(1, 3))
    group = pf.FreeGroup(rank)
    if kind == "letters":
        n = draw(st.integers(0, 5))
        maps = {(i,): draw(partial_injections(n)) for i in range(1, rank + 1)}
        letters = pf.FinitePartialAction(group, n, maps)
        longer = [w for w in group.ball(3) if len(w) >= 2]
        for w in draw(st.lists(st.sampled_from(longer), unique=True, max_size=3)):
            if group.inverse(w) not in maps:
                maps[w] = composed_map(letters, w)
        radius = draw(st.integers(1, 3 if rank < 3 else 2))
        return pf.FinitePartialAction(group, n, maps), radius
    radius = draw(st.integers(1, 4 - rank))
    points = draw(st.integers(1, 6))
    perms = {(i,): draw(st.permutations(range(points))) for i in range(1, rank + 1)}
    whole = pf.FinitePartialAction(group, points, {w: dict(enumerate(p)) for w, p in perms.items()})
    words = [w for w in group.ball(2 * radius) if w]
    subset = draw(st.lists(st.integers(0, points - 1), unique=True, min_size=1))
    global_maps = {w: [composed_map(whole, w)[z] for z in range(points)] for w in words}
    return restriction_action(group, global_maps, subset), radius


@settings(max_examples=120, deadline=None)
@given(valid_actions())
def test_std_model_of_a_valid_action_is_exact(case):
    """After ``validate(action, R)`` passes, every relation and covariance
    defect of the standard model over ``scan_elements(R)`` is exactly 0.0,
    as the every-pair reference computes them from the matrices, and no
    element or pair is skipped; covariant-rep's decision cannot fail."""
    act, radius = case
    assert pf.validate(act, radius).ok
    rep = pf.std_covariant_rep(act)
    elems = pf.scan_elements(act.group, radius)
    rel = pf.partial_rep_defects(rep.v, elements=elems)
    cov = pf.covariance_defects(rep, elements=elems)
    want = ref_partial_rep_defects(rep.v, elems)
    assert rel.entries == want["entries"] == dict.fromkeys(want["entries"], 0.0)
    assert rel.skipped == want["skipped"] == []
    assert (cov.entries, cov.skipped) == ({"covariance": 0.0}, [])
    assert ref_covariance(rep, elems).value == 0.0


def test_std_model_scans_of_a_valid_action_feed_no_stack(monkeypatch):
    """On a valid action every standard-model defect is settled on rows:
    no matrix stack reaches the norms."""
    act = random_free_action(np.random.default_rng(3), 2, 6)
    rep = pf.std_covariant_rep(act)
    elems = pf.scan_elements(act.group, 3)
    assert pf.validate(act, 3).ok
    fed = []
    feed = reps._Worst.feed_stack
    monkeypatch.setattr(reps._Worst, "feed_stack", lambda self, d, label: fed.append(len(d)) or feed(self, d, label))
    rel = pf.partial_rep_defects(rep.v, elements=elems)
    cov = pf.covariance_defects(rep, elements=elems)
    assert fed == []
    assert rel.max_defect() == cov.max_defect() == 0.0
    # the same scan of a declared copy, which no row settles, feeds stacks
    copy = pf.PartialRepFamily(act.group, rep.dim, mats={k: rep.v.matrix(k) for k in act.scan(elems)[0].keys})
    assert pf.partial_rep_defects(copy, elements=elems).to_json() == rel.to_json()
    assert fed


def test_settled_std_model_scan_forms_no_matrix(monkeypatch):
    """When the rows settle every element and pair, the standard model's
    scan returns the zero report before any matrix is formed."""
    path = Path(__file__).parent / "data" / "free2.json"
    act = pf.action_from_json(json.loads(path.read_text(encoding="utf-8")))
    rep = pf.std_covariant_rep(act)
    elems = pf.scan_elements(act.group, 3)
    want = ref_partial_rep_defects(rep.v, elems)

    def forbidden(*args, **kwargs):
        raise AssertionError("a settled scan formed a matrix")

    for name in ("partial_permutations", "_scan_relations", "norm_unless_below"):
        monkeypatch.setattr(reps, name, forbidden)
    monkeypatch.setattr(reps.PartialRepFamily, "matrix", forbidden)
    got = pf.partial_rep_defects(rep.v, elements=elems).to_json()
    assert got["entries"] == dict(sorted(want["entries"].items()))
    assert got["witnesses"] == dict(sorted(want["witnesses"].items()))
    assert got["skipped"] == want["skipped"] == []
    assert max(got["entries"].values()) == 0.0


def test_std_model_identity_precondition_reads_its_map():
    """The standard model's identity is checked on its map: a declared
    identity that moves a point is refused, one that fixes all is not."""
    for maps, ok in (({0: {0: 1, 1: 0}, 1: {0: 0, 1: 1}}, False), ({0: {1: 1, 0: 0}, 1: {0: 1, 1: 0}}, True)):
        rep = pf.std_covariant_rep(pf.FinitePartialAction(pf.cyclic_group(2), 2, maps))
        if ok:
            assert pf.partial_rep_defects(rep.v, elements=[0, 1]).max_defect() == 0.0
        else:
            with pytest.raises(pf.PreconditionError, match="not represented by I"):
                pf.partial_rep_defects(rep.v, elements=[0, 1])


def test_std_family_defaults_to_the_declared_elements():
    """A standard family's default elements are its action's declared
    ones, so a default scan of a non-action finds its defect and a default
    rounding covers the declared maps."""
    act = pf.FinitePartialAction(pf.cyclic_group(2), 3, {1: {0: 1, 1: 2, 2: 0}})
    rep = pf.std_covariant_rep(act)
    assert rep.v.elements() == act.declared_elements() == [1]
    assert pf.partial_rep_defects(rep.v).max_defect() == pytest.approx(3**0.5)
    assert pf.partial_rep_defects(rep.v, elements=[0, 1]).max_defect() == pytest.approx(3**0.5)
    _, cert = pf.perturb_to_partial_isometries(rep.v, 0.1, rep=rep)
    assert sorted(cert.per_element) == ["0", "1"]


def test_std_model_covariance_reads_only_the_elements():
    """Standard-model covariance builds only the elements' own maps: it
    runs over more elements than a product table allows, and elements
    whose products have no data do not reach them."""
    act = random_free_action(np.random.default_rng(5), 2, 4)
    elems = act.group.ball(6)
    assert len(elems) ** 2 > pf.MAX_SCAN_PAIRS
    rep = pf.std_covariant_rep(act)
    cov = pf.covariance_defects(rep, elements=elems)
    ref = ref_covariance(rep, elems)
    assert (cov.entries, cov.witnesses, cov.skipped) == (
        {"covariance": ref.value}, {"covariance": ref.witness}, [])

    # b a and its inverse are declared but b is not, so a b a has no map
    partial = pf.FinitePartialAction(pf.FreeGroup(2), 2, {(1,): {0: 1, 1: 0}, (2, 1): {0: 1}})
    with pytest.raises(pf.UndeclaredElementError):
        partial.element_map((1, 2, 1))
    elems = [(), (1,), (-1,), (2, 1), (-1, -2)]
    assert pf.covariance_defects(pf.std_covariant_rep(partial), elements=elems).max_defect() == 0.0
    with pytest.raises(pf.UndeclaredElementError):
        pf.covariance_defects(pf.std_covariant_rep(partial), elements=[(1, 2, 1)])
    with pytest.raises(pf.UndeclaredElementError):
        pf.covariance_defects(pf.std_covariant_rep(pf.FinitePartialAction(pf.FreeGroup(2), 2, {(1,): {0: 1}})),
                              elements=[(1,), (2,)])


def test_scan_elements_skip_the_element_checks(monkeypatch):
    f2 = pf.FreeGroup(2)
    checked = []
    monkeypatch.setattr(pf.FreeGroup, "check_element", lambda self, g: checked.append(g) or tuple(g))
    elems = pf.scan_elements(f2, 2)
    assert elems == f2.ball(2) and elems is not pf.scan_elements(f2, 2)
    assert reps._normalize_elements(f2, elems) == elems and checked == []
    assert reps._normalize_elements(f2, list(elems)) == elems and len(checked) == len(elems)
    # elements checked for another group are checked again
    reps._normalize_elements(pf.FreeGroup(1), pf.scan_elements(f2, 1))
    assert checked[len(elems):] == pf.scan_elements(f2, 1)


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
    # a non-finite difference is inf without an SVD; the first one wins
    fresh = reps._Worst()
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), np.full((2, 2), np.inf)])
    fresh.feed_stack(stack, label)
    assert (sizes, labels[-1], fresh.value, fresh.witness) == ([1, 1, 1, 1], 1, np.inf, "w1")
    fresh.feed_stack(stack[2:], label)
    assert (sizes, fresh.witness) == ([1, 1, 1, 1], "w1")


def test_feed_bounded_forms_only_candidates(monkeypatch):
    diffs = np.stack([0.5 * np.eye(2), 2.0 * np.eye(2), np.eye(2), 2.0 * np.eye(2)])
    built = []

    def build(idx):
        built.append(idx.tolist())
        return diffs[idx]

    worst = reps._Worst()
    worst.feed(1.5, "before")
    # exact norms as bounds: the largest goes first, and its tie is formed
    worst.feed_bounded(np.array([0.5, 2.0, 1.0, 2.0]) * (1.0 + reps.BOUND_MARGIN), build, str)
    assert built == [[1], [3]]
    assert (worst.value, worst.witness) == (2.0, "1")
    worst.feed_bounded(np.array([1.0, 2.0]), build, str)  # nothing above 2 (no margin)
    assert built == [[1], [3]]


@st.composite
def covariance_columns(draw):
    """Columns ``u`` of ``v_t`` with the targets ``w``: exact units, units
    with noise of 1e-3 or 1e-170 (whose squares underflow) or 1e200 (whose
    squares overflow), one noisy column repeated (exact ties), and Gaussian
    columns of any scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["unit", "noise", "tiny", "huge", "tie", "scaled"]))
    ws = rng.integers(0, d, size=k)
    u = np.zeros((k, d), dtype=complex)
    u[np.arange(k), ws] = 1.0
    g = (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))) / np.sqrt(2.0)
    scale = {"unit": 0.0, "noise": 1e-3, "tiny": 1e-170, "huge": 1e200, "tie": 1e-3, "scaled": 0.0}[kind]
    u = u + scale * g
    if kind == "tie":
        u, ws = np.repeat(u[:1], k, axis=0), np.repeat(ws[:1], k)
    if kind == "scaled":
        u = 10.0 ** draw(st.integers(-30, 30)) * g
    return kind, u, ws


@settings(max_examples=300, deadline=None)
@given(covariance_columns())
def test_covariance_rank_two_bound_covers_the_dense_defect(case):
    """The closed-form bound on ``u u* - e_w e_w*`` is at least the SVD norm
    of the dense defect that the scan forms, and tight; overflow reads inf."""
    kind, u, ws = case
    k, d = u.shape
    bounds = reps._rank_two_bounds(u, ws)
    phi = np.eye(d, dtype=complex)[:, None] * np.eye(d)  # phi[z] is the unit at (z, z)
    for i in range(k):
        vt = np.zeros((d, d), dtype=complex)
        vt[:, 0] = u[i]
        with np.errstate(over="ignore", invalid="ignore"):
            dense = vt @ phi[0] @ vt.conj().T - phi[ws[i]]
        if kind == "huge":
            assert bounds[i] == np.inf and not np.isfinite(dense).all()
            continue
        norm = pf.op_norm(dense)
        assert norm <= bounds[i] <= norm * (1.0 + 1e-9) + 1e-14
        if kind == "unit":
            assert bounds[i] == norm == 0.0
    if kind == "tie":
        assert (bounds == bounds[0]).all()


def test_covariance_of_a_standard_phi_matches_the_reference_with_ties():
    """Two generators with one map and one noisy matrix: each defect of
    the second ties with the first's, which keeps the witness."""
    f2 = pf.FreeGroup(2)
    cycle, back = {0: 1, 1: 2, 2: 0}, {1: 0, 2: 1, 0: 2}
    act = pf.FinitePartialAction(f2, 3, {(1,): cycle, (-1,): back, (2,): cycle, (-2,): back})
    rep = pf.std_covariant_rep(act)
    rng = np.random.default_rng(4)
    fwd, inv = (rep.v.matrix(w) + 1e-3 * _noise(rng, "gaussian", 3) for w in [(1,), (-1,)])
    elems = f2.ball(1)
    fam = pf.PartialRepFamily(f2, 3, mats={(): np.eye(3), (1,): fwd, (-1,): inv, (2,): fwd, (-2,): inv})
    noisy = pf.CovariantRep(rep.action, rep.phi_mats, fam)
    cov = pf.covariance_defects(noisy, elements=elems)
    ref = ref_covariance(noisy, elems)
    assert (cov.entries, cov.witnesses) == ({"covariance": ref.value}, {"covariance": ref.witness})
    assert ref.value > 0 and ref.witness.split(" @ ")[0] in (pf.word_to_str(f2, (1,)), pf.word_to_str(f2, (-1,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_covariance_reads_inf_for_a_non_finite_entry_off_the_column(bad):
    """The defect of ``v_1`` at point 0 reads column 0 only in exact
    arithmetic; zeros of ``phi`` times the non-finite column 1 make the
    scanned product non-finite, so it reads inf at the first point."""
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    rep = pf.std_covariant_rep(act)
    fam = pf.PartialRepFamily(act.group, 2, mats={0: np.eye(2), 1: np.array([[0, bad], [1, 0]])})
    cov = pf.covariance_defects(pf.CovariantRep(rep.action, rep.phi_mats, fam), elements=[0, 1])
    assert (cov.entries, cov.witnesses) == ({"covariance": np.inf}, {"covariance": "1 @ 0"})


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


@pytest.mark.parametrize("later", ["defect", "nan"])
@pytest.mark.parametrize("first_bad", [1, 2])
def test_perturb_late_stage_failure_precedes_a_later_defect(later, first_bad):
    # 1.1 * perm passes the defect check (0.231 < 2*eta) and the norm check,
    # but v*v = 1.21 I has ||Q^2 - Q|| = 0.254 >= 1/4, a check of the
    # nearest-projection stage; the element after it fails the defect check
    # or is all NaN.  With eta < 1/8 the defect check leaves no singular
    # value of v near 1/sqrt(2) and no corner eigenvalue below 1/2, so this
    # is the latest stage an element can fail.
    eta = 0.124
    g = pf.cyclic_group(4)
    perm = np.roll(np.eye(4), 1, axis=0)
    mats = {0: np.eye(4)}
    for t in (1, 2, 3):
        mats[t] = np.linalg.matrix_power(perm, t)
    mats[first_bad] = 1.1 * mats[first_bad]
    mats[first_bad + 1] = 1.5 * mats[first_bad + 1] if later == "defect" else np.full((4, 4), np.nan)
    fam = pf.PartialRepFamily(g, 4, mats=mats)
    rep = pf.std_covariant_rep(pf.FinitePartialAction(g, 4, {t: {z: (z + t) % 4 for z in range(4)}
                                                             for t in range(4)}))
    with pytest.raises(pf.PreconditionError) as got:
        pf.perturb_to_partial_isometries(fam, eta, rep=rep, elements=[0, 1, 2, 3])
    with pytest.raises(pf.PreconditionError) as want:
        ref_perturb_elements(fam, eta, rep, [0, 1, 2, 3])
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert str(got.value) == "||Q^2 - Q|| = 0.254 >= 1/4; rounding is unsafe"


def test_perturb_non_finite_element_fails_its_defect_check():
    g = pf.cyclic_group(2)
    fam = pf.PartialRepFamily(g, 2, mats={0: np.eye(2), 1: np.full((2, 2), np.nan)})
    with pytest.raises(pf.PreconditionError,
                       match=r"^partial-isometry defect inf of 1 is not below 2\*eta$"):
        pf.perturb_to_partial_isometries(fam, 0.1, elements=[0, 1])


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
            _, defect = pf.is_partial_isometry(rounded.matrix(t))
            assert defect <= 1e-10


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(1e-12, 0.125, exclude_max=True))
def test_defect_below_two_eta_bounds_the_norm(sigma, eta):
    # ||v v* v - v|| < 2 eta bounds every singular value sigma of v
    if sigma**3 - sigma < 2.0 * eta:
        assert sigma < 1.0 + eta + 1e-13


def noisy_round_family(seed: int):
    """``perturb``'s input on Z/16 acting on 12 of 16 points, noise 0.003."""
    rng = np.random.default_rng(seed)
    cycle = np.roll(np.arange(16), 1)
    maps, power = {}, np.arange(16)
    for j in range(16):
        maps[j], power = power.tolist(), cycle[power]
    act = restriction_action(pf.cyclic_group(16), maps, rng.choice(16, size=12, replace=False))
    rep = pf.std_covariant_rep(act)
    mats = {t: rep.v.matrix(t) + (0.003 * _noise(rng, "gaussian", 12) if t else 0) for t in range(16)}
    return rep, pf.PartialRepFamily(act.group, 12, mats=mats)


def test_perturb_norm_check_takes_no_svd_of_v(monkeypatch):
    rep, fam = noisy_round_family(1)
    vs = [fam.matrix(t) for t in range(1, 16)]
    seen = []
    monkeypatch.setattr(reps, "op_norms", lambda a: seen.append(a) or pf.op_norms(a))
    _, cert = pf.perturb_to_partial_isometries(fam, 0.1, rep=rep, elements=list(range(16)))
    assert cert.ok and seen
    assert not any(np.array_equal(m, v) for a in seen for m in a for v in vs)


def test_perturb_svd_count(monkeypatch):
    svd, mats = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        mats.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    for seed in (1, 2, 3):
        rep, fam = noisy_round_family(seed)
        mats.clear()
        monkeypatch.setattr(np.linalg, "svd", counting)
        _, cert = pf.perturb_to_partial_isometries(fam, 0.1, rep=rep, elements=list(range(16)))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert cert.ok and cert.contraction_constant == 1.0
        assert 0 < sum(mats) <= 35, mats


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


def test_exact_bundle_family_is_star_symmetric(swap_action, fixed_point_action):
    """``fam[t][z]* = fam[t^-1][eta_{t^-1}(z)]`` on ``V_t``, zero off it."""
    for act in (swap_action, fixed_point_action):
        rep = pf.std_covariant_rep(act)
        fam = pf.exact_bundle_family(rep, elements=[0, 1])
        for t in fam:
            ti = act.group.inverse(t)
            back = act.element_map(ti).as_dict()  # V_t -> V_{t^-1}
            support = set(act.support(t))
            for z in range(act.n):
                if z in support:
                    assert np.array_equal(fam[t][z].conj().T, fam[ti][back[z]])
                else:
                    assert not np.any(fam[t][z])


def test_bundle_round_trip(swap_action):
    """Fiber ``t`` sends the indicator at ``z`` to ``phi(e_z) v_t``, and
    these sum to ``v_t`` over ``V_t``."""
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.exact_bundle_family(rep, elements=[0, 1])
    assert np.array_equal(fam[swap_action.group.identity], np.stack([e(0, 0), e(1, 1)]))
    for t in (0, 1):
        vt = rep.v.matrix(t)
        support = rep.action.support(t)
        for z in support:
            assert np.array_equal(fam[t][z], rep.phi_indicator(z) @ vt)
        assert np.array_equal(sum(fam[t][z] for z in support), vt)


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
    phi2 = np.stack([np.kron(rep.phi_indicator(z), np.eye(2)) for z in range(2)])
    fam2 = pf.PartialRepFamily(
        swap_action.group, 4,
        mats={t: np.kron(rep.v.matrix(t), np.eye(2)) for t in (0, 1)},
    )
    rep2 = pf.CovariantRep(rep.action, phi2, fam2)
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
    rep = pf.CovariantRep(swap_action, phi, fam)
    ext = pf.extract_finite_system(rep)
    assert ext.action.n == 2
    assert ext.multiplicities == (1, 1)
    assert swap_action.same_data(ext.action)


def test_extract_follows_v_not_the_declared_map(fixed_point_action):
    # the declared map of 1 fixes point 0 and leaves point 1 out; v swaps them
    rep = pf.std_covariant_rep(fixed_point_action)
    fam = pf.PartialRepFamily(rep.group, 2, mats={0: np.eye(2), 1: e(0, 1) + e(1, 0)})
    ext = pf.extract_finite_system(pf.CovariantRep(rep.action, rep.phi_mats, fam))
    assert ext.action.element_map(1).as_dict() == {0: 1, 1: 0}


def test_extract_rejects_non_commuting(swap_action):
    x = e(0, 1) + e(1, 0)
    rep = pf.CovariantRep(
        swap_action,
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
        assert all(ext.action.element_map(t) == act.element_map(t) for t in act.declared_elements())


def ref_clusters(vals, tol):
    """``(i, j)`` for each run ``vals[i:j]`` of values within ``tol`` of the last."""
    cuts = [0, *(np.flatnonzero(~(np.diff(vals) <= tol)) + 1).tolist(), len(vals)]
    return [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


# extraction by the joint refinement of every phi image and the matching of
# each moved character against every character, the reference for the
# per-point blocks
def ref_extract(rep, elements=None):
    group = rep.group
    n, d = rep.n, rep.dim
    P = rep.phi_indicators(np.arange(n))
    skew = np.flatnonzero(norms_unless_below(P - adjoints(P), AXIOM_TOL) > AXIOM_TOL)
    if skew.size:
        raise pf.PreconditionError(f"phi(indicator {skew[0]}) is not Hermitian")
    for x in range(n):
        if (norms_unless_below(P[x] @ P[x + 1 :] - P[x + 1 :] @ P[x], CHAR_TOL) > CHAR_TOL).any():
            raise pf.PreconditionError("phi images do not commute; no joint spectrum")
    blocks, tuples = [np.eye(d, dtype=np.complex128)], [[]]
    for x in range(n):
        new_blocks, new_tuples = [], []
        for basis, tup in zip(blocks, tuples):
            comp = basis.conj().T @ P[x] @ basis
            vals, vecs = np.linalg.eigh(0.5 * (comp + comp.conj().T))
            for i, j in ref_clusters(vals, CHAR_TOL):
                new_blocks.append(basis @ vecs[:, i:j])
                new_tuples.append(tup + [float(np.mean(vals[i:j]))])
        blocks, tuples = new_blocks, new_tuples
    merged = {}
    for basis, tup in zip(blocks, tuples):
        arr = np.asarray(tup)
        if arr.max(initial=0.0) <= 0.5:
            if arr.max(initial=0.0) > 100 * CHAR_TOL:
                raise pf.PreconditionError("joint eigenvalue tuple neither zero nor a character")
            continue
        x_star = int(np.argmax(arr))
        rest = np.delete(arr, x_star)
        if abs(arr[x_star] - 1.0) > 100 * CHAR_TOL or (rest.size and np.abs(rest).max() > 100 * CHAR_TOL):
            raise pf.PreconditionError("joint eigenvalue tuple is not an indicator character")
        proj, mult = merged.get(x_star, (0, 0))
        merged[x_star] = (proj + basis @ basis.conj().T, mult + basis.shape[1])
    order = sorted(merged)
    index_of = {x: i for i, x in enumerate(order)}
    elems = reps._normalize_elements(group, rep.action.declared_elements() if elements is None else elements)
    maps = {}
    for t in elems:
        if t == group.identity:
            continue
        vt = rep.v.matrix(t)
        eta = {}
        for x in order:
            q = vt @ merged[x][0] @ vt.conj().T
            if norm_unless_below(q, MATCH_TOL) <= MATCH_TOL:
                continue
            dist = [pf.op_norm(q - merged[y][0]) for y in order]
            best = int(np.argmin(dist))
            if dist[best] > MATCH_TOL:
                raise pf.PreconditionError(f"no image character within tolerance for point {x} "
                                           f"under {pf.word_to_str(group, t)}")
            eta[index_of[x]] = best
        maps[t] = eta
    action = pf.FinitePartialAction(group, len(order), maps)
    radius = max([1, *map(len, elems)]) if isinstance(group, pf.FreeGroup) else 1
    if not pf.validate(action, radius=radius).ok:
        raise pf.PreconditionError("extracted data does not satisfy the axioms")
    mults = tuple(merged[x][1] for x in order)
    return pf.ExtractedSystem(action, tuple(order), mults, {})


def extraction_outcome(extract, rep, elems):
    """``(rho, multiplicities, maps)``, or the exception class raised."""
    try:
        ext = extract(rep, elements=elems)
    except (pf.PreconditionError, pf.MalformedDataError) as err:
        return type(err)
    return ext.rho, ext.multiplicities, {t: ext.action.element_map(t).as_dict() for t in elems}


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def model_with_multiplicity(act, mult, kernel, u):
    """``phi(1_z)`` and ``v_t`` of the standard model tensored with ``I_mult``
    and padded with ``kernel`` coordinates that every image but the
    identity's kills, conjugated by ``u``."""
    rep = pf.std_covariant_rep(act)
    d = act.n * mult + kernel

    def lift(m):
        out = np.zeros((d, d), dtype=complex)
        out[: act.n * mult, : act.n * mult] = np.kron(m, np.eye(mult))
        return u @ out @ u.conj().T

    phi = np.stack([lift(rep.phi_indicator(z)) for z in range(act.n)])
    elems = [act.group.identity, *act.declared_elements()]
    mats = {t: lift(rep.v.matrix(t)) for t in elems}
    mats[act.group.identity] = np.eye(d)
    return phi, mats


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["exact", "noisy", "conjugated", "off"]))
def test_extraction_matches_the_joint_refinement(seed, kind):
    """Per-point blocks and largest-overlap matching decide as the joint
    refinement and all-pairs matching do: the same ``rho``, multiplicities
    and maps, or the same exception class."""
    rng = np.random.default_rng(seed)
    act = random_valid_action(rng, max_points=6)
    elems = act.declared_elements()
    if kind == "exact":
        rep = pf.std_covariant_rep(act)
    else:
        mult, kernel = (int(rng.integers(1, 3)), int(rng.integers(0, 3))) if kind == "conjugated" else (1, 0)
        d = act.n * mult + kernel
        u = random_unitary(rng, d) if kind == "conjugated" else np.eye(d)
        phi, mats = model_with_multiplicity(act, mult, kernel, u)
        if kind == "noisy":  # Hermitian noise on phi, any noise on v, both far below the tolerances
            phi = phi + float(rng.choice([0.0, 1e-11, 1e-10])) * np.stack([random_hermitian(rng, d) for _ in phi])
            eps = float(rng.choice([1e-10, 1e-9, 1e-8, 1e-7]))
            mats = {t: m + (eps * rng.normal(size=(d, d)) if t != act.group.identity else 0) for t, m in mats.items()}
        if kind == "off" and d > 1:  # v_t turns by theta between two coordinates, off the characters
            t = elems[int(rng.integers(0, len(elems)))]
            a, b = rng.choice(d, size=2, replace=False)
            theta = float(rng.choice([1e-9, 1e-5, 0.3, np.pi / 4, np.pi / 2]))
            turn = np.eye(d, dtype=complex)
            turn[[a, a, b, b], [a, b, a, b]] = [np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)]
            mats[t] = turn @ mats[t]
        rep = pf.CovariantRep(act, phi, pf.PartialRepFamily(act.group, d, mats=mats))
    want = extraction_outcome(ref_extract, rep, elems)
    assert extraction_outcome(pf.extract_finite_system, rep, elems) == want
    if kind in ("exact", "noisy"):
        assert want[0] == tuple(range(act.n)), want


def swap_rep(phi, v1):
    """A covariant rep of the swap of two points with ``phi`` and ``v_1``."""
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    phi = np.asarray(phi, dtype=complex)
    d = phi.shape[1]
    return pf.CovariantRep(act, phi, pf.PartialRepFamily(act.group, d, mats={0: np.eye(d), 1: v1}))


SWAP3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


@pytest.mark.parametrize("phi, v1, message", [
    ([e(0, 1), e(1, 1)], e(0, 1) + e(1, 0), r"phi\(indicator 0\) is not Hermitian"),
    ([e(0, 0), e(0, 1) + e(1, 0)], e(0, 1) + e(1, 0), "phi images do not commute; no joint spectrum"),
    ([np.diag([1, 0, 0.3]), np.diag([0, 1, 0])], SWAP3, "joint eigenvalue tuple neither zero nor a character"),
    ([np.diag([0.7, 0]), e(1, 1)], e(0, 1) + e(1, 0), "joint eigenvalue tuple is not an indicator character"),
    ([e(0, 0), np.diag([0.3, 1])], e(0, 1) + e(1, 0), "joint eigenvalue tuple is not an indicator character"),
    ([np.diag([1, 0, 0]), np.diag([1, 1, 0])], SWAP3, "joint eigenvalue tuple is not an indicator character"),
    ([e(0, 0), e(1, 1)], (e(0, 1) + e(1, 0) + e(0, 0)) / np.sqrt(2), "no image character within tolerance for point 0 under 1"),
    ([e(0, 0), e(1, 1)], e(1, 0), "extracted data does not satisfy the axioms"),
])
def test_extraction_single_faults(phi, v1, message):
    """Each check fires alone on a rep with one fault, as in the reference."""
    rep = swap_rep(phi, v1)
    for extract in (pf.extract_finite_system, ref_extract):
        with pytest.raises(pf.PreconditionError, match=f"^{message}$"):
            extract(rep)


def test_extraction_rejects_a_negative_kernel_entry():
    # phi(1_0) is -0.3 on the third coordinate, which no block holds; the
    # reference read only the largest entry of that joint eigenvalue tuple
    rep = swap_rep([np.diag([1, 0, -0.3]), np.diag([0, 1, 0])], SWAP3)
    assert ref_extract(rep).multiplicities == (1, 1)
    with pytest.raises(pf.PreconditionError, match="^joint eigenvalue tuple neither zero nor a character$"):
        pf.extract_finite_system(rep)


def test_extraction_on_the_identity_alone_validates_at_radius_one():
    act = pf.action_from_json(json.loads((Path(__file__).parent / "data" / "free2.json").read_text()))
    rep = pf.std_covariant_rep(act)
    # the identity names no letter map, so the recovered action misses them
    with pytest.raises(pf.PreconditionError, match="does not satisfy the axioms"):
        pf.extract_finite_system(rep, elements=[()])
    assert act.same_data(pf.extract_finite_system(rep).action)


def test_standard_model_extraction_forms_no_commutator():
    # diagonal units commute: no pairwise check, so no n^2 commutator stack
    n = 120
    act = pf.FinitePartialAction(pf.cyclic_group(2), n, {1: {z: z ^ 1 for z in range(n)}})
    calls = []
    real = reps.norms_unless_below

    def counted(stack, tol):
        calls.append(len(stack))
        return real(stack, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reps, "norms_unless_below", counted)
        ext = pf.extract_finite_system(pf.std_covariant_rep(act))
    assert act.same_data(ext.action) and ext.multiplicities == (1,) * n
    assert len(calls) == 3, calls
