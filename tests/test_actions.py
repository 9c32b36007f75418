"""Partial actions: map algebra, axiom validation, duals, equivariance."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from conftest import composed_map, random_free_action, random_valid_action, restriction_action, symmetric_group
from parfell.actions import (
    DEFAULT_RADIUS,
    EquivarianceReport,
    FinitePartialAction,
    Issue,
    ValidationReport,
    _hits,
    pair_identities,
)
from parfell import groups
from parfell.groups import FiniteGroup, UndeclaredElementError, scan_elements, word_to_str


# ---------------------------------------------------------------------------
# PartialMap


def oracle_compose(f: dict, g: dict) -> dict:
    # f after g, on points where both legs exist
    return {z: f[w] for z, w in g.items() if w in f}


def test_partial_map_basics():
    act = pf.FinitePartialAction(pf.cyclic_group(3), 4, {1: {3: 1, 0: 2}})
    pm = act.element_map(1)
    assert pm.pairs == ((0, 2), (3, 1))
    assert pm.as_dict() == {3: 1, 0: 2}
    assert act.support(1) == (1, 2)
    # the inverse element's map is filled in from the injective one
    assert act.element_map(2).as_dict() == {1: 3, 2: 0}


def test_partial_map_compose_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        ks = int(rng.integers(0, n + 1))
        f = dict(zip(rng.choice(n, ks, replace=False),
                     rng.choice(n, ks, replace=False)))
        kt = int(rng.integers(0, n + 1))
        g = dict(zip(rng.choice(n, kt, replace=False),
                     rng.choice(n, kt, replace=False)))
        f, g = ({int(k): int(v) for k, v in m.items()} for m in (f, g))
        got = pf.PartialMap(tuple(sorted(f.items()))).compose(pf.PartialMap(tuple(sorted(g.items()))))
        assert got.as_dict() == oracle_compose(f, g)


def test_partial_map_non_injective_inverse_rejected():
    # a non-injective map has no inverse to fill in
    act = pf.FinitePartialAction(pf.cyclic_group(3), 3, {1: {0: 1, 2: 1}})
    assert not act.is_declared(2)
    with pytest.raises(pf.UndeclaredElementError):
        act.element_map(2)


# ---------------------------------------------------------------------------
# construction and element maps


def test_swap_action_element_maps(swap_action):
    assert swap_action.element_map(1).as_dict() == {0: 1, 1: 0}
    assert swap_action.element_map(0).as_dict() == {0: 0, 1: 1}
    assert swap_action.support(1) == (0, 1)


def test_fixed_point_action(fixed_point_action):
    assert fixed_point_action.element_map(1).as_dict() == {0: 0}
    assert fixed_point_action.support(1) == (0,)
    assert pf.validate(fixed_point_action).ok


def test_inverse_autofill():
    g = pf.cyclic_group(4)
    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    act = pf.FinitePartialAction(g, 4, {1: cycle, 2: sq})
    assert act.element_map(3).as_dict() == {1: 0, 2: 1, 3: 2, 0: 3}
    assert pf.validate(act).ok


def test_free_letter_composition():
    # a shifts 0..3 partially: eta_a = {0->1, 1->2}; squares compose
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 4, {(1,): {0: 1, 1: 2}})
    assert act.element_map((1, 1)).as_dict() == {0: 2}
    assert act.element_map((-1,)).as_dict() == {1: 0, 2: 1}
    assert act.element_map((1, 1, 1)).as_dict() == {}
    assert pf.validate(act, radius=3).ok


def test_undeclared_element_errors():
    g3 = pf.cyclic_group(3)
    act = pf.FinitePartialAction(g3, 2, {})
    with pytest.raises(pf.UndeclaredElementError):
        act.element_map(1)
    f2 = pf.FreeGroup(rank=2)
    act2 = pf.FinitePartialAction(f2, 2, {(1,): {0: 0}})
    with pytest.raises(pf.UndeclaredElementError):
        act2.element_map((2,))


def test_out_of_range_map_rejected():
    g = pf.cyclic_group(2)
    with pytest.raises(pf.MalformedDataError):
        pf.FinitePartialAction(g, 2, {1: {0: 5}})


# ---------------------------------------------------------------------------
# validation


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_accepts_random_restrictions(seed):
    act = random_valid_action(np.random.default_rng(seed))
    report = pf.validate(act, radius=3)
    assert report.ok, report.to_json()


def test_validate_flags_non_injective():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {1: {0: 0, 1: 0}})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "not_injective" for i in report.all_issues())


def test_validate_flags_inverse_mismatch():
    g = pf.cyclic_group(4)
    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    act = pf.FinitePartialAction(g, 4, {1: cycle, 2: sq, 3: dict(cycle)})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "inverse_mismatch" for i in report.all_issues())


def test_validate_flags_composition_violation():
    # eta_1 a 3-cycle in a Z/2 action: squares escape the identity
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 3, {1: {0: 1, 1: 2, 2: 0}})
    report = pf.validate(act)
    assert not report.ok
    kinds = {i.kind for i in report.all_issues()}
    assert "inverse_mismatch" in kinds or "composition" in kinds


def test_validate_flags_partial_identity():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {0: {0: 0}, 1: {0: 1, 1: 0}})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "identity_map" for i in report.all_issues())


def test_validate_flags_missing_finite_element():
    g = pf.cyclic_group(3)
    act = pf.FinitePartialAction(g, 2, {1: {0: 0}})
    # eta_2 autofills from eta_1, so drop injectivity to block the autofill
    act2 = pf.FinitePartialAction(g, 2, {1: {0: 0, 1: 0}})
    report = pf.validate(act2)
    assert not report.ok
    assert pf.validate(act).ok


def test_validate_free_needs_radius():
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 2, {(1,): {0: 1}})
    with pytest.raises(pf.MalformedDataError):
        pf.validate(act, radius=0)


# The pair-by-pair validate loop as it stood before the row-vectorised scan,
# kept as the reference for the array checks, on dicts from composed_map.
def ref_validate(action: FinitePartialAction, radius: int = DEFAULT_RADIUS) -> ValidationReport:
    """Check the partial-action axioms and their two derived set identities.

    Finite groups are checked over all element pairs; free groups over the
    ball of the given radius, with longer words obtained by composition or
    the action's rule.  Witness points are recorded sorted.
    """
    group = action.group
    structural: list[Issue] = []
    axiom: list[Issue] = []

    ident = group.identity
    if action.is_declared(ident):
        em = composed_map(action, ident)
        if em != {z: z for z in range(action.n)}:
            structural.append(
                Issue("identity_map", word_to_str(group, ident), (), "identity element does not act as the identity")
            )

    if isinstance(group, FiniteGroup):
        missing = [
            t
            for t in group.ball(1)
            if t != ident and not action.is_declared(t)
        ]
        for t in missing:
            structural.append(
                Issue("missing_element", word_to_str(group, t), (), "finite-group action lacks data for this element")
            )

    injective: dict = {}
    for t in action.declared_elements():
        pm = composed_map(action, t)
        injective[t] = len(set(pm.values())) == len(pm)
        if not injective[t]:
            dupes = sorted(
                w for w in set(pm.values()) if sum(1 for x in pm.values() if x == w) > 1
            )
            structural.append(
                Issue(
                    "not_injective",
                    word_to_str(group, t),
                    tuple(dupes),
                    f"eta_{word_to_str(group, t)} not injective",
                )
            )
        ti = group.inverse(t)
        if injective[t] and action.is_declared(ti):
            if composed_map(action, ti) != {w: z for z, w in pm.items()}:
                structural.append(
                    Issue(
                        "inverse_mismatch",
                        word_to_str(group, t),
                        (),
                        "declared inverse map disagrees with the inverted map",
                    )
                )

    if structural:
        return ValidationReport(False, structural, axiom, len(action.declared_elements()), 0)

    elems = scan_elements(group, radius)
    maps = {}
    for t in elems:
        try:
            maps[t] = composed_map(action, t)
        except UndeclaredElementError:
            structural.append(
                Issue("missing_element", word_to_str(group, t), (), "no data to build this element's map")
            )
    if structural:
        return ValidationReport(False, structural, axiom, len(elems), 0)
    supports = {t: set(maps[t].values()) for t in elems}
    pairs_checked = 0
    for s in elems:
        es = maps[s]
        si = group.inverse(s)
        for t in elems:
            pairs_checked += 1
            et = maps[t]
            st = group.multiply(s, t)
            est = maps[st] if st in maps else composed_map(action, st)
            comp = oracle_compose(es, et)
            bad = sorted(z for z, w in comp.items() if est.get(z) != w)
            if bad:
                axiom.append(
                    Issue(
                        "composition",
                        f"{word_to_str(group, s)} , {word_to_str(group, t)}",
                        tuple(bad),
                        "eta_s o eta_t not contained in eta_st",
                    )
                )
            # image identity: eta_s(V_{s^-1} & V_t) = V_s & V_{st}
            lhs = frozenset(es[z] for z in (es.keys() & supports[t]))
            rhs = supports[s] & set(est.values())
            if lhs != rhs:
                axiom.append(
                    Issue(
                        "range_fact",
                        f"{word_to_str(group, s)} , {word_to_str(group, t)}",
                        tuple(sorted(lhs ^ rhs)),
                        "eta_s(V_s^-1 & V_t) differs from V_s & V_st",
                    )
                )
            # triple identity: eta_{s^-1} eta_s eta_t = eta_{s^-1} eta_st
            esi = maps[si] if si in maps else composed_map(action, si)
            left = oracle_compose(esi, oracle_compose(es, et))
            right = oracle_compose(esi, est)
            if left != right:
                diff = sorted(set(left.items()) ^ set(right.items()))
                axiom.append(
                    Issue(
                        "triple_fact",
                        f"{word_to_str(group, s)} , {word_to_str(group, t)}",
                        tuple(z for z, _ in diff),
                        "triple composition identity fails",
                    )
                )
    ok = not structural and not axiom
    return ValidationReport(ok, structural, axiom, len(elems), pairs_checked)


@st.composite
def partial_injections(draw, n):
    dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
    img = draw(st.permutations(range(n))) if n else []
    return dict(zip(dom, img))


@st.composite
def involutions(draw, n):
    """A partial injection equal to its own inverse: swaps and fixed points."""
    pts = draw(st.permutations(range(n))) if n else []
    k = draw(st.integers(0, n))
    swaps = draw(st.integers(0, k // 2))
    m = {z: z for z in pts[2 * swaps : k]}
    for i in range(swaps):
        m[pts[2 * i]], m[pts[2 * i + 1]] = pts[2 * i + 1], pts[2 * i]
    return m


@st.composite
def finite_validate_cases(draw):
    """Random partial injections, one per inverse pair, so that most inputs
    reach the pair scan; sometimes one entry is replaced or dropped."""
    group = draw(st.sampled_from([
        pf.cyclic_group(1), pf.cyclic_group(3), pf.cyclic_group(4),
        symmetric_group(3), pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(2)),
    ]))
    n = draw(st.integers(0, 4))
    maps = {}
    for t in range(1, group.order):
        ti = group.inverse(t)
        if ti >= t:
            maps[t] = draw(involutions(n) if ti == t else partial_injections(n))
    change = draw(st.sampled_from(["none", "replace", "drop"]))
    t = draw(st.integers(0, group.order - 1))
    if change == "replace":
        maps[t] = draw(partial_maps(n, n))
    elif change == "drop":
        maps.pop(t, None)
    return pf.FinitePartialAction(group, n, maps), 1


@st.composite
def free_validate_cases(draw):
    """Letter maps plus declared longer words that need not agree with
    letter composition."""
    group = pf.FreeGroup(draw(st.integers(1, 2)))
    n = draw(st.integers(0, 4))
    maps = {(i,): draw(partial_injections(n)) for i in range(1, group.rank + 1)}
    longer = [w for w in group.ball(3) if len(w) >= 2]
    for w in draw(st.lists(st.sampled_from(longer), unique=True, max_size=3)):
        if group.inverse(w) not in maps:
            maps[w] = draw(partial_injections(n))
    return pf.FinitePartialAction(group, n, maps), draw(st.integers(1, 3))


def table_action(group, n, table, radius):
    """A free action declaring every word of the ball of ``radius`` but the
    identity: its map in ``table``, which need not be injective, or an
    empty map."""
    return pf.FinitePartialAction(group, n, {w: table.get(w, {}) for w in group.ball(radius) if w})


@st.composite
def table_validate_cases(draw):
    """Free actions with arbitrary, even non-injective, maps on every word
    that a radius-1 scan reads."""
    group = pf.FreeGroup(draw(st.integers(1, 2)))
    n = draw(st.integers(1, 3))
    words = [w for w in group.ball(2) if w]
    table = {w: draw(partial_maps(n, n)) for w in draw(st.lists(st.sampled_from(words), unique=True))}
    return table_action(group, n, table, 2), 1


@settings(max_examples=400, deadline=None)
@given(st.one_of(finite_validate_cases(), free_validate_cases(), table_validate_cases()))
def test_validate_matches_reference(case):
    """Whole reports, issue order, texts and points included, equal the
    pair-by-pair reference's on valid and invalid inputs."""
    act, radius = case
    assert pf.validate(act, radius).to_json() == ref_validate(act, radius).to_json()


# each input fails one identity at a pair where the other two hold, so
# dropping that identity's array check loses the pair; the declared maps
# of a and a^-1 are not inverse to each other, so validate stops at its
# structural checks, and the row masks are asserted on directly
ALONE_CASES = {
    "composition": (2, {(-1,): {0: 0}, (-1, -1): {1: 0}}, "a^-1 , a^-1"),
    "range_fact": (1, {(-1,): {0: 0}, (-1, -1): {0: 0}}, "a^-1 , a"),
    "triple_fact": (1, {(-1,): {0: 0}, (-1, -1): {0: 0}}, "a , a^-1"),
}


@pytest.mark.parametrize("kind", sorted(ALONE_CASES))
def test_validate_flags_identity_failing_alone(kind):
    n, table, pair = ALONE_CASES[kind]
    act = table_action(pf.FreeGroup(1), n, table, 2)
    elems = scan_elements(act.group, 1)
    labels = [word_to_str(act.group, t) for t in elems]
    a, b = (labels.index(label) for label in pair.split(" , "))
    prods, rows, _, masks = act.scan(elems)
    kinds = ["composition", "range_fact", "triple_fact"]
    assert [k for k, mask in zip(kinds, masks) if mask[a, b]] == [kind]
    # the per-point checks that validate builds a flagged pair's issues from
    points = pair_identities(rows, _hits(rows), prods, [a], [b])
    assert [k for k, at in zip(kinds, points) if at[0].any()] == [kind]
    report = pf.validate(act, radius=1)
    assert report.to_json() == ref_validate(act, 1).to_json()


def test_map_rows_equal_element_maps():
    """Rows of declared longer words, letter composites, the identity and
    declared maps of a whole ball equal ``composed_map`` and ``element_map``,
    with -1 off the domain."""
    f2 = pf.FreeGroup(rank=2)
    declared = pf.FinitePartialAction(f2, 4, {(1,): {0: 1, 1: 2}, (2,): {2: 3, 3: 0}, (1, 2): {0: 0}})
    f1 = pf.FreeGroup(rank=1)
    ball = table_action(f1, 3, {(1,): {0: 1}, (1, 1): {2: 2, 0: 1}}, 2)
    fixed = pf.FinitePartialAction(pf.cyclic_group(3), 2, {1: {0: 1}})
    for act, keys in [(declared, f2.ball(3)), (ball, [(), (1,), (1, 1), (-1, -1)]), (fixed, [0, 1, 2])]:
        rows = act.map_rows(keys)
        assert rows.shape == (len(keys), act.n + 1)
        for key, row in zip(keys, rows.tolist()):
            assert row[-1] == -1
            assert {z: w for z, w in enumerate(row[:-1]) if w >= 0} == composed_map(act, key)
            assert act.element_map(key).as_dict() == composed_map(act, key)
        # after a scan of the same keys, its memo answers with a copy
        act.scan(keys)
        memo = act.map_rows(keys)
        assert memo.tolist() == rows.tolist()
        memo[:] = 0
        assert act.map_rows(keys).tolist() == rows.tolist()
    # a key without data raises from the memo too
    partial = pf.FinitePartialAction(f2, 2, {(1,): {0: 1}})
    partial.scan(f2.ball(1))
    with pytest.raises(pf.UndeclaredElementError):
        partial.map_rows(f2.ball(1))
    # a declared longer word is not rebuilt from its letters, and words
    # built on top of it still compose letter by letter
    assert declared.map_rows([(1, 2)]).tolist() == [[0, -1, -1, -1, -1]]
    assert declared.element_map((1, 1, 2)).as_dict() == {3: 2}
    # a map leaving the point set is refused, not read as undefined
    with pytest.raises(pf.MalformedDataError, match="leaves 0..1"):
        pf.FinitePartialAction(f1, 2, {(1,): {0: 2}})


@st.composite
def row_store_cases(draw):
    """A free or finite action that may lack data for a letter or an
    element, its scan elements and a list of them to read, repeats allowed."""
    if draw(st.booleans()):
        group, n = pf.FreeGroup(draw(st.integers(1, 2))), draw(st.integers(1, 4))
        maps = {(i,): draw(partial_injections(n)) for i in range(1, group.rank + 1)}
        for w in draw(st.lists(st.sampled_from([w for w in group.ball(2) if len(w) == 2]), unique=True, max_size=2)):
            maps[w] = draw(partial_injections(n))
        if draw(st.booleans()):
            maps.pop((draw(st.integers(1, group.rank)),))
    else:
        group = draw(st.sampled_from([pf.cyclic_group(1), pf.cyclic_group(4), symmetric_group(3)]))
        n = draw(st.integers(1, 4))
        declared = draw(st.lists(st.integers(0, group.order - 1), unique=True))
        maps = {t: draw(partial_injections(n)) for t in declared}
    elems = list(scan_elements(group, draw(st.integers(1, 2))))
    return group, n, maps, elems, draw(st.lists(st.sampled_from(elems), max_size=6))


def _read(call):
    """A call's rows as lists, or its error text."""
    try:
        return call().tolist()
    except UndeclaredElementError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(row_store_cases())
def test_row_store_is_order_independent(case):
    """Rows and error texts of ``row`` and ``map_rows`` are those of a fresh
    action and of ``composed_map`` whatever ran first on the action: a scan,
    ``row`` or a ``map_rows`` that raised.  ``row`` returns one read-only
    array per key, and writes into ``map_rows``' array never reach it."""
    group, n, maps, elems, keys = case

    def fresh():
        return pf.FinitePartialAction(group, n, maps)

    def composed(key):
        try:
            return composed_map(fresh(), key)
        except UndeclaredElementError as exc:
            return str(exc)

    want = _read(lambda: fresh().map_rows(keys))
    each = {k: _read(lambda k=k: fresh().row(k)) for k in elems}
    for k, row in each.items():
        assert composed(k) == (row if isinstance(row, str) else {z: w for z, w in enumerate(row[:-1]) if w >= 0})
    missing = [k for k in keys if isinstance(each[k], str)]
    assert want == (each[missing[0]] if missing else [each[k] for k in keys])
    assert fresh().map_rows([]).shape == (0, n + 1)

    scanned, by_row, raised = fresh(), fresh(), fresh()
    scanned.scan(elems)
    for k in keys:
        _read(lambda k=k: by_row.row(k))
    _read(lambda: raised.map_rows(elems))
    for act in (scanned, by_row, raised):
        assert _read(lambda: act.map_rows(keys)) == want
        for k in elems:
            assert _read(lambda k=k: act.row(k)) == each[k]
        present = [k for k in elems if not isinstance(each[k], str)]
        for k in present:
            row = act.row(k)
            assert row is act.row(k) and not row.flags.writeable
        out = act.map_rows(present)
        out[:] = 7
        assert [act.row(k).tolist() for k in present] == [each[k] for k in present]


@st.composite
def shared_ball_cases(draw):
    """A free action at a scan radius: letter maps only, one more declared
    word longer than ``2R``, one generator without data, or one letter
    that sends two points to one."""
    rank, radius, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    group = pf.FreeGroup(rank)
    maps = {(i,): draw(partial_injections(n)) for i in range(1, rank + 1)}
    kind = draw(st.sampled_from(["letters", "long", "missing", "non_injective"]))
    if kind == "long":
        # a reduced word of 2R + 1 to 2R + 3 letters: no letter undoes the last
        word = [draw(st.sampled_from(group.letters()))]
        for _ in range(draw(st.integers(2 * radius, 2 * radius + 2))):
            word.append(draw(st.sampled_from([x for x in group.letters() if x != -word[-1]])))
        maps[tuple(word)] = draw(partial_injections(n))
    elif kind == "missing":
        maps.pop((draw(st.integers(1, rank)),))
    elif kind == "non_injective":
        maps[(1,)] = {**maps[(1,)], 0: 0, 1: 0}
    return group, n, maps, radius


def _scan_outcomes(group, n, maps, radius, clear):
    """``validate``, ``partial_rep_defects`` and ``covariance_defects`` of
    a fresh action, as reports or error texts; with ``clear``, the ball
    memo is emptied before each call."""
    act = pf.FinitePartialAction(group, n, maps)
    rep, elems = pf.std_covariant_rep(act), scan_elements(group, radius)
    calls = [lambda: pf.validate(act, radius), lambda: pf.partial_rep_defects(rep.v, elements=elems),
             lambda: pf.covariance_defects(rep, elements=elems)]
    out = []
    for call in calls:
        if clear:
            groups._shared_ball_table.cache_clear()
        try:
            out.append(call().to_json())
        except (UndeclaredElementError, pf.PreconditionError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@settings(max_examples=60, deadline=None)
@given(shared_ball_cases())
def test_scans_share_one_frozen_ball(case):
    """Back-to-back scans of different actions read one ball table per
    ``(rank, radius)``: their reports and errors equal those of a cleared
    memo, the shared trie never grows, every shared array is read-only,
    and a ball over the byte cap is not kept."""
    group, n, maps, radius = case
    elems = scan_elements(group, radius)
    warm = _scan_outcomes(group, n, maps, radius, clear=False)
    table = pf.product_table(group, elems)
    assert table is pf.product_table(group, list(elems))
    trie = table.trie
    assert trie.size == groups.ball_size(group.rank, 2 * radius) == len(trie.parent)
    for x in (table.inv, table.prod, table.ids, trie.parent, trie.last, trie.depth, trie.child):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0
    assert warm == _scan_outcomes(group, n, maps, radius, clear=True)
    # the memo is left as the cleared run left it, so the next case finds
    # the tables of this one
    kept = groups._shared_ball_table.cache_info()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups, "MAX_SHARED_BALL_BYTES", 0)
        assert pf.product_table(group, elems) is not pf.product_table(group, elems)
    assert groups._shared_ball_table.cache_info() == kept


def _kept(group, radius):
    """Whether two scans of the ball of ``radius`` share one table."""
    return pf.product_table(group, scan_elements(group, radius)) is pf.product_table(group, scan_elements(group, radius))


def test_shared_ball_byte_cap():
    """``free:2`` shares its radius-4 ball, whose tables take 2.4 MB, and
    builds its radius-5 ball, 23.6 MB, for each scan; ``free:1`` shares
    balls up to the pair limit.  ``row`` and ``map_rows`` of keys that
    were not scanned walk their own trie and leave the memo as it is."""
    f2, f1 = pf.FreeGroup(2), pf.FreeGroup(1)
    assert _kept(f2, 4) and not _kept(f2, 5) and _kept(f1, 255)
    with pytest.raises(pf.MalformedDataError, match="element pairs"):
        pf.product_table(f1, f1.ball(256))
    act, kept = pf.FinitePartialAction(f1, 3, {(1,): {0: 1, 1: 2}}), groups._shared_ball_table.cache_info()
    rows = act.map_rows(f1.ball(300))
    assert rows[-1].tolist() == [-1, -1, -1, -1] and rows[1].tolist() == [1, 2, -1, -1]
    assert act.row(()).tolist() == [0, 1, 2, -1] and act.map_rows(list(scan_elements(f1, 2)))[3].tolist() == [2, -1, -1, -1]
    assert groups._shared_ball_table.cache_info() == kept


def test_report_json_shape(swap_action):
    rep = pf.validate(swap_action)
    data = rep.to_json()
    assert data["ok"] is True
    assert data["structural"] == [] and data["axiom"] == []
    assert data["elements_checked"] >= 2


# ---------------------------------------------------------------------------
# duals


def test_dual_apply(swap_action, fixed_point_action):
    out = swap_action.apply(1, np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([4, 3], dtype=complex))

    # values off the domain are dropped by the implicit restriction
    out = fixed_point_action.apply(1, np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([3, 0], dtype=complex))


def test_dual_fiber_arithmetic(swap_action):
    a = np.array([1.0, 2.0], dtype=complex)
    b = np.array([3.0, 4.0], dtype=complex)
    prod, elem = swap_action.mul_fiber((a, 1), (b, 1))
    assert elem == 0
    # alpha_1(alpha_1(a) * b) with alpha_1 the swap: [2,1]*[3,4] swapped
    assert np.array_equal(prod, np.array([4.0, 6.0], dtype=complex))

    sa, selem = swap_action.star_fiber((np.array([1 + 2j, 3.0]), 1))
    assert selem == 1
    assert np.array_equal(sa, np.array([3.0, 1 - 2j]))


def test_dual_star_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(20):
        act = random_valid_action(rng)
        for t in pf.scan_elements(act.group, 2):
            a = np.zeros(act.n, dtype=complex)
            sup = list(act.support(t))
            if sup:
                a[sup] = rng.standard_normal(len(sup)) + 1j * rng.standard_normal(len(sup))
            back, elem = act.star_fiber(act.star_fiber((a, t)))
            assert elem == act.group.check_element(t) if not isinstance(act.group, pf.FreeGroup) else True
            assert np.allclose(back, a)


# ---------------------------------------------------------------------------
# equivariant maps


def test_equivariance_doubled_swap(swap_action):
    g = pf.cyclic_group(2)
    double = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    emap = pf.EquivariantMap(source=double, target=swap_action, rho=(0, 1, 0, 1))
    report = pf.check_equivariance(emap, strict=True)
    assert report.ok and report.strict_ok
    assert report.max_defect == 0.0


def test_equivariance_over_equal_groups_of_two_spellings(swap_action):
    """An action on a group written as nested lists and one on the equal
    ``cyclic_group(2)`` share their group."""
    lists = pf.FiniteGroup([[0, 1], [1, 0]])
    double = pf.FinitePartialAction(lists, 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    emap = pf.EquivariantMap(source=double, target=swap_action, rho=(0, 1, 0, 1))
    assert swap_action.group is pf.cyclic_group(2) and double.group is lists
    assert pf.check_equivariance(emap, strict=True).strict_ok


def test_equivariance_strict_failure(swap_action):
    g = pf.cyclic_group(2)
    partial = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0}})
    emap = pf.EquivariantMap(source=partial, target=swap_action, rho=(0, 1, 0, 1))
    report = pf.check_equivariance(emap, strict=True)
    assert report.ok
    assert not report.strict_ok
    assert any(v["kind"] == "strict" for v in report.violations)


def test_equivariance_pointwise_failure(swap_action):
    g = pf.cyclic_group(2)
    double = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    emap = pf.EquivariantMap(source=double, target=swap_action, rho=(0, 1, 0, 0))
    report = pf.check_equivariance(emap)
    assert not report.ok
    assert any(v["kind"] == "pointwise" for v in report.violations)


# An earlier checker, kept as the reference for the shared loop behind
# check_equivariance; every violation counts 1.
def ref_check_equivariance(emap, radius=DEFAULT_RADIUS, strict=False):
    src, tgt, rho = emap.source, emap.target, emap.rho
    elems = scan_elements(src.group, radius)
    violations: list[dict] = []
    max_defect = 0.0
    points_checked = 0

    strict_ok = True
    for t in elems:
        s_map = composed_map(src, t)
        t_dict = composed_map(tgt, t)
        t_image = set(t_dict.values())
        label = word_to_str(src.group, t)
        for z in sorted(s_map.values()):
            points_checked += 1
            if rho[z] not in t_image:
                violations.append({"kind": "image", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
        for z, w in sorted(s_map.items()):
            points_checked += 1
            if rho[z] not in t_dict:
                violations.append({"kind": "domain", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
                continue
            got, want = rho[w], t_dict[rho[z]]
            if got != want:
                violations.append(
                    {"kind": "pointwise", "element": label, "point": z, "defect": 1.0}
                )
                max_defect = max(max_defect, 1.0)
        if strict:
            s_image = set(s_map.values())
            for x in range(src.n):
                points_checked += 1
                if rho[x] in t_image and x not in s_image:
                    strict_ok = False
                    violations.append({"kind": "strict", "element": label, "point": x})
                    max_defect = max(max_defect, 1.0)
    ok = not any(v["kind"] in ("image", "domain", "pointwise") for v in violations)
    return EquivarianceReport(
        ok=ok,
        strict_ok=strict_ok if strict else True,
        max_defect=max_defect,
        violations=violations,
        elements_checked=len(elems),
        points_checked=points_checked,
    )


@st.composite
def partial_maps(draw, n_src, n_tgt):
    """A random partial map, often neither injective nor total."""
    dom = draw(st.lists(st.integers(0, n_src - 1), unique=True, max_size=n_src)) if n_src else []
    return {z: draw(st.integers(0, n_tgt - 1)) for z in dom}


@st.composite
def random_actions(draw, group, n):
    if isinstance(group, pf.FreeGroup):
        keys = [s for i in range(1, group.rank + 1) for s in ((i,), (-i,))]
    else:
        keys = list(range(group.order))
        if draw(st.booleans()):
            keys = keys[1:]  # identity then acts as the identity
    return pf.FinitePartialAction(group, n, {t: draw(partial_maps(n, n)) for t in keys})


@st.composite
def equivariance_cases(draw):
    group = draw(st.sampled_from([
        pf.cyclic_group(1), pf.cyclic_group(2), pf.cyclic_group(3),
        pf.cyclic_group(4), symmetric_group(3), pf.FreeGroup(1), pf.FreeGroup(2),
    ]))
    n_src = draw(st.integers(0, 5))
    n_tgt = draw(st.integers(1, 5))
    src = draw(random_actions(group, n_src))
    tgt = draw(random_actions(group, n_tgt))
    rho = draw(st.lists(st.integers(0, n_tgt - 1), min_size=n_src, max_size=n_src))
    return pf.EquivariantMap(source=src, target=tgt, rho=tuple(rho))


@settings(max_examples=300, deadline=None)
@given(equivariance_cases(), st.integers(1, 2), st.booleans())
def test_check_equivariance_matches_reference(emap, radius, strict):
    """Whole reports, violations in order included, equal the reference's on
    random actions with non-injective and partial maps on both sides."""
    got = pf.check_equivariance(emap, radius=radius, strict=strict)
    want = ref_check_equivariance(emap, radius=radius, strict=strict)
    assert got == want
    assert got.to_json() == want.to_json()


def test_equivariant_map_validation(swap_action):
    with pytest.raises(pf.MalformedDataError):
        pf.EquivariantMap(source=swap_action, target=swap_action, rho=(0,))
    with pytest.raises(pf.MalformedDataError):
        pf.EquivariantMap(source=swap_action, target=swap_action, rho=(0, 7))


# ---------------------------------------------------------------------------
# serialization


def test_action_json_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        act = random_valid_action(rng)
        data = json.loads(json.dumps(pf.action_to_json(act)))
        back = pf.action_from_json(data)
        assert act.same_data(back)


def test_action_json_malformed():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {1: {0: 1, 1: 0}})
    data = pf.action_to_json(act)

    broken = json.loads(json.dumps(data))
    del broken["n"]
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)

    broken = json.loads(json.dumps(data))
    broken["elements"][0]["domain"] = [0]
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)

    broken = json.loads(json.dumps(data))
    broken["elements"].append(broken["elements"][0])
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)


@pytest.mark.parametrize("key", ["01", " 2", "+1", "1_0", "2 ", "-0"])
def test_action_json_rejects_non_canonical_map_keys(key):
    """A map key must be the one spelling ``str(int(k))`` of its point, so
    that no two keys name one point: ``"01"`` beside ``"1"`` would
    otherwise overwrite it."""
    data = {"group": pf.group_to_json(pf.cyclic_group(2)), "n": 3,
            "elements": [{"t": "1", "map": {"0": 1, "1": 0, key: 2}}]}
    with pytest.raises(pf.MalformedDataError, match=re.escape(f"map key {key!r} of element '1'")):
        pf.action_from_json(data)
    data["elements"][0]["map"] = {"0": 1, "1": 0}
    assert pf.action_from_json(data).element_map(1).pairs == ((0, 1), (1, 0))


def test_restriction_rejects_non_permutation():
    g = pf.cyclic_group(2)
    with pytest.raises(pf.MalformedDataError):
        restriction_action(g, {0: [0, 1], 1: [0, 0]}, [0, 1])
