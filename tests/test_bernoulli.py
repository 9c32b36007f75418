"""Truncated shift windows, finite quotients, certificates, measures."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import parfell as pf
from parfell import bernoulli
from parfell.actions import EquivarianceReport
from parfell.bernoulli import _separates_window
from parfell.groups import word_to_str
from conftest import symmetric_group


Z = pf.FreeGroup(rank=1)
F2 = pf.FreeGroup(rank=2)


def oracle_metric(x, y, depth):
    return math.fsum(2.0 ** (-k) for k in range(1, depth + 1)
                     if ((x >> (k - 1)) & 1) != ((y >> (k - 1)) & 1))


# ---------------------------------------------------------------------------
# windows and the metric


def test_window_coords_frozen():
    w = pf.BernoulliWindow.build(Z, 3)
    assert w.coords == ((), (1,), (-1,), (1, 1))
    assert w.num_points == 8
    assert w.bit(5, 0) == 1 and w.bit(5, 1) == 1 and w.bit(5, 2) == 0 and w.bit(5, 3) == 1


def test_window_depth_validation():
    with pytest.raises(pf.MalformedDataError):
        pf.BernoulliWindow.build(Z, -1)
    w = pf.BernoulliWindow.build(Z, 0)
    assert w.coords == ((),)
    assert w.num_points == 1


def test_metric_frozen_values():
    assert pf.metric(0b001, 0b000, 3) == 0.5
    assert pf.metric(0b010, 0b000, 3) == 0.25
    assert pf.metric(0b111, 0b000, 3) == 0.875
    assert pf.metric(5, 5, 3) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 8))
def test_metric_properties(x, y, z, depth):
    assert pf.metric(x, y, depth) == oracle_metric(x, y, depth)
    assert pf.metric(x, y, depth) == pf.metric(y, x, depth)
    assert pf.metric(x, z, depth) <= pf.metric(x, y, depth) + pf.metric(y, z, depth) + 1e-15
    pairs = [(x, y), (y, z), (z, x)]
    got = pf.metric(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), depth)
    assert np.broadcast_to(got, 3).tolist() == [oracle_metric(a, b, depth) for a, b in pairs]


# ---------------------------------------------------------------------------
# quotient approximations


def hom_z_mod4():
    return pf.GroupHom(source=Z, target=pf.cyclic_group(4), images=(1,))


def test_quotient_rho_frozen():
    w = pf.BernoulliWindow.build(Z, 3)
    approx = pf.QuotientApprox(w, hom_z_mod4())
    assert approx.num_points == 8
    assert approx.rho == (0, 1, 4, 5, 2, 3, 6, 7)


def test_quotient_rows_declare_a_valid_action():
    w = pf.BernoulliWindow.build(Z, 3)
    approx = pf.QuotientApprox(w, hom_z_mod4())
    # a radius-3 scan reads the products of the ball of radius 6
    words = [t for t in Z.ball(6) if t]
    maps = {t: {z: x for z, x in enumerate(row[:-1]) if x >= 0}
            for t, row in zip(words, approx.map_rows(words).tolist())}
    act = pf.FinitePartialAction(Z, approx.num_points, maps)
    assert pf.validate(act, radius=3).ok
    # words reduce through the quotient: a^5 acts exactly like a
    assert approx.map_rows([(1,) * 5]).tolist() == approx.map_rows([(1,)]).tolist()
    sup = act.support((1,))
    assert sup == (1, 3, 5, 7)


def test_quotient_order_cap():
    """A model of any valid quotient can be built; its configuration table
    is refused above ``MAX_QUOTIENT_ORDER``, and so is what reads it."""
    w = pf.BernoulliWindow.build(Z, 1)
    hom = pf.GroupHom(source=Z, target=pf.cyclic_group(17), images=(1,))
    approx = pf.QuotientApprox(w, hom)
    assert approx.images == [0, 1] and approx.num_points == 1 << 16
    for read in (lambda: approx.bits, lambda: approx.rho, lambda: approx.map_rows([(1,)])):
        with pytest.raises(pf.MalformedDataError, match="quotient order 17 exceeds the 16"):
            read()


def test_quotient_source_mismatch():
    w = pf.BernoulliWindow.build(F2, 1)
    with pytest.raises(pf.MalformedDataError):
        pf.QuotientApprox(w, hom_z_mod4())


def test_strict_equivariance_exact():
    w = pf.BernoulliWindow.build(Z, 3)
    approx = pf.QuotientApprox(w, hom_z_mod4())
    report = pf.strict_equivariance_report(approx)
    assert report.ok and report.strict_ok
    assert report.max_defect == 0.0
    assert report.violations == []


def test_strict_equivariance_detects_tampered_rho():
    w = pf.BernoulliWindow.build(Z, 3)
    approx = pf.QuotientApprox(w, hom_z_mod4())
    # flip window coordinate 1 of every truncation
    approx.rho = tuple(x ^ 1 for x in approx.rho)
    report = pf.strict_equivariance_report(approx)
    assert not report.ok
    assert report.max_defect == 0.5
    assert any(v["kind"] == "pointwise" for v in report.violations)


# ``bernoulli._bit`` of the parent commit, verbatim; the package now reads
# configurations from its bit table.
def _bit(z: int, gamma: int) -> int:
    """Configuration z's value at quotient element gamma."""
    if gamma == 0:
        return 1
    return (z >> (gamma - 1)) & 1


# References from the parent commit.  ``QuotientApprox.point_value`` is gone
# from the package; ``with_point_value`` puts its body back on an instance so
# that the reference report below runs verbatim.


def with_point_value(approx):
    def point_value(z, g):
        return _bit(z, approx.hom.apply(g))

    approx.point_value = point_value
    return approx


def ref_strict_equivariance_report(approx, elements=None):
    window = approx.window
    group = window.group
    if elements is None:
        elements = window.coords
    elems = [group.check_element(t) for t in elements]
    violations: list[dict] = []
    max_defect = 0.0
    points = 0
    strict_ok = True
    for t in elems:
        label = word_to_str(group, t)
        pm = ref_rule(approx, t)
        in_set = {w for _, w in pm.pairs}
        for z in sorted(in_set):
            points += 1
            if approx.point_value(z, t) != 1:
                violations.append({"kind": "image", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
        for z, w in pm.pairs:
            points += 1
            shifted = 0
            for k in range(1, window.depth + 1):
                val = approx.point_value(z, group.multiply(group.inverse(t), window.coords[k]))
                if val:
                    shifted |= 1 << (k - 1)
            got = approx.rho[w]
            if got != shifted:
                d = pf.metric(got, shifted, window.depth)
                violations.append(
                    {"kind": "pointwise", "element": label, "point": z, "defect": d}
                )
                max_defect = max(max_defect, d if d > 0 else 1.0)
        for z in range(approx.num_points):
            points += 1
            if approx.point_value(z, t) == 1 and z not in in_set:
                strict_ok = False
                violations.append({"kind": "strict", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
    ok = not any(v["kind"] in ("image", "pointwise") for v in violations)
    return EquivarianceReport(
        ok=ok,
        strict_ok=strict_ok,
        max_defect=max_defect,
        violations=violations,
        elements_checked=len(elems),
        points_checked=points,
    )


def ref_truncate(approx, z):
    x = 0
    for k in range(1, approx.window.depth + 1):
        if approx.point_value(z, approx.window.coords[k]):
            x |= 1 << (k - 1)
    return x


def ref_rule(approx, key):
    m = approx.quotient.order
    gamma = approx.hom.apply(key)
    gi = approx.quotient.inverse(gamma)
    reads = [approx.quotient.multiply(gi, gp) for gp in range(1, m)]
    pairs = []
    for z in range(approx.num_points):
        if _bit(z, gi) != 1:
            continue
        w = 0
        for pos, src in enumerate(reads):
            if _bit(z, src):
                w |= 1 << pos
        pairs.append((z, w))
    return pf.PartialMap(tuple(pairs))


def ref_density_witness(window, hom, x):
    z = 0
    for k in range(1, window.depth + 1):
        if window.bit(x, k):
            gamma = hom.apply(window.coords[k])
            z |= 1 << (gamma - 1)
    return z


def density_witness(images, x):
    """The configuration equal to x on window images and 0 elsewhere, of a
    window point or elementwise of an int array of them: the certificate's
    density witness, which a separating homomorphism makes exact."""
    z = 0
    for i, gamma in enumerate(images[1:]):
        z = z | ((x >> i) & 1) << (gamma - 1)
    return z


def window_distance(approx):
    """The largest window distance from a point to ``rho`` of its density
    witness, over every window point at once."""
    x = np.arange(approx.window.num_points)
    z = density_witness(approx.images, x)
    return float(np.max(pf.metric(np.asarray(approx.rho)[z], x, approx.window.depth)))


QUOTIENTS = [pf.cyclic_group(m) for m in range(1, 13)] + [
    pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(2)),
    symmetric_group(3),
]


@st.composite
def quotient_models(draw):
    """A window of free:1 or free:2 of depth at most 5 and a random
    homomorphism onto a quotient of order at most 12, abelian or not; from
    order 10 on, a configuration reads more than 8 bits."""
    group = draw(st.sampled_from([Z, F2]))
    target = draw(st.sampled_from(QUOTIENTS))
    images = draw(st.lists(st.integers(0, target.order - 1),
                           min_size=group.rank, max_size=group.rank))
    window = pf.BernoulliWindow.build(group, draw(st.integers(0, 5)))
    hom = pf.GroupHom(source=group, target=target, images=tuple(images))
    return with_point_value(pf.QuotientApprox(window, hom))


@st.composite
def checked_elements(draw, group):
    """None (the window) or random words of length at most 4, many of them
    outside the window."""
    if draw(st.booleans()):
        return None
    letters = st.sampled_from(group.letters())
    words = st.lists(letters, max_size=4).map(group.reduce_word)
    return draw(st.lists(words, max_size=6))


@settings(max_examples=150, deadline=None)
@given(quotient_models(), st.data())
def test_strict_report_matches_reference(approx, data):
    """The model's rows, rho, density witnesses and whole strict reports
    equal the parent's, on random homomorphisms, tampered rho and elements
    outside the window."""
    window = approx.window
    assert approx.rho == tuple(ref_truncate(approx, z) for z in range(approx.num_points))
    elements = data.draw(checked_elements(window.group))
    drawn = list(window.coords if elements is None else elements)
    for t, row in zip(drawn, approx.map_rows(drawn).tolist()):
        assert row[-1] == -1
        assert tuple((z, x) for z, x in enumerate(row[:-1]) if x >= 0) == ref_rule(approx, t).pairs
    if _separates_window(window, approx.hom):
        want = [ref_density_witness(window, approx.hom, x) for x in range(window.num_points)]
        assert [density_witness(approx.images, x) for x in range(window.num_points)] == want
        at_once = density_witness(approx.images, np.arange(window.num_points))
        assert np.broadcast_to(at_once, window.num_points).tolist() == want
    if data.draw(st.booleans()):
        tampered = list(approx.rho)
        for z in data.draw(st.lists(st.integers(0, approx.num_points - 1), max_size=4)):
            tampered[z] = data.draw(st.integers(0, window.num_points - 1))
        approx.rho = tuple(tampered)
    got = pf.strict_equivariance_report(approx, elements)
    want = ref_strict_equivariance_report(approx, elements)
    assert got == want
    assert got.to_json() == want.to_json()


def dihedral_group(n):
    """The dihedral group of order 2n: r^k s^f at index k + n f, with
    (k1, f1)(k2, f2) = (k1 + (-1)^f1 k2, f1 xor f2)."""
    def mul(a, b):
        (k1, f1), (k2, f2) = divmod(a, n)[::-1], divmod(b, n)[::-1]
        return (k1 + (-k2 if f1 else k2)) % n + n * (f1 ^ f2)

    return pf.FiniteGroup(tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n)))


def tampered(group, entries):
    """A copy of ``group`` whose table, as tuples and as its ``cayley``
    array, is overwritten at ``(row, col)`` after construction, past the
    table checks; its inverses stay the original ones."""
    copy = pf.FiniteGroup(group.table, group.labels)
    table = [list(row) for row in copy.table]
    for (row, col), value in entries.items():
        table[row][col] = value
    cayley = np.array(table, dtype=np.intp)
    cayley.flags.writeable = False
    object.__setattr__(copy, "table", tuple(map(tuple, table)))
    object.__setattr__(copy, "cayley", cayley)
    return copy


ORACLE_TARGETS = [pf.cyclic_group(m) for m in range(1, 13)] + [
    pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(2)),
    pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(4)),
    pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(6)),
    symmetric_group(3),
    dihedral_group(4),
    dihedral_group(6),
]


@st.composite
def oracle_models(draw):
    """A window of free:1, free:2 or free:3 of depth at most 5 and a
    random homomorphism into a quotient of order at most 12, abelian or
    not."""
    group = draw(st.sampled_from([Z, F2, pf.FreeGroup(3)]))
    target = draw(st.sampled_from(ORACLE_TARGETS))
    images = draw(st.lists(st.integers(0, target.order - 1),
                           min_size=group.rank, max_size=group.rank))
    window = pf.BernoulliWindow.build(group, draw(st.integers(0, 5)))
    return window, pf.GroupHom(source=group, target=target, images=tuple(images))


@settings(max_examples=300, deadline=None)
@given(oracle_models())
def test_every_valid_quotient_passes_the_exhaustive_report(model):
    """Every homomorphism into a valid group is strictly equivariant over
    every configuration, as ``certify_rfd`` argues from the table checks
    of ``FiniteGroup``.  For a separating homomorphism the certificate
    records the exhaustive defect, window distance and point counts."""
    window, hom = model
    approx = pf.QuotientApprox(window, hom)
    report = pf.strict_equivariance_report(approx)
    assert report.ok and report.strict_ok
    assert report.max_defect == 0.0 and report.violations == []
    if not _separates_window(window, hom):
        return
    cert = pf.certify_rfd(window.group, 1.5 * 2.0 ** -window.depth, hom=hom)
    assert (cert.equivariance_defect, cert.max_window_distance) == (report.max_defect, window_distance(approx))
    assert cert.points_checked == {"window": window.num_points, "quotient": approx.num_points}


def test_identity_check_fails_where_the_exhaustive_report_does():
    """On free:1 at depth 3 into Z/4, past the checks of ``FiniteGroup``,
    each tampered entry breaks the identities the exhaustive report names;
    an entry of the pinned column that no window image reads breaks
    nothing, although its row is then no permutation."""
    window = pf.BernoulliWindow.build(Z, 3)
    z4 = pf.cyclic_group(4)
    cases = [  # images (0, 1, 3, 2): for a, g = 3 and row 3 is (3, 0, 1, 2)
        ((1,), {(3, 1): 2}, {"image", "strict"}),  # x_1 and x_3 both read z_2
        ((1,), {(3, 2): 2}, {"strict"}),
        ((1,), {(3, 0): 1}, set()),
        # images (0, 2, 2, 0): a^2 goes to 0, so rho reads the pinned column
        ((2,), {(2, 0): 1}, {"pointwise"}),
        ((2,), {}, set()),
    ]
    for images, entries, kinds in cases:
        hom = pf.GroupHom(source=Z, target=tampered(z4, entries), images=images)
        report = pf.strict_equivariance_report(pf.QuotientApprox(window, hom))
        assert {v["kind"] for v in report.violations} == kinds


def test_certify_and_verify_build_no_quotient_model(monkeypatch):
    """Certifying and re-verifying an order-16 quotient build no model and
    allocate far less than one row of its 2^15 configurations."""
    def refuse(self, *args):
        raise AssertionError("QuotientApprox built")

    monkeypatch.setattr(pf.QuotientApprox, "__init__", refuse)
    hom = pf.GroupHom(source=F2, target=pf.direct_product(pf.cyclic_group(4), pf.cyclic_group(4)),
                      images=(1, 4))
    tracemalloc.start()
    try:
        cert = pf.certify_rfd(F2, 0.01, hom=hom)
        assert pf.verify_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.points_checked == {"window": 128, "quotient": 32768}
    assert peak < 32768 * np.dtype(np.intp).itemsize


def test_separation_skips_apply_when_window_outgrows_quotient(monkeypatch):
    """More window coordinates than quotient elements cannot have distinct
    images; the answer comes before any homomorphism is applied."""
    calls = []
    apply = pf.GroupHom.apply

    def counted(self, g):
        calls.append(g)
        return apply(self, g)

    monkeypatch.setattr(pf.GroupHom, "apply", counted)
    hom = pf.GroupHom(source=F2, target=pf.cyclic_group(16), images=(1, 4))
    assert not _separates_window(pf.BernoulliWindow.build(F2, 15), hom)  # 16 coords
    assert len(calls) == 16

    def refuse(self, g):
        raise AssertionError("GroupHom.apply ran")

    monkeypatch.setattr(pf.GroupHom, "apply", refuse)
    assert not _separates_window(pf.BernoulliWindow.build(F2, 16), hom)  # 17 coords
    with pytest.raises(pf.CertificationError):
        pf.certify_rfd(F2, 1e-300)  # depth 997: no candidate can separate


def test_certify_and_verify_apply_the_hom_once_per_coordinate(monkeypatch):
    """The search reads the quotient table, and re-verifying applies the
    homomorphism once to each of the 8 window coordinates of depth 7, for
    the separation check alone."""
    calls = []
    apply = pf.GroupHom.apply
    monkeypatch.setattr(pf.GroupHom, "apply", lambda self, g: calls.append(g) or apply(self, g))
    cert = pf.certify_rfd(F2, 0.01)
    assert pf.verify_certificate(cert)
    assert len(calls) == len(pf.BernoulliWindow.build(F2, cert.depth).coords) == 8


# ---------------------------------------------------------------------------
# certificates


def test_certify_integers_frozen():
    cert = pf.certify_rfd(Z, 0.2)
    assert cert.depth == 3
    assert cert.hom.target.order == 4
    assert cert.hom.images == (1,)
    assert cert.density_bound == 0.125
    assert cert.max_window_distance == 0.0
    assert cert.equivariance_defect == 0.0
    assert cert.points_checked == {"window": 8, "quotient": 8}
    assert pf.verify_certificate(cert)


def eval_hom(hom, word):
    """The image of a reduced word, read off the target's table alone."""
    table = hom.target.table
    out = 0
    for s in word:
        x = hom.images[abs(s) - 1]
        if s < 0:
            x = table[x].index(0)
        out = table[out][x]
    return out


def free_words(rank, count):
    """The first ``count`` reduced words, by length then +1 < -1 < +2 < ..."""
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    words, level = [()], [()]
    while len(words) < count:
        level = [w + (s,) for w in level for s in letters if not (w and w[-1] == -s)]
        words.extend(level)
    return words[:count]


def test_certify_free_one_at_depth_fourteen():
    """Quotient order 15: 16384 window points and as many configurations."""
    cert = pf.certify_rfd(Z, 1e-4)
    assert cert.depth == 14
    assert cert.hom.target.order == 15
    assert cert.points_checked == {"window": 16384, "quotient": 16384}
    assert cert.max_window_distance == 0.0 and cert.equivariance_defect == 0.0
    images = [eval_hom(cert.hom, w) for w in free_words(1, cert.depth + 1)]
    assert len(set(images)) == len(images) and 0 not in images[1:]
    assert pf.verify_certificate(cert)


def test_certify_free_thirty_ignores_unused_generators():
    """The window of depth 7 uses a, b, c and d only; the other 26
    generators go to 0, as the first separating tuple has them."""
    f30 = pf.FreeGroup(30)
    cert = pf.certify_rfd(f30, 0.01)
    assert cert.hom.target.order == 8
    assert cert.hom.images == (1, 2, 3, 4) + (0,) * 26
    assert pf.verify_certificate(cert)


def test_search_stops_after_its_tuple_budget(monkeypatch):
    """The window of depth 6 on free:3 uses all three generators; on Z/7
    its first separating tuple is (1, 2, 3), tuple 66 of 343.  A budget
    that covers it finds it; one that stops short raises, naming the
    limit; a search that ends within the budget finds nothing as before."""
    coords = pf.BernoulliWindow.build(pf.FreeGroup(3), 6).coords
    sums = bernoulli._exponent_sums(coords, [1, 2, 3])
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 67)
    assert bernoulli._first_separating((7,), sums) == [1, 2, 3]
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 66)
    with pytest.raises(pf.MalformedDataError, match=r"stopped after 66 image tuples \(MAX_SEARCH_TUPLES\)"):
        bernoulli._first_separating((7,), sums)
    # Z/6 is smaller than the 7 coordinates: none of its 216 tuples separates
    with pytest.raises(pf.MalformedDataError, match="out of 216"):
        bernoulli._first_separating((6,), sums)
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 216)
    assert bernoulli._first_separating((6,), sums) is None


def test_search_passes_over_a_target_past_its_budget(monkeypatch):
    """The window of depth 5 on free:2 has 6 coordinates.  Z/6 separates
    it under none of its 36 tuples, Z/7 first under tuple 10, (1, 3), and
    Z/2 x Z/4 first under tuple 13, (1, 5).  A budget that cuts Z/6 short
    goes on to the later targets and finds what the full search finds; a
    budget that cuts every target short raises the first one's error."""
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 11)
    cert = pf.certify_rfd(F2, 0.05)
    assert cert.depth == 5 and cert.hom.target.order == 7 and cert.hom.images == (1, 3)
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 14)
    monkeypatch.setattr(bernoulli, "MAX_CYCLIC", 6)
    cert = pf.certify_rfd(F2, 0.05)  # Z/6 and Z/2 x Z/3 are cut short
    assert cert.hom.target == pf.direct_product(pf.cyclic_group(2), pf.cyclic_group(4))
    assert cert.hom.images == (1, 5)
    monkeypatch.undo()
    monkeypatch.setattr(bernoulli, "MAX_CYCLIC", 6)
    assert pf.certify_rfd(F2, 0.05).hom == cert.hom
    monkeypatch.undo()
    monkeypatch.setattr(bernoulli, "MAX_SEARCH_TUPLES", 10)
    first = r"stopped after 10 image tuples \(MAX_SEARCH_TUPLES\) of a quotient of order 6, out of 36;"
    with pytest.raises(pf.MalformedDataError, match=first):
        pf.certify_rfd(F2, 0.05)


def ref_candidate_homs(group, window, max_order, max_cyclic):
    """The parent's search order: every image tuple of every target."""
    if window.depth == 0:
        yield pf.GroupHom(source=group, target=pf.trivial_group(), images=(0,) * group.rank)
        return
    for m in range(2, max_cyclic + 1):
        if m > max_order:
            break
        target = pf.cyclic_group(m)
        for images in itertools.product(range(m), repeat=group.rank):
            yield pf.GroupHom(source=group, target=target, images=images)
    for a in range(2, max_cyclic + 1):
        for b in range(a, max_cyclic + 1):
            if a * b > max_order:
                continue
            target = pf.direct_product(pf.cyclic_group(a), pf.cyclic_group(b))
            for images in itertools.product(range(a * b), repeat=group.rank):
                yield pf.GroupHom(source=group, target=target, images=images)


@pytest.mark.parametrize("rank,depth,max_order,max_cyclic", [
    (1, 1, 16, 12), (1, 5, 16, 12), (1, 9, 16, 12), (1, 12, 16, 12), (1, 13, 16, 6),
    (2, 3, 16, 12), (2, 6, 16, 12), (2, 8, 16, 12), (2, 9, 12, 4), (3, 4, 16, 12),
    (3, 6, 16, 12), (3, 7, 9, 3), (4, 8, 16, 12),
    # first separated through Z/6 x Z/11, Z/10 x Z/11 and Z/11 x Z/12: images above 63
    (1, 64, 144, 12), (1, 100, 200, 12), (1, 130, 144, 12),
])
def test_search_picks_the_first_separating_candidate(monkeypatch, rank, depth, max_order, max_cyclic):
    group = pf.FreeGroup(rank)
    window = pf.BernoulliWindow.build(group, depth)
    want = next((h for h in ref_candidate_homs(group, window, max_order, max_cyclic)
                 if _separates_window(window, h)), None)
    monkeypatch.setattr(bernoulli, "MAX_CYCLIC", max_cyclic)
    if want is None:
        with pytest.raises(pf.CertificationError):
            pf.certify_rfd(group, 2.0 ** -depth * 1.5, max_order=max_order)
    else:
        got = pf.certify_rfd(group, 2.0 ** -depth * 1.5, max_order=max_order)
        assert got.depth == depth
        assert got.hom == want


def test_supplied_order_16_hom_with_tampered_rho():
    """A tampered truncation breaks exactly the pointwise identities whose
    shifted point it moved, weighted by the window metric."""
    target = pf.direct_product(pf.cyclic_group(4), pf.cyclic_group(4))
    hom = pf.GroupHom(source=F2, target=target, images=(1, 4))
    cert = pf.certify_rfd(F2, 0.01, hom=hom)
    assert cert.points_checked == {"window": 128, "quotient": 32768}
    assert pf.verify_certificate(cert)
    window = pf.BernoulliWindow.build(F2, cert.depth)
    approx = pf.QuotientApprox(window, hom)
    clean = approx.rho
    moved = {0: 0b101, 5: 0b1000000, 32767: 0b1}
    approx.rho = tuple(x ^ moved.get(w, 0) for w, x in enumerate(clean))
    report = pf.strict_equivariance_report(approx)
    want, pairs = [], 0
    for t in window.coords:
        pm = ref_rule(approx, t)
        pairs += len(pm.pairs)
        want += [{"kind": "pointwise", "element": word_to_str(F2, t), "point": z,
                  "defect": oracle_metric(approx.rho[w], clean[w], window.depth)}
                 for z, w in pm.pairs if w in moved]
    assert {v["kind"] for v in report.violations} == {"pointwise"}
    assert report.violations == want
    assert not report.ok and report.strict_ok
    assert report.max_defect == 0.625  # coordinates 1 and 3 of point 0
    assert report.points_checked == 2 * pairs + len(window.coords) * approx.num_points


def test_certificate_path_reads_rows_without_an_action(monkeypatch):
    """Certifying, re-verifying and measuring read the model's rows and
    bit table alone: no action object is built and no element map read."""
    calls = []
    init, element_map = pf.FinitePartialAction.__init__, pf.FinitePartialAction.element_map
    monkeypatch.setattr(pf.FinitePartialAction, "__init__",
                        lambda self, *a, **k: calls.append("init") or init(self, *a, **k))
    monkeypatch.setattr(pf.FinitePartialAction, "element_map",
                        lambda self, g: calls.append("element_map") or element_map(self, g))
    cert = pf.certify_rfd(F2, 0.01)
    assert cert.depth == 7
    assert pf.verify_certificate(cert)
    window = pf.BernoulliWindow.build(F2, cert.depth)
    tests = [pf.CylinderFunction.coordinate_indicator(k) for k in range(1, cert.depth + 1)]
    ma = pf.invariant_measure_approx(pf.QuotientApprox(window, cert.hom), tests)
    assert ma.max_defect == 0.0
    assert calls == []


def test_certify_free_two_frozen():
    cert = pf.certify_rfd(F2, 0.3)
    assert cert.depth == 2
    assert cert.hom.target.order == 3
    assert cert.hom.images == (1, 0)
    assert cert.density_bound == 0.25
    assert pf.verify_certificate(cert)


def test_certify_with_supplied_hom():
    cert = pf.certify_rfd(Z, 0.2, hom=hom_z_mod4())
    assert cert.hom.images == (1,)
    assert pf.verify_certificate(cert)


def test_certify_supplied_hom_must_separate():
    bad = pf.GroupHom(source=Z, target=pf.cyclic_group(2), images=(1,))
    with pytest.raises(pf.CertificationError):
        pf.certify_rfd(Z, 0.2, hom=bad)  # a and a^-1 collide in Z/2


def test_certify_search_budget_exhausted(monkeypatch):
    monkeypatch.setattr(bernoulli, "MAX_CYCLIC", 3)
    with pytest.raises(pf.CertificationError):
        pf.certify_rfd(Z, 0.2, max_order=3)


def test_certify_trivial_window():
    cert = pf.certify_rfd(Z, 2.0)
    assert cert.depth == 0
    assert cert.hom.target.order == 1
    assert cert.points_checked == {"window": 1, "quotient": 1}
    assert pf.verify_certificate(cert)


def test_certify_finite_source_with_hom():
    g4 = pf.cyclic_group(4)
    ident = pf.GroupHom(source=g4, target=g4, images=(0, 1, 2, 3))
    cert = pf.certify_rfd(g4, 0.3, hom=ident)
    assert cert.depth == 2
    assert pf.verify_certificate(cert)


def test_certify_finite_source_needs_hom():
    with pytest.raises(pf.MalformedDataError):
        pf.certify_rfd(pf.cyclic_group(4), 0.3)


def test_certify_rejects_bad_delta():
    with pytest.raises(pf.MalformedDataError):
        pf.certify_rfd(Z, 0.0)
    with pytest.raises(pf.MalformedDataError):
        pf.certify_rfd(Z, -1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_certify_rejects_non_finite_delta(delta):
    with pytest.raises(pf.MalformedDataError, match="delta must be positive and finite"):
        pf.certify_rfd(F2, delta)
    cert = pf.certify_rfd(Z, 0.2)
    assert not pf.verify_certificate(pf.RfdCertificate(**{**cert.__dict__, "delta": delta}))


def test_verify_rejects_tampered_certificates():
    cert = pf.certify_rfd(Z, 0.2)
    bad = pf.RfdCertificate(**{**cert.__dict__, "depth": 2})
    assert not pf.verify_certificate(bad)
    bad = pf.RfdCertificate(**{**cert.__dict__, "density_bound": 0.25})
    assert not pf.verify_certificate(bad)
    bad = pf.RfdCertificate(
        **{**cert.__dict__,
           "hom": pf.GroupHom(source=Z, target=pf.cyclic_group(2), images=(1,))}
    )
    assert not pf.verify_certificate(bad)
    bad = pf.RfdCertificate(**{**cert.__dict__, "points_checked": {"window": 8, "quotient": 4}})
    assert not pf.verify_certificate(bad)


@pytest.mark.parametrize("field,value", [
    ("equivariance_defect", -1e-300),
    ("equivariance_defect", math.nan),
    ("max_window_distance", -0.5),
    ("max_window_distance", 0.25),  # above the tail bound 0.125
    ("points_checked", {"window": 8, "quotient": 9}),
    ("points_checked", {"window": 8, "quotient": 7}),
    ("points_checked", {"window": 7, "quotient": 8}),
])
def test_verify_rejects_tampered_fields(field, value):
    """The identities leave no point to count, so every recorded figure is
    checked against what re-certifying derives."""
    cert = pf.certify_rfd(Z, 0.2)
    assert pf.verify_certificate(pf.RfdCertificate(**{**cert.__dict__, "max_window_distance": 0.125}))
    assert not pf.verify_certificate(pf.RfdCertificate(**{**cert.__dict__, field: value}))


def test_verify_rejects_a_quotient_above_max_order():
    """Z/7 separates the window of depth 3 on free:1 but exceeds a max
    order of 6; any max order from 7 up verifies it, past the 16 of an
    enumerated model."""
    hom = pf.GroupHom(source=Z, target=pf.cyclic_group(7), images=(1,))
    cert = pf.certify_rfd(Z, 0.2, hom=hom)
    assert pf.verify_certificate(cert, max_order=7)
    assert not pf.verify_certificate(cert, max_order=6)
    with pytest.raises(pf.MalformedDataError, match="quotient order 7 exceeds the supported 6"):
        pf.certify_rfd(Z, 0.2, hom=hom, max_order=6)
    assert pf.verify_certificate(cert, max_order=17)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.06, max_value=1.5, allow_nan=False))
def test_certify_integers_any_delta(delta):
    cert = pf.certify_rfd(Z, delta)
    assert cert.density_bound < delta
    assert cert.max_window_distance <= cert.density_bound
    assert pf.verify_certificate(cert)


def test_certificate_json_fields():
    cert = pf.certify_rfd(Z, 0.2)
    data = cert.to_json()
    for key in ("group", "delta", "N", "hom", "density_bound",
                "max_window_distance", "equivariance_defect", "points_checked"):
        assert key in data
    assert data["N"] == 3
    back = pf.hom_from_json(data["hom"])
    assert back == cert.hom


# ---------------------------------------------------------------------------
# cylinder functions and measures


def test_cylinder_validation():
    with pytest.raises(pf.MalformedDataError):
        pf.CylinderFunction(coords=(1, 2), values=(0.0, 1.0))
    f = pf.CylinderFunction.coordinate_indicator(2)
    w = pf.BernoulliWindow.build(Z, 3)
    assert f.on_window_point(w, 0b010) == 1.0
    assert f.on_window_point(w, 0b101) == 0.0
    c = pf.CylinderFunction.constant(2.5)
    assert c.on_window_point(w, 3) == 2.5


def test_cylinder_pinned_coordinate():
    f = pf.CylinderFunction(coords=(0,), values=(0.0, 1.0))
    w = pf.BernoulliWindow.build(Z, 2)
    assert all(f.on_window_point(w, x) == 1.0 for x in range(w.num_points))


def test_measure_z_mod4_frozen():
    cert = pf.certify_rfd(Z, 0.2)
    w = pf.BernoulliWindow.build(Z, cert.depth)
    approx = pf.QuotientApprox(w, cert.hom)
    tests = [pf.CylinderFunction.constant(1.0),
             pf.CylinderFunction.coordinate_indicator(1),
             pf.CylinderFunction.coordinate_indicator(2),
             pf.CylinderFunction.coordinate_indicator(3)]
    ma = pf.invariant_measure_approx(approx, tests)
    assert ma.normalization == 1.0
    assert ma.positive_ok
    assert ma.max_defect == 0.0
    vals = {v["test"]: v["value"] for v in ma.values}
    assert vals["const 1.0"] == 1.0
    assert vals["x[1] = 1"] == 0.5
    assert vals["x[2] = 1"] == 0.5
    assert vals["x[3] = 1"] == 0.5
    assert all(d["defect"] == 0.0 for d in ma.defects)


def test_measure_rejects_out_of_window_coords():
    cert = pf.certify_rfd(Z, 0.2)
    w = pf.BernoulliWindow.build(Z, cert.depth)
    approx = pf.QuotientApprox(w, cert.hom)
    f = pf.CylinderFunction(coords=(9,), values=(0.0, 1.0))
    with pytest.raises(pf.MalformedDataError):
        pf.invariant_measure_approx(approx, [f])


def test_measure_f2_exact_invariance():
    cert = pf.certify_rfd(F2, 0.3)
    w = pf.BernoulliWindow.build(F2, cert.depth)
    approx = pf.QuotientApprox(w, cert.hom)
    tests = [pf.CylinderFunction.coordinate_indicator(k) for k in (1, 2)]
    tests.append(pf.CylinderFunction(coords=(1, 2), values=(0.0, 0.0, 0.0, 1.0),
                                     label="both"))
    ma = pf.invariant_measure_approx(approx, tests)
    assert ma.max_defect == 0.0
    assert ma.positive_ok


def test_measure_to_json_shape():
    cert = pf.certify_rfd(Z, 0.5)
    w = pf.BernoulliWindow.build(Z, cert.depth)
    approx = pf.QuotientApprox(w, cert.hom)
    ma = pf.invariant_measure_approx(approx, [pf.CylinderFunction.constant(1.0)])
    data = ma.to_json()
    assert set(data) == {"values", "defects", "normalization", "positive_ok", "max_defect"}


def ref_eval_bits(f, bit_at):
    """The parent's ``CylinderFunction.eval_bits``, now folded into
    ``on_window_point``."""
    idx = 0
    for i, k in enumerate(f.coords):
        if bit_at(k):
            idx |= 1 << i
    return f.values[idx]


def ref_invariant_measure_approx(approx, tests):
    """An earlier measure, verbatim but for ``ref_eval_bits`` and its
    elements, now always the window coordinates."""
    window = approx.window
    group = window.group
    elems = list(window.coords)
    for f in tests:
        if any(not (0 <= k <= window.depth) for k in f.coords):
            raise pf.MalformedDataError(
                f"test {f.label!r} depends on coordinates outside the window"
            )
    total = approx.num_points
    values: list[dict] = []
    positive_ok = True
    norm = math.fsum(1.0 for _ in range(total)) / total
    for f in tests:
        samples = [f.on_window_point(window, approx.rho[z]) for z in range(total)]
        mu = math.fsum(samples) / total
        values.append({"test": f.label or repr(f.coords), "value": mu})
        if all(v >= 0.0 for v in f.values) and mu < 0.0:
            positive_ok = False
    defects: list[dict] = []
    max_defect = 0.0
    for f in tests:
        for t in elems:
            label = word_to_str(group, t)
            pm = ref_rule(approx, t)
            ti = group.inverse(t)
            shifted = [
                ref_eval_bits(
                    f,
                    lambda k, z=z: approx.point_value(
                        z, group.multiply(t, window.coords[k])
                    ),
                )
                for z in sorted({w for _, w in pm.pairs})
            ]
            plain = [
                f.on_window_point(window, approx.rho[z])
                for z in sorted({w for _, w in ref_rule(approx, ti).pairs})
            ]
            defect = abs(math.fsum(shifted) - math.fsum(plain)) / total
            defects.append({"test": f.label or repr(f.coords), "element": label, "defect": defect})
            max_defect = max(max_defect, defect)
    return pf.MeasureApprox(
        values=values,
        defects=defects,
        normalization=norm,
        positive_ok=positive_ok,
        max_defect=max_defect,
    )


@st.composite
def cylinder_tests(draw, depth, values=(-1.0, 0.0, 0.5, 1.0, 3.0)):
    coords = draw(st.lists(st.integers(0, depth), unique=True, max_size=3))
    values = draw(st.lists(st.sampled_from(values),
                           min_size=1 << len(coords), max_size=1 << len(coords)))
    return pf.CylinderFunction(coords=tuple(coords), values=tuple(values))


SUPPLIED_TARGETS = [pf.cyclic_group(11), pf.cyclic_group(16), symmetric_group(4),
                    pf.direct_product(pf.cyclic_group(4), pf.cyclic_group(4))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 9), st.data())
def test_measure_of_a_certificate_is_exact(rank, depth, data):
    """On a certificate's quotient model, searched or supplied, every
    invariance defect is exactly 0.0 and the normalization exactly 1.0,
    for measure's tests and random ones: left multiplication maps one
    average's reads and pins onto the other's, and ``math.fsum`` sums a
    multiset the same in any order, also where a plain sum would not.
    measure's decision cannot fail."""
    group = pf.FreeGroup(rank)
    window = pf.BernoulliWindow.build(group, depth)
    if data.draw(st.booleans(), label="supplied"):
        target = data.draw(st.sampled_from(SUPPLIED_TARGETS))
        images = data.draw(st.lists(st.integers(0, target.order - 1), min_size=rank, max_size=rank))
        hom = pf.GroupHom(source=group, target=target, images=tuple(images))
        assume(_separates_window(window, hom))
        cert = pf.certify_rfd(group, 2.0 ** -depth * 1.5, hom=hom, max_order=target.order)
    else:
        cert = pf.certify_rfd(group, 2.0 ** -depth * 1.5)
    assert cert.depth == depth
    tests = [pf.CylinderFunction.constant(1.0)]
    tests += [pf.CylinderFunction.coordinate_indicator(k) for k in range(1, depth + 1)]
    tests += data.draw(st.lists(cylinder_tests(depth, [-1.0, 0.1, 1 / 3, 0.7, 1e16]), max_size=3))
    ma = pf.invariant_measure_approx(pf.QuotientApprox(window, cert.hom), tests)
    assert ma.normalization == 1.0
    assert [d["defect"] for d in ma.defects] == [0.0] * len(tests) * len(window.coords)
    assert ma.max_defect == 0.0


@settings(max_examples=60, deadline=None)
@given(quotient_models(), st.data())
def test_measure_matches_reference(approx, data):
    """Values and per-element defects equal the reference's, for random
    tests and homomorphisms, separating or not."""
    tests = data.draw(st.lists(cylinder_tests(approx.window.depth), max_size=3))
    got = pf.invariant_measure_approx(approx, tests)
    assert got == ref_invariant_measure_approx(approx, tests)
