"""Group layer: word arithmetic, balls, table groups, homomorphisms."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parfell import (
    MAX_SCAN_PAIRS,
    FiniteGroup,
    FreeGroup,
    GroupHom,
    MalformedDataError,
    cyclic_group,
    direct_product,
    group_from_json,
    group_to_json,
    product_table,
    scan_elements,
    word_from_str,
    word_to_str,
)
from conftest import symmetric_group
from parfell import groups
from parfell.groups import ball_size


# --- oracles ---------------------------------------------------------------


def oracle_reduce(word):
    """Fixpoint scan-and-cancel reduction (independent of the library path)."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def oracle_ball(rank, radius):
    """Brute force: reduce every letter tuple up to the radius, dedupe, sort."""
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    seen = set()
    for L in range(radius + 1):
        for tup in itertools.product(letters, repeat=L):
            w = oracle_reduce(tup)
            if len(w) <= radius:
                seen.add(w)
    def key(w):
        return (len(w), tuple((abs(s), 0 if s > 0 else 1) for s in w))
    return sorted(seen, key=key)


def ball_size_formula(rank, radius):
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


# --- free groups -----------------------------------------------------------


def test_reduce_word_examples():
    f1 = FreeGroup(1)
    assert f1.reduce_word([1, -1]) == ()
    f2 = FreeGroup(2)
    assert f2.reduce_word([1, 2, -2, 1]) == (1, 1)
    assert f2.reduce_word([]) == ()
    # nested cancellation collapses fully
    assert f2.reduce_word([1, 2, -2, -1]) == ()


def test_reduce_word_out_of_range():
    with pytest.raises(MalformedDataError):
        FreeGroup(1).reduce_word([2])
    with pytest.raises(MalformedDataError):
        FreeGroup(2).reduce_word([0])


def test_multiply_free():
    f2 = FreeGroup(2)
    a, b = (1,), (2,)
    assert f2.multiply(a, f2.multiply(f2.inverse(a), b)) == b
    assert f2.multiply(a, f2.inverse(a)) == ()


def test_ball_small_cases():
    f1 = FreeGroup(1)
    assert f1.ball(0) == [()]
    assert f1.ball(2) == [(), (1,), (-1,), (1, 1), (-1, -1)]
    f2 = FreeGroup(2)
    assert f2.ball(1) == [(), (1,), (-1,), (2,), (-2,)]


@pytest.mark.parametrize("rank,radius", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_ball_matches_oracle(rank, radius):
    got = FreeGroup(rank).ball(radius)
    assert got == oracle_ball(rank, radius)
    assert len(got) == ball_size_formula(rank, radius)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_enumerate_elements_builds_one_ball(monkeypatch, rank):
    """The first ``count`` words are those of the smallest ball that holds
    them, as a loop over growing balls found them, and only that ball is
    built when the ball memo is empty."""
    group, radius, built = FreeGroup(rank), 0, []
    ball = FreeGroup.ball
    for count in range(1, 201):
        while len(group.ball(radius)) < count:
            radius += 1
        want = group.ball(radius)[:count]
        groups._ball.cache_clear()
        monkeypatch.setattr(FreeGroup, "ball", lambda self, r: built.append(r) or ball(self, r))
        assert group.enumerate_elements(count) == want
        monkeypatch.undo()
        assert built == [radius]
        built.clear()


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_enumerate_elements_slices_the_ball_memo(rank):
    """Each count up to one past ``B_3`` is a prefix of the smallest ball
    that holds it, in a new list: changing it leaves the memo as it was."""
    group = FreeGroup(rank)
    for count in range(ball_size(rank, 3) + 2):
        radius = min(r for r in range(5) if ball_size(rank, r) >= count)
        got = group.enumerate_elements(count)
        assert got == group.ball(radius)[:count]
        got.append((1,) * 9)
        got[:count] = [()] * count
        assert groups._ball(group, radius) == tuple(group.ball(radius))
        assert group.enumerate_elements(count) == group.ball(radius)[:count]


def test_ball_symmetric_and_nested():
    f2 = FreeGroup(2)
    b2 = f2.ball(2)
    assert len(set(b2)) == len(b2)
    assert set(f2.inverse(w) for w in b2) == set(b2)
    assert b2[: len(f2.ball(1))] == f2.ball(1)


words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


@given(words)
def test_reduce_matches_oracle(w):
    assert FreeGroup(2).reduce_word(w) == oracle_reduce(w)


@given(words, words)
@settings(max_examples=200)
def test_multiply_associative_and_inverse(u, v):
    f2 = FreeGroup(2)
    gu, gv = f2.reduce_word(u), f2.reduce_word(v)
    assert f2.multiply(gu, f2.inverse(gu)) == ()
    assert f2.inverse(f2.multiply(gu, gv)) == f2.multiply(f2.inverse(gv), f2.inverse(gu))


# --- finite groups ---------------------------------------------------------


def test_cyclic_multiply():
    z4 = cyclic_group(4)
    assert z4.multiply(1, 3) == 0
    assert z4.inverse(3) == 1
    for i, j in itertools.product(range(4), repeat=2):
        assert z4.multiply(i, j) == (i + j) % 4


def test_finite_ball():
    z4 = cyclic_group(4)
    assert z4.ball(0) == [0]
    assert z4.ball(1) == [0, 1, 2, 3]
    assert z4.ball(5) == [0, 1, 2, 3]


def test_scan_elements():
    s3 = symmetric_group(3)
    for radius in (0, 1, 3):
        assert scan_elements(s3, radius) == list(range(6))
    words = scan_elements(FreeGroup(2), 2)
    assert len(words) == 17
    assert words == oracle_ball(2, 2)
    with pytest.raises(MalformedDataError, match="radius >= 1"):
        scan_elements(FreeGroup(2), 0)


@pytest.mark.parametrize(
    "group, elements",
    [
        (cyclic_group(5), list(range(5))),
        (cyclic_group(6), [0, 4, 5]),
        (direct_product(cyclic_group(2), symmetric_group(3)), list(range(12))),
        (FreeGroup(1), oracle_ball(1, 3)),
        (FreeGroup(2), oracle_ball(2, 2)),
        (FreeGroup(3), [(1, -2), (2, 3), (-3, -2, 1), ()]),
    ],
    ids=["cyclic5", "cyclic6-subset", "c2xs3", "free1-r3", "free2-r2", "free3-words"],
)
def test_product_table_matches_multiply(group, elements):
    """Scan elements come first, then each new product or inverse once, and
    every index agrees with ``multiply`` and ``inverse``."""
    table = product_table(group, elements)
    keys = table.keys
    assert keys[: len(elements)] == elements
    assert len(set(keys)) == len(keys)
    assert table.prod.shape == (len(elements), len(elements))
    for a, g in enumerate(elements):
        assert keys[table.inv[a]] == group.inverse(g)
        for b, h in enumerate(elements):
            assert keys[table.prod[a, b]] == group.multiply(g, h)
    firsts = [group.inverse(g) for g in elements]
    firsts += [group.multiply(g, h) for g in elements for h in elements]
    assert keys[len(elements):] == [k for k in dict.fromkeys(firsts) if k not in elements]


def test_product_table_on_sparse_long_words():
    """Long words far apart cost only the words their walks reach: the
    trie stays within one node per letter of each element, inverse and
    product walk, and every index agrees with ``multiply`` and ``inverse``."""
    group = FreeGroup(3)
    rng = np.random.default_rng(12)
    elements = []
    while len(elements) < 9:
        w = group.reduce_word([int(x) for x in rng.choice([1, -1, 2, -2, 3, -3], size=int(rng.integers(0, 13)))])
        if w not in elements:
            elements.append(w)
    table = product_table(group, elements)
    keys, e, longest = table.keys, len(elements), max(map(len, elements))
    assert longest >= 10
    assert table.trie.size <= 1 + e * e * longest + 2 * e * longest
    assert keys[:e] == elements and len(set(keys)) == len(keys)
    for a, g in enumerate(elements):
        assert keys[table.inv[a]] == group.inverse(g)
        for b, h in enumerate(elements):
            assert keys[table.prod[a, b]] == group.multiply(g, h)
    firsts = [group.inverse(g) for g in elements]
    firsts += [group.multiply(g, h) for g in elements for h in elements]
    assert keys[e:] == [k for k in dict.fromkeys(firsts) if k not in elements]


def _walk_table(monkeypatch, group, elements):
    """The table of the walk path, which every list but a ball takes."""
    with monkeypatch.context() as m:
        m.setattr(groups, "_ball_radius", lambda group, elements: None)
        return product_table(group, elements)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_ball_tables_match_the_walk(monkeypatch, rank, radius):
    """A canonical ball takes the level-built path, whose ids are the ball's
    indices, and gives the walk's keys, inverses and products."""
    group = FreeGroup(rank)
    elements = scan_elements(group, radius)
    assert len(elements) == ball_size(rank, radius)
    if len(elements) ** 2 > MAX_SCAN_PAIRS:
        with pytest.raises(MalformedDataError, match="element pairs"):
            product_table(group, elements)
        return
    table, walked = product_table(group, elements), _walk_table(monkeypatch, group, elements)
    assert table.trie.size == ball_size(rank, 2 * radius) == len(table.trie.parent)
    assert table.trie.words(np.arange(table.trie.size)) == group.ball(2 * radius)
    assert table.keys == walked.keys
    assert np.array_equal(table.inv, walked.inv) and np.array_equal(table.prod, walked.prod)
    assert table.inv.dtype == walked.inv.dtype and table.prod.dtype == walked.prod.dtype


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False), st.booleans())
def test_shuffled_or_cut_balls_take_the_walk(rank, radius, rnd, shuffle):
    """A shuffled ball, or one without its last word, is not the canonical
    ball: it builds no ball trie, and its table still agrees with
    ``multiply`` and ``inverse``."""
    group = FreeGroup(rank)
    elements = group.ball(radius)
    if shuffle:
        rnd.shuffle(elements)
    else:
        elements.pop()
    if elements == group.ball(radius) or len(elements) ** 2 > MAX_SCAN_PAIRS:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups.WordTrie, "ball", None)
        table = product_table(group, elements)
    keys = table.keys
    assert keys[: len(elements)] == elements
    for a, g in enumerate(elements):
        assert keys[table.inv[a]] == group.inverse(g)
        for b, h in enumerate(elements):
            assert keys[table.prod[a, b]] == group.multiply(g, h)


def test_product_table_pair_limit():
    """A scan of more than MAX_SCAN_PAIRS pairs is refused before any
    product is formed; the largest finite group still fits."""
    assert MAX_SCAN_PAIRS == 512**2
    with pytest.raises(MalformedDataError, match=f"1457 elements has 2122849 element pairs, above the limit of {MAX_SCAN_PAIRS}"):
        product_table(FreeGroup(2), FreeGroup(2).ball(6))
    assert product_table(FreeGroup(2), FreeGroup(2).ball(5)).prod.shape == (485, 485)
    with pytest.raises(MalformedDataError, match="distinct"):
        product_table(cyclic_group(3), [1, 1])


def test_bad_tables_rejected():
    with pytest.raises(MalformedDataError):
        FiniteGroup(((0, 1), (1, 1)))  # not a bijection row
    with pytest.raises(MalformedDataError):
        FiniteGroup(((1, 0), (0, 1)))  # identity not at 0
    # a non-associative quasigroup with identity at 0
    with pytest.raises(MalformedDataError):
        FiniteGroup(
            (
                (0, 1, 2, 3, 4),
                (1, 0, 3, 4, 2),
                (2, 4, 0, 1, 3),
                (3, 2, 4, 0, 1),
                (4, 3, 1, 2, 0),
            )
        )


def test_symmetric_group_order_and_identity():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert s3.labels[0] == "012"
    # composition oracle on permutation labels
    perms = [tuple(int(c) for c in lab) for lab in s3.labels]
    for i, j in itertools.product(range(6), repeat=2):
        composed = tuple(perms[i][perms[j][k]] for k in range(3))
        assert perms[s3.multiply(i, j)] == composed


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    # (1,1) * (1,2) = (0,0)
    assert g.multiply(1 * 3 + 1, 1 * 3 + 2) == 0


# --- homomorphisms ----------------------------------------------------------


def test_hom_free_to_cyclic():
    z4 = cyclic_group(4)
    hom = GroupHom(source=FreeGroup(1), target=z4, images=(1,))
    assert hom.apply((1, 1, 1)) == 3
    assert hom.apply(()) == 0
    assert hom.apply((-1,)) == 3


def test_hom_free_rank2_to_s3():
    s3 = symmetric_group(3)
    swap01 = s3.labels.index("102")
    cycle = s3.labels.index("120")
    hom = GroupHom(source=FreeGroup(2), target=s3, images=(swap01, cycle))
    assert hom.apply((1, 2)) == s3.multiply(swap01, cycle)
    assert hom.apply((2, 2, 2)) == 0


def test_hom_finite_checked():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    hom = GroupHom(source=z2, target=z4, images=(0, 2))
    assert hom.apply(1) == 2
    with pytest.raises(MalformedDataError):
        GroupHom(source=z2, target=z4, images=(0, 1))  # 1+1 != 2 in images


@given(words)
def test_hom_respects_words(w):
    z4 = cyclic_group(4)
    hom = GroupHom(source=FreeGroup(2), target=z4, images=(1, 2))
    f2 = FreeGroup(2)
    total = 0
    for s in w:
        total += (1 if abs(s) == 1 else 2) * (1 if s > 0 else -1)
    assert hom.apply(f2.reduce_word(w)) == total % 4


# --- serialization ----------------------------------------------------------


def test_word_roundtrip():
    f2 = FreeGroup(2)
    g = (1, -2, -2, 1)
    assert word_to_str(f2, g) == "a b^-1 b^-1 a"
    assert word_from_str(f2, word_to_str(f2, g)) == g
    assert word_from_str(f2, "e") == ()
    assert word_from_str(f2, "b^-2 a") == (-2, -2, 1)
    z4 = cyclic_group(4)
    assert word_from_str(z4, word_to_str(z4, 3)) == 3


def test_group_json_roundtrip():
    for g in (FreeGroup(2), cyclic_group(5), symmetric_group(3)):
        back = group_from_json(group_to_json(g))
        assert back == g


def test_group_json_rejects_garbage():
    with pytest.raises(MalformedDataError):
        group_from_json({"kind": "ring"})
    with pytest.raises(MalformedDataError):
        group_from_json({"kind": "finite", "order": 3, "table": [[0, 1], [1, 0]]})


def test_bad_tables_name_the_first_failing_row():
    # Z/6 with rows 2 and 4 broken: a swap of two entries of row 4 breaks
    # associativity at row 1 already (1 * (1 * 3) uses row 4)
    table = [list(r) for r in cyclic_group(6).table]
    table[4][1], table[4][2] = table[4][2], table[4][1]
    with pytest.raises(MalformedDataError, match=r"^table not associative \(row 1\)$"):
        FiniteGroup(tuple(map(tuple, table)))
    # the monoid Z/2 x {1, 0} under multiplication is associative; element
    # 1 = (1, 1) has an inverse and elements 2 and 3, times 0, have none
    elems = [(a, b) for b in (1, 0) for a in (0, 1)]
    monoid = tuple(tuple(elems.index(((a + c) % 2, b * d)) for c, d in elems) for a, b in elems)
    with pytest.raises(MalformedDataError, match=r"^element 2 lacks a two-sided inverse$"):
        FiniteGroup(monoid)
