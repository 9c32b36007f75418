"""Group descriptions used throughout the package.

Two kinds of group are supported: finitely generated free groups, whose
elements are reduced words over signed generator indices, and finite groups
given by an explicit multiplication table.  Conventions:

* free-group letters are nonzero integers; ``+i`` is the i-th generator
  (1-based) and ``-i`` its inverse; elements are reduced tuples of letters;
* finite-group elements are 0-based indices into the table, identity at 0;
* deterministic element enumeration orders words by length, then
  lexicographically with letter order ``+1 < -1 < +2 < -2 < ...``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

Word = tuple[int, ...]

MAX_FINITE_ORDER = 512


class MalformedDataError(ValueError):
    """Structurally invalid input (bad indices, shapes, unparseable text)."""


class UndeclaredElementError(KeyError):
    """An operation needed data for a group element that was never supplied."""


def _letter_key(letter: int) -> tuple[int, int]:
    # +i sorts before -i, smaller generators first
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(word: Word) -> tuple:
    """Sort key realising the canonical length-then-lex element order."""
    return (len(word), tuple(_letter_key(s) for s in word))


@dataclass(frozen=True)
class FreeGroup:
    """Free group of a given rank; elements are reduced words."""

    rank: int

    def __post_init__(self) -> None:
        if type(self.rank) is not int or self.rank < 1:
            raise MalformedDataError(f"free group rank must be a positive int, got {self.rank!r}")

    @property
    def kind(self) -> str:
        return "free"

    @property
    def identity(self) -> Word:
        return ()

    def check_element(self, g) -> Word:
        """Validate and return ``g`` as a reduced word."""
        w = self.reduce_word(g)
        if w != tuple(g):
            raise MalformedDataError(f"word {g!r} is not reduced")
        return w

    def reduce_word(self, word: Sequence[int]) -> Word:
        """Reduce a word by cancelling adjacent inverse pairs.

        Letters must be nonzero with absolute value at most the rank.
        """
        out: list[int] = []
        for s in word:
            if not isinstance(s, int) or s == 0 or abs(s) > self.rank:
                raise MalformedDataError(f"letter {s!r} out of range for rank {self.rank}")
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def multiply(self, g: Sequence[int], h: Sequence[int]) -> Word:
        return self.reduce_word(tuple(g) + tuple(h))

    def inverse(self, g: Sequence[int]) -> Word:
        w = self.reduce_word(g)
        return tuple(-s for s in reversed(w))

    def letters(self) -> list[int]:
        """Generator letters in canonical order ``+1, -1, +2, -2, ...``."""
        out = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return out

    def ball(self, radius: int) -> list[Word]:
        """All reduced words of length <= radius, canonically ordered."""
        if radius < 0:
            raise MalformedDataError("radius must be >= 0")
        levels: list[list[Word]] = [[()]]
        for _ in range(radius):
            prev = levels[-1]
            nxt: list[Word] = []
            for w in prev:
                for s in self.letters():
                    if w and w[-1] == -s:
                        continue
                    nxt.append(w + (s,))
            levels.append(nxt)
        return [w for level in levels for w in level]

    def enumerate_elements(self, count: int) -> list[Word]:
        """First ``count`` elements of the canonical enumeration, a new list."""
        radius = next(r for r in range(count + 1) if ball_size(self.rank, r) >= count)
        return list(_ball(self, radius)[:count])


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group on indices 0..order-1, identity 0, via its Cayley table.

    ``cayley`` and ``inverses`` hold the table and each element's inverse
    as read-only ``intp`` arrays, built once with the checks.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.table)
        if n == 0 or n > MAX_FINITE_ORDER:
            raise MalformedDataError(f"finite group order must be in 1..{MAX_FINITE_ORDER}")
        tbl = np.asarray(self.table, dtype=np.intp)
        if tbl.shape != (n, n) or tbl.min() < 0 or tbl.max() >= n:
            raise MalformedDataError("multiplication table must be n x n with entries in 0..n-1")
        if not (np.array_equal(tbl[0], np.arange(n)) and np.array_equal(tbl[:, 0], np.arange(n))):
            raise MalformedDataError("element 0 must be the identity")
        # associativity, (ab)c == a(bc), a block of rows a at a time to bound memory
        rows = max(1, (1 << 14) // (n * n))
        for lo in range(0, n, rows):
            a = tbl[lo : lo + rows]
            bad = (tbl[a] != a[:, tbl]).any(axis=(1, 2))
            if bad.any():
                raise MalformedDataError(f"table not associative (row {lo + int(np.argmax(bad))})")
        unit = tbl == 0
        inv = unit.argmax(axis=1)
        ok = (unit.sum(axis=1) == 1) & (tbl[inv, np.arange(n)] == 0)
        if not ok.all():
            raise MalformedDataError(f"element {int(np.argmin(ok))} lacks a two-sided inverse")
        object.__setattr__(self, "_inv", tuple(inv.tolist()))
        # the array forms every numpy path reads, shared read-only
        tbl.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "cayley", tbl)
        object.__setattr__(self, "inverses", inv)
        if self.labels:
            if len(self.labels) != n or len(set(self.labels)) != n:
                raise MalformedDataError("labels must be distinct, one per element")
        else:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))

    @property
    def kind(self) -> str:
        return "finite"

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return 0

    def check_element(self, g) -> int:
        if not isinstance(g, (int, np.integer)) or not (0 <= int(g) < self.order):
            raise MalformedDataError(f"element {g!r} out of range for order {self.order}")
        return int(g)

    def multiply(self, g: int, h: int) -> int:
        return self.table[self.check_element(g)][self.check_element(h)]

    def inverse(self, g: int) -> int:
        return self._inv[self.check_element(g)]

    def ball(self, radius: int) -> list[int]:
        if radius < 0:
            raise MalformedDataError("radius must be >= 0")
        if radius == 0:
            return [0]
        return list(range(self.order))

    def enumerate_elements(self, count: int) -> list[int]:
        if count > self.order:
            raise MalformedDataError(f"group has only {self.order} elements, requested {count}")
        return list(range(count))

    @functools.cached_property
    def whole_table(self) -> "ProductTable":
        """``product_table`` of all the elements in index order: the keys are
        the elements, so the products are the Cayley table and the inverses
        ``inverses``, both shared read-only."""
        ids = np.arange(self.order)
        ids.flags.writeable = False
        return ProductTable(self.inverses, self.cayley, ids, None)


GroupSpec = Union[FreeGroup, FiniteGroup]


class CheckedElements(list):
    """Distinct elements of ``group``, each as ``check_element`` returns it,
    so scans over them skip the checks."""

    def __init__(self, group: GroupSpec, elements) -> None:
        super().__init__(elements)
        self.group = group


def scan_elements(group: GroupSpec, radius: int) -> list:
    """Elements every scan covers, in canonical order.

    A finite group is scanned whole whatever the radius; a free group over
    its word ball of the given radius, which must be at least 1.  The last
    few balls are kept, so the scans of one command build theirs once.  A
    free-group ball takes ``product_table``'s level-built, shared path.
    """
    if isinstance(group, FiniteGroup):
        return CheckedElements(group, range(group.order))
    if radius < 1:
        raise MalformedDataError("free-group scans need radius >= 1")
    return CheckedElements(group, _ball(group, radius))


@functools.lru_cache(maxsize=8)
def _ball(group: FreeGroup, radius: int) -> tuple:
    return tuple(group.ball(radius))


# every finite group the loader accepts fits one scan over all its pairs
MAX_SCAN_PAIRS = MAX_FINITE_ORDER**2
# the memo keeps four canonical balls whose tables take at most this many bytes
MAX_SHARED_BALL_BYTES = 8 << 20


def ball_size(rank: int, radius: int) -> int:
    """The number of reduced words of length at most ``radius``."""
    return 1 + sum(2 * rank * (2 * rank - 1) ** (d - 1) for d in range(1, radius + 1))


class WordTrie:
    """Reduced words of a free group as int ids, paths from the root ``0``.

    ``parent[w]`` is ``w`` without its last letter, ``last[w]`` that
    letter's index in ``FreeGroup.letters()`` (-1 at the root; the inverse
    letter's index is ``a ^ 1``), ``depth[w]`` the length of ``w`` and
    ``child[w, a]`` the id of ``w`` followed by letter ``a``, or -1.  Ids
    follow creation order, so a parent's id is below its children's.

    A trie grows on demand; ``WordTrie.ball`` builds a ball's words at once,
    read-only, in ``FreeGroup.ball`` order, with ``child`` rows only for the
    words below its top level.
    """

    def __init__(self, rank: int, capacity: int = 1) -> None:
        self.rank, self.size = rank, 1
        self.parent, self.last = np.full(capacity, -1), np.full(capacity, -1)
        self.depth = np.zeros(capacity, dtype=np.intp)
        self.child = np.full((capacity, 2 * rank), -1, dtype=np.intp)

    @classmethod
    def ball(cls, rank: int, radius: int) -> "WordTrie":
        """The ``ball_size(rank, radius)`` words of length at most
        ``radius``, allocated once and built one level at a time: the id of
        each word is its index in ``FreeGroup(rank).ball(radius)``.  A
        product steps on from no word of length ``radius``, so those words
        get no ``child`` row."""
        k, words = 2 * rank, ball_size(rank, radius)
        trie, lo = cls(rank), 0
        trie.parent, trie.last, trie.depth = np.full(words, -1), np.full(words, -1), np.zeros(words, dtype=np.intp)
        trie.child = np.full((ball_size(rank, radius - 1), k), -1, dtype=np.intp)
        for d in range(1, radius + 1):
            # each word of the last level, then each letter that does not cancel
            p, a = np.divmod(np.arange(lo * k, trie.size * k), k)
            keep = a != trie.last[p] ^ 1
            p, a = p[keep], a[keep]
            ids = np.arange(trie.size, trie.size + p.size)
            trie.child[p, a] = ids
            trie.parent[ids], trie.last[ids], trie.depth[ids] = p, a, d
            lo, trie.size = trie.size, trie.size + p.size
        for x in (trie.parent, trie.last, trie.depth, trie.child):
            x.flags.writeable = False
        return trie

    def find(self, words: Sequence[Word]) -> np.ndarray:
        """Ids of the reduced ``words``, or -1 where a word is not in the trie."""
        out = np.zeros(len(words), dtype=np.intp)
        for col in _letter_indices(words).T:
            at = np.flatnonzero((col >= 0) & (out >= 0))
            # a word without a child row, on a ball's top level, has no longer word here
            top = out[at] >= len(self.child)
            out[at[top]] = -1
            at = at[~top]
            out[at] = self.child[out[at], col[at]]
        return out

    def step(self, w: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Ids of the reduced words ``w a``, for ids ``w`` and letter
        indices ``a``, adding those not yet in the trie."""
        out = np.where(self.last[w] == a ^ 1, self.parent[w], self.child[w, a])
        new = np.flatnonzero(out < 0)
        if new.size:
            wn, an = w[new], a[new]
            # a scatter of positions elects one of the pairs that make a word
            tags = -2 - np.arange(new.size)
            self.child[wn, an] = tags
            won = self.child[wn, an] == tags
            wn, an = wn[won], an[won]
            ids = np.arange(self.size, self.size + wn.size)
            if ids[-1] >= len(self.parent):
                more = max(ids[-1] + 1, 2 * len(self.parent)) - len(self.parent)
                self.parent, self.last, self.depth, self.child = (
                    np.concatenate([x, np.full((more, *x.shape[1:]), -1, dtype=np.intp)])
                    for x in (self.parent, self.last, self.depth, self.child))
            self.child[wn, an] = ids
            self.parent[ids], self.last[ids], self.depth[ids] = wn, an, self.depth[wn] + 1
            self.size += wn.size
            out[new] = self.child[w[new], a[new]]
        return out

    def walk(self, start, words: Sequence[Word]) -> np.ndarray:
        """Ids of ``s w`` for start ids ``s`` (an array whose last axis runs
        over ``words``, or broadcasts to one) and reduced ``words``: one
        gather per letter position."""
        cur = np.array(np.broadcast_to(start, np.broadcast_shapes(np.shape(start), (len(words),))))
        for col in _letter_indices(words).T:
            at = np.flatnonzero(col >= 0)
            here = cur[..., at]
            a = np.broadcast_to(col[at], here.shape)
            cur[..., at] = self.step(here.ravel(), a.ravel()).reshape(here.shape)
        return cur

    def words(self, ids: np.ndarray) -> list[Word]:
        """The words of ``ids``."""
        letters, out = FreeGroup(self.rank).letters(), [()]
        for p, a in zip(self.parent[1 : self.size].tolist(), self.last[1 : self.size].tolist()):
            out.append(out[p] + (letters[a],))
        return [out[i] for i in ids.tolist()]


def _letter_indices(words: Sequence[Word]) -> np.ndarray:
    """The ``FreeGroup.letters()`` indices of each word as a row, padded with -1."""
    out = np.full((len(words), max(map(len, words), default=0)), -1, dtype=np.intp)
    for i, w in enumerate(words):
        out[i, : len(w)] = [2 * abs(x) - 1 - (x > 0) for x in w]
    return out


@dataclass(frozen=True)
class ProductTable:
    """Products and inverses of a scan's elements as indices into ``keys``.

    ``keys`` lists the scan elements first, then every product or inverse
    outside them in first-seen order; ``inv[a]`` indexes the inverse of
    ``keys[a]`` and ``prod[a, b]`` the product ``keys[a] keys[b]``.  For a
    free group ``ids[k]`` is the ``trie`` id of ``keys[k]``, and ``keys``
    is spelled out when first read; for a finite group ``trie`` is None and
    ``ids`` holds the elements.  The arrays are read-only, for sharing.
    """

    inv: np.ndarray
    prod: np.ndarray
    ids: np.ndarray
    trie: WordTrie | None

    @functools.cached_property
    def keys(self) -> list:
        return self.ids.tolist() if self.trie is None else self.trie.words(self.ids)


def product_table(group: GroupSpec, elements: Sequence) -> ProductTable:
    """One product per pair of the distinct, checked ``elements``.

    A free-group ball ``B_R``, as ``scan_elements`` returns it, takes the
    level-built path: ``WordTrie.ball`` builds the ``|B_2R|`` words, the
    ball's own ids are ``0..e-1``, the products come from one gather per
    level of the right factor and the inverses from where each column of
    products reaches the identity, once per ``(rank, radius)`` within
    ``MAX_SHARED_BALL_BYTES``.  Any other free-group list walks a trie grown
    on demand, so sparse long words cost only the words their walks reach.
    Both give the same table.  A finite group's elements in index order take
    its ``whole_table``; any other finite list is relabelled, to the same
    table.  Refuses more than ``MAX_SCAN_PAIRS`` pairs.
    """
    e = len(elements)
    if e * e > MAX_SCAN_PAIRS:
        raise MalformedDataError(
            f"a scan over {e} elements has {e * e} element pairs, "
            f"above the limit of {MAX_SCAN_PAIRS}"
        )
    if isinstance(group, FiniteGroup):
        whole = list(elements) == list(range(group.order))
        return group.whole_table if whole else _product_table(group, elements, None)
    radius = _ball_radius(group, elements)
    # per word of B_2R: intp parent, letter, depth, id, children and a key of <= 2R letters; per pair an int32
    words = 0 if radius is None else ball_size(group.rank, 2 * radius)
    if words and words * (8 * (2 * group.rank + 4) + 48 + 16 * radius) + 4 * e * (e + 1) <= MAX_SHARED_BALL_BYTES:
        return _shared_ball_table(group, radius)
    return _product_table(group, elements, radius)


_shared_ball_table = functools.lru_cache(maxsize=4)(lambda group, radius: _product_table(group, _ball(group, radius), radius))


def _product_table(group: GroupSpec, elements: Sequence, radius: int | None) -> ProductTable:
    """``product_table`` built anew; ``radius`` is that of a canonical ball, else None."""
    e, trie = len(elements), None
    if isinstance(group, FiniteGroup):
        el = np.asarray(elements, dtype=np.intp).reshape(e)
        inv = group.inverses[el]
        prod = group.cayley[el[:, None], el]
        size = group.order
    elif radius is not None:
        trie = WordTrie.ball(group.rank, 2 * radius)
        el = np.arange(e)
        prod = np.empty((e, e), dtype=np.intp)
        prod[:, 0] = el
        for d in range(1, radius + 1):
            # the right factors of length d: their parents' columns, one letter on
            lo, hi = ball_size(group.rank, d - 1), ball_size(group.rank, d)
            left = prod[:, trie.parent[lo:hi]]
            prod[:, lo:hi] = trie.step(left.ravel(), np.tile(trie.last[lo:hi], e)).reshape(left.shape)
        inv = np.argmax(prod == 0, axis=0)
        size = trie.size
    else:
        trie = WordTrie(group.rank)
        el = trie.walk(np.zeros(e, dtype=np.intp), elements)
        inv = trie.walk(np.zeros(e, dtype=np.intp), [tuple(-x for x in reversed(g)) for g in elements])
        prod = trie.walk(el[:, None], elements)
        size = trie.size
    # keys in first-seen order: the first position of each id, by a scatter
    seen = np.concatenate([el, inv, prod.ravel()])
    first = np.full(size, seen.size)
    np.minimum.at(first, seen, np.arange(seen.size))
    order = np.full(seen.size, -1)
    hit = np.flatnonzero(first < seen.size)
    order[first[hit]] = hit
    ids = order[order >= 0]
    key_of = np.empty(size, dtype=np.intp)
    key_of[ids] = np.arange(ids.size)
    if not np.array_equal(key_of[el], np.arange(e)):
        raise MalformedDataError("scan elements must be distinct")
    table = ProductTable(key_of[inv].astype(np.int32), key_of[prod].astype(np.int32), ids, trie)
    for x in (table.inv, table.prod, table.ids):
        x.flags.writeable = False
    return table


def _ball_radius(group: FreeGroup, elements: Sequence) -> int | None:
    """``R`` when ``elements`` is ``group.ball(R)`` word for word, else None."""
    e = len(elements)
    radius = next(r for r in range(e + 1) if ball_size(group.rank, r) >= e)
    return radius if ball_size(group.rank, radius) == e and tuple(elements) == _ball(group, radius) else None


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism into a finite group.

    For a free source, ``images`` lists one target element per generator.
    For a finite source, ``images`` lists one target element per source
    element and the product-preservation law is checked exhaustively.
    """

    source: GroupSpec
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = tuple(self.target.check_element(i) for i in self.images)
        object.__setattr__(self, "images", imgs)
        if isinstance(self.source, FreeGroup):
            if len(imgs) != self.source.rank:
                raise MalformedDataError("need one image per free generator")
        else:
            if len(imgs) != self.source.order:
                raise MalformedDataError("need one image per source element")
            if imgs[0] != 0:
                raise MalformedDataError("identity must map to identity")
            im = np.asarray(imgs)
            if not np.array_equal(im[self.source.cayley], self.target.cayley[im][:, im]):
                raise MalformedDataError("images do not preserve products")

    def apply(self, g):
        if isinstance(self.source, FreeGroup):
            # the images are checked elements, so the table is read directly
            table, inv, out = self.target.table, self.target._inv, 0
            for s in self.source.reduce_word(g):
                x = self.images[abs(s) - 1]
                out = table[out][x if s > 0 else inv[x]]
            return out
        return self.images[self.source.check_element(g)]


# ---------------------------------------------------------------------------
# standard builders


@functools.lru_cache(maxsize=16)
def cyclic_group(m: int) -> FiniteGroup:
    """Z/m with elements 0..m-1 under addition.  A group is immutable, so
    each order's table is built and checked once per process."""
    if m < 1 or m > MAX_FINITE_ORDER:
        raise MalformedDataError(f"cyclic order must be in 1..{MAX_FINITE_ORDER}")
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return FiniteGroup(table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs enumerated a-major: (i, j) -> i * |b| + j."""
    na, nb = a.order, b.order
    if na * nb > MAX_FINITE_ORDER:
        raise MalformedDataError("product order exceeds supported maximum")
    table = tuple(
        tuple(
            a.table[i // nb][k // nb] * nb + b.table[i % nb][k % nb]
            for k in range(na * nb)
        )
        for i in range(na * nb)
    )
    labels = tuple(f"{a.labels[i // nb]},{b.labels[i % nb]}" for i in range(na * nb))
    return FiniteGroup(table, labels)


# ---------------------------------------------------------------------------
# serialization

_GENERATOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


def generator_name(i: int) -> str:
    """Name of the i-th (1-based) free generator: a, b, ..."""
    if i < 1 or i > len(_GENERATOR_NAMES):
        raise MalformedDataError(f"no name for generator index {i}")
    return _GENERATOR_NAMES[i - 1]


def word_to_str(spec: GroupSpec, g) -> str:
    if isinstance(spec, FiniteGroup):
        return spec.labels[spec.check_element(g)]
    w = spec.check_element(g)
    if not w:
        return "e"
    parts = []
    for s in w:
        name = generator_name(abs(s))
        parts.append(name if s > 0 else f"{name}^-1")
    return " ".join(parts)


def word_from_str(spec: GroupSpec, text: str):
    text = text.strip()
    if isinstance(spec, FiniteGroup):
        if text in spec.labels:
            return spec.labels.index(text)
        raise MalformedDataError(f"unknown element label {text!r}")
    if text in ("", "e"):
        return ()
    letters: list[int] = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        if len(name) != 1 or name not in _GENERATOR_NAMES:
            raise MalformedDataError(f"bad generator token {tok!r}")
        idx = _GENERATOR_NAMES.index(name) + 1
        if idx > spec.rank:
            raise MalformedDataError(f"generator {name!r} outside rank {spec.rank}")
        power = 1
        if exp:
            try:
                power = int(exp)
            except ValueError as exc:
                raise MalformedDataError(f"bad exponent in token {tok!r}") from exc
        letters.extend([idx if power > 0 else -idx] * abs(power))
    return spec.reduce_word(letters)


def group_to_json(spec: GroupSpec) -> dict:
    if isinstance(spec, FreeGroup):
        return {"kind": "free", "rank": spec.rank}
    return {
        "kind": "finite",
        "order": spec.order,
        "table": [list(row) for row in spec.table],
        "labels": list(spec.labels),
    }


def group_from_json(data: dict) -> GroupSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise MalformedDataError("group object needs a 'kind' field")
    if data["kind"] == "free":
        return FreeGroup(rank=data.get("rank", 0))
    if data["kind"] == "finite":
        table = data.get("table")
        if table is None:
            raise MalformedDataError("finite group needs a 'table'")
        if not (isinstance(table, list) and all(
                isinstance(row, list) and len(row) == len(table[0]) and all(type(x) is int for x in row)
                for row in table)):
            raise MalformedDataError("finite group 'table' must be a list of equal-length lists of integers")
        tbl = tuple(map(tuple, table))
        order = data.get("order", len(tbl))
        if type(order) is not int:
            raise MalformedDataError("finite group 'order' must be an integer")
        if order != len(tbl):
            raise MalformedDataError("declared order disagrees with table size")
        labels = data.get("labels", [])
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise MalformedDataError("finite group 'labels' must be a list of strings")
        # per entry a tuple slot, an int object and an intp; per element a label and an inverse
        if order * order * 48 + order * 128 <= MAX_SHARED_BALL_BYTES:
            return _shared_group(tbl, tuple(labels))
        return FiniteGroup(tbl, tuple(labels))
    raise MalformedDataError(f"unknown group kind {data['kind']!r}")


# one checked group per (table, labels), as many as the shared balls; a
# table that fails its checks raises on every call
_shared_group = functools.lru_cache(maxsize=4)(FiniteGroup)


def hom_to_json(hom: GroupHom) -> dict:
    return {
        "source": group_to_json(hom.source),
        "target": group_to_json(hom.target),
        "images": [int(i) for i in hom.images],
    }


def hom_from_json(data: dict) -> GroupHom:
    """The homomorphism of a ``hom_to_json`` object, its source group included."""
    if not isinstance(data, dict) or "images" not in data:
        raise MalformedDataError("hom object needs an 'images' field")
    images = data["images"]
    if not (isinstance(images, list) and all(type(i) is int for i in images)):
        raise MalformedDataError("hom 'images' must be a list of integers")
    if "source" not in data:
        raise MalformedDataError("hom object needs a 'source' group")
    source = group_from_json(data["source"])
    target = group_from_json(data["target"]) if "target" in data else None
    if target is None or not isinstance(target, FiniteGroup):
        raise MalformedDataError("hom target must be a finite group")
    return GroupHom(source=source, target=target, images=tuple(images))
