"""Finite partial group actions on point sets and on the functions over them.

An action assigns to group elements ``t`` a subset ``V_t`` of ``{0..n-1}`` and
a bijection ``eta_t`` from ``V_{t^-1}`` onto ``V_t``, with the identity acting
as the identity and composition contained in the composite's map.  Each map
is held as an int row: ``row[z] = eta_t(z)``, or -1 where it is undefined,
with a trailing -1 column, so ``f[g]`` composes row ``f`` after row ``g``.
Free-group actions are generated from generator data by reduced-word
composition unless declared data supplies exact maps for longer words.  The
same object is the dual system on functions, ``alpha_t(f) = f o eta_{t^-1}``,
with its fiber product and star.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .groups import (
    FiniteGroup,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    group_from_json,
    group_to_json,
    ProductTable,
    WordTrie,
    product_table,
    scan_elements,
    word_key,
    word_from_str,
    word_to_str,
)

DEFAULT_RADIUS = 3


@dataclass(frozen=True)
class PartialMap:
    """Source-sorted pairs of a partial map on 0..n-1, read off its row."""

    pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    # the benchmark's layer tracer counts calls of this name and fails on a missing one
    def compose(self, other: "PartialMap") -> "PartialMap":
        """self after other: z -> self(other(z)) where both legs are defined."""
        mine = self.as_dict()
        return PartialMap(tuple(sorted((z, mine[w]) for z, w in other.pairs if w in mine)))


class FinitePartialAction:
    """Partial action of a group on points 0..n-1.

    ``maps`` supplies ``eta_t`` (from ``V_{t^-1}`` onto ``V_t``) for a declared
    element set: every element for finite groups, the generators and their
    inverses for free groups.  A declared map of a longer free-group word
    takes precedence over reduced-word composition for that word.  Each
    declared map is stored as its int row; an injective one whose inverse
    is not declared supplies the inverse's row.  One store holds the
    read-only row of each key with data: the declared rows, then those
    that ``map_rows`` and ``scan`` build.  ``row`` reads it, so it returns
    the same array on every call.
    """

    def __init__(self, group: GroupSpec, n: int, maps: Mapping[object, Mapping[int, int]]) -> None:
        if not isinstance(n, int) or n < 0:
            raise MalformedDataError(f"point count must be a nonnegative int, got {n!r}")
        self.group = group
        self.n = n
        self._scans: dict = {}
        pairs = {}
        for g, m in maps.items():
            key = group.check_element(g)
            src, dst = [int(z) for z in m], [int(w) for w in m.values()]
            if src and not (0 <= min(src + dst) and max(src + dst) < n):
                raise MalformedDataError(f"map for {word_to_str(group, key)} leaves 0..{n-1}")
            if key in pairs:
                raise MalformedDataError(f"duplicate data for element {word_to_str(group, key)}")
            pairs[key] = src, dst
        for key, (src, dst) in list(pairs.items()):
            if len(set(dst)) == len(dst) and group.inverse(key) not in pairs:
                pairs[group.inverse(key)] = dst, src
        # every declared row in one read-only array, filled by one scatter
        at, sources, targets = [], [], []
        for i, (src, dst) in enumerate(pairs.values()):
            at += [i] * len(src)
            sources += src
            targets += dst
        self._table = np.full((len(pairs), n + 1), -1, dtype=np.intp)
        self._table[at, sources] = targets
        self._table.flags.writeable = False
        self._declared = dict(zip(pairs, self._table))
        self._store = dict(self._declared)

    # -- element data --------------------------------------------------------

    def declared_elements(self) -> list:
        if isinstance(self.group, FiniteGroup):
            return sorted(self._declared)
        return sorted(self._declared, key=word_key)

    def is_declared(self, g) -> bool:
        return self.group.check_element(g) in self._declared

    def element_map(self, g) -> PartialMap:
        """The partial bijection of ``g``, mapping ``V_{g^-1}`` onto ``V_g``,
        as the pairs of its row."""
        row = self.row(g)
        z = np.flatnonzero(row >= 0)
        return PartialMap(tuple(zip(z.tolist(), row[z].tolist())))

    def row(self, g) -> np.ndarray:
        """The read-only int row of ``g`` from the store, built by
        ``map_rows`` on first use."""
        key = self.group.check_element(g)
        if key not in self._store:
            self.map_rows([key])
        return self._store[key]

    def map_rows(self, keys: Sequence) -> np.ndarray:
        """Element maps as int rows in a new array, one per key as
        ``check_element`` returns it.

        ``rows[i, z]`` is ``eta_{keys[i]}(z)``, or -1 where it is undefined.
        The last column is all -1, so ``f[g]`` composes row ``f`` after row
        ``g``.  The keys not yet in the store are built in one ``_rows`` pass
        and those with data are kept; the first key without data raises
        ``missing_error``.
        """
        new = list(dict.fromkeys(k for k in keys if k not in self._store))
        if new:
            if isinstance(self.group, FreeGroup):
                trie = WordTrie(self.group.rank)
                rows, lacks = self._rows(trie, trie.walk(np.zeros(len(new), dtype=np.intp), new))
            else:
                rows, lacks = self._rows(None, new)
            self._keep(new, rows, lacks)
            if lacks.any():
                raise self.missing_error(new[int(np.argmax(lacks))])
        return np.array([self._store[k] for k in keys], dtype=np.intp).reshape(len(keys), self.n + 1)

    def _keep(self, keys: Sequence, rows: np.ndarray, lacks: np.ndarray) -> None:
        """Store the rows of the ``keys`` with data; a stored row stays as it is."""
        for key, row, miss in zip(keys, rows, lacks.tolist()):
            if not miss:
                self._store.setdefault(key, row)

    def missing_error(self, key) -> UndeclaredElementError:
        """The error for a checked ``key`` without data: a free word names
        its rightmost letter without data, any other key itself."""
        if isinstance(self.group, FreeGroup):
            letter = next(a for a in reversed(key) if (a,) not in self._declared)
            return UndeclaredElementError(f"no data for generator letter {letter}")
        return UndeclaredElementError(f"no data for element {word_to_str(self.group, key)}")

    def scan(self, elements: Sequence) -> tuple:
        """The product table of the checked ``elements``, the rows of its
        keys, a mask of the keys without data (rows of -1) and the rows'
        ``row_identities``.  Built once per element list and kept, so the
        scans of one command share them; the elements' rows go to the store.
        """
        memo = tuple(elements)
        if memo not in self._scans:
            table = product_table(self.group, elements)
            rows, lacks = self._rows(table.trie, table.ids)
            self._keep(elements, rows, lacks)
            self._scans[memo] = (table, rows, lacks, row_identities(rows, table, len(elements)))
        return self._scans[memo]

    def _rows(self, trie: WordTrie | None, ids: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Read-only rows of the words ``ids`` of ``trie``, which does not grow, or of
        a finite group's keys ``ids`` when ``trie`` is None, and a mask of those without data."""
        n, declared, table = self.n, list(self._declared), self._table
        if trie is None:
            at, size = declared, self.group.order
        else:
            size, at = int(np.max(ids, initial=0)) + 1, trie.find(declared)
            keep = (at >= 0) & (at < size)  # ids below size hold the keys' prefixes; others are no keys
            at, table = at[keep], table[keep]
        # id 0 is the identity: a finite group's key 0 and the trie's root;
        # a finite group's other keys have data only where declared
        comp = np.full((size, n + 1), -1, dtype=np.intp)
        comp[0, :n] = np.arange(n)
        lacks = np.full(size, trie is None)
        lacks[0] = False
        if trie is not None:
            # letter composites, one gather per trie level: row(p a) = row(p)[row(a)]
            letters = [(a,) for a in self.group.letters()]
            empty = np.full(n + 1, -1, dtype=np.intp)
            letter_rows = np.array([self._declared.get(a, empty) for a in letters])
            no_letter = np.array([a not in self._declared for a in letters])
            depth = trie.depth[:size]
            for d in range(1, int(depth.max(initial=0)) + 1):
                w = np.flatnonzero(depth == d)
                p, a = trie.parent[w], trie.last[w]
                comp[w] = comp[p[:, None], letter_rows[a]]
                lacks[w] = lacks[p] | no_letter[a]
        # declared maps replace composites only now, so that a declared
        # longer word never serves as a prefix
        comp[at] = table
        lacks[at] = False
        rows = comp[ids]
        rows.flags.writeable = False
        return rows, lacks[ids]

    def support(self, g) -> tuple[int, ...]:
        """V_g, the set on which ``g``'s image points live."""
        row = self.row(g)
        return tuple(np.sort(row[row >= 0]).tolist())

    # -- the dual system on functions ----------------------------------------
    # Vectors of length n are functions on the points; ``t`` moves a function
    # supported in ``V_{t^-1}`` to one supported in ``V_t`` along ``eta_t``,
    # dropping the entries outside the source set.

    def apply(self, t, vec: np.ndarray) -> np.ndarray:
        """alpha_t(vec), the function relabelled along ``eta_t``."""
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.n,):
            raise MalformedDataError(f"expected a length-{self.n} vector")
        # points outside the source set land in the extra last entry
        out = np.zeros(self.n + 1, dtype=np.complex128)
        out[self.row(t)[:-1]] = vec
        return out[:-1]

    def mul_fiber(self, x: tuple, y: tuple) -> tuple:
        """(a, s) * (b, t) = (alpha_s(alpha_{s^-1}(a) b), st)."""
        a, s = x[0], x[1]
        b, t = y[0], y[1]
        pulled = self.apply(self.group.inverse(s), a)
        return (self.apply(s, pulled * np.asarray(b, dtype=np.complex128)), self.group.multiply(s, t))

    def star_fiber(self, x: tuple) -> tuple:
        """(a, s)* = (alpha_{s^-1}(conj a), s^-1)."""
        a, s = x[0], x[1]
        si = self.group.inverse(s)
        return (self.apply(si, np.conjugate(np.asarray(a, dtype=np.complex128))), si)

    def same_data(self, other: "FinitePartialAction") -> bool:
        """Whether both actions have the same group, point count, declared
        elements and maps on them."""
        if self.group != other.group or self.n != other.n:
            return False
        mine = set(self._declared)
        if mine != set(other._declared):
            return False
        return all(np.array_equal(self._declared[t], other._declared[t]) for t in mine)


def _inverses(rows: np.ndarray) -> np.ndarray:
    """The rows of the inverses of injective ``rows``, by one scatter."""
    out = np.full_like(rows, -1)
    k, z = np.nonzero(rows[:, :-1] >= 0)
    out[k, rows[k, z]] = z
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Issue:
    kind: str
    element: str
    points: tuple
    message: str


@dataclass
class ValidationReport:
    ok: bool
    structural: list[Issue]
    axiom: list[Issue]
    elements_checked: int
    pairs_checked: int

    def all_issues(self) -> list[Issue]:
        return self.structural + self.axiom

    def to_json(self) -> dict:
        def enc(issues):
            return [
                {"kind": i.kind, "element": i.element, "points": list(i.points), "message": i.message}
                for i in issues
            ]

        return {
            "ok": self.ok,
            "structural": enc(self.structural),
            "axiom": enc(self.axiom),
            "elements_checked": self.elements_checked,
            "pairs_checked": self.pairs_checked,
        }


def validate(action: FinitePartialAction, radius: int = DEFAULT_RADIUS) -> ValidationReport:
    """Check the partial-action axioms and their two derived set identities.

    Finite groups are checked over all element pairs; free groups over the
    ball of the given radius, with longer words obtained by composition
    unless declared.  Witness points are recorded sorted.  The pair
    identities run over int-array element maps (``row_identities``); the
    failing pairs' witnesses come from the same per-point checks
    (``pair_identities``).
    """
    group = action.group
    structural: list[Issue] = []
    axiom: list[Issue] = []

    declared = action.declared_elements()
    rows = np.array([action._declared[t] for t in declared], dtype=np.intp).reshape(-1, action.n + 1)
    at = {t: i for i, t in enumerate(declared)}
    ident = group.identity
    if ident in at and (rows[at[ident], :-1] != np.arange(action.n)).any():
        structural.append(
            Issue("identity_map", word_to_str(group, ident), (), "identity element does not act as the identity")
        )

    if isinstance(group, FiniteGroup):
        missing = [
            t
            for t in group.ball(1)
            if t != ident and t not in at
        ]
        for t in missing:
            structural.append(
                Issue("missing_element", word_to_str(group, t), (), "finite-group action lacks data for this element")
            )

    dupes, inverses = _hits(rows) > 1, _inverses(rows)
    for i, t in enumerate(declared):
        if dupes[i].any():
            structural.append(
                Issue(
                    "not_injective",
                    word_to_str(group, t),
                    tuple(np.flatnonzero(dupes[i]).tolist()),
                    f"eta_{word_to_str(group, t)} not injective",
                )
            )
        elif group.inverse(t) in at and (rows[at[group.inverse(t)]] != inverses[i]).any():
            structural.append(
                Issue(
                    "inverse_mismatch",
                    word_to_str(group, t),
                    (),
                    "declared inverse map disagrees with the inverted map",
                )
            )

    if structural:
        return ValidationReport(False, structural, axiom, len(declared), 0)

    elems = scan_elements(group, radius)
    table, rows, lacks, (compose, ranges, triple) = action.scan(elems)
    e = len(elems)
    for i in np.flatnonzero(lacks[:e]).tolist():
        structural.append(Issue("missing_element", word_to_str(group, elems[i]), (),
                                "no data to build this element's map"))
    if structural:
        return ValidationReport(False, structural, axiom, e, 0)
    if lacks.any():
        raise action.missing_error(table.keys[int(np.argmax(lacks))])

    # the flagged pairs' points: every row is injective once the structural
    # checks pass, so the images of a pair's range points are the points
    # where eta_s(V_s^-1 & V_t) and V_s & V_st differ
    flagged = np.nonzero(compose | ranges | triple)
    points = np.arange(action.n)
    checks = pair_identities(rows, _hits(rows), table, *flagged) if flagged[0].size else ()
    for a, b, compose_at, ranges_at, triple_at in zip(*flagged, *checks):
        label = f"{word_to_str(group, elems[a])} , {word_to_str(group, elems[b])}"
        if compose_at.any():
            axiom.append(Issue("composition", label, tuple(points[compose_at].tolist()),
                               "eta_s o eta_t not contained in eta_st"))
        if ranges_at.any():
            axiom.append(Issue("range_fact", label, tuple(np.sort(rows[a, :-1][ranges_at]).tolist()),
                               "eta_s(V_s^-1 & V_t) differs from V_s & V_st"))
        if triple_at.any():
            # a point once per side on which it is defined
            sides = 2 * (triple_at > 0) + (triple_at < 0)
            axiom.append(Issue("triple_fact", label, tuple(np.repeat(points, sides).tolist()),
                               "triple composition identity fails"))
    ok = not structural and not axiom
    return ValidationReport(ok, structural, axiom, e, e * e)


def row_identities(rows: np.ndarray, table: ProductTable, e: int) -> tuple[np.ndarray, ...]:
    """``(E, E)`` masks of the scan pairs where ``pair_identities`` fails
    at some point, checked a block of rows ``s`` at a time over ``(E, n)``
    arrays: ``compose``, ``ranges`` and ``triple``.  Where ``ranges``
    holds, ``eta_s(V_{s^-1} & V_t) = V_s & V_st``, and
    ``v_s v_t v_t* = v_st v_st* v_s`` in the standard model.
    """
    n, hits = rows.shape[1] - 1, _hits(rows)
    out = np.zeros((3, e, e), dtype=bool)
    block = max(1, 2**16 // max(1, e * n))  # rows per block of (rows, E, n) arrays
    for lo in range(0, e, block):
        a = np.arange(lo, min(e, lo + block))[:, None]
        for mask, points in zip(out, pair_identities(rows, hits, table, a, np.arange(e))):
            mask[lo : lo + len(a)] = points.any(axis=2)
    return out[0], out[1], out[2]


def pair_identities(rows: np.ndarray, hits: np.ndarray, table: ProductTable, a, b) -> tuple[np.ndarray, ...]:
    """Per-point checks of the scan pairs ``(s, t) = (keys[a], keys[b])``
    for index arrays ``a`` and ``b`` that broadcast to the pairs' shape,
    from int rows and their ``_hits``; each check has that shape plus one
    axis over the points ``z``.

    ``compose`` marks ``eta_s(eta_t(z))`` defined and not ``eta_st(z)``;
    ``ranges`` a ``z`` in the domain of ``eta_s`` that ``eta_t`` hits a
    different number of times than ``eta_st`` hits ``eta_s(z)``.
    ``triple`` is the bitwise xor of ``eta_{s^-1} eta_s eta_t(z)`` and
    ``eta_{s^-1} eta_st(z)``, each -1 where undefined: nonzero where the
    sides differ, negative where only one of them is defined.
    """
    n, a, b = rows.shape[1] - 1, np.asarray(a), np.asarray(b)
    # entry (r, z) is at r * w + z of the raveled rows, for z = -1 too: every
    # row ends in the same constant column, which the entry before row r holds
    w, flat = np.intp(n + 1), rows.ravel()
    es, st = rows[a, :n], table.prod[a, b]
    est = rows[st, :n]
    comp = flat[a[..., None] * w + rows[b, :n]]  # eta_s o eta_t
    compose = (comp >= 0) & (comp != est)
    moved = hits.ravel()[st[..., None] * w + es]  # the hits of eta_st at eta_s(z)
    ranges = (es >= 0) & (hits[b, :n] != moved)
    esi = table.inv[a][..., None] * w
    return compose, ranges, flat[esi + comp] ^ flat[esi + est]


def _hits(rows: np.ndarray) -> np.ndarray:
    """``hits[i, x]``, the number of points that row ``i`` sends to ``x``,
    for rows that end in their -1 column; that column's count is 0."""
    k, width = rows.shape
    hits = np.bincount((rows % width + width * np.arange(k)[:, None]).ravel(), minlength=k * width)
    hits = hits.reshape(k, width)
    hits[:, -1] = 0
    return hits


# ---------------------------------------------------------------------------
# equivariant maps


@dataclass
class EquivariantMap:
    """Point map from one action's set into another's, same group."""

    source: FinitePartialAction
    target: FinitePartialAction
    rho: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source.group != self.target.group:
            raise MalformedDataError("equivariant maps need a common group")
        rho = tuple(int(x) for x in self.rho)
        if len(rho) != self.source.n:
            raise MalformedDataError("rho must assign a target point to every source point")
        if any(not (0 <= x < self.target.n) for x in rho):
            raise MalformedDataError("rho leaves the target point set")
        self.rho = rho


@dataclass
class EquivarianceReport:
    ok: bool
    strict_ok: bool
    max_defect: float
    violations: list[dict]
    elements_checked: int
    points_checked: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "strict_ok": self.strict_ok,
            "max_defect": self.max_defect,
            "violations": self.violations,
            "elements_checked": self.elements_checked,
            "points_checked": self.points_checked,
        }


def check_equivariance(
    emap: EquivariantMap,
    radius: int = DEFAULT_RADIUS,
    strict: bool = False,
) -> EquivarianceReport:
    """Verify the intertwining identities of a point map over a ball.

    Checks image containment ``rho(V_t) <= U_t`` and the pointwise identity
    ``rho(eta_t(z)) = theta_t(rho(z))``; with ``strict`` also the preimage
    containment ``rho^-1(U_t) <= V_t``.  Each violation counts 1 in
    ``max_defect``.
    """
    src, tgt = emap.source, emap.target
    elems = scan_elements(src.group, radius)
    rows, t_rows = src.map_rows(elems), tgt.map_rows(elems)
    rho = np.asarray(emap.rho, dtype=np.intp)

    return _equivariance_report(
        src.group, elems, rows, rho, _hits(t_rows)[:, rho] > 0, t_rows[:, rho],
        lambda x, y: 1.0, strict,
    )


def _equivariance_report(
    group: GroupSpec,
    elements: Sequence,
    rows: np.ndarray,
    rho: np.ndarray,
    lands: np.ndarray,
    wanted: np.ndarray,
    dist: Callable[[int, int], float],
    strict: bool,
) -> EquivarianceReport:
    """The one image, pointwise and strict check of a point map ``rho``.

    Row ``i`` of each int array belongs to ``t = elements[i]``: ``rows`` are
    the source maps ``eta_t`` from ``map_rows``, ``lands`` marks the source
    points whose ``rho`` lands in ``U_t`` and ``wanted[i, z]`` is the wanted
    ``rho(eta_t(z))``, or -1 for none (a ``domain`` violation).  Violation
    dicts are built only at failing points, per element in the order image
    (one per point sent there), domain or pointwise, strict.  ``dist``
    weighs a pointwise miss; a miss of weight 0 or any other violation
    counts 1 in ``max_defect``.
    """
    n = len(rho)
    hits = _hits(rows)[:, :n]
    rows = rows[:, :n]
    defined = rows >= 0
    got = rho[rows]
    miss = defined & ((wanted < 0) | (got != wanted))
    image = (hits > 0) & ~lands
    extra = lands & (hits == 0) & strict
    violations: list[dict] = []
    for i in np.flatnonzero((image | miss | extra).any(axis=1)).tolist():
        label = word_to_str(group, elements[i])
        for z in np.flatnonzero(image[i]).tolist():
            violations += [{"kind": "image", "element": label, "point": z} for _ in range(hits[i, z])]
        for z in np.flatnonzero(miss[i]).tolist():
            x, want = int(got[i, z]), int(wanted[i, z])
            v = {"kind": "domain" if want < 0 else "pointwise", "element": label, "point": z}
            violations.append(v if want < 0 else {**v, "defect": dist(x, want)})
        violations += [{"kind": "strict", "element": label, "point": x}
                       for x in np.flatnonzero(extra[i]).tolist()]
    weights = (v.get("defect", 1.0) for v in violations)
    return EquivarianceReport(
        ok=all(v["kind"] == "strict" for v in violations),
        strict_ok=not any(v["kind"] == "strict" for v in violations),
        max_defect=max((d if d > 0 else 1.0 for d in weights), default=0.0),
        violations=violations,
        elements_checked=len(elements),
        points_checked=2 * int(defined.sum()) + (len(elements) * n if strict else 0),
    )


# ---------------------------------------------------------------------------
# serialization


def action_to_json(action: FinitePartialAction) -> dict:
    elements = []
    for t in action.declared_elements():
        row = action._declared[t]
        z = np.flatnonzero(row >= 0)
        elements.append(
            {
                "t": word_to_str(action.group, t),
                "domain": np.unique(row[z]).tolist(),
                "map": dict(zip(map(str, z.tolist()), row[z].tolist())),
            }
        )
    return {"group": group_to_json(action.group), "n": action.n, "elements": elements}


def action_from_json(data: dict) -> FinitePartialAction:
    if not isinstance(data, dict):
        raise MalformedDataError("action file must hold a JSON object")
    for key in ("group", "n", "elements"):
        if key not in data:
            raise MalformedDataError(f"action object needs a {key!r} field")
    group = group_from_json(data["group"])
    n = data["n"]
    if type(n) is not int or n < 0:
        raise MalformedDataError("'n' must be a nonnegative integer")
    if not isinstance(data["elements"], list):
        raise MalformedDataError("'elements' must be a list")
    maps = {}
    for entry in data["elements"]:
        if not isinstance(entry, dict) or "t" not in entry or "map" not in entry:
            raise MalformedDataError("each element entry needs 't' and 'map' fields")
        if not isinstance(entry["t"], str):
            raise MalformedDataError(f"element name {entry['t']!r} is not a string")
        t = word_from_str(group, entry["t"])
        try:
            pairs = {int(k): v for k, v in entry["map"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise MalformedDataError(f"bad map data for element {entry['t']!r}") from exc
        # one spelling per point, so that no two keys name the same one
        if list(map(str, pairs)) != list(entry["map"]):
            bad = next(k for k in entry["map"] if str(int(k)) != k)
            raise MalformedDataError(f"map key {bad!r} of element {entry['t']!r} is not a canonical integer")
        if set(map(type, pairs.values())) - {int}:
            raise MalformedDataError(f"map values of {entry['t']!r} must be integers")
        if "domain" in entry:
            domain = entry["domain"]
            if not isinstance(domain, list) or set(map(type, domain)) - {int}:
                raise MalformedDataError(f"domain of {entry['t']!r} must be a list of integers")
            if sorted(domain) != sorted(set(pairs.values())):
                raise MalformedDataError(
                    f"declared domain of {entry['t']!r} disagrees with its map values"
                )
        if t in maps:
            raise MalformedDataError(f"duplicate element entry {entry['t']!r}")
        maps[t] = pairs
    return FinitePartialAction(group, n, maps)
