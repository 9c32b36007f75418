"""Finite partial group actions on point sets and their function-space duals.

An action assigns to group elements ``t`` a subset ``V_t`` of ``{0..n-1}`` and
a bijection ``eta_t`` from ``V_{t^-1}`` onto ``V_t``, with the identity acting
as the identity and composition contained in the composite's map.  Free-group
actions are generated from generator data by reduced-word composition unless
declared data (or a rule) supplies exact maps for longer words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .groups import (
    FiniteGroup,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    group_from_json,
    group_to_json,
    scan_elements,
    word_key,
    word_from_str,
    word_to_str,
)

DEFAULT_RADIUS = 3


@dataclass(frozen=True)
class PartialMap:
    """Partial injection on 0..n-1, stored as source-sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "PartialMap":
        return PartialMap(tuple(sorted((int(k), int(v)) for k, v in d.items())))

    @staticmethod
    def identity_on(points: Iterable[int]) -> "PartialMap":
        return PartialMap(tuple((z, z) for z in sorted(points)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(z for z, _ in self.pairs)

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(sorted(w for _, w in self.pairs))

    def source_set(self) -> frozenset[int]:
        return frozenset(z for z, _ in self.pairs)

    def target_set(self) -> frozenset[int]:
        return frozenset(w for _, w in self.pairs)

    def is_injective(self) -> bool:
        return len(self.target_set()) == len(self.pairs)

    def inverse(self) -> "PartialMap":
        if not self.is_injective():
            raise MalformedDataError("cannot invert a non-injective map")
        return PartialMap(tuple(sorted((w, z) for z, w in self.pairs)))

    def compose(self, other: "PartialMap") -> "PartialMap":
        """self after other: z -> self(other(z)) where both legs are defined."""
        mine = self.as_dict()
        out = [(z, mine[w]) for z, w in other.pairs if w in mine]
        return PartialMap(tuple(sorted(out)))

    def __call__(self, z: int) -> int:
        return self.as_dict()[z]


class FinitePartialAction:
    """Partial action of a group on points 0..n-1.

    ``maps`` supplies ``eta_t`` (from ``V_{t^-1}`` onto ``V_t``) for a declared
    element set: every element for finite groups, the generators and their
    inverses for free groups.  ``rule``, when given, computes exact map data
    for arbitrary elements on demand and takes precedence over reduced-word
    composition.
    """

    def __init__(
        self,
        group: GroupSpec,
        n: int,
        maps: Mapping[object, Mapping[int, int] | PartialMap],
        rule: Callable[[object], PartialMap] | None = None,
    ) -> None:
        if not isinstance(n, int) or n < 0:
            raise MalformedDataError(f"point count must be a nonnegative int, got {n!r}")
        self.group = group
        self.n = n
        self.rule = rule
        self._declared: dict = {}
        self._cache: dict = {}
        for g, m in maps.items():
            key = group.check_element(g)
            pm = m if isinstance(m, PartialMap) else PartialMap.from_dict(m)
            for z, w in pm.pairs:
                if not (0 <= z < n and 0 <= w < n):
                    raise MalformedDataError(f"map for {word_to_str(group, key)} leaves 0..{n-1}")
            if key in self._declared:
                raise MalformedDataError(f"duplicate data for element {word_to_str(group, key)}")
            self._declared[key] = pm
        # derive missing inverse entries where the declared map is invertible
        for g in list(self._declared):
            gi = group.inverse(g)
            if gi not in self._declared and self._declared[g].is_injective():
                self._declared[gi] = self._declared[g].inverse()

    # -- element data --------------------------------------------------------

    def declared_elements(self) -> list:
        if isinstance(self.group, FiniteGroup):
            return sorted(self._declared)
        return sorted(self._declared, key=word_key)

    def is_declared(self, g) -> bool:
        return self.group.check_element(g) in self._declared

    def element_map(self, g) -> PartialMap:
        """The partial bijection of ``g``, mapping ``V_{g^-1}`` onto ``V_g``."""
        key = self.group.check_element(g)
        if key in self._declared:
            return self._declared[key]
        if key == self.group.identity:
            return PartialMap.identity_on(range(self.n))
        if key in self._cache:
            return self._cache[key]
        if self.rule is not None:
            pm = self.rule(key)
        elif isinstance(self.group, FreeGroup):
            pm = self._compose_letters(key)
        else:
            raise UndeclaredElementError(
                f"no data for element {word_to_str(self.group, key)}"
            )
        self._cache[key] = pm
        return pm

    def _letter_map(self, letter: int) -> PartialMap:
        key = (letter,)
        if key in self._declared:
            return self._declared[key]
        if self.rule is not None:
            return self.rule(key)
        raise UndeclaredElementError(f"no data for generator letter {letter}")

    def _compose_letters(self, word) -> PartialMap:
        pm = PartialMap.identity_on(range(self.n))
        for letter in reversed(word):  # rightmost letter acts first
            pm = self._letter_map(letter).compose(pm)
        return pm

    def support(self, g) -> tuple[int, ...]:
        """V_g, the set on which ``g``'s image points live."""
        return self.element_map(g).targets

    def same_data(self, other: "FinitePartialAction", elements=None) -> bool:
        if self.group != other.group or self.n != other.n:
            return False
        if elements is None:
            mine, theirs = set(self.declared_elements()), set(other.declared_elements())
            if mine != theirs:
                return False
            elements = mine
        return all(self.element_map(t) == other.element_map(t) for t in elements)


def restriction_action(
    group: GroupSpec,
    global_maps: Mapping[object, Sequence[int]],
    subset: Sequence[int],
) -> FinitePartialAction:
    """Restrict a global permutation action to a subset, relabelled 0..k-1.

    ``global_maps`` sends declared elements to full permutations; generators
    suffice for free groups, every element is expected for finite groups.
    """
    sub = sorted(set(int(z) for z in subset))
    index = {z: i for i, z in enumerate(sub)}
    maps = {}
    for g, perm in global_maps.items():
        perm = list(perm)
        if sorted(perm) != list(range(len(perm))):
            raise MalformedDataError("global map is not a permutation")
        pairs = {index[z]: index[perm[z]] for z in sub if perm[z] in index}
        maps[g] = pairs
    return FinitePartialAction(group, len(sub), maps)


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
    ball of the given radius, with longer words obtained by composition or
    the action's rule.  Witness points are recorded sorted.
    """
    group = action.group
    structural: list[Issue] = []
    axiom: list[Issue] = []

    full = frozenset(range(action.n))
    ident = group.identity
    if action.is_declared(ident):
        em = action.element_map(ident)
        if em != PartialMap.identity_on(range(action.n)):
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
        pm = action.element_map(t)
        injective[t] = pm.is_injective()
        if not injective[t]:
            dupes = sorted(
                w for w in pm.target_set() if sum(1 for _, x in pm.pairs if x == w) > 1
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
            if action.element_map(ti) != pm.inverse():
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
            maps[t] = action.element_map(t)
        except UndeclaredElementError:
            structural.append(
                Issue("missing_element", word_to_str(group, t), (), "no data to build this element's map")
            )
    if structural:
        return ValidationReport(False, structural, axiom, len(elems), 0)
    supports = {t: maps[t].target_set() for t in elems}
    pairs_checked = 0
    for s in elems:
        es = maps[s]
        si = group.inverse(s)
        for t in elems:
            pairs_checked += 1
            et = maps[t]
            st = group.multiply(s, t)
            est = maps[st] if st in maps else action.element_map(st)
            comp = es.compose(et)
            est_d = est.as_dict()
            bad = sorted(z for z, w in comp.pairs if est_d.get(z) != w)
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
            es_dict = es.as_dict()
            lhs = frozenset(es_dict[z] for z in (es.source_set() & supports[t]))
            rhs = supports[s] & est.target_set()
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
            esi = maps[si] if si in maps else action.element_map(si)
            left = esi.compose(es.compose(et))
            right = esi.compose(est)
            if left != right:
                diff = sorted(set(left.pairs) ^ set(right.pairs))
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


# ---------------------------------------------------------------------------
# dual system on functions


class DualSystem:
    """Function-space counterpart of an action.

    Vectors of length n are functions on the point set; element ``t`` moves a
    function supported in ``V_{t^-1}`` to one supported in ``V_t`` by
    relabelling along ``eta_t``.  Entries outside the source support are
    dropped, matching the restricted domain of the map.
    """

    def __init__(self, action: FinitePartialAction) -> None:
        self.action = action
        self.n = action.n

    @property
    def group(self) -> GroupSpec:
        return self.action.group

    def support(self, t) -> tuple[int, ...]:
        return self.action.support(t)

    def projection(self, t) -> np.ndarray:
        p = np.zeros(self.n, dtype=np.complex128)
        for z in self.support(t):
            p[z] = 1.0
        return p

    def apply(self, t, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.n,):
            raise MalformedDataError(f"expected a length-{self.n} vector")
        out = np.zeros(self.n, dtype=np.complex128)
        for z, w in self.action.element_map(t).pairs:
            out[w] = vec[z]
        return out

    def mul_fiber(self, x: tuple, y: tuple) -> tuple:
        """(a, s) * (b, t) = (alpha_s(alpha_{s^-1}(a) b), st)."""
        a, s = x[0], x[1]
        b, t = y[0], y[1]
        si = self.group.inverse(s)
        pulled = self.apply(si, a)
        return (self.apply(s, pulled * np.asarray(b, dtype=np.complex128)), self.group.multiply(s, t))

    def star_fiber(self, x: tuple) -> tuple:
        """(a, s)* = (alpha_{s^-1}(conj a), s^-1)."""
        a, s = x[0], x[1]
        si = self.group.inverse(s)
        return (self.apply(si, np.conjugate(np.asarray(a, dtype=np.complex128))), si)


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
    point_metric: Callable[[int, int], float] | None = None,
) -> EquivarianceReport:
    """Verify the intertwining identities of a point map over a ball.

    Checks image containment ``rho(V_t) <= U_t`` and the pointwise identity
    ``rho(eta_t(z)) = theta_t(rho(z))``; with ``strict`` also the preimage
    containment ``rho^-1(U_t) <= V_t``.  Violation magnitudes use the target
    metric when one is supplied, else count 1 per failure.
    """
    src, tgt, rho = emap.source, emap.target, emap.rho
    elems = scan_elements(src.group, radius)
    violations: list[dict] = []
    max_defect = 0.0
    points_checked = 0

    def dist(x: int, y: int) -> float:
        if point_metric is not None:
            return float(point_metric(x, y))
        return 0.0 if x == y else 1.0

    strict_ok = True
    for t in elems:
        s_map = src.element_map(t)
        t_map = tgt.element_map(t)
        t_image = t_map.target_set()
        t_dict = t_map.as_dict()
        label = word_to_str(src.group, t)
        for z in s_map.targets:
            points_checked += 1
            if rho[z] not in t_image:
                violations.append({"kind": "image", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
        for z, w in s_map.pairs:
            points_checked += 1
            if rho[z] not in t_dict:
                violations.append({"kind": "domain", "element": label, "point": z})
                max_defect = max(max_defect, 1.0)
                continue
            got, want = rho[w], t_dict[rho[z]]
            if got != want:
                d = dist(got, want)
                violations.append(
                    {"kind": "pointwise", "element": label, "point": z, "defect": d}
                )
                max_defect = max(max_defect, d if d > 0 else 1.0)
        if strict:
            s_image = s_map.target_set()
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


# ---------------------------------------------------------------------------
# serialization


def action_to_json(action: FinitePartialAction) -> dict:
    elements = []
    for t in action.declared_elements():
        pm = action.element_map(t)
        elements.append(
            {
                "t": word_to_str(action.group, t),
                "domain": list(dict.fromkeys(pm.targets)),
                "map": {str(z): w for z, w in action.element_map(t).pairs},
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
    if not isinstance(n, int) or n < 0:
        raise MalformedDataError("'n' must be a nonnegative integer")
    maps = {}
    for entry in data["elements"]:
        if not isinstance(entry, dict) or "t" not in entry or "map" not in entry:
            raise MalformedDataError("each element entry needs 't' and 'map' fields")
        t = word_from_str(group, entry["t"])
        try:
            pairs = {int(k): int(v) for k, v in entry["map"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise MalformedDataError(f"bad map data for element {entry['t']!r}") from exc
        if "domain" in entry:
            declared_domain = sorted(int(x) for x in entry["domain"])
            if declared_domain != sorted(set(pairs.values())):
                raise MalformedDataError(
                    f"declared domain of {entry['t']!r} disagrees with its map values"
                )
        if t in maps:
            raise MalformedDataError(f"duplicate element entry {entry['t']!r}")
        maps[t] = pairs
    return FinitePartialAction(group, n, maps)
