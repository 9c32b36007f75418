"""Covariant matrix models of partial actions and their defect functionals.

The standard model of an action on ``n`` points puts functions on the
diagonal of ``M_n`` and sends each group element to the partial permutation
matrix of its map.  Approximate families are measured against the exact
relations (selfadjointness, triple products, range commutation, covariance),
and families of near partial isometries can be rounded to exact ones with
certified distance bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .actions import FinitePartialAction, validate
from .groups import (
    CheckedElements,
    FiniteGroup,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    product_table,
    word_key,
    word_to_str,
)
from .matrices import (
    AXIOM_TOL,
    BOUND_MARGIN,
    CHAR_TOL,
    EXACT_TOL,
    EXTRACT_HERM_TOL,
    MATCH_TOL,
    NORM_SLACK,
    PI_TOL,
    PreconditionError,
    Prefix,
    adjoints,
    clusters,
    corner_inv_sqrts,
    frobenius_norms,
    herm_eig,
    nearest_projections,
    norm_bounds,
    norm_unless_below,
    norms_unless_below,
    op_norm,
    op_norms,
)


class PartialRepFamily:
    """Matrices indexed by group elements; the identity must map to I.

    Families are declared (a finite dict of matrices) or the standard
    model of an ``action``: each element's partial permutation matrix.
    """

    def __init__(
        self,
        group: GroupSpec,
        dim: int,
        mats: Mapping | None = None,
        action: FinitePartialAction | None = None,
    ) -> None:
        self.group = group
        self.dim = dim
        self.action = action
        self._mats: dict = {}
        for g, m in (mats or {}).items():
            key = group.check_element(g)
            a = np.asarray(m, dtype=np.complex128)
            if a.shape != (dim, dim):
                raise MalformedDataError(
                    f"matrix for {word_to_str(group, key)} has shape {a.shape}, wanted {(dim, dim)}"
                )
            self._mats[key] = a

    def elements(self) -> list:
        """The declared elements: a standard model's are its action's."""
        if self.action is not None:
            return self.action.declared_elements()
        if isinstance(self.group, FiniteGroup):
            return sorted(self._mats)
        return sorted(self._mats, key=word_key)

    def has(self, g) -> bool:
        key = self.group.check_element(g)
        return key in self._mats or self.action is not None

    def matrix(self, g) -> np.ndarray:
        key = self.group.check_element(g)
        m = self._lookup(key)
        if m is None:
            raise UndeclaredElementError(f"no matrix for element {word_to_str(self.group, key)}")
        return m

    def gather(self, keys: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """The matrices of checked ``keys`` that the family has, as one
        ``(k, dim, dim)`` stack, and each key's index into it (-1 where the
        family has none)."""
        found = [self._lookup(key) for key in keys]
        have = np.array([m is not None for m in found], dtype=bool)
        return _stack([m for m in found if m is not None], self.dim), np.where(have, np.cumsum(have) - 1, -1)

    def _lookup(self, key) -> np.ndarray | None:
        """The matrix of a checked key, or None when the family has none."""
        if key in self._mats:
            return self._mats[key]
        if self.action is None:
            return None
        return partial_permutations(self.action.row(key)[None])[0]


def partial_permutations(rows: np.ndarray) -> np.ndarray:
    """The 0/1 matrices of int rows by one scatter: ``m[k, w, z] = 1`` where
    ``rows[k, z] = w >= 0``."""
    k, n = rows.shape[0], rows.shape[1] - 1
    out = np.zeros((k, n, n), dtype=np.complex128)
    at, z = np.nonzero(rows[:, :n] >= 0)
    out[at, rows[at, z], z] = 1.0
    return out


class CovariantRep:
    """A function representation plus a matrix family moved by the action.

    ``phi_mats[z]`` is the image of the indicator of point ``z``; ``phi``
    extends linearly.  ``phi_mats=None`` is the standard phi on ``C^n``,
    ``phi(f) = diag(f)``, and holds no matrices.  ``v`` holds the
    group-element matrices.
    """

    def __init__(self, action: FinitePartialAction, phi_mats, v: PartialRepFamily) -> None:
        self.action = action
        self.phi_mats = None if phi_mats is None else np.asarray(phi_mats, dtype=np.complex128)
        shape = (action.n,) * 3 if phi_mats is None else self.phi_mats.shape
        if len(shape) != 3 or shape[0] != action.n:
            raise MalformedDataError("phi needs one square matrix per point")
        if shape[1] != shape[2]:
            raise MalformedDataError("phi matrices must be square")
        self.v = v
        if v.dim != shape[1]:
            raise MalformedDataError("phi and v act on different dimensions")

    @property
    def n(self) -> int:
        return self.action.n

    @property
    def dim(self) -> int:
        return self.v.dim

    @property
    def group(self) -> GroupSpec:
        return self.action.group

    def phi(self, f) -> np.ndarray:
        vec = np.asarray(f, dtype=np.complex128)
        if vec.shape != (self.n,):
            raise MalformedDataError(f"expected a length-{self.n} function")
        return np.diag(vec) if self.phi_mats is None else np.tensordot(vec, self.phi_mats, axes=1)

    def phi_indicators(self, zs) -> np.ndarray:
        """The images of the indicators of points ``zs``, one ``(k, dim, dim)``
        stack; the standard phi builds just these units by one scatter."""
        if self.phi_mats is not None:
            return self.phi_mats[zs]
        zs = np.asarray(zs, dtype=np.intp)
        out = np.zeros((len(zs), self.n, self.n), dtype=np.complex128)
        out[np.arange(len(zs)), zs, zs] = 1.0
        return out

    def phi_indicator(self, z: int) -> np.ndarray:
        return self.phi_indicators([z])[0]


def std_covariant_rep(action: FinitePartialAction) -> CovariantRep:
    """The canonical model on C^n: points to diagonal units, elements to
    partial permutation matrices of their maps."""
    return CovariantRep(action, None, PartialRepFamily(action.group, action.n, action=action))


# ---------------------------------------------------------------------------
# defect reports


@dataclass
class DefectReport:
    """Per-relation worst defects with witnesses and skipped element pairs."""

    entries: dict[str, float]
    witnesses: dict[str, str]
    skipped: list[dict]

    def max_defect(self) -> float:
        return max(self.entries.values(), default=0.0)

    def ok(self, tol: float) -> bool:
        return self.max_defect() <= tol

    def to_json(self) -> dict:
        return {
            "entries": {k: float(v) for k, v in sorted(self.entries.items())},
            "witnesses": dict(sorted(self.witnesses.items())),
            "skipped": list(self.skipped),
        }


class _Worst:
    """Tracks a running maximum with its first (hence lex-least) witness."""

    def __init__(self) -> None:
        self.value = 0.0
        self.witness = ""

    def feed(self, value: float, witness: str) -> None:
        if value > self.value:
            self.value = float(value)
            self.witness = witness

    def feed_stack(self, diffs: np.ndarray, label: Callable[[int], str]) -> None:
        """Feed the operator norms of a ``(k, d, d)`` stack in scan order,
        computing only those that ``norm_bounds`` says could raise the maximum."""
        self.feed_bounded(norm_bounds(diffs) * (1.0 + BOUND_MARGIN), diffs.__getitem__, label)

    def feed_bounded(self, bounds: np.ndarray, build: Callable, label: Callable[[int], str]) -> None:
        """Feed the operator norms of differences in scan order, given upper
        bounds on them (margin applied); ``build(idx)`` forms those at ``idx``.

        A difference whose bound does not exceed the running worst is never
        formed.  The one with the largest bound goes first, then every other
        one still above the new maximum in one stacked SVD.  The maximum and
        its first witness are those of feeding every ``op_norm`` in order;
        ``label(i)`` is called only for the winner.  A non-finite difference
        must have an infinite bound; it runs no SVD, and the first one has
        norm inf and wins unless the maximum already is inf.
        """
        if not (bounds > self.value).any():
            return
        first = int(np.argmax(bounds))
        if bounds[first] == np.inf:
            top = np.flatnonzero(bounds == np.inf)
            bad = ~np.isfinite(build(top)).all(axis=(1, 2))
            if bad.any():
                self.value = np.inf
                self.witness = label(int(top[np.argmax(bad)]))
                return
        norms = np.full(len(bounds), -np.inf)
        norms[first] = op_norms(build(np.array([first])))[0]
        rest = np.flatnonzero(bounds > max(self.value, norms[first]))
        rest = rest[rest != first]
        if rest.size:
            norms[rest] = op_norms(build(rest))
        i = int(np.argmax(norms))
        if norms[i] > self.value:
            self.value = float(norms[i])
            self.witness = label(i)


def _report(worst: Mapping[str, _Worst], skipped: list[dict]) -> DefectReport:
    return DefectReport({k: w.value for k, w in worst.items()},
                        {k: w.witness for k, w in worst.items()}, skipped)


def _stack(mats: list, d: int) -> np.ndarray:
    return np.stack(mats) if mats else np.zeros((0, d, d), dtype=np.complex128)


def _normalize_elements(group: GroupSpec, elements) -> list:
    if isinstance(elements, CheckedElements) and elements.group == group:
        return elements
    keys = [group.check_element(g) for g in elements]
    seen: dict = {}
    for k in keys:
        seen.setdefault(k, None)
    return list(seen)


def partial_rep_defects(
    v: PartialRepFamily, elements: Sequence | None = None
) -> DefectReport:
    """Worst deviations of a family from the exact element relations.

    Scans selfadjointness ``v_t* = v_{t^-1}``, the triple product law,
    commutation of range projections, and the range/product intertwining law
    over the given elements.  Pairs whose product (or inverse) has no matrix
    in the family are skipped, and counted per relation with the first one.

    The standard model of an action is settled on the action's int rows:
    its matrices are 0/1 partial permutations, so a product of them is the
    matrix of the composed map and a pair's defect is exactly zero where
    the matching row identity holds (``row_identities``; range projections
    are diagonal).  Only the other pairs form matrices, in scan order, so
    values and witnesses are those of the full scan.
    """
    group = v.group
    if elements is None:
        elements = v.elements()
    elems = _normalize_elements(group, elements)
    ident = group.identity
    if not v.has(ident):
        raise PreconditionError("family lacks the identity element")
    if v.action is None:
        unit = norm_unless_below(v.matrix(ident) - np.eye(v.dim), EXACT_TOL) <= EXACT_TOL
    else:  # a 0/1 matrix is I exactly when its map fixes every point, as an undeclared identity's does
        unit = not v.action.is_declared(ident) or np.array_equal(v.action.row(ident)[:-1], np.arange(v.dim))
    if not unit:
        raise PreconditionError("identity element is not represented by I")

    e = len(elems)
    if v.action is None:
        table = product_table(group, elems)
        mats, at, lacks, masks = _full_scan(v, table, e)
        if lacks[:e].any():
            v.matrix(elems[int(np.argmax(lacks[:e]))])
    else:
        table, rows, lacks, identities = v.action.scan(elems)
        if lacks.any():
            raise v.action.missing_error(table.keys[int(np.argmax(lacks))])
        masks = _row_settled_pairs(rows, table, identities)
        if not any(m.any() for m in masks.values()):
            return _report({k: _Worst() for k in masks}, [])
        # the matrices that the open pairs read, by one scatter from the rows
        need = np.zeros(len(rows), dtype=bool)
        need[table.inv[masks["selfadjoint"] | masks["triple_product"].any(axis=1)]] = True
        need[table.prod[masks["triple_product"] | masks["intertwine"]]] = True
        need[:e] = need.any()
        at = np.full(len(rows), -1)
        at[need] = np.arange(int(need.sum()))
        mats = partial_permutations(rows[need])
    return _report(*_scan_relations(cache(partial(word_to_str, group)), elems, table, mats, at, lacks, masks))


def _full_scan(v: PartialRepFamily, table, e: int) -> tuple:
    """The family's matrices of the table keys, their index, the keys it
    lacks, and masks of every element and pair whose defect has the data."""
    mats, at = v.gather(table.keys)
    lacks = at < 0
    return mats, at, lacks, {
        "selfadjoint": ~lacks[table.inv], "commuting_ranges": np.ones((e, e), dtype=bool),
        "triple_product": ~lacks[table.prod] & ~lacks[table.inv][:, None],
        "intertwine": ~lacks[table.prod]}


def _scan_relations(
    name: Callable, elems: list, table, mats: np.ndarray, at: np.ndarray, lacks: np.ndarray, masks: dict
) -> tuple[dict[str, _Worst], list[dict]]:
    """Feed each relation in ``masks`` over its masked elements or pairs.

    ``mats[at[k]]`` is the matrix of ``table.keys[k]``, which every masked
    defect reads.  Each relation with elements or pairs that read a key in
    ``lacks`` gets one skipped record: their count and the first of them in
    scan order.  Every relation feeds one stack per row ``s``, in scan order.
    """
    worst = {k: _Worst() for k in masks}
    inv = table.inv
    missing = {"selfadjoint": lacks[inv], "triple_product": lacks[inv][:, None] | lacks[table.prod]}
    if "intertwine" in masks:
        missing["intertwine"] = lacks[table.prod]
    skipped = [{"entry": key, "count": int(miss.sum()),
                "elements": [name(elems[i]) for i in np.unravel_index(int(np.argmax(miss)), miss.shape)]}
               for key, miss in missing.items() if miss.any()]
    if not any(m.any() for m in masks.values()):
        return worst, skipped
    stack = mats[at[: len(elems)]]
    with np.errstate(over="ignore", invalid="ignore"):
        proj = stack @ adjoints(stack) if "intertwine" in masks else None
        paired = np.flatnonzero(masks["selfadjoint"])
        worst["selfadjoint"].feed_stack(adjoints(stack[paired]) - mats[at[inv[paired]]],
                                        lambda k: name(elems[paired[k]]))
        for a, s in enumerate(elems):
            st = table.prod[a]
            for key, mask in masks.items():
                idx = np.flatnonzero(mask[a]) if mask.ndim == 2 else []
                if len(idx) == 0:
                    continue
                if key == "commuting_ranges":
                    diffs = proj[a] @ proj[idx] - proj[idx] @ proj[a]
                elif key == "triple_product":
                    vsi = mats[at[inv[a]]]
                    diffs = (vsi @ stack[a]) @ stack[idx] - vsi @ mats[at[st[idx]]]
                else:
                    vst = mats[at[st[idx]]]
                    diffs = stack[a] @ proj[idx] - (vst @ adjoints(vst)) @ stack[a]
                worst[key].feed_stack(diffs, lambda k: f"{name(s)} , {name(elems[idx[k]])}")
    return worst, skipped


def _row_settled_pairs(rows: np.ndarray, table, identities: tuple) -> dict[str, np.ndarray]:
    """Masks of the standard-model defects that row identities leave open,
    over the elements for selfadjointness and over the pairs otherwise.

    ``v_t v_t*`` is diagonal, holding the number of points ``eta_t`` sends
    to each point, so range projections commute and the intertwining law
    is ``row_identities``' range identity.
    """
    (_, ranges, triple), e, n = identities, len(table.inv), rows.shape[1] - 1
    ar = np.arange(n)
    # v_t* = v_{t^-1} exactly when each row inverts the other on its domain
    r, q = rows[:e], rows[table.inv]
    fwd = np.take_along_axis(q, r[:, :n], axis=1)
    bwd = np.take_along_axis(r, q[:, :n], axis=1)
    return {
        "selfadjoint": ~(((fwd == ar) | (r[:, :n] < 0)).all(axis=1) & ((bwd == ar) | (q[:, :n] < 0)).all(axis=1)),
        "commuting_ranges": np.zeros((e, e), dtype=bool),
        "triple_product": triple,
        "intertwine": ranges,
    }


def covariance_defects(
    rep: CovariantRep, elements: Sequence | None = None
) -> DefectReport:
    """Worst deviation of ``v_t phi(f) v_t*`` from ``phi`` of the moved
    function, over indicators of points in each element's source set.

    In the standard model ``v_t`` sends the unit at ``z`` to the unit at
    ``eta_t(z)``, so every defect is exactly zero and only the element maps
    are built; any other ``v`` or ``phi`` takes the full scan."""
    group = rep.group
    if elements is None:
        elements = rep.action.declared_elements()
    elems = _normalize_elements(group, elements)
    worst = _Worst()
    if rep.v.action is rep.action and rep.phi_mats is None:
        rep.action.map_rows(elems)  # raises the error of an element without data
    else:
        _feed_covariance(worst, rep, elems, rep.v.matrix)
    return _report({"covariance": worst}, [])


def _feed_covariance(worst: _Worst, rep: CovariantRep, elems: list, matrix: Callable) -> None:
    """Feed ``v_t phi(z) v_t* - phi(t.z)`` over the source points ``z`` of
    each ``t`` in ``elems``, in scan order.  Under the standard phi only the
    candidates of the closed-form bounds form their dense defect."""
    vs = _stack([matrix(t) for t in elems], rep.dim)
    rows = rep.action.map_rows(elems)
    at, zs = np.nonzero(rows[:, :-1] >= 0)
    ws = rows[at, zs]

    def build(idx: np.ndarray) -> np.ndarray:
        v = vs[at[idx]]
        with np.errstate(over="ignore", invalid="ignore"):
            return v @ rep.phi_indicators(zs[idx]) @ adjoints(v) - rep.phi_indicators(ws[idx])

    name = cache(partial(word_to_str, rep.group))

    def label(k: int) -> str:
        return f"{name(elems[at[k]])} @ {zs[k]}"

    if rep.phi_mats is not None:
        for i in range(len(elems)):  # one stack per element bounds the memory
            idx = np.flatnonzero(at == i)
            worst.feed_stack(build(idx), lambda k: label(idx[k]))
        return
    bounds = _rank_two_bounds(vs[at, :, zs], ws)
    bounds[~np.isfinite(vs).all(axis=(1, 2))[at]] = np.inf
    worst.feed_bounded(bounds, build, label)


def _rank_two_bounds(us: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Bounds, margin applied, on the SVD norms of the dense ``u u* - e_w e_w*``
    for the rows ``u`` of ``us`` and ``w`` in ``ws``.

    The difference is Hermitian of rank two, with trace ``a - 1`` and
    determinant ``-off`` for ``a = |u|^2`` and ``off = sum_{j != w} |u_j|^2``,
    so its norm is ``(|a - 1| + sqrt((a - 1)^2 + 4 off)) / 2``.  ``a - 1`` is
    ``(|u_w| - 1)(|u_w| + 1) + off``, so nothing cancels.  The slack adds 8
    ulps of ``a + 1``, the dense defect's rounding.  An exact unit gives 0.
    Bounds from ``1e150`` up, where a dense entry could overflow, read inf.
    """
    ar = np.arange(len(ws))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = us.real * us.real + us.imag * us.imag
        uw = np.abs(us[ar, ws])
        sq[ar, ws] = 0.0
        off = sq.sum(axis=1)
        am1 = (uw - 1.0) * (uw + 1.0) + off
        bounds = 0.5 * (np.abs(am1) + np.sqrt(am1 * am1 + 4.0 * off))
        bounds = bounds * (1.0 + BOUND_MARGIN) + 8.0 * np.finfo(float).eps * (am1 + 2.0)
    bounds[(us[ar, ws] == 1.0) & (np.count_nonzero(us, axis=1) == 1)] = 0.0
    bounds[~(bounds < 1e150)] = np.inf
    return bounds


# ---------------------------------------------------------------------------
# perturbation to exact partial isometries


@dataclass
class PerturbationCertificate:
    """Certified distances and relation defects for a rounded family."""

    eta: float
    entries: dict[str, float]
    bounds: dict[str, float]
    witnesses: dict[str, str]
    per_element: dict[str, float]
    skipped: list[dict]
    contraction_constant: float | None
    ok: bool

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "entries": {k: float(v) for k, v in sorted(self.entries.items())},
            "bounds": {k: float(v) for k, v in sorted(self.bounds.items())},
            "witnesses": dict(sorted(self.witnesses.items())),
            "per_element": dict(sorted(self.per_element.items())),
            "skipped": list(self.skipped),
            "contraction_constant": self.contraction_constant,
            "ok": self.ok,
        }


def perturb_to_partial_isometries(
    v: PartialRepFamily,
    eta: float,
    rep: CovariantRep | None = None,
    elements: Sequence | None = None,
) -> tuple[PartialRepFamily, PerturbationCertificate]:
    """Round near partial isometries to exact ones, certifying the bounds.

    Each matrix is replaced by ``w x`` where ``w = v p`` compresses by the
    spectral rounding ``p`` of ``v* v`` and ``x`` is the corner inverse root
    of ``w* w``.  Requires ``0 < eta < 1/8``, per-element defect
    ``||v v* v - v|| < 2 eta`` and ``||v|| <= 1 + eta``.  The certificate
    asserts distance ``< 10 eta``, adjoint mismatch ``< 21 eta``, triple
    defect ``< 51 eta`` and, when a function representation is supplied,
    covariance ``< 21 eta (1 + C)`` with ``C`` the largest tested
    ``||phi(indicator)||``.
    """
    if not (0.0 < eta < 0.125):
        raise PreconditionError("eta must lie strictly between 0 and 1/8")
    group = v.group
    if elements is None:
        elements = v.elements()
    elems = _normalize_elements(group, elements)
    ident = group.identity
    if ident not in elems:
        elems = [ident] + elems
    if not v.has(ident):
        raise PreconditionError("family must represent the identity by I")
    if norm_unless_below(v.matrix(ident) - np.eye(v.dim), EXACT_TOL) > EXACT_TOL:
        raise PreconditionError("family must represent the identity by I")

    table = product_table(group, elems)
    name = {t: word_to_str(group, t) for t in elems}
    moved = [t for t in elems if t != ident]
    labels = [name[t] for t in moved]
    vs = _stack([v.matrix(t) for t in moved], v.dim)
    # one stack per stage, over the elements that passed every earlier stage
    passed = Prefix(len(vs))
    with np.errstate(over="ignore", invalid="ignore"):
        triple = vs @ adjoints(vs) @ vs - vs
    defects = norms_unless_below(triple, 2.0 * eta)
    passed.cut(defects >= 2.0 * eta, lambda k: PreconditionError(
        f"partial-isometry defect {defects[k]:.3g} of {labels[k]} is not below 2*eta"))
    # the defect is the largest |s^3 - s| over v's singular values s, and
    # s^3 - s grows past 1 to 2 eta + 3 eta^2 + eta^3 at 1 + eta: a defect
    # bound below that, with slack for the triple product's rounding, puts
    # ||v|| below 1 + eta without an SVD
    upper = np.where(defects > 0.0, defects, frobenius_norms(triple))[: passed.n]
    slack = 8.0 * (v.dim + 2) * np.finfo(float).eps * (1.0 + frobenius_norms(vs[: passed.n])) ** 3
    norms = np.zeros(passed.n)
    need = np.flatnonzero(~(upper * (1.0 + BOUND_MARGIN) + slack < eta * (2.0 + eta * (3.0 + eta))))
    norms[need] = op_norms(vs[need])
    passed.cut(norms > 1.0 + eta + NORM_SLACK, lambda k: PreconditionError(
        f"||v|| = {norms[k]:.6g} of {labels[k]} exceeds 1 + eta"))
    live = vs[: passed.n]
    p = passed.take(*nearest_projections(adjoints(live) @ live))
    w = live[: len(p)] @ p
    x = passed.take(*corner_inv_sqrts(w, p))
    if passed.error is not None:
        raise passed.error
    us = w @ x
    out: dict = {ident: np.eye(v.dim, dtype=np.complex128), **dict(zip(moved, us))}

    dists = op_norms(us - vs)
    per_element = {name[ident]: 0.0, **dict(zip(labels, dists.tolist()))}
    dist = _Worst()
    for label, d in zip(labels, dists.tolist()):
        dist.feed(d, label)
    pi_worst = _Worst()
    pi_worst.feed_stack(us @ adjoints(us) @ us - us, labels.__getitem__)

    family = PartialRepFamily(group, v.dim, mats=out)
    mats, at, lacks, masks = _full_scan(family, table, len(elems))
    scans, skipped = _scan_relations(name.__getitem__, elems, table, mats, at, lacks,
                                     {k: masks[k] for k in ("selfadjoint", "triple_product")})
    worst = {"distance_bound": dist, "pi_defect": pi_worst, **scans}
    bounds = {"distance_bound": 10.0 * eta, "pi_defect": PI_TOL, "selfadjoint": 21.0 * eta,
              "triple_product": 51.0 * eta}

    contraction = None
    if rep is not None:
        if rep.phi_mats is None:
            contraction = float(rep.n > 0)  # the norm of a diagonal unit
        else:
            largest = _Worst()
            largest.feed_stack(rep.phi_mats, str)
            contraction = largest.value
        worst["covariance"] = cov = _Worst()
        _feed_covariance(cov, rep, moved, out.__getitem__)
        bounds["covariance"] = 21.0 * eta * (1.0 + contraction)

    entries = {k: w.value for k, w in worst.items()}
    cert = PerturbationCertificate(
        eta=float(eta),
        entries=entries,
        bounds=bounds,
        witnesses={k: w.witness for k, w in worst.items()},
        per_element=per_element,
        skipped=skipped,
        contraction_constant=None if contraction is None else float(contraction),
        ok=all(entries[k] <= bounds[k] for k in bounds),
    )
    return family, cert


# ---------------------------------------------------------------------------
# fiber-map families


def exact_bundle_family(rep: CovariantRep, elements: Sequence | None = None) -> dict:
    """Fiber maps of the model: indicator at ``z`` in fiber ``t`` goes to
    ``phi(indicator) v_t``; zero outside the fiber's support."""
    group = rep.group
    if elements is None:
        elements = rep.action.declared_elements()
    elems = _normalize_elements(group, elements)
    ident = group.identity
    if ident not in elems:
        elems = [ident] + elems
    rep.action.map_rows(elems)
    out: dict = {}
    for t in elems:
        vt = rep.v.matrix(t)
        arr = np.zeros((rep.n, rep.dim, rep.dim), dtype=np.complex128)
        for z in rep.action.support(t):
            arr[z] = rep.phi_indicator(z) @ vt
        out[t] = arr
    return out


# ---------------------------------------------------------------------------
# extraction of the underlying finite system


@dataclass
class ExtractedSystem:
    """A finite system recovered from a covariant representation."""

    action: FinitePartialAction
    rho: tuple[int, ...]
    multiplicities: tuple[int, ...]
    report: dict


def extract_finite_system(
    rep: CovariantRep,
    elements: Sequence | None = None,
) -> ExtractedSystem:
    """Recover points, supports, and maps from a covariant representation.

    Points of the recovered system are the joint spectral blocks of the
    commuting family ``phi(indicator)``; supports and maps come from
    conjugating those blocks by the element matrices.  The declared action
    only supplies the default element list.  Works on exact or nearly exact
    representations; ambiguous spectra raise.  ``CHAR_TOL`` bounds the
    commutators and eigenvalue clusters of the ``phi`` images, and
    ``MATCH_TOL`` a moved character's distance to its image.
    """
    group = rep.group
    n, d = rep.n, rep.dim
    P = rep.phi_indicators(np.arange(n))
    skew = np.flatnonzero(norms_unless_below(P - adjoints(P), AXIOM_TOL) > AXIOM_TOL)
    if skew.size:
        raise PreconditionError(f"phi(indicator {skew[0]}) is not Hermitian")
    for x in range(n):
        if (norms_unless_below(P[x] @ P[x + 1 :] - P[x + 1 :] @ P[x], CHAR_TOL) > CHAR_TOL).any():
            raise PreconditionError("phi images do not commute; no joint spectrum")

    # recursive joint block refinement
    blocks: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    tuples: list[list[float]] = [[]]
    for x in range(n):
        new_blocks: list[np.ndarray] = []
        new_tuples: list[list[float]] = []
        for basis, tup in zip(blocks, tuples):
            comp = basis.conj().T @ P[x] @ basis
            vals, vecs = herm_eig(comp, herm_tol=EXTRACT_HERM_TOL, cluster_tol=CHAR_TOL)
            for i, j in clusters(vals, CHAR_TOL):
                new_blocks.append(basis @ vecs[:, i:j])
                new_tuples.append(tup + [float(np.mean(vals[i:j]))])
        blocks, tuples = new_blocks, new_tuples

    # characters: blocks whose tuple is (near) an indicator of a source point
    chars: list[tuple[int, np.ndarray, int]] = []  # (source point, projection, multiplicity)
    for basis, tup in zip(blocks, tuples):
        arr = np.asarray(tup)
        if arr.max(initial=0.0) <= 0.5:
            if arr.max(initial=0.0) > 100 * CHAR_TOL:
                raise PreconditionError("joint eigenvalue tuple neither zero nor a character")
            continue  # kernel block, not a character
        x_star = int(np.argmax(arr))
        rest = np.delete(arr, x_star)
        if abs(arr[x_star] - 1.0) > 100 * CHAR_TOL or (rest.size and np.abs(rest).max() > 100 * CHAR_TOL):
            raise PreconditionError("joint eigenvalue tuple is not an indicator character")
        chars.append((x_star, basis @ basis.conj().T, basis.shape[1]))

    # merge blocks that landed on the same character
    merged: dict[int, tuple[np.ndarray, int]] = {}
    for x_star, proj, mult in chars:
        prev_proj, prev_mult = merged.get(x_star, (0, 0))
        merged[x_star] = (prev_proj + proj, prev_mult + mult)
    order = sorted(merged)
    rho = tuple(order)
    multiplicities = tuple(merged[x][1] for x in order)
    index_of = {x: i for i, x in enumerate(order)}
    k = len(order)

    if elements is None:
        elements = rep.action.declared_elements()
    elems = _normalize_elements(group, elements)

    # sources and images come from (phi, v) alone: x is a source of t when
    # v_t moves its character somewhere, and its image is the nearest one
    maps: dict = {}
    for t in elems:
        if t == group.identity:
            continue
        vt = rep.v.matrix(t)
        eta: dict[int, int] = {}
        for x in order:
            q = vt @ merged[x][0] @ vt.conj().T
            if norm_unless_below(q, MATCH_TOL) <= MATCH_TOL:
                continue
            best, best_dist = None, np.inf
            for y in order:
                dist_y = op_norm(q - merged[y][0])
                if dist_y < best_dist:
                    best, best_dist = y, dist_y
            if best is None or best_dist > MATCH_TOL:
                raise PreconditionError(
                    f"no image character within tolerance for point {x} under {word_to_str(group, t)}"
                )
            eta[index_of[x]] = index_of[best]
        maps[t] = eta

    action = FinitePartialAction(group, k, maps)
    radius = 1
    if isinstance(group, FreeGroup):
        radius = max((len(t) for t in elems), default=1)
    report = validate(action, radius=radius)
    if not report.ok:
        raise PreconditionError("extracted data does not satisfy the axioms")
    diag = {
        "points": k,
        "multiplicities": list(multiplicities),
        "validation_ok": report.ok,
    }
    return ExtractedSystem(action=action, rho=rho, multiplicities=multiplicities, report=diag)
