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
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .actions import (
    DualSystem,
    FinitePartialAction,
    validate,
)
from .groups import (
    FiniteGroup,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    word_key,
    word_to_str,
)
from .matrices import (
    AXIOM_TOL,
    BOUND_MARGIN,
    EXACT_TOL,
    PI_TOL,
    PreconditionError,
    corner_inv_sqrt,
    herm_eig,
    nearest_projection,
    norm_bounds,
    norm_unless_below,
    op_norm,
    op_norms,
)


class PartialRepFamily:
    """Matrices indexed by group elements; the identity must map to I.

    Families are either declared (a finite dict of matrices) or backed by a
    rule that produces the matrix of any element on demand, which is how the
    standard model covers whole balls of a free group.
    """

    def __init__(
        self,
        group: GroupSpec,
        dim: int,
        mats: Mapping | None = None,
        rule: Callable | None = None,
    ) -> None:
        self.group = group
        self.dim = dim
        self.rule = rule
        self._mats: dict = {}
        self._cache: dict = {}
        for g, m in (mats or {}).items():
            key = group.check_element(g)
            a = np.asarray(m, dtype=np.complex128)
            if a.shape != (dim, dim):
                raise MalformedDataError(
                    f"matrix for {word_to_str(group, key)} has shape {a.shape}, wanted {(dim, dim)}"
                )
            self._mats[key] = a

    def elements(self) -> list:
        if isinstance(self.group, FiniteGroup):
            return sorted(self._mats)
        return sorted(self._mats, key=word_key)

    def has(self, g) -> bool:
        key = self.group.check_element(g)
        return key in self._mats or self.rule is not None

    def matrix(self, g) -> np.ndarray:
        key = self.group.check_element(g)
        if key in self._mats:
            return self._mats[key]
        if self.rule is None:
            raise UndeclaredElementError(f"no matrix for element {word_to_str(self.group, key)}")
        if key not in self._cache:
            a = np.asarray(self.rule(key), dtype=np.complex128)
            if a.shape != (self.dim, self.dim):
                raise MalformedDataError("rule produced a matrix of the wrong shape")
            self._cache[key] = a
        return self._cache[key]


class CovariantRep:
    """A function representation plus a matrix family moved by the action.

    ``phi_mats[z]`` is the image of the indicator of point ``z``; ``phi``
    extends linearly.  ``v`` holds the group-element matrices.
    """

    def __init__(self, dual: DualSystem, phi_mats, v: PartialRepFamily) -> None:
        self.dual = dual
        self.phi_mats = np.asarray(phi_mats, dtype=np.complex128)
        if self.phi_mats.ndim != 3 or self.phi_mats.shape[0] != dual.n:
            raise MalformedDataError("phi needs one square matrix per point")
        if self.phi_mats.shape[1] != self.phi_mats.shape[2]:
            raise MalformedDataError("phi matrices must be square")
        self.v = v
        if v.dim != self.phi_mats.shape[1]:
            raise MalformedDataError("phi and v act on different dimensions")

    @property
    def n(self) -> int:
        return self.dual.n

    @property
    def dim(self) -> int:
        return self.v.dim

    @property
    def group(self) -> GroupSpec:
        return self.dual.group

    def phi(self, f) -> np.ndarray:
        vec = np.asarray(f, dtype=np.complex128)
        if vec.shape != (self.n,):
            raise MalformedDataError(f"expected a length-{self.n} function")
        return np.tensordot(vec, self.phi_mats, axes=1)

    def phi_indicator(self, z: int) -> np.ndarray:
        return self.phi_mats[z]


def std_covariant_rep(action: FinitePartialAction) -> CovariantRep:
    """The canonical model on C^n: points to diagonal units, elements to
    partial permutation matrices of their maps."""
    d = action.n
    phi = np.zeros((d, d, d), dtype=np.complex128)
    for z in range(d):
        phi[z, z, z] = 1.0

    def rule(key):
        m = np.zeros((d, d), dtype=np.complex128)
        for z, w in action.element_map(key).pairs:
            m[w, z] = 1.0
        return m

    v = PartialRepFamily(action.group, d, rule=rule)
    return CovariantRep(DualSystem(action), phi, v)


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
        computing only those that could raise the maximum.

        A norm whose ``norm_bounds`` entry (with the margin) does not exceed
        the running worst is never computed.  The candidate with the largest
        bound goes first, then every other candidate still above the new
        maximum in one stacked SVD.  The maximum and its first witness are
        those of feeding every ``op_norm`` in order; ``label(i)`` is called
        only for the winning index.  Exact zeros always skip, non-finite
        differences always reach the SVD.
        """
        bounds = norm_bounds(diffs) * (1.0 + BOUND_MARGIN)
        must = ~np.isfinite(bounds)
        could = (bounds > self.value) | must
        if not could.any():
            return
        norms = np.full(len(bounds), -np.inf)
        first = int(np.argmax(bounds))
        norms[first] = op_norms(diffs[first : first + 1])[0]
        could &= (bounds > max(self.value, norms[first])) | must
        could[first] = False
        if could.any():
            norms[could] = op_norms(diffs[could])
        norms[np.isnan(norms)] = -np.inf  # a NaN norm never wins
        i = int(np.argmax(norms))
        if norms[i] > self.value:
            self.value = float(norms[i])
            self.witness = label(i)


def _stack(mats: list, d: int) -> np.ndarray:
    return np.stack(mats) if mats else np.zeros((0, d, d), dtype=np.complex128)


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _row_label(name: Mapping, s, ts: Sequence, k: int) -> str:
    return f"{name[s]} , {name[ts[k]]}"


def _normalize_elements(group: GroupSpec, elements) -> list:
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
    in the family are skipped and recorded.
    """
    group = v.group
    if elements is None:
        elements = v.elements()
    elems = _normalize_elements(group, elements)
    ident = group.identity
    if not v.has(ident):
        raise PreconditionError("family lacks the identity element")
    if norm_unless_below(v.matrix(ident) - np.eye(v.dim), EXACT_TOL) > EXACT_TOL:
        raise PreconditionError("identity element is not represented by I")

    mats: dict = {}
    for t in elems:
        mats[t] = v.matrix(t)

    def get(g):
        if g in mats:
            return mats[g]
        if v.has(g):
            return v.matrix(g)
        return None

    selfadj = _Worst()
    triple = _Worst()
    ranges = _Worst()
    intertwine = _Worst()
    skipped: list[dict] = []

    name = {t: word_to_str(group, t) for t in elems}
    # every scan feeds one stack per row s, over the t that have the data
    stack = _stack([mats[t] for t in elems], v.dim)
    proj = stack @ _adjoints(stack)

    have = []
    for i, t in enumerate(elems):
        vti = get(group.inverse(t))
        if vti is None:
            skipped.append({"entry": "selfadjoint", "elements": [name[t]]})
        else:
            have.append((i, vti))
    diffs = _adjoints(stack[[i for i, _ in have]]) - _stack([m for _, m in have], v.dim)
    selfadj.feed_stack(diffs, lambda k: name[elems[have[k][0]]])

    for a, s in enumerate(elems):
        vsi = get(group.inverse(s))
        have = []
        for i, t in enumerate(elems):
            vst = get(group.multiply(s, t))
            if vsi is None or vst is None:
                skipped.append({"entry": "triple_product", "elements": [name[s], name[t]]})
            if vst is None:
                skipped.append({"entry": "intertwine", "elements": [name[s], name[t]]})
            else:
                have.append((i, vst))
        ps = proj[a]
        ranges.feed_stack(ps @ proj - proj @ ps, partial(_row_label, name, s, elems))
        idx = [i for i, _ in have]
        vst = _stack([m for _, m in have], v.dim)
        label = partial(_row_label, name, s, [elems[i] for i in idx])
        if vsi is not None:
            triple.feed_stack((vsi @ stack[a]) @ stack[idx] - vsi @ vst, label)
        est = vst @ _adjoints(vst)
        intertwine.feed_stack(stack[a] @ proj[idx] - est @ stack[a], label)

    entries = {
        "selfadjoint": selfadj.value,
        "triple_product": triple.value,
        "commuting_ranges": ranges.value,
        "intertwine": intertwine.value,
    }
    witnesses = {
        "selfadjoint": selfadj.witness,
        "triple_product": triple.witness,
        "commuting_ranges": ranges.witness,
        "intertwine": intertwine.witness,
    }
    return DefectReport(entries=entries, witnesses=witnesses, skipped=skipped)


def covariance_defects(
    rep: CovariantRep, elements: Sequence | None = None
) -> DefectReport:
    """Worst deviation of ``v_t phi(f) v_t*`` from ``phi`` of the moved
    function, over indicators of points in each element's source set."""
    dual = rep.dual
    group = rep.group
    if elements is None:
        elements = dual.action.declared_elements()
    elems = _normalize_elements(group, elements)
    worst = _Worst()
    for t in elems:
        _feed_covariance(worst, rep, group, t, rep.v.matrix(t))
    return DefectReport(
        entries={"covariance": worst.value},
        witnesses={"covariance": worst.witness},
        skipped=[],
    )


def _feed_covariance(
    worst: _Worst, rep: CovariantRep, group: GroupSpec, t, vt: np.ndarray
) -> None:
    """Feed ``v_t phi(z) v_t* - phi(t.z)`` over the source points ``z`` of ``t``."""
    pairs = rep.dual.action.element_map(t).pairs
    zs = [z for z, _ in pairs]
    ws = [w for _, w in pairs]
    diffs = vt @ rep.phi_mats[zs] @ vt.conj().T - rep.phi_mats[ws]
    worst.feed_stack(diffs, lambda k: f"{word_to_str(group, t)} @ {zs[k]}")


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

    name = {t: word_to_str(group, t) for t in elems}
    moved = [t for t in elems if t != ident]
    labels = [name[t] for t in moved]
    vs = _stack([v.matrix(t) for t in moved], v.dim)
    # a non-finite family keeps the per-element order of its SVD errors
    norms = op_norms(vs) if np.isfinite(vs).all() else None
    out: dict = {ident: np.eye(v.dim, dtype=np.complex128)}
    for k, (t, label) in enumerate(zip(moved, labels)):
        vt = v.matrix(t)
        defect = norm_unless_below(vt @ vt.conj().T @ vt - vt, 2.0 * eta)
        if defect >= 2.0 * eta:
            raise PreconditionError(
                f"partial-isometry defect {defect:.3g} of {label} is not below 2*eta"
            )
        norm = op_norm(vt) if norms is None else float(norms[k])
        if norm > 1.0 + eta + 1e-13:
            raise PreconditionError(f"||v|| = {norm:.6g} of {label} exceeds 1 + eta")
        q = vt.conj().T @ vt
        p = nearest_projection(q)
        w = vt @ p
        x = corner_inv_sqrt(w, p)
        out[t] = w @ x

    us = _stack([out[t] for t in moved], v.dim)
    dists = op_norms(us - vs)
    per_element = {name[ident]: 0.0, **dict(zip(labels, dists.tolist()))}
    dist = _Worst()
    for label, d in zip(labels, dists.tolist()):
        dist.feed(d, label)
    pi_worst = _Worst()
    pi_worst.feed_stack(us @ _adjoints(us) @ us - us, labels.__getitem__)

    family = PartialRepFamily(group, v.dim, mats=out)
    entries: dict[str, float] = {
        "distance_bound": dist.value,
        "pi_defect": pi_worst.value,
    }
    witnesses = {"distance_bound": dist.witness, "pi_defect": pi_worst.witness}
    bounds: dict[str, float] = {
        "distance_bound": 10.0 * eta,
        "pi_defect": PI_TOL,
    }

    selfadj = _Worst()
    triple = _Worst()
    skipped: list[dict] = []
    pos = {t: i for i, t in enumerate(elems)}
    stack = _stack([out[t] for t in elems], v.dim)
    have = []
    for t in elems:
        ti = group.inverse(t)
        if ti in out:
            have.append((t, pos[ti]))
        else:
            skipped.append({"entry": "selfadjoint", "elements": [name[t]]})
    diffs = _adjoints(stack[[pos[t] for t, _ in have]]) - stack[[i for _, i in have]]
    selfadj.feed_stack(diffs, lambda k: name[have[k][0]])
    for s in elems:
        si = group.inverse(s)
        have = []
        for t in elems:
            st = group.multiply(s, t)
            if si not in out or st not in out:
                skipped.append({"entry": "triple_product", "elements": [name[s], name[t]]})
            else:
                have.append((t, pos[st]))
        if have:
            ts = [t for t, _ in have]
            lhs = (out[si] @ out[s]) @ stack[[pos[t] for t in ts]]
            rhs = out[si] @ stack[[i for _, i in have]]
            triple.feed_stack(lhs - rhs, partial(_row_label, name, s, ts))
    entries["selfadjoint"] = selfadj.value
    entries["triple_product"] = triple.value
    witnesses["selfadjoint"] = selfadj.witness
    witnesses["triple_product"] = triple.witness
    bounds["selfadjoint"] = 21.0 * eta
    bounds["triple_product"] = 51.0 * eta

    contraction = None
    if rep is not None:
        largest = _Worst()
        largest.feed_stack(rep.phi_mats, str)
        contraction = largest.value
        cov = _Worst()
        for t in moved:
            _feed_covariance(cov, rep, group, t, out[t])
        entries["covariance"] = cov.value
        witnesses["covariance"] = cov.witness
        bounds["covariance"] = 21.0 * eta * (1.0 + contraction)

    ok = all(entries[k] <= bounds[k] for k in bounds)
    cert = PerturbationCertificate(
        eta=float(eta),
        entries=entries,
        bounds=bounds,
        witnesses=witnesses,
        per_element=per_element,
        skipped=skipped,
        contraction_constant=None if contraction is None else float(contraction),
        ok=ok,
    )
    return family, cert


# ---------------------------------------------------------------------------
# fiber-map families


def symmetrize(family: Mapping, dual: DualSystem) -> dict:
    """Average a fiber-map family with its adjoint-reflected counterpart.

    Output satisfies ``out_t(b)* = out_{t^-1}(b*)`` exactly and the map is
    idempotent.  The element set must be closed under inverses.
    """
    group = dual.group
    fam = {group.check_element(g): np.asarray(m, dtype=np.complex128) for g, m in family.items()}
    for t in fam:
        if group.inverse(t) not in fam:
            raise MalformedDataError("fiber family element set must be inverse-closed")
    out: dict = {}
    for t, arr in fam.items():
        ti = group.inverse(t)
        back = dual.action.element_map(ti).as_dict()  # V_t -> V_{t^-1}
        res = np.zeros_like(arr)
        for z in dual.support(t):
            res[z] = 0.5 * (arr[z] + fam[ti][back[z]].conj().T)
        out[t] = res
    return out


def exact_bundle_family(rep: CovariantRep, elements: Sequence | None = None) -> dict:
    """Fiber maps of the model: indicator at ``z`` in fiber ``t`` goes to
    ``phi(indicator) v_t``; zero outside the fiber's support."""
    group = rep.group
    if elements is None:
        elements = rep.dual.action.declared_elements()
    elems = _normalize_elements(group, elements)
    ident = group.identity
    if ident not in elems:
        elems = [ident] + elems
    out: dict = {}
    for t in elems:
        vt = rep.v.matrix(t)
        arr = np.zeros((rep.n, rep.dim, rep.dim), dtype=np.complex128)
        for z in rep.dual.support(t):
            arr[z] = rep.phi_mats[z] @ vt
        out[t] = arr
    return out


def bundle_rep_to_covariant(family: Mapping, dual: DualSystem) -> CovariantRep:
    """Repackage a fiber-map family as (phi, v): phi is the identity fiber's
    map, v_t the image of the fiber's unit indicator."""
    group = dual.group
    fam = {group.check_element(g): np.asarray(m, dtype=np.complex128) for g, m in family.items()}
    ident = group.identity
    if ident not in fam:
        raise MalformedDataError("family needs the identity fiber")
    phi_mats = fam[ident]
    if phi_mats.ndim != 3 or phi_mats.shape[0] != dual.n:
        raise MalformedDataError("identity fiber map has the wrong shape")
    d = phi_mats.shape[1]
    mats = {}
    for t, arr in fam.items():
        m = np.zeros((d, d), dtype=np.complex128)
        for z in dual.support(t):
            m = m + arr[z]
        mats[t] = m
    return CovariantRep(dual, phi_mats, PartialRepFamily(group, d, mats=mats))


def positivity_flag(rep: CovariantRep, trials: int = 8, seed: int = 0, tol: float = AXIOM_TOL) -> bool:
    """Whether phi sends sampled nonnegative functions to PSD matrices."""
    rng = np.random.default_rng(seed)
    tests = [np.ones(rep.n)]
    tests.extend(rng.random(rep.n) for _ in range(trials))
    for z in range(rep.n):
        f = np.zeros(rep.n)
        f[z] = 1.0
        tests.append(f)
    for f in tests:
        m = rep.phi(f)
        m = 0.5 * (m + m.conj().T)
        vals = np.linalg.eigvalsh(m)
        if vals.min() < -tol:
            return False
    return True


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
    char_tol: float = 1e-7,
    match_tol: float = 1e-6,
) -> ExtractedSystem:
    """Recover points, supports, and maps from a covariant representation.

    Points of the recovered system are the joint spectral blocks of the
    commuting family ``phi(indicator)``; supports and maps come from
    conjugating those blocks by the element matrices.  The declared action
    only supplies the default element list.  Works on exact or nearly exact
    representations; ambiguous spectra raise.
    """
    group = rep.group
    n, d = rep.n, rep.dim
    P = [np.asarray(rep.phi_mats[x]) for x in range(n)]
    for x in range(n):
        if norm_unless_below(P[x] - P[x].conj().T, AXIOM_TOL) > AXIOM_TOL:
            raise PreconditionError(f"phi(indicator {x}) is not Hermitian")
    for x in range(n):
        for y in range(x + 1, n):
            if norm_unless_below(P[x] @ P[y] - P[y] @ P[x], char_tol) > char_tol:
                raise PreconditionError("phi images do not commute; no joint spectrum")

    # recursive joint block refinement
    blocks: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    tuples: list[list[float]] = [[]]
    for x in range(n):
        new_blocks: list[np.ndarray] = []
        new_tuples: list[list[float]] = []
        for basis, tup in zip(blocks, tuples):
            comp = basis.conj().T @ P[x] @ basis
            vals, vecs = herm_eig(comp, herm_tol=1e-6, cluster_tol=char_tol)
            k = len(vals)
            i = 0
            while i < k:
                j = i + 1
                while j < k and vals[j] - vals[j - 1] <= char_tol:
                    j += 1
                new_blocks.append(basis @ vecs[:, i:j])
                new_tuples.append(tup + [float(np.mean(vals[i:j]))])
                i = j
        blocks, tuples = new_blocks, new_tuples

    # characters: blocks whose tuple is (near) an indicator of a source point
    chars: list[tuple[int, np.ndarray, int]] = []  # (source point, projection, multiplicity)
    for basis, tup in zip(blocks, tuples):
        arr = np.asarray(tup)
        if arr.max(initial=0.0) <= 0.5:
            if arr.max(initial=0.0) > 100 * char_tol:
                raise PreconditionError("joint eigenvalue tuple neither zero nor a character")
            continue  # kernel block, not a character
        x_star = int(np.argmax(arr))
        rest = np.delete(arr, x_star)
        if abs(arr[x_star] - 1.0) > 100 * char_tol or (rest.size and np.abs(rest).max() > 100 * char_tol):
            raise PreconditionError("joint eigenvalue tuple is not an indicator character")
        chars.append((x_star, basis @ basis.conj().T, basis.shape[1]))

    # merge blocks that landed on the same character
    merged: dict[int, tuple[np.ndarray, int]] = {}
    for x_star, proj, mult in chars:
        if x_star in merged:
            prev_proj, prev_mult = merged[x_star]
            merged[x_star] = (prev_proj + proj, prev_mult + mult)
        else:
            merged[x_star] = (proj, mult)
    order = sorted(merged)
    rho = tuple(order)
    projections = [merged[x][0] for x in order]
    multiplicities = tuple(merged[x][1] for x in order)
    index_of = {x: i for i, x in enumerate(order)}
    k = len(order)

    if elements is None:
        elements = rep.dual.action.declared_elements()
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
            if norm_unless_below(q, match_tol) <= match_tol:
                continue
            best, best_dist = None, np.inf
            for y in order:
                dist_y = op_norm(q - merged[y][0])
                if dist_y < best_dist:
                    best, best_dist = y, dist_y
            if best is None or best_dist > match_tol:
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
