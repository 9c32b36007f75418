"""Finitely supported sections over an action's function bundle and the
finite-group matrix model of their convolution algebra.

A section assigns to finitely many group elements a coefficient function
supported in that element's set.  Convolution twists coefficients through
the action; the star pulls them back along inverses.  Over a finite group
the whole algebra embeds faithfully in matrices by tensoring the standard
model with left-translation permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .actions import FinitePartialAction, _hits
from .groups import (
    FiniteGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    sorted_elements,
    word_to_str,
)
from .matrices import AXIOM_TOL, POSITIVITY_TOL, PreconditionError, adjoints, op_norm, op_norms
from .reps import CovariantRep, DefectReport, _stack, _Worst, std_covariant_rep

MAX_MODEL_SIZE = 512  # n * |G| bound on the square matrices of image, so of reduced_norm
MAX_VIOLATIONS = 20  # violation records a bundle-axiom report keeps


class Section:
    """Finitely supported coefficient family ``t -> function in C_0(V_t)``."""

    def __init__(self, group: GroupSpec, n: int, terms: Mapping | None = None) -> None:
        self.group = group
        self.n = n
        self.terms: dict = {}
        for g, vec in (terms or {}).items():
            key = group.check_element(g)
            a = np.asarray(vec, dtype=np.complex128)
            if a.shape != (n,):
                raise MalformedDataError(f"coefficient of {word_to_str(group, key)} must have length {n}")
            if np.any(a != 0):
                self.terms[key] = a

    @staticmethod
    def build(action: FinitePartialAction, terms: Mapping) -> "Section":
        """Construct and enforce the support condition exactly."""
        x = Section(action.group, action.n, terms)
        for t, vec in x.terms.items():
            outside = np.ones(action.n + 1, dtype=bool)
            outside[action.row(t)] = False  # -1 clears the last entry, which is dropped
            bad = np.flatnonzero((vec != 0) & outside[:-1]).tolist()
            if bad:
                raise MalformedDataError(
                    f"coefficient of {word_to_str(action.group, t)} is nonzero outside its set at {bad}"
                )
        return x

    def elements(self) -> list:
        return sorted_elements(self.group, self.terms)

    def coeff(self, g) -> np.ndarray:
        key = self.group.check_element(g)
        return self.terms.get(key, np.zeros(self.n, dtype=np.complex128))

    def is_zero(self) -> bool:
        return all(not np.any(v) for v in self.terms.values())

    def sup_norm(self) -> float:
        best = 0.0
        for v in self.terms.values():
            best = max(best, float(np.abs(v).max(initial=0.0)))
        return best


def section_mul(x: Section, y: Section, action: FinitePartialAction) -> Section:
    """Convolution: the sum of the fiber products ``alpha_s(alpha_{s^-1}(a) b)``
    at ``st`` of all term pairs, each left coefficient pulled back once."""
    out: dict = {}
    for s, a in x.terms.items():
        pulled = action.apply(action.group.inverse(s), a)
        for t, b in y.terms.items():
            c, st = action.apply(s, pulled * b), action.group.multiply(s, t)
            out[st] = out[st] + c if st in out else c
    return Section(action.group, action.n, out)


def section_star(x: Section, action: FinitePartialAction) -> Section:
    """Adjoint: the sum of the terms' fiber stars."""
    out: dict = {}
    for s, a in x.terms.items():
        c, si = action.star_fiber((a, s))
        out[si] = out[si] + c if si in out else c
    return Section(action.group, action.n, out)


def expectation(x: Section) -> np.ndarray:
    """Coefficient at the identity; a positive faithful conditional map."""
    return x.coeff(x.group.identity)


# ---------------------------------------------------------------------------
# matrix model over a finite group


class CrossedProductModel:
    """Faithful matrix model of the section algebra of a finite-group action.

    A term ``a`` at element ``s`` maps to ``phi(a) v_s (x) lambda_s`` where
    lambda is left translation; the basis is enumerated point-major, then by
    group element.  Everything but ``image`` reads the int rows of the
    action's scan of the whole group, so the model and its centre share one
    pass; ``rep`` is built on first use.
    """

    def __init__(self, action: FinitePartialAction) -> None:
        group = action.group
        if not isinstance(group, FiniteGroup):
            raise MalformedDataError("matrix models require a finite group")
        self.action = action
        self.group = group
        _, self.rows, lacks, self._identities = action.scan(list(range(group.order)))
        if lacks.any():
            raise action.missing_error(int(np.argmax(lacks)))
        z, t = np.nonzero(_hits(self.rows)[:, : action.n].T)
        self.basis: list[tuple[int, int]] = list(zip(z.tolist(), t.tolist()))

    @cached_property
    def rep(self) -> CovariantRep:
        return std_covariant_rep(self.action)

    @property
    def model_size(self) -> int:
        return self.action.n * self.group.order

    def image(self, x: Section) -> np.ndarray:
        if self.model_size > MAX_MODEL_SIZE:
            raise MalformedDataError("model matrices would be too large")
        m = self.group.order
        total = np.zeros((self.model_size, self.model_size), dtype=np.complex128)
        for t, a in x.terms.items():
            key = self.group.check_element(t)
            lam = np.zeros((m, m), dtype=np.complex128)
            lam[self.group.table[key], np.arange(m)] = 1.0
            total = total + np.kron(self.rep.phi(a) @ self.rep.v.matrix(key), lam)
        return total

    def dimension(self) -> int:
        """Linear dimension of the image algebra: the basis count.

        Basis image ``(z, t)`` is row ``z`` of ``v_t``, nonzero because ``z``
        lies in ``V_t``, tensored with ``lambda_t``.  The images have pairwise
        disjoint supports: for one ``t`` different ``z`` give different rows,
        and different ``t`` give different ``lambda_t``.  So they are
        linearly independent.
        """
        return len(self.basis)

    def center_dimension(self) -> int:
        """Dimension of the centre: over the orbits, the number of conjugacy
        classes of the isotropy group.

        For a partial action the algebra is that of the transformation
        groupoid, ``(+)_O M_|O|(C[G_x])`` over orbits ``O`` with base point
        ``x``, and the centre of ``M_k(C[H])`` is the class functions of
        ``H``.  The defined entries of column ``x`` of the rows are the
        orbit of ``x``, each orbit based at its least point, and
        ``rows[:, x] == x`` marks ``G_x``.  A group ``H`` has
        ``|{(a, b) in H^2 : ab = ba}| / |H|`` classes.  Raises
        ``PreconditionError`` unless the identity acts as the identity and
        the scan's ``row_identities`` all hold; with the identity row in
        place, ``ranges`` at ``(s, e)`` fails for every non-injective map.
        """
        n = self.action.n
        rows = self.rows[:, :n]
        compose, ranges, triple = self._identities
        if (compose | ranges | triple).any() or (rows[0] != np.arange(n)).any():
            raise PreconditionError("the element maps do not form a partial action (see validate-action)")
        base = np.flatnonzero(np.where(rows >= 0, rows, n).min(axis=0) == np.arange(n))
        iso = (rows[:, base] == base).astype(np.int64)
        table = self.group.table
        pairs = (((table == table.T).astype(np.int64) @ iso) * iso).sum(axis=0)
        return int((pairs // iso.sum(axis=0)).sum())


def build_model(action: FinitePartialAction) -> CrossedProductModel:
    """Build the matrix model and verify it is faithful.

    The basis images are independent (see ``dimension``), so the rank check
    is a count.  It fails exactly when some element's map is not injective:
    two of its points then share an image, and the section count (the
    defined row entries) exceeds the basis.
    """
    model = CrossedProductModel(action)
    expected = int(np.count_nonzero(model.rows >= 0))
    if len(model.basis) != expected:
        raise PreconditionError(
            f"model rank {len(model.basis)} differs from the section count {expected}"
        )
    return model


def reduced_norm(model: CrossedProductModel, x: Section) -> float:
    """Operator norm of the section's faithful matrix image."""
    return op_norm(model.image(x))


# ---------------------------------------------------------------------------
# bundle axiom checks


@dataclass
class BundleAxiomReport:
    ok: bool
    checks: int
    violations: list[dict]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": self.checks, "violations": self.violations}


def _random_fiber(action: FinitePartialAction, rng: np.random.Generator, elements) -> tuple:
    t = elements[int(rng.integers(len(elements)))]
    vec = np.zeros(action.n, dtype=np.complex128)
    for z in action.support(t):
        vec[z] = complex(rng.standard_normal(), rng.standard_normal())
    return (vec, t)

def bundle_axiom_report(
    action: FinitePartialAction,
    trials: int = 500,
    seed: int = 0,
    tol: float = AXIOM_TOL,
    elements: Sequence | None = None,
) -> BundleAxiomReport:
    """Randomized check of the graded norm axioms on fiber pairs.

    Verifies submultiplicativity, star isometry, the square identity
    ``||a* a|| = ||a||^2`` and entrywise positivity of ``a* a``; the first
    ``MAX_VIOLATIONS`` violations are witnessed with the offending elements
    and values.
    """
    group = action.group
    if elements is None:
        elements = action.declared_elements() or [group.identity]
    elems = [group.check_element(g) for g in elements]
    action.map_rows(elems + [group.inverse(g) for g in elems])  # fibers and their stars: raises before any draw
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    checks = 0

    def sup(v) -> float:
        return float(np.abs(v).max(initial=0.0))

    def note(kind, where, value, bound):
        if len(violations) < MAX_VIOLATIONS:
            names = [word_to_str(group, g) for g in where]
            violations.append({"axiom": kind, "elements": names, "value": float(value), "bound": float(bound)})

    for _ in range(trials):
        a, s = _random_fiber(action, rng, elems)
        b, t = _random_fiber(action, rng, elems)
        label = [s, t]  # spelled out only for a violation
        prod, _st = action.mul_fiber((a, s), (b, t))
        checks += 1
        if sup(prod) > sup(a) * sup(b) + tol:
            note("submultiplicative", label, sup(prod), sup(a) * sup(b))
        astar, si = action.star_fiber((a, s))
        checks += 1
        if abs(sup(astar) - sup(a)) > tol:
            note("star_isometry", label[:1], abs(sup(astar) - sup(a)), tol)
        square, ident = action.mul_fiber((astar, si), (a, s))
        checks += 1
        if ident != group.identity:
            note("grading", label[:1], 1.0, 0.0)
        if abs(sup(square) - sup(a) ** 2) > tol * (1.0 + sup(a) ** 2):
            note("square_identity", label[:1], abs(sup(square) - sup(a) ** 2), tol)
        checks += 1
        if sup(np.abs(np.imag(square))) > tol or float(np.real(square).min(initial=0.0)) < -POSITIVITY_TOL:
            note("positivity", label[:1], float(np.real(square).min(initial=0.0)), -POSITIVITY_TOL)
    return BundleAxiomReport(ok=not violations, checks=checks, violations=violations)


def _sample_pair(i: int, j: int) -> str:
    return f"samples {i} , {j}"


def mf_defect_report(
    family: Mapping,
    samples: Sequence[tuple],
    action: FinitePartialAction,
) -> DefectReport:
    """Defects of a fiber-map family against the graded relations.

    ``samples`` are (element, coefficient vector) fiber elements.  Entries:
    adjoint compatibility, graded multiplicativity (reported under
    ``triple_product``), and the norm gap on each sample.  A product landing
    outside the family raises the missing-data error.
    """
    group = action.group
    fam = {group.check_element(g): np.asarray(m, dtype=np.complex128) for g, m in family.items()}

    def apply(t, vec):
        if t not in fam:
            raise UndeclaredElementError(
                f"family lacks fiber data for {word_to_str(group, t)}"
            )
        return np.tensordot(np.asarray(vec, dtype=np.complex128), fam[t], axes=1)

    selfadj = _Worst()
    gap = _Worst()
    mult = _Worst()
    images, stars, heights = [], [], []
    for t, vec in samples:
        t = group.check_element(t)
        vec = np.asarray(vec, dtype=np.complex128)
        images.append(apply(t, vec))
        starred, ti = action.star_fiber((vec, t))
        stars.append(apply(ti, starred))
        heights.append(float(np.abs(vec).max(initial=0.0)))
    images = _stack(images, 0)  # with no samples, nothing reads the size
    selfadj.feed_stack(adjoints(images) - _stack(stars, 0), lambda k: f"sample {k}")
    for i, (norm, height) in enumerate(zip(op_norms(images).tolist(), heights)):
        gap.feed(abs(norm - height), f"sample {i}")
    for i, (s, a) in enumerate(samples):
        s = group.check_element(s)
        products = []
        for t, b in samples:
            t = group.check_element(t)
            prod, st = action.mul_fiber((a, s), (b, t))
            products.append(apply(st, prod))
        mult.feed_stack(
            images[i] @ images - _stack(products, 0), partial(_sample_pair, i)
        )
    return DefectReport(
        entries={
            "selfadjoint": selfadj.value,
            "triple_product": mult.value,
            "isometry_gap": gap.value,
        },
        witnesses={
            "selfadjoint": selfadj.witness,
            "triple_product": mult.witness,
            "isometry_gap": gap.witness,
        },
        skipped=[],
    )
