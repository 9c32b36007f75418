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
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .actions import DualSystem, FinitePartialAction
from .groups import (
    FiniteGroup,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    word_key,
    word_to_str,
)
from .matrices import AXIOM_TOL, PreconditionError, adjoints, op_norm, op_norms
from .reps import DefectReport, _stack, _Worst, std_covariant_rep

MAX_MODEL_ORDER = 64
MAX_MODEL_SIZE = 512  # n * m guard: bounds image, reduced_norm and commutator_coordinates' d^2 pairs


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
    def build(dual: DualSystem, terms: Mapping) -> "Section":
        """Construct and enforce the support condition exactly."""
        x = Section(dual.group, dual.n, terms)
        for t, vec in x.terms.items():
            inside = set(dual.support(t))
            bad = [z for z in range(dual.n) if vec[z] != 0 and z not in inside]
            if bad:
                raise MalformedDataError(
                    f"coefficient of {word_to_str(dual.group, t)} is nonzero outside its set at {bad}"
                )
        return x

    def elements(self) -> list:
        if isinstance(self.group, FiniteGroup):
            return sorted(self.terms)
        return sorted(self.terms, key=word_key)

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


def section_mul(x: Section, y: Section, dual: DualSystem, max_word_length: int | None = None) -> Section:
    """Convolution: coefficients multiply after pulling the left one back.

    For free groups an optional word-length cap keeps products inside a
    managed ball; exceeding it raises the undeclared-element error.
    """
    group = dual.group
    out: dict = {}
    for s, a in x.terms.items():
        si = group.inverse(s)
        pulled = dual.apply(si, a)
        for t, b in y.terms.items():
            st = group.multiply(s, t)
            if max_word_length is not None and isinstance(group, FreeGroup) and len(st) > max_word_length:
                raise UndeclaredElementError(
                    f"product element {word_to_str(group, st)} exceeds the declared word-length cap"
                )
            c = dual.apply(s, pulled * b)
            if st in out:
                out[st] = out[st] + c
            else:
                out[st] = c
    return Section(group, dual.n, out)


def section_star(x: Section, dual: DualSystem) -> Section:
    """Adjoint: conjugated coefficients pulled to the inverse elements."""
    group = dual.group
    out: dict = {}
    for s, a in x.terms.items():
        si = group.inverse(s)
        c = dual.apply(si, np.conjugate(a))
        if si in out:
            out[si] = out[si] + c
        else:
            out[si] = c
    return Section(group, dual.n, out)


def expectation(x: Section) -> np.ndarray:
    """Coefficient at the identity; a positive faithful conditional map."""
    return x.coeff(x.group.identity)


# ---------------------------------------------------------------------------
# matrix model over a finite group


def _svd_rank(mat: np.ndarray) -> int:
    """Singular values above ``max(shape) * eps`` times the largest."""
    svals = np.linalg.svd(mat, compute_uv=False)
    cutoff = max(mat.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    return int(np.sum(svals > cutoff))


class CrossedProductModel:
    """Faithful matrix model of the section algebra of a finite-group action.

    A term ``a`` at element ``s`` maps to ``phi(a) v_s (x) lambda_s`` where
    lambda is left translation; the basis is enumerated point-major, then by
    group element.
    """

    def __init__(self, action: FinitePartialAction) -> None:
        group = action.group
        if not isinstance(group, FiniteGroup):
            raise MalformedDataError("matrix models require a finite group")
        if group.order > MAX_MODEL_ORDER:
            raise MalformedDataError(f"group order {group.order} exceeds {MAX_MODEL_ORDER}")
        if action.n * group.order > MAX_MODEL_SIZE:
            raise MalformedDataError("model matrices would be too large")
        self.action = action
        self.rep = std_covariant_rep(action)
        self.dual = self.rep.dual
        self.group = group
        supports = [set(action.support(t)) for t in range(group.order)]
        self.basis: list[tuple[int, int]] = [
            (z, t) for z in range(action.n) for t in range(group.order) if z in supports[t]
        ]

    @property
    def model_size(self) -> int:
        return self.action.n * self.group.order

    def image(self, x: Section) -> np.ndarray:
        m = self.group.order
        table = np.asarray(self.group.table, dtype=np.int64)
        total = np.zeros((self.model_size, self.model_size), dtype=np.complex128)
        for t, a in x.terms.items():
            key = self.group.check_element(t)
            lam = np.zeros((m, m), dtype=np.complex128)
            lam[table[key], np.arange(m)] = 1.0
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

    def commutator_coordinates(self) -> np.ndarray:
        """All commutators ``[b_k, b_j]`` of the basis images, exactly.

        Basis image ``(z, t)`` is the monomial ``E_{z,u} (x) lambda_t``: row
        ``z`` of ``v_t`` must be a single entry equal to 1, in column ``u``.
        Products of monomials are monomials,
        ``b_k b_j = [u_k == z_j] E_{z_k,u_j} (x) lambda_{t_k t_j}``, and
        distinct monomials have disjoint supports and squared Frobenius norm
        ``|G|``.  So column ``k`` lists the +-1 coefficients of every
        ``[b_k, b_j]`` on rows keyed by ``(j, z, u', g)``, and the singular
        values are the dense commutator stack's divided by ``sqrt(|G|)``.
        """
        z, u, t = (np.zeros(len(self.basis), dtype=np.int64) for _ in range(3))
        for i, (zi, ti) in enumerate(self.basis):
            row = self.rep.v.matrix(ti)[zi]
            hits = np.flatnonzero(row)
            if hits.size != 1 or row[hits[0]] != 1:
                raise PreconditionError(
                    f"row {zi} of the matrix of {word_to_str(self.group, ti)} is not a matrix unit"
                )
            z[i], u[i], t[i] = zi, hits[0], ti
        d, n, m = len(self.basis), self.action.n, self.group.order
        table = np.asarray(self.group.table, dtype=np.int64)
        k, j = (a.ravel() for a in np.indices((d, d)))
        left = u[k] == z[j]   # b_k b_j = E_{z_k,u_j} (x) lambda_{t_k t_j}
        right = u[j] == z[k]  # b_j b_k = E_{z_j,u_k} (x) lambda_{t_j t_k}
        keys = np.concatenate([
            (((j * n + z[k]) * n + u[j]) * m + table[t[k], t[j]])[left],
            (((j * n + z[j]) * n + u[k]) * m + table[t[j], t[k]])[right],
        ])
        cols = np.concatenate([k[left], k[right]])
        vals = np.concatenate([np.ones(left.sum()), -np.ones(right.sum())])
        rows, row_of = np.unique(keys, return_inverse=True)
        mat = np.zeros((rows.size, d))
        np.add.at(mat, (row_of, cols), vals)
        return mat

    def center_dimension(self) -> int:
        """Dimension of the commutant of the image inside the image span.

        The rank of the commutator map ``x -> ([x, b_j])_j`` on the span,
        taken from its exact monomial coordinates
        (``commutator_coordinates``) without forming any model matrix.
        """
        return len(self.basis) - _svd_rank(self.commutator_coordinates())


def build_model(action: FinitePartialAction) -> CrossedProductModel:
    """Build the matrix model and verify it is faithful.

    The basis images are independent (see ``dimension``), so the rank check
    is a count.  It fails exactly when some element's map is not injective:
    its ``V_t`` then lists a point twice, and the section count exceeds the
    basis.
    """
    model = CrossedProductModel(action)
    expected = sum(len(action.support(t)) for t in range(action.group.order))
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


def _random_fiber(dual: DualSystem, rng: np.random.Generator, elements) -> tuple:
    t = elements[int(rng.integers(len(elements)))]
    vec = np.zeros(dual.n, dtype=np.complex128)
    for z in dual.support(t):
        vec[z] = complex(rng.standard_normal(), rng.standard_normal())
    return (vec, t)

def bundle_axiom_report(
    dual: DualSystem,
    trials: int = 500,
    seed: int = 0,
    tol: float = AXIOM_TOL,
    elements: Sequence | None = None,
    max_violations: int = 20,
) -> BundleAxiomReport:
    """Randomized check of the graded norm axioms on fiber pairs.

    Verifies submultiplicativity, star isometry, the square identity
    ``||a* a|| = ||a||^2`` and entrywise positivity of ``a* a``; violations
    are witnessed with the offending elements and values.
    """
    group = dual.group
    if elements is None:
        elements = dual.action.declared_elements() or [group.identity]
    elems = [group.check_element(g) for g in elements]
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    checks = 0

    def sup(v) -> float:
        return float(np.abs(v).max(initial=0.0))

    def note(kind, where, value, bound):
        if len(violations) < max_violations:
            violations.append(
                {"axiom": kind, "elements": where, "value": float(value), "bound": float(bound)}
            )

    for _ in range(trials):
        a, s = _random_fiber(dual, rng, elems)
        b, t = _random_fiber(dual, rng, elems)
        label = [word_to_str(group, s), word_to_str(group, t)]
        prod, _st = dual.mul_fiber((a, s), (b, t))
        checks += 1
        if sup(prod) > sup(a) * sup(b) + tol:
            note("submultiplicative", label, sup(prod), sup(a) * sup(b))
        astar, si = dual.star_fiber((a, s))
        checks += 1
        if abs(sup(astar) - sup(a)) > tol:
            note("star_isometry", label[:1], abs(sup(astar) - sup(a)), tol)
        square, ident = dual.mul_fiber((astar, si), (a, s))
        checks += 1
        if ident != group.identity:
            note("grading", label[:1], 1.0, 0.0)
        if abs(sup(square) - sup(a) ** 2) > tol * (1.0 + sup(a) ** 2):
            note("square_identity", label[:1], abs(sup(square) - sup(a) ** 2), tol)
        checks += 1
        if sup(np.abs(np.imag(square))) > tol or float(np.real(square).min(initial=0.0)) < -1e-12:
            note("positivity", label[:1], float(np.real(square).min(initial=0.0)), -1e-12)
    return BundleAxiomReport(ok=not violations, checks=checks, violations=violations)


def _sample_pair(i: int, j: int) -> str:
    return f"samples {i} , {j}"


def mf_defect_report(
    family: Mapping,
    samples: Sequence[tuple],
    dual: DualSystem,
) -> DefectReport:
    """Defects of a fiber-map family against the graded relations.

    ``samples`` are (element, coefficient vector) fiber elements.  Entries:
    adjoint compatibility, graded multiplicativity (reported under
    ``triple_product``), and the norm gap on each sample.  A product landing
    outside the family raises the missing-data error.
    """
    group = dual.group
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
        starred, ti = dual.star_fiber((vec, t))
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
            prod, st = dual.mul_fiber((a, s), (b, t))
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
