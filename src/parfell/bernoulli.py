"""Truncated two-letter Bernoulli systems and residual-finiteness certificates.

Configurations are 0/1 functions on a group, pinned to 1 at the identity, and
group elements shift them partially: ``t`` acts on configurations that are 1
at both the identity and ``t``.  A finite window keeps the first ``N+1``
elements of the canonical enumeration; finite-quotient approximations push
configurations through a homomorphism whose window images are separated, and
the resulting point map is strictly equivariant with explicit density bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .actions import EquivarianceReport, _equivariance_report
from .groups import (
    MAX_FINITE_ORDER,
    FreeGroup,
    GroupHom,
    GroupSpec,
    MalformedDataError,
    cyclic_group,
    direct_product,
    group_to_json,
    hom_to_json,
    trivial_group,
    word_to_str,
)


class CertificationError(RuntimeError):
    """No valid certificate could be produced from the given inputs."""


@dataclass(frozen=True)
class BernoulliWindow:
    """The first N+1 canonical elements; points are 0/1 rows over them.

    A window point is an integer whose bit ``k-1`` holds the value at the
    k-th coordinate (k = 1..N); the 0-th coordinate is pinned to 1.
    """

    group: GroupSpec
    depth: int
    coords: tuple

    @staticmethod
    def build(group: GroupSpec, depth: int) -> "BernoulliWindow":
        if depth < 0:
            raise MalformedDataError("window depth must be >= 0")
        coords = tuple(group.enumerate_elements(depth + 1))
        return BernoulliWindow(group=group, depth=depth, coords=coords)

    @property
    def num_points(self) -> int:
        return 1 << self.depth

    def bit(self, point: int, k: int) -> int:
        if k == 0:
            return 1
        return (point >> (k - 1)) & 1


def metric(x, y, depth: int):
    """Weighted coordinate disagreement, 2^-k at window coordinate k, of two
    points or elementwise of two int arrays of points.  The terms are
    distinct powers of two, so the float sum is exact."""
    diff = x ^ y
    return sum((((diff >> (k - 1)) & 1) * 2.0 ** (-k) for k in range(1, depth + 1)), 0.0)


# ---------------------------------------------------------------------------
# finite-quotient approximations


class QuotientApprox:
    """Finite model: configurations on a finite quotient group.

    Points are 0/1 rows over the quotient, pinned to 1 at its identity,
    encoded as integers (bit ``gamma-1`` is the value at element gamma),
    and ``bits[gamma, z]`` is z's value at gamma.  The group acts through
    the homomorphism by exact shifts (``map_rows``); ``rho`` truncates each
    configuration to the window through the homomorphism.  ``images`` holds
    the quotient image of each window coordinate, taken once; every check
    of the model reads it instead of the homomorphism.  Building the model
    takes only those images: ``bits`` and what reads it enumerate every
    configuration, on first use, as the exhaustive check.
    """

    def __init__(self, window: BernoulliWindow, hom: GroupHom) -> None:
        if hom.source != window.group:
            raise MalformedDataError("homomorphism source must be the window group")
        self.window = window
        self.hom = hom
        self.quotient = hom.target
        self.images = [hom.apply(t) for t in window.coords]

    @cached_property
    def num_points(self) -> int:
        return 1 << (self.quotient.order - 1)

    @cached_property
    def bits(self) -> np.ndarray:
        m, n = self.quotient.order, self.num_points
        if m > MAX_QUOTIENT_ORDER:
            raise MalformedDataError(
                f"quotient order {m} exceeds the {MAX_QUOTIENT_ORDER} of an enumerated model"
            )
        bits = np.ones((m, n), dtype=np.intp)
        bits[1:] = (np.arange(n) >> np.arange(m - 1)[:, None]) & 1
        return bits

    @cached_property
    def rho(self) -> tuple:
        return tuple(_read(self.bits, self.images[1:]).tolist())

    def map_rows(self, elements: Sequence) -> np.ndarray:
        """The shifts of ``elements`` as int rows, one per element, in the
        layout of ``FinitePartialAction.map_rows``.  With ``g = hom(t)^-1``,
        row ``t`` sends each configuration that is 1 at ``g`` to its shift,
        whose value at ``gamma`` reads the configuration at ``g gamma``;
        every other entry and the last column are -1."""
        q, bits = self.quotient, self.bits
        rows = np.full((len(elements), bits.shape[1] + 1), -1, dtype=np.intp)
        for row, t in zip(rows, elements):
            g = q.inverse(self.hom.apply(t))
            row[:-1] = np.where(bits[g] == 1, _read(bits, q.table[g, 1:]), -1)
        return rows


def _read(bits: np.ndarray, gammas: Sequence[int]) -> np.ndarray:
    """Every configuration's values at ``gammas``, the i-th one in bit i:
    one weighted sum of table rows."""
    return (1 << np.arange(len(gammas))) @ bits[np.asarray(gammas, dtype=np.intp)]


# QuotientApprox.bits, which map_rows, rho and strict_equivariance_report
# read, has a 2^(order-1) axis; certificates and measures read none of it.
MAX_QUOTIENT_ORDER = 16


def _check_max_order(max_order: int) -> None:
    if not 1 <= max_order <= MAX_FINITE_ORDER:
        raise MalformedDataError(f"max order {max_order} is outside 1..{MAX_FINITE_ORDER}")


def strict_equivariance_report(
    approx: QuotientApprox, elements: Sequence | None = None
) -> EquivarianceReport:
    """Exact window check of the intertwining identities of ``rho``.

    For an element with quotient image ``gamma``, a model point lands in
    the element's window set when its configuration is 1 at ``gamma``, and
    the truncation of its shift reads the configuration at ``gamma^-1``
    times each window image.  That is the true shifted configuration, so
    the comparison with ``rho`` of the shifted model point is exact at all
    window coordinates.  Both containments (image and strict preimage) are
    verified as well.
    """
    window = approx.window
    q = approx.quotient
    elems = [window.group.check_element(t) for t in (window.coords if elements is None else elements)]
    gammas = [approx.hom.apply(t) for t in elems]
    wanted = [_read(approx.bits, q.table[q.inverse(g), approx.images[1:]]) for g in gammas]
    return _equivariance_report(
        window.group, elems, approx.map_rows(elems), np.asarray(approx.rho, dtype=np.intp),
        approx.bits[gammas] == 1, np.reshape(wanted, (len(elems), approx.num_points)),
        lambda x, y: metric(x, y, window.depth), strict=True,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RfdCertificate:
    """Everything needed to re-run the finite-quotient approximation."""

    group: GroupSpec
    delta: float
    depth: int
    hom: GroupHom
    density_bound: float
    max_window_distance: float
    equivariance_defect: float
    points_checked: dict[str, int]

    def to_json(self) -> dict:
        return {
            "group": group_to_json(self.group),
            "delta": self.delta,
            "N": self.depth,
            "hom": hom_to_json(self.hom),
            "density_bound": self.density_bound,
            "max_window_distance": self.max_window_distance,
            "equivariance_defect": self.equivariance_defect,
            "points_checked": dict(self.points_checked),
        }


def _required_depth(delta: float) -> int:
    if not 0 < delta < math.inf:
        raise MalformedDataError(f"delta must be positive and finite, got {delta!r}")
    depth = 0
    while 2.0 ** (-depth) >= delta:
        depth += 1
    return depth


def _separates_window(window: BernoulliWindow, hom: GroupHom) -> bool:
    # distinct images need at least as many quotient elements as coordinates
    if len(window.coords) > hom.target.order:
        return False
    imgs = [hom.apply(t) for t in window.coords]
    return len(set(imgs)) == len(imgs)  # so none but the first is the identity


def _search_hom(group: GroupSpec, window: BernoulliWindow, max_order: int) -> GroupHom | None:
    """The first homomorphism that separates the window, or None.

    Targets run cyclic first, then products of two cyclic groups, each with
    its generator images in ``itertools.product`` order.  A factor's order
    is at most ``MAX_CYCLIC`` and a target's at most ``max_order``.
    Targets smaller than the window are skipped, and only the target that
    separates is built.  Generators that no window word uses go to 0, as
    they do in the first separating tuple.  A target whose
    ``MAX_SEARCH_TUPLES`` run out is passed over; its error is raised only
    when no later target separates.  Two words with equal exponent sums
    have equal images in every abelian target, so none is tried.
    """
    if not isinstance(group, FreeGroup):
        raise MalformedDataError(
            "certificate search supports free groups; supply a homomorphism otherwise"
        )
    if window.depth == 0:
        return GroupHom(source=group, target=trivial_group(), images=(0,) * group.rank)
    used = sorted({abs(s) for w in window.coords for s in w})
    sums = _exponent_sums(window.coords, used)
    if len(set(map(tuple, sums.tolist()))) < len(sums):
        return None
    targets = [(m,) for m in range(2, min(MAX_CYCLIC, max_order) + 1)] + [
        (a, b) for a in range(2, MAX_CYCLIC + 1) for b in range(a, MAX_CYCLIC + 1) if a * b <= max_order
    ]
    cut_short = None
    for factors in targets:
        if math.prod(factors) < len(window.coords):
            continue
        try:
            found = _first_separating(factors, sums)
        except MalformedDataError as err:  # over budget: the next target may separate
            cut_short = cut_short or err
            continue
        if found is not None:
            target = direct_product(*map(cyclic_group, factors)) if len(factors) == 2 else cyclic_group(*factors)
            images = dict(zip(used, found))
            return GroupHom(source=group, target=target,
                            images=tuple(images.get(g, 0) for g in range(1, group.rank + 1)))
    if cut_short is not None:
        raise cut_short
    return None


# the largest cyclic factor a certificate search tries
MAX_CYCLIC = 12
# image tuples one target's search may evaluate, about a quarter second of
# blocks over a window of 16 words; a target that needs more is passed over
MAX_SEARCH_TUPLES = 1 << 21


def _exponent_sums(words: Sequence, used: list[int]) -> np.ndarray:
    """The exponent sum of each ``used`` generator in each word, one row
    per word."""
    col = {g: j for j, g in enumerate(used)}
    sums = [[0] * len(used) for _ in words]
    for row, w in zip(sums, words):
        for s in w:
            row[col[abs(s)]] += 1 if s > 0 else -1
    return np.array(sums, dtype=np.intp).reshape(len(words), len(used))


def _first_separating(factors: tuple[int, ...], sums: np.ndarray) -> list[int] | None:
    """The first tuple of generator images, in ``itertools.product``
    order, under which the words with exponent sums ``sums`` (a row per
    word, a column per generator) have distinct images in ``Z/m`` (one
    factor) or in ``Z/a x Z/b``, whose element ``(i, j)`` is ``i * b + j``
    as ``direct_product`` encodes it; None if there is none.  Raises
    ``MalformedDataError`` when the first ``MAX_SEARCH_TUPLES`` tuples
    separate nothing and more remain.

    Both targets are abelian, so a word's image is the linear form of its
    exponent sums in the images of the generators.  Tuple ``t``'s image of
    generator ``j`` is digit ``j`` of ``t`` in base ``m``, so a block of
    ``m^k`` tuples shares its leading digits: each block adds the images
    of its leading digits to those of the last ``k``, taken once.  Each
    tuple's images are told apart through a table with a cell per target
    element.
    """
    m, b = math.prod(factors), factors[-1]
    a, (w, r) = m // b, sums.shape
    total = m**r
    stop = min(total, MAX_SEARCH_TUPLES)
    k = 1
    while k < r and m ** (k + 1) * max(m, w) <= 1 << 18:  # a few MiB of arrays
        k += 1
    digits, reduce, rows = _block_tables(a, b, k)

    def spread(d, s):
        # images as (i, j) -> i * 2b + j, so two of them add without carries
        out = d % b @ s.T % b
        if a > 1:
            out += (d // b @ s.T % a) * (2 * b)
        return out

    low = spread(digits, sums[:, r - k :])
    word = np.arange(w, dtype=np.int16)
    seen = np.empty(rows.size * m, dtype=np.int16)
    for lo in range(0, stop, len(digits)):
        n = min(len(digits), stop - lo)
        lead = [lo // len(digits) // m**i % m for i in range(r - k - 1, -1, -1)]
        imgs = (low[:n] + spread(np.array(lead, dtype=np.intp), sums[:, : r - k])) if lead else low[:n]
        cells = reduce[imgs] + rows[:n]
        # a word reads itself back from its image's cell unless another
        # word of the same tuple wrote there
        seen[cells] = word
        ok = (seen[cells] == word).all(axis=1)
        if ok.any():
            return lead + digits[int(np.argmax(ok))].tolist()
    if stop < total:
        raise MalformedDataError(
            f"certificate search stopped after {MAX_SEARCH_TUPLES} image tuples "
            f"(MAX_SEARCH_TUPLES) of a quotient of order {m}, out of {total}; "
            "supply a homomorphism")
    return None


@functools.lru_cache(maxsize=16)
def _block_tables(a: int, b: int, k: int) -> tuple:
    """For a search block of ``m^k`` tuples, ``m = a * b``: the last ``k``
    digits of each tuple, the element of ``Z/a x Z/b`` that each sum of
    two spread images stands for, and each tuple's offset into the table
    of cells."""
    m = a * b
    digits = np.arange(m**k)[:, None] // m ** np.arange(k - 1, -1, -1) % m
    x = np.arange(4 * m)
    reduce = x // (2 * b) % a * b + x % (2 * b) % b
    rows = np.arange(0, m ** (k + 1), m)[:, None]
    for t in (digits, reduce, rows):
        t.flags.writeable = False
    return digits, reduce, rows


def certify_rfd(
    group: GroupSpec,
    delta: float,
    hom: GroupHom | None = None,
    max_order: int = 16,
) -> RfdCertificate:
    """Produce a finite-quotient certificate at the requested tolerance.

    Picks the window depth with tail weight below ``delta`` and finds (or
    checks) a homomorphism separating the window coordinates; a search
    tries cyclic factors of order at most ``MAX_CYCLIC``.  Separation
    makes every density witness (a window point on the window images, 0
    elsewhere) truncate back to its point.

    Strict equivariance needs no check.  Configurations have a bit ``z_y``
    per quotient element, ``z_0 = 1``.  For a window image ``c``, ``g =
    inverse(c)`` and ``s = table[g]``, the shift maps ``z`` with ``z_g = 1``
    to ``x_y = z_s(y)`` and the window set is ``x_c = 1``.  ``FiniteGroup``
    checks that 0 is the identity, that the table is associative and that
    every element has a two-sided inverse, so ``s`` is left multiplication
    by ``g``: a bijection with ``s(c) = 0`` and ``s(0) = g``.  Hence the
    shift lands in the window set (image), its domain is every
    configuration that is 1 at ``g`` (strict), and ``rho`` of the shift
    reads ``z`` at ``s(c_k)``, the shifted value itself (pointwise).
    ``strict_equivariance_report`` checks the same over every
    configuration.

    Raises ``CertificationError`` when no homomorphism works and
    ``MalformedDataError`` when ``max_order`` is outside
    ``1..MAX_FINITE_ORDER`` or below a supplied homomorphism's quotient.
    """
    _check_max_order(max_order)
    depth = _required_depth(delta)
    window = BernoulliWindow.build(group, depth)
    if hom is not None:
        if hom.source != group:
            raise MalformedDataError("homomorphism source must match the group")
        if not _separates_window(window, hom):
            raise CertificationError(
                "supplied homomorphism does not separate the window coordinates"
            )
        if hom.target.order > max_order:
            raise MalformedDataError(
                f"quotient order {hom.target.order} exceeds the supported {max_order}"
            )
    else:
        hom = _search_hom(group, window, max_order)
        if hom is None:
            raise CertificationError(
                "no homomorphism within the search budget separates the window"
            )
    return RfdCertificate(
        group=group,
        delta=float(delta),
        depth=depth,
        hom=hom,
        density_bound=2.0 ** (-depth),
        max_window_distance=0.0,
        equivariance_defect=0.0,
        points_checked={"window": window.num_points, "quotient": 1 << (hom.target.order - 1)},
    )


def verify_certificate(cert: RfdCertificate, max_order: int = 16) -> bool:
    """Certify again from the recorded group, delta and homomorphism.  The
    depth, tail bound and point counts must match, and the recorded defect
    and window distance must bound the derived ones, within the tail bound."""
    try:
        again = certify_rfd(cert.group, cert.delta, hom=cert.hom, max_order=max_order)
    except (MalformedDataError, CertificationError):
        return False
    return (
        (cert.depth, cert.density_bound, cert.points_checked)
        == (again.depth, again.density_bound, again.points_checked)
        and again.equivariance_defect <= cert.equivariance_defect
        and again.max_window_distance <= cert.max_window_distance <= cert.density_bound
    )


# ---------------------------------------------------------------------------
# invariant measure approximants


@dataclass(frozen=True)
class CylinderFunction:
    """A function of finitely many window coordinates.

    ``values`` has one entry per assignment of the listed coordinates; the
    i-th listed coordinate contributes bit i of the lookup index.
    """

    coords: tuple[int, ...]
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.values) != (1 << len(self.coords)):
            raise MalformedDataError("need one value per coordinate assignment")

    def on_window_point(self, window: BernoulliWindow, point):
        """The value at a window point, or the list of values at each of an
        int array of points."""
        idx = sum((window.bit(point, k) << i for i, k in enumerate(self.coords)), np.zeros_like(point))
        return np.asarray(self.values)[idx].tolist()

    @staticmethod
    def constant(c: float) -> "CylinderFunction":
        return CylinderFunction(coords=(), values=(float(c),), label=f"const {c}")

    @staticmethod
    def coordinate_indicator(k: int) -> "CylinderFunction":
        """The indicator of ``x[k] = 1``."""
        return CylinderFunction(coords=(k,), values=(0.0, 1.0), label=f"x[{k}] = 1")


@dataclass
class MeasureApprox:
    """State values of the averaging measure and its invariance defects."""

    values: list[dict]
    defects: list[dict]
    normalization: float
    positive_ok: bool
    max_defect: float

    def to_json(self) -> dict:
        return {
            "values": self.values,
            "defects": self.defects,
            "normalization": self.normalization,
            "positive_ok": self.positive_ok,
            "max_defect": self.max_defect,
        }


def _average(f: CylinderFunction, reads: Sequence[int], pinned: int = 0) -> float:
    """The mean of ``f`` over the configurations that are 1 at ``pinned``,
    with window coordinate k read at quotient element ``reads[k]``.  The
    identity and ``pinned`` read 1, so the mean runs over the assignments
    of the other distinct elements that ``f`` reads: every configuration
    extends each of them equally often."""
    gammas = [reads[k] for k in f.coords]
    free = {g: j for j, g in enumerate(sorted(set(gammas) - {0, pinned}))}
    count = 1 << len(free)
    return math.fsum(
        f.values[sum(((z >> free[g]) & 1 if g in free else 1) << i for i, g in enumerate(gammas))]
        for z in range(count)
    ) / count


def invariant_measure_approx(approx: QuotientApprox, tests: Sequence[CylinderFunction]) -> MeasureApprox:
    """Average the tests over the pushed-forward model points.

    Also reports, per window coordinate ``t``, the defect between averaging
    a test over ``t``'s set after shifting back and averaging over the set
    of ``t^-1``.  Each average counts over the quotient elements a test
    reads (``_average``), so no configuration is enumerated and the
    figures are those of the sums over all ``2^(m-1)`` of them.

    Every defect is exactly 0.0 and the normalization exactly 1.0.  With
    ``g`` the image of ``t``, left multiplication by ``g^-1`` sends the
    shifted reads ``g c_k`` to the plain reads ``c_k`` and the pins
    ``{0, g}`` to ``{g^-1, 0}``, so both
    averages sum the same multiset of test values over the same count, and
    ``math.fsum`` rounds a multiset's sum the same in any order.  The
    constant test reads nothing: its one value over a count of 1.
    """
    window = approx.window
    for f in tests:
        if any(not (0 <= k <= window.depth) for k in f.coords):
            raise MalformedDataError(
                f"test {f.label!r} depends on coordinates outside the window"
            )
    images = approx.images
    values: list[dict] = []
    positive_ok = True
    norm = _average(CylinderFunction.constant(1.0), images)
    for f in tests:
        mu = _average(f, images)
        values.append({"test": f.label or repr(f.coords), "value": mu})
        if all(v >= 0.0 for v in f.values) and mu < 0.0:
            positive_ok = False
    # per element t with image g: its set, the points that are 1 at g,
    # shifted back (read at g times each window image), and rho of its
    # inverse's set, the points that are 1 at g^-1; each set holds half the
    # points unless g is the identity
    q = approx.quotient
    rows = [(word_to_str(window.group, t), g, q.table[g, images].tolist(), q.inverse(g))
            for t, g in zip(window.coords, images)]
    defects: list[dict] = []
    max_defect = 0.0
    for f in tests:
        for label, g, shifted, g_inv in rows:
            defect = abs(_average(f, shifted, g) - _average(f, images, g_inv)) / (2 if g else 1)
            defects.append({"test": f.label or repr(f.coords), "element": label, "defect": defect})
            max_defect = max(max_defect, defect)
    return MeasureApprox(
        values=values,
        defects=defects,
        normalization=norm,
        positive_ok=positive_ok,
        max_defect=max_defect,
    )
