"""Section algebra, the finite-group matrix model, and fiber axiom suites."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from parfell import FinitePartialAction, Section
from conftest import random_cyclic_action, restriction_action, symmetric_group


def random_section(action, rng, num_terms=2):
    terms = {}
    for _ in range(num_terms):
        t = int(rng.integers(action.group.order))
        vec = np.zeros(action.n, dtype=complex)
        for z in action.support(t):
            vec[z] = complex(rng.standard_normal(), rng.standard_normal())
        terms[t] = vec
    return pf.Section.build(action, terms)


def finite_systems(seed, count, max_points=6):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(2, 7))
        act = random_cyclic_action(rng, m, int(rng.integers(2, max_points + 1)))
        out.append(act)
    return out


# ---------------------------------------------------------------------------
# sections


def test_section_support_enforced(fixed_point_action):
    with pytest.raises(pf.MalformedDataError):
        pf.Section.build(fixed_point_action, {1: [0.0, 1.0]})
    ok = pf.Section.build(fixed_point_action, {1: [1.0, 0.0]})
    assert ok.elements() == [1]


def test_section_zero_terms_dropped():
    g = pf.cyclic_group(2)
    x = pf.Section(g, 2, {1: [0.0, 0.0], 0: [1.0, 0.0]})
    assert x.elements() == [0]
    assert not x.is_zero()
    assert pf.Section(g, 2, {}).is_zero()
    assert x.sup_norm() == 1.0


def test_section_wrong_length_rejected():
    g = pf.cyclic_group(2)
    with pytest.raises(pf.MalformedDataError):
        pf.Section(g, 2, {0: [1.0, 0.0, 0.0]})


def test_delta_section_swap(swap_action):
    x = delta_section(swap_action, 0, 1)
    assert np.array_equal(x.coeff(1), np.array([1, 0], dtype=complex))
    # (delta_0 d_1)(delta_0 d_1) moves the point before multiplying
    sq = pf.section_mul(x, x, swap_action)
    assert np.array_equal(sq.coeff(0), np.array([0, 0], dtype=complex))
    y = delta_section(swap_action, 1, 1)
    prod = pf.section_mul(x, y, swap_action)
    assert np.array_equal(prod.coeff(0), np.array([1, 0], dtype=complex))


def test_section_star_involution(swap_action):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_section(swap_action, rng)
        back = pf.section_star(pf.section_star(x, swap_action), swap_action)
        for t in x.terms:
            assert np.allclose(back.coeff(t), x.coeff(t), atol=1e-14)


def test_expectation_reads_identity_coefficient(swap_action):
    x = pf.Section.build(swap_action, {0: [2.0, 3.0], 1: [1.0, 1.0]})
    assert np.array_equal(pf.expectation(x), np.array([2, 3], dtype=complex))


# ---------------------------------------------------------------------------
# model structure


def test_swap_model_dimensions(swap_action):
    model = pf.build_model(swap_action)
    assert model.dimension() == 4
    assert model.center_dimension() == 1
    assert model.model_size == 4


def test_fixed_point_model_dimension(fixed_point_action):
    model = pf.build_model(fixed_point_action)
    assert model.dimension() == 3


def test_random_model_dimension_formula():
    for act in finite_systems(seed=7, count=10):
        model = pf.build_model(act)
        expected = sum(len(act.support(t)) for t in range(act.group.order))
        assert model.dimension() == expected


def nonzero_svals(mat):
    """Singular values above ``max(shape) * eps`` times the largest."""
    svals = np.linalg.svd(mat, compute_uv=False)
    cutoff = max(mat.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    return svals[svals > cutoff]


def delta_section(action: FinitePartialAction, z: int, t) -> Section:
    """The basis section: indicator of z in the fiber of t."""
    vec = np.zeros(action.n, dtype=np.complex128)
    vec[z] = 1.0
    return Section.build(action, {t: vec})


def basis_images(model):
    """The dense model image of every basis section, in basis order."""
    return [model.image(delta_section(model.action, z, t)) for z, t in model.basis]


def dense_center(model):
    """The dense commutator-stack centre: (dimension, nonzero singular values)."""
    imgs = basis_images(model)
    dim = len(imgs)
    if dim == 0:
        return 0, np.zeros(0)
    cols = []
    for k in range(dim):
        stacked = np.concatenate(
            [(imgs[k] @ b - b @ imgs[k]).ravel() for b in imgs]
        )
        cols.append(stacked)
    nonzero = nonzero_svals(np.column_stack(cols))
    return dim - nonzero.size, nonzero


def commutator_coordinates(model):
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
    z, u, t = (np.zeros(len(model.basis), dtype=np.int64) for _ in range(3))
    for i, (zi, ti) in enumerate(model.basis):
        row = model.rep.v.matrix(ti)[zi]
        hits = np.flatnonzero(row)
        assert hits.size == 1 and row[hits[0]] == 1
        z[i], u[i], t[i] = zi, hits[0], ti
    d, n, m = len(model.basis), model.action.n, model.group.order
    table = np.asarray(model.group.table, dtype=np.int64)
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


MODEL_GROUPS = [pf.cyclic_group(m) for m in range(2, 7)] + [symmetric_group(3)]
INJECTIVE_KINDS = ("random", "empty", "identity-only")


@st.composite
def partial_injection_systems(draw, kinds=INJECTIVE_KINDS):
    """Any partial injection per group element; not necessarily a partial action.

    The ``"non-injective"`` kind draws each map's targets with repeats allowed.
    """
    group = draw(st.sampled_from(MODEL_GROUPS))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(kinds))
    maps = {}
    for t in range(group.order):
        if kind in ("random", "non-injective") or (kind == "identity-only" and t == 0):
            sources = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
            if kind == "non-injective":
                targets = [draw(st.integers(0, n - 1)) for _ in sources]
            elif kind == "identity-only":
                targets = sources
            else:
                targets = draw(st.permutations(range(n)))
            maps[t] = dict(zip(sources, targets))
        else:
            maps[t] = {}
    return pf.FinitePartialAction(group, n, maps)


@settings(max_examples=80, deadline=None)
@given(partial_injection_systems(INJECTIVE_KINDS + ("non-injective",)))
def test_dimension_matches_dense_rank(act):
    # built directly: build_model rejects the non-injective systems
    model = pf.CrossedProductModel(act)
    imgs = basis_images(model)
    rank = nonzero_svals(np.stack([b.ravel() for b in imgs])).size if imgs else 0
    assert model.dimension() == rank


def test_center_dimension_rejects_non_unit_rows():
    # two points sent to one: row 0 of v_1 holds two entries
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {0: {0: 0, 1: 1}, 1: {0: 0, 1: 0}})
    with pytest.raises(pf.PreconditionError):
        pf.CrossedProductModel(act).center_dimension()


def test_build_model_rejects_non_injective_map():
    # element 1 sends both points to 0: its fiber counts 2 but spans 1 basis term
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {0: {0: 0, 1: 1}, 1: {0: 0, 1: 0}})
    with pytest.raises(pf.PreconditionError) as err:
        pf.build_model(act)
    assert str(err.value) == "model rank 3 differs from the section count 4"


def _subgroup(group, gens):
    sub = {group.identity}
    frontier = list(sub)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = group.multiply(a, g)
            if b not in sub:
                sub.add(b)
                frontier.append(b)
    return sub


def _coset_action(group, sub):
    """Left translation on the left cosets of ``sub``, one permutation per element."""
    cosets = []
    for a in range(group.order):
        coset = frozenset(group.multiply(a, h) for h in sub)
        if coset not in cosets:
            cosets.append(coset)
    index = {c: i for i, c in enumerate(cosets)}
    return {
        g: [index[frozenset(group.multiply(g, x) for x in c)] for c in cosets]
        for g in range(group.order)
    }


def random_restricted_action(rng, group):
    """A global action as a disjoint union of coset actions, restricted to a subset."""
    global_maps = {g: [] for g in range(group.order)}
    for _ in range(int(rng.integers(1, 4))):
        gens = [int(g) for g in rng.integers(group.order, size=int(rng.integers(0, 3)))]
        offset = len(global_maps[0])
        for g, perm in _coset_action(group, _subgroup(group, gens)).items():
            global_maps[g].extend(offset + p for p in perm)
    n_global = len(global_maps[0])
    k = int(rng.integers(1, n_global + 1))
    return restriction_action(group, global_maps, rng.choice(n_global, size=k, replace=False))


def groupoid_center_dimension(act):
    """Sum over orbits of the number of conjugacy classes of the isotropy group."""
    group = act.group
    maps = [act.element_map(g).as_dict() for g in range(group.order)]
    orbits = {}
    for x in range(act.n):
        orbit = frozenset(m[x] for m in maps if x in m)
        orbits.setdefault(orbit, x)
    total = 0
    for x in orbits.values():
        iso = [g for g in range(group.order) if maps[g].get(x) == x]
        classes = {
            frozenset(group.multiply(group.multiply(h, g), group.inverse(h)) for h in iso)
            for g in iso
        }
        total += len(classes)
    return total


def test_model_dimensions_match_groupoid_formulas():
    rng = np.random.default_rng(53)
    for i in range(42):
        act = random_restricted_action(rng, MODEL_GROUPS[i % len(MODEL_GROUPS)])
        assert pf.validate(act).ok
        model = pf.build_model(act)
        assert model.dimension() == sum(len(act.support(t)) for t in range(act.group.order))
        center = model.center_dimension()
        assert center == groupoid_center_dimension(act)
        assert center == len(model.basis) - nonzero_svals(commutator_coordinates(model)).size


@st.composite
def restricted_actions(draw):
    """``random_restricted_action`` on a drawn group and seed."""
    group = draw(st.sampled_from(MODEL_GROUPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_restricted_action(rng, group)


# at most 6 points, as in partial_injection_systems: the dense stack holds
# basis^2 matrices of side n * |G|
@settings(max_examples=80, deadline=None)
@given(st.one_of(partial_injection_systems(), restricted_actions().filter(lambda act: act.n <= 6)))
def test_center_dimension_matches_dense_commutator_stack(act):
    model = pf.build_model(act)
    if not pf.validate(act).ok:
        with pytest.raises(pf.PreconditionError):
            model.center_dimension()
        return
    center, dense_svals = dense_center(model)
    assert model.center_dimension() == center
    if not model.basis:
        return
    nonzero = nonzero_svals(commutator_coordinates(model))
    assert center == len(model.basis) - nonzero.size
    assert nonzero.shape == dense_svals.shape
    assert np.allclose(nonzero, dense_svals / np.sqrt(act.group.order), rtol=1e-9, atol=0.0)


def test_model_is_homomorphism_and_star():
    rng = np.random.default_rng(11)
    for act in finite_systems(seed=13, count=5):
        model = pf.build_model(act)
        for _ in range(8):
            x = random_section(act, rng)
            y = random_section(act, rng)
            lhs = model.image(pf.section_mul(x, y, act))
            rhs = model.image(x) @ model.image(y)
            assert pf.op_norm(lhs - rhs) <= 1e-10
            star_lhs = model.image(pf.section_star(x, act))
            assert pf.op_norm(star_lhs - model.image(x).conj().T) <= 1e-10


def test_product_supports_stay_legal():
    rng = np.random.default_rng(17)
    for act in finite_systems(seed=19, count=5):
        x = random_section(act, rng)
        y = random_section(act, rng)
        prod = pf.section_mul(x, y, act)
        # rebuilding through the support-checked constructor must not raise
        pf.Section.build(act, prod.terms)


def test_cstar_identity_of_reduced_norm():
    rng = np.random.default_rng(23)
    for act in finite_systems(seed=29, count=5):
        model = pf.build_model(act)
        for _ in range(4):
            x = random_section(act, rng)
            nx = pf.reduced_norm(model, x)
            xx = pf.section_mul(pf.section_star(x, act), x, act)
            assert abs(pf.reduced_norm(model, xx) - nx**2) <= 1e-8 * (1 + nx**2)


def test_expectation_positive_and_faithful():
    rng = np.random.default_rng(31)
    for act in finite_systems(seed=37, count=5):
        model = pf.build_model(act)
        for _ in range(20):
            x = random_section(act, rng)
            xx = pf.section_mul(pf.section_star(x, act), x, act)
            val = pf.expectation(xx)
            assert float(np.abs(val.imag).max(initial=0.0)) <= 1e-12
            assert float(val.real.min(initial=0.0)) >= -1e-12
            if not x.is_zero():
                assert float(val.real.max(initial=0.0)) >= x.sup_norm() ** 2 - 1e-10
            # contractive against the model norm
            ex = pf.expectation(x)
            assert float(np.abs(ex).max(initial=0.0)) <= pf.reduced_norm(model, x) + 1e-10


def test_model_guards():
    # no bound on |G| alone: Z/65 fixing one point, one orbit with isotropy Z/65
    big = pf.cyclic_group(65)
    model = pf.build_model(pf.FinitePartialAction(big, 1, {j: {0: 0} for j in range(65)}))
    assert (model.dimension(), model.center_dimension()) == (65, 65)
    # the n * |G| bound sits on the model matrices alone
    wide = pf.cyclic_group(60)
    ident = {z: z for z in range(9)}
    model = pf.build_model(pf.FinitePartialAction(wide, 9, {j: dict(ident) for j in range(60)}))
    assert (model.dimension(), model.center_dimension()) == (540, 540)
    x = delta_section(model.action, 0, 1)
    with pytest.raises(pf.MalformedDataError):
        model.image(x)
    with pytest.raises(pf.MalformedDataError):
        pf.reduced_norm(model, x)
    with pytest.raises(pf.MalformedDataError):
        f1 = pf.FreeGroup(rank=1)
        pf.build_model(pf.FinitePartialAction(f1, 2, {(1,): {0: 1, 1: 0}}))


def test_free_word_length_cap():
    """Free-group products are not capped: ``section_mul`` takes no
    word-length cap."""
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 3, {(1,): {0: 1, 1: 2}})
    x = delta_section(act, 1, (1,))
    pf.section_mul(x, x, act)  # uncapped products compose fine
    with pytest.raises(TypeError):
        pf.section_mul(x, x, act, max_word_length=1)


# ---------------------------------------------------------------------------
# bundle axiom suites


def test_bundle_axioms_pass_on_valid_systems():
    for act in finite_systems(seed=41, count=4):
        report = pf.bundle_axiom_report(act, trials=100, seed=1)
        assert report.ok, report.violations
        assert report.checks == 400


def test_bundle_axioms_pass_free_group():
    f2 = pf.FreeGroup(rank=2)
    act = pf.FinitePartialAction(
        f2, 3, {(1,): {0: 1, 1: 2}, (2,): {0: 0, 2: 1}}
    )
    assert pf.validate(act, radius=2).ok
    report = pf.bundle_axiom_report(
        act, trials=100, seed=2, elements=f2.ball(2)
    )
    assert report.ok, report.violations


def test_bundle_axioms_read_every_row_before_drawing():
    """An element, or the inverse of one, without data raises before the
    first draw, so even a report of no trials refuses it."""
    f2 = pf.FreeGroup(rank=2)
    cases = [
        (pf.FinitePartialAction(pf.cyclic_group(3), 2, {1: {0: 0, 1: 0}}), [1], "no data for element 2"),
        (pf.FinitePartialAction(f2, 2, {(1,): {0: 1}}), [(1,), (1, 2)], "no data for generator letter 2"),
    ]
    for act, elements, error in cases:
        for trials in (0, 5):
            with pytest.raises(pf.UndeclaredElementError, match=error):
                pf.bundle_axiom_report(act, trials=trials, elements=elements)


def test_bundle_axioms_catch_corruption():
    g = pf.cyclic_group(4)
    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    # eta_3 deliberately repeats the forward cycle instead of inverting it
    act = pf.FinitePartialAction(g, 4, {1: cycle, 2: sq, 3: dict(cycle)})
    assert not pf.validate(act).ok
    report = pf.bundle_axiom_report(act, trials=200, seed=0)
    assert not report.ok
    assert report.violations
    kinds = {v["axiom"] for v in report.violations}
    assert kinds <= {"submultiplicative", "star_isometry", "square_identity", "positivity", "grading"}
    for v in report.violations:
        assert "elements" in v and "value" in v


def test_mf_defect_report_exact(swap_action):
    rep = pf.std_covariant_rep(swap_action)
    fam = pf.exact_bundle_family(rep, elements=[0, 1])
    rng = np.random.default_rng(43)
    samples = []
    for t in (0, 1):
        vec = np.zeros(2, dtype=complex)
        for z in swap_action.support(t):
            vec[z] = complex(rng.standard_normal(), rng.standard_normal())
        samples.append((t, vec))
    report = pf.mf_defect_report(fam, samples, swap_action)
    assert report.max_defect() <= 1e-12, report.to_json()


def ref_mf_defect_report(fam, samples, action) -> dict:
    """mf_defect_report one difference at a time, op_norm on every one."""
    worst = {k: (0.0, "") for k in ("selfadjoint", "triple_product", "isometry_gap")}

    def feed(key, value, label):
        if value > worst[key][0]:
            worst[key] = (float(value), label)

    def apply(t, vec):
        return np.tensordot(np.asarray(vec, dtype=complex), fam[t], axes=1)

    for i, (t, vec) in enumerate(samples):
        image = apply(t, vec)
        starred, ti = action.star_fiber((vec, t))
        feed("selfadjoint", pf.op_norm(image.conj().T - apply(ti, starred)), f"sample {i}")
        height = float(np.abs(vec).max(initial=0.0))
        feed("isometry_gap", abs(pf.op_norm(image) - height), f"sample {i}")
    for i, (s, a) in enumerate(samples):
        for j, (t, b) in enumerate(samples):
            prod, st = action.mul_fiber((a, s), (b, t))
            feed("triple_product", pf.op_norm(apply(s, a) @ apply(t, b) - apply(st, prod)),
                 f"samples {i} , {j}")
    return worst


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-170, 1e-3, 0.05]), st.integers(1, 6))
def test_mf_defect_report_matches_every_pair_reference(seed, sigma, count):
    rng = np.random.default_rng(seed)
    act = random_cyclic_action(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
    rep = pf.std_covariant_rep(act)
    fam = pf.exact_bundle_family(rep, elements=list(range(act.group.order)))
    for arr in fam.values():
        arr += sigma * (rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape))
    samples = []
    for _ in range(count):
        t = int(rng.integers(act.group.order))
        vec = np.zeros(act.n, dtype=complex)
        for z in act.support(t):
            vec[z] = complex(rng.standard_normal(), rng.standard_normal())
        samples.append((t, vec))
    report = pf.mf_defect_report(fam, samples, act)
    want = ref_mf_defect_report(fam, samples, act)
    assert report.entries == {k: v for k, (v, _) in want.items()}
    assert report.witnesses == {k: w for k, (_, w) in want.items()}


def test_mf_defect_report_missing_fiber(swap_action):
    fam = {0: np.zeros((2, 2, 2), dtype=complex)}
    with pytest.raises(pf.UndeclaredElementError):
        pf.mf_defect_report(fam, [(1, np.array([1.0, 1.0]))], swap_action)
