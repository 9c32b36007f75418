"""Partial actions: map algebra, axiom validation, duals, equivariance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from conftest import random_valid_action, random_free_action


# ---------------------------------------------------------------------------
# PartialMap


def oracle_compose(f: dict, g: dict) -> dict:
    # f after g, on points where both legs exist
    return {z: f[w] for z, w in g.items() if w in f}


def test_partial_map_basics():
    pm = pf.PartialMap.from_dict({3: 1, 0: 2})
    assert pm.pairs == ((0, 2), (3, 1))
    assert pm.sources == (0, 3)
    assert pm.targets == (1, 2)
    assert pm(3) == 1
    assert pm.is_injective()
    assert pm.inverse().as_dict() == {1: 3, 2: 0}


def test_partial_map_compose_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        ks = int(rng.integers(0, n + 1))
        f = dict(zip(rng.choice(n, ks, replace=False),
                     rng.choice(n, ks, replace=False)))
        kt = int(rng.integers(0, n + 1))
        g = dict(zip(rng.choice(n, kt, replace=False),
                     rng.choice(n, kt, replace=False)))
        got = pf.PartialMap.from_dict(f).compose(pf.PartialMap.from_dict(g))
        assert got.as_dict() == oracle_compose({int(k): int(v) for k, v in f.items()},
                                               {int(k): int(v) for k, v in g.items()})


def test_partial_map_non_injective_inverse_rejected():
    pm = pf.PartialMap.from_dict({0: 1, 2: 1})
    assert not pm.is_injective()
    with pytest.raises(pf.MalformedDataError):
        pm.inverse()


# ---------------------------------------------------------------------------
# construction and element maps


def test_swap_action_element_maps(swap_action):
    assert swap_action.element_map(1).as_dict() == {0: 1, 1: 0}
    assert swap_action.element_map(0).as_dict() == {0: 0, 1: 1}
    assert swap_action.support(1) == (0, 1)


def test_fixed_point_action(fixed_point_action):
    assert fixed_point_action.element_map(1).as_dict() == {0: 0}
    assert fixed_point_action.support(1) == (0,)
    assert pf.validate(fixed_point_action).ok


def test_inverse_autofill():
    g = pf.cyclic_group(4)
    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    act = pf.FinitePartialAction(g, 4, {1: cycle, 2: sq})
    assert act.element_map(3).as_dict() == {1: 0, 2: 1, 3: 2, 0: 3}
    assert pf.validate(act).ok


def test_free_letter_composition():
    # a shifts 0..3 partially: eta_a = {0->1, 1->2}; squares compose
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 4, {(1,): {0: 1, 1: 2}})
    assert act.element_map((1, 1)).as_dict() == {0: 2}
    assert act.element_map((-1,)).as_dict() == {1: 0, 2: 1}
    assert act.element_map((1, 1, 1)).as_dict() == {}
    assert pf.validate(act, radius=3).ok


def test_undeclared_element_errors():
    g3 = pf.cyclic_group(3)
    act = pf.FinitePartialAction(g3, 2, {})
    with pytest.raises(pf.UndeclaredElementError):
        act.element_map(1)
    f2 = pf.FreeGroup(rank=2)
    act2 = pf.FinitePartialAction(f2, 2, {(1,): {0: 0}})
    with pytest.raises(pf.UndeclaredElementError):
        act2.element_map((2,))


def test_partial_map_instances_accepted():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {1: pf.PartialMap.from_dict({0: 1, 1: 0})})
    assert act.element_map(1).as_dict() == {0: 1, 1: 0}


def test_out_of_range_map_rejected():
    g = pf.cyclic_group(2)
    with pytest.raises(pf.MalformedDataError):
        pf.FinitePartialAction(g, 2, {1: {0: 5}})


def test_rule_takes_precedence_over_composition():
    # rule declares a strictly larger domain for a^2 than letter composition
    f1 = pf.FreeGroup(rank=1)

    def rule(key):
        if key == (1, 1):
            return pf.PartialMap.from_dict({0: 2, 2: 0})
        k = len(key) if all(s > 0 for s in key) else -len(key)
        shift = {z: z + k for z in range(3) if 0 <= z + k < 3}
        return pf.PartialMap.from_dict(shift)

    act = pf.FinitePartialAction(f1, 3, {}, rule=rule)
    assert act.element_map((1, 1)).as_dict() == {0: 2, 2: 0}
    assert act.element_map((1,)).as_dict() == {0: 1, 1: 2}


# ---------------------------------------------------------------------------
# validation


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_accepts_random_restrictions(seed):
    act = random_valid_action(np.random.default_rng(seed))
    report = pf.validate(act, radius=3)
    assert report.ok, report.to_json()


def test_validate_flags_non_injective():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {1: {0: 0, 1: 0}})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "not_injective" for i in report.all_issues())


def test_validate_flags_inverse_mismatch():
    g = pf.cyclic_group(4)
    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    act = pf.FinitePartialAction(g, 4, {1: cycle, 2: sq, 3: dict(cycle)})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "inverse_mismatch" for i in report.all_issues())


def test_validate_flags_composition_violation():
    # eta_1 a 3-cycle in a Z/2 action: squares escape the identity
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 3, {1: {0: 1, 1: 2, 2: 0}})
    report = pf.validate(act)
    assert not report.ok
    kinds = {i.kind for i in report.all_issues()}
    assert "inverse_mismatch" in kinds or "composition" in kinds


def test_validate_flags_partial_identity():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {0: {0: 0}, 1: {0: 1, 1: 0}})
    report = pf.validate(act)
    assert not report.ok
    assert any(i.kind == "identity_map" for i in report.all_issues())


def test_validate_flags_missing_finite_element():
    g = pf.cyclic_group(3)
    act = pf.FinitePartialAction(g, 2, {1: {0: 0}})
    # eta_2 autofills from eta_1, so drop injectivity to block the autofill
    act2 = pf.FinitePartialAction(g, 2, {1: {0: 0, 1: 0}})
    report = pf.validate(act2)
    assert not report.ok
    assert pf.validate(act).ok


def test_validate_free_needs_radius():
    f1 = pf.FreeGroup(rank=1)
    act = pf.FinitePartialAction(f1, 2, {(1,): {0: 1}})
    with pytest.raises(pf.MalformedDataError):
        pf.validate(act, radius=0)


def test_report_json_shape(swap_action):
    rep = pf.validate(swap_action)
    data = rep.to_json()
    assert data["ok"] is True
    assert data["structural"] == [] and data["axiom"] == []
    assert data["elements_checked"] >= 2


# ---------------------------------------------------------------------------
# duals


def test_dual_projection_and_apply(swap_action, fixed_point_action):
    dual = pf.DualSystem(swap_action)
    assert np.array_equal(dual.projection(1), np.array([1, 1], dtype=complex))
    out = dual.apply(1, np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([4, 3], dtype=complex))

    dualf = pf.DualSystem(fixed_point_action)
    assert np.array_equal(dualf.projection(1), np.array([1, 0], dtype=complex))
    # values off the domain are dropped by the implicit restriction
    out = dualf.apply(1, np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([3, 0], dtype=complex))


def test_dual_fiber_arithmetic(swap_action):
    dual = pf.DualSystem(swap_action)
    a = np.array([1.0, 2.0], dtype=complex)
    b = np.array([3.0, 4.0], dtype=complex)
    prod, elem = dual.mul_fiber((a, 1), (b, 1))
    assert elem == 0
    # alpha_1(alpha_1(a) * b) with alpha_1 the swap: [2,1]*[3,4] swapped
    assert np.array_equal(prod, np.array([4.0, 6.0], dtype=complex))

    sa, selem = dual.star_fiber((np.array([1 + 2j, 3.0]), 1))
    assert selem == 1
    assert np.array_equal(sa, np.array([3.0, 1 - 2j]))


def test_dual_star_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(20):
        act = random_valid_action(rng)
        dual = pf.DualSystem(act)
        for t in pf.scan_elements(act.group, 2):
            a = np.zeros(act.n, dtype=complex)
            sup = list(act.support(t))
            if sup:
                a[sup] = rng.standard_normal(len(sup)) + 1j * rng.standard_normal(len(sup))
            back, elem = dual.star_fiber(dual.star_fiber((a, t)))
            assert elem == dual.group.check_element(t) if not isinstance(act.group, pf.FreeGroup) else True
            assert np.allclose(back, a)


# ---------------------------------------------------------------------------
# equivariant maps


def test_equivariance_doubled_swap(swap_action):
    g = pf.cyclic_group(2)
    double = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    emap = pf.EquivariantMap(source=double, target=swap_action, rho=(0, 1, 0, 1))
    report = pf.check_equivariance(emap, strict=True)
    assert report.ok and report.strict_ok
    assert report.max_defect == 0.0


def test_equivariance_strict_failure(swap_action):
    g = pf.cyclic_group(2)
    partial = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0}})
    emap = pf.EquivariantMap(source=partial, target=swap_action, rho=(0, 1, 0, 1))
    report = pf.check_equivariance(emap, strict=True)
    assert report.ok
    assert not report.strict_ok
    assert any(v["kind"] == "strict" for v in report.violations)


def test_equivariance_pointwise_failure(swap_action):
    g = pf.cyclic_group(2)
    double = pf.FinitePartialAction(g, 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    emap = pf.EquivariantMap(source=double, target=swap_action, rho=(0, 1, 0, 0))
    report = pf.check_equivariance(emap)
    assert not report.ok
    assert any(v["kind"] == "pointwise" for v in report.violations)


def test_equivariant_map_validation(swap_action):
    with pytest.raises(pf.MalformedDataError):
        pf.EquivariantMap(source=swap_action, target=swap_action, rho=(0,))
    with pytest.raises(pf.MalformedDataError):
        pf.EquivariantMap(source=swap_action, target=swap_action, rho=(0, 7))


# ---------------------------------------------------------------------------
# serialization


def test_action_json_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        act = random_valid_action(rng)
        data = json.loads(json.dumps(pf.action_to_json(act)))
        back = pf.action_from_json(data)
        assert act.same_data(back)


def test_action_json_malformed():
    g = pf.cyclic_group(2)
    act = pf.FinitePartialAction(g, 2, {1: {0: 1, 1: 0}})
    data = pf.action_to_json(act)

    broken = json.loads(json.dumps(data))
    del broken["n"]
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)

    broken = json.loads(json.dumps(data))
    broken["elements"][0]["domain"] = [0]
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)

    broken = json.loads(json.dumps(data))
    broken["elements"].append(broken["elements"][0])
    with pytest.raises(pf.MalformedDataError):
        pf.action_from_json(broken)


def test_restriction_rejects_non_permutation():
    g = pf.cyclic_group(2)
    with pytest.raises(pf.MalformedDataError):
        pf.restriction_action(g, {0: [0, 1], 1: [0, 0]}, [0, 1])
