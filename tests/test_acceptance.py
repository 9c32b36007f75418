"""Acceptance gate: each numbered check prints one pass/fail line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines inline.
"""

import json
import time

import numpy as np

import parfell as pf
from parfell.cli import main
from conftest import random_cyclic_action, random_valid_action


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _random_section(action, rng, num_terms=2):
    terms = {}
    for _ in range(num_terms):
        t = int(rng.integers(action.group.order))
        vec = np.zeros(action.n, dtype=complex)
        for z in action.support(t):
            vec[z] = complex(rng.standard_normal(), rng.standard_normal())
        terms[t] = vec
    return pf.Section.build(action, terms)


def test_criterion_1_exact_covariant_representations():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        act = random_valid_action(rng, max_points=8)
        rep = pf.std_covariant_rep(act)
        elems = pf.scan_elements(act.group, 3)
        rel = pf.partial_rep_defects(rep.v, elements=elems)
        cov = pf.covariance_defects(rep, elements=elems)
        assert rel.skipped == [] and cov.skipped == []
        for key in ("selfadjoint", "triple_product", "commuting_ranges", "intertwine"):
            worst = max(worst, rel.entries[key])
        worst = max(worst, cov.entries["covariance"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _line(1, ok, f"max defect {worst:.2e} over 200 systems, {elapsed:.1f}s")


def _noisy_family(rep, elems, eta, rng):
    ident = rep.group.identity
    mats = {}
    for t in elems:
        m = rep.v.matrix(t).astype(complex)
        if t != ident:
            g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            nrm = pf.op_norm(g)
            if nrm > 0:
                m = m + (eta / 4.0) * g / nrm
        mats[t] = m
    return pf.PartialRepFamily(rep.group, rep.dim, mats=mats)


def test_criterion_2_perturbation_bounds():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    violations = 0
    trials = 0
    for eta in (1e-3, 1e-2):
        for _ in range(1000):
            act = random_valid_action(rng, max_points=8)
            rep = pf.std_covariant_rep(act)
            elems = pf.scan_elements(act.group, 2)
            fam = _noisy_family(rep, elems, eta, rng)
            rounded, cert = pf.perturb_to_partial_isometries(
                fam, eta, rep=rep, elements=elems
            )
            trials += 1
            strict = (
                cert.entries["pi_defect"] <= 1e-10
                and cert.entries["distance_bound"] < 10.0 * eta
                and cert.entries["selfadjoint"] < 21.0 * eta
                and cert.entries["triple_product"] < 51.0 * eta
                and cert.entries["covariance"]
                < 21.0 * eta * (1.0 + cert.contraction_constant)
            )
            if not (cert.ok and strict):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _line(2, ok, f"{violations} violations in {trials} trials, {elapsed:.1f}s")


def test_criterion_3_crossed_product_structure():
    swap = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    swap_model = pf.build_model(swap)
    fixed = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 0}})
    fixed_model = pf.build_model(fixed)
    ok = (
        swap_model.dimension() == 4
        and swap_model.center_dimension() == 1
        and fixed_model.dimension() == 3
    )

    rng = np.random.default_rng(303)
    worst_hom = 0.0
    worst_cstar = 0.0
    dims_ok = True
    for _ in range(20):
        m = int(rng.integers(2, 7))
        act = random_cyclic_action(rng, m, int(rng.integers(2, 7)))
        model = pf.build_model(act)
        expected = sum(len(act.support(t)) for t in act.declared_elements())
        dims_ok = dims_ok and model.dimension() == expected
        for _ in range(10):
            x = _random_section(act, rng)
            y = _random_section(act, rng)
            xy = pf.section_mul(x, y, act)
            worst_hom = max(
                worst_hom,
                pf.op_norm(model.image(xy) - model.image(x) @ model.image(y)),
                pf.op_norm(model.image(pf.section_star(x, act)) - model.image(x).conj().T),
            )
            xs = pf.section_mul(pf.section_star(x, act), x, act)
            n1 = pf.reduced_norm(model, x)
            n2 = pf.reduced_norm(model, xs)
            worst_cstar = max(worst_cstar, abs(n2 - n1 * n1) / max(1.0, n1 * n1))
    ok = ok and dims_ok and worst_hom <= 1e-10 and worst_cstar <= 1e-8
    _line(3, ok, f"hom defect {worst_hom:.2e}, C*-identity {worst_cstar:.2e}")


def test_criterion_4_conditional_expectation():
    rng = np.random.default_rng(404)
    systems = [
        pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}}),
        pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 0}}),
        random_cyclic_action(rng, 4, 5),
    ]
    min_diag = 0.0
    faithful = True
    contractive = True
    for act in systems:
        model = pf.build_model(act)
        for _ in range(500):
            x = _random_section(act, rng)
            xs = pf.section_mul(pf.section_star(x, act), x, act)
            diag = pf.expectation(xs)
            min_diag = min(min_diag, float(np.min(diag.real)))
            if np.max(np.abs(diag.imag)) > 1e-12:
                faithful = False
            if not x.is_zero():
                # the identity coefficient dominates the largest |a_t(z)|^2
                if float(np.max(diag.real)) < x.sup_norm() ** 2 - 1e-10:
                    faithful = False
            ex = pf.expectation(x)
            if float(np.max(np.abs(ex))) > pf.reduced_norm(model, x) + 1e-10:
                contractive = False
        zero = pf.Section(act.group, act.n, {})
        zz = pf.section_mul(pf.section_star(zero, act), zero, act)
        if np.any(pf.expectation(zz) != 0):
            faithful = False
    ok = min_diag >= -1e-12 and faithful and contractive
    _line(4, ok, f"min diagonal {min_diag:.2e}, faithful and contractive")


def test_criterion_5_fell_bundle_axioms():
    rng = np.random.default_rng(505)
    all_ok = True
    for act in (
        pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}}),
        random_cyclic_action(rng, 4, 6),
        random_cyclic_action(rng, 6, 5),
    ):
        report = pf.bundle_axiom_report(act, trials=500, seed=11, tol=1e-9)
        all_ok = all_ok and report.ok and report.checks == 2000

    cycle = {0: 1, 1: 2, 2: 3, 3: 0}
    sq = {0: 2, 1: 3, 2: 0, 3: 1}
    # eta_3 deliberately repeats the forward cycle instead of inverting it
    bad = pf.FinitePartialAction(pf.cyclic_group(4), 4, {1: cycle, 2: sq, 3: dict(cycle)})
    corrupted = pf.bundle_axiom_report(bad, trials=200, seed=11, tol=1e-9)
    witnessed = not corrupted.ok and len(corrupted.violations) > 0
    ok = all_ok and witnessed
    _line(5, ok, f"valid systems pass, corrupted yields {len(corrupted.violations)} witnesses")


def test_criterion_6_bernoulli_certificates():
    start = time.perf_counter()
    z_cert = pf.certify_rfd(pf.FreeGroup(rank=1), 0.2)
    f2_cert = pf.certify_rfd(pf.FreeGroup(rank=2), 0.3)
    elapsed = time.perf_counter() - start
    ok = (
        z_cert.hom.target.order == 4
        and z_cert.density_bound == 0.125
        and z_cert.equivariance_defect == 0.0
        and z_cert.max_window_distance == 0.0
        and z_cert.points_checked == {"window": 8, "quotient": 8}
        and pf.verify_certificate(z_cert)
        and pf.verify_certificate(f2_cert)
        and elapsed < 10.0
    )
    _line(
        6,
        ok,
        f"Z via Z/{z_cert.hom.target.order} bound {z_cert.density_bound}, "
        f"F2 via order {f2_cert.hom.target.order}, {elapsed:.1f}s",
    )


def test_criterion_7_invariant_measure():
    cert = pf.certify_rfd(pf.FreeGroup(rank=1), 0.2)
    window = pf.BernoulliWindow.build(pf.FreeGroup(rank=1), cert.depth)
    approx = pf.QuotientApprox(window, cert.hom)
    tests = [pf.CylinderFunction.constant(1.0)]
    tests.extend(pf.CylinderFunction.coordinate_indicator(k) for k in (1, 2, 3))
    ma = pf.invariant_measure_approx(approx, tests)
    first = next(v["value"] for v in ma.values if v["test"] == "x[1] = 1")
    ok = (
        ma.normalization == 1.0
        and ma.positive_ok
        and ma.max_defect == 0.0
        and first == 0.5
    )
    _line(7, ok, f"state exact, defect {ma.max_defect}, mu(x[1]=1) = {first}")


def test_criterion_8_extraction_round_trip():
    rng = np.random.default_rng(808)
    all_ok = True
    for _ in range(50):
        act = random_valid_action(rng, max_points=6)
        ext = pf.extract_finite_system(
            pf.std_covariant_rep(act), elements=act.declared_elements()
        )
        rho = ext.rho
        bij = len(set(rho)) == act.n == len(rho)
        intertwines = True
        for t in act.declared_elements():
            want = set(act.element_map(t).pairs)
            got = {(rho[z], rho[w]) for z, w in ext.action.element_map(t).pairs}
            intertwines = intertwines and want == got
        all_ok = all_ok and bij and intertwines and all(m == 1 for m in ext.multiplicities)
    _line(8, all_ok, "50 systems recovered with explicit intertwining bijections")


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(pf.action_to_json(act)))
    outputs = []
    for _ in range(2):
        code = main(["defects", str(path), "--noise", "0.25", "--seed", "7"])
        outputs.append(capsys.readouterr().out)
        assert code == 1
    for _ in range(2):
        code = main(["bernoulli", "certify", "--group", "free:1", "--delta", "0.2"])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    _line(9, ok, "repeated runs with a fixed seed are byte-identical")
