"""End-to-end command line coverage through in-process main()."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parfell as pf
from parfell import bernoulli
from parfell.cli import DECISION_TOL, _encode, _json_scalar, build_parser, main
from parfell.matrices import TOLERANCES


@pytest.fixture
def swap_file(tmp_path):
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(pf.action_to_json(act)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    # full 3-cycle under Z/2: square is not contained in the identity
    act = pf.FinitePartialAction(pf.cyclic_group(2), 3, {1: {0: 1, 1: 2, 2: 0}})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(pf.action_to_json(act)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# exit codes


def test_validate_ok(capsys, swap_file):
    code, env, _ = run(capsys, ["validate-action", swap_file])
    assert code == 0
    assert env["ok"] is True
    assert env["tool"] == "parfell"
    assert env["subcommand"] == "validate-action"
    assert env["report"]["structural"] == []
    assert env["report"]["axiom"] == []
    assert len(env["inputs"][swap_file]) == 64


def test_validate_broken_action_fails(capsys, broken_file):
    code, env, _ = run(capsys, ["validate-action", broken_file])
    assert code == 1
    assert env["ok"] is False
    assert env["report"]["structural"] or env["report"]["axiom"]


def test_missing_file_exits_two(capsys, tmp_path):
    code, env, _ = run(capsys, ["validate-action", str(tmp_path / "nope.json")])
    assert code == 2
    assert env["ok"] is False and "error" in env


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, env, _ = run(capsys, ["validate-action", str(path)])
    assert code == 2


def test_unknown_subcommand_exits_two(swap_file):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", swap_file])
    assert exc.value.code == 2


def test_perturb_requires_eta(swap_file):
    with pytest.raises(SystemExit) as exc:
        main(["perturb", swap_file])
    assert exc.value.code == 2


def test_perturb_eta_out_of_range_exits_two(capsys, swap_file):
    code, env, _ = run(capsys, ["perturb", swap_file, "--eta", "0.2"])
    assert code == 2
    assert "error" in env


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bernoulli", "certify", "--group", "free:2", "--delta", "nan"], "delta"),
        (["measure", "--group", "free:1", "--delta", "nan"], "delta"),
        (["measure", "--group", "free:1", "--delta", "inf"], "delta"),
        (["defects", "{action}", "--noise", "nan"], "--noise"),
        (["defects", "{action}", "--noise", "-0.5"], "--noise"),
        (["bundle-axioms", "{action}", "--trials", "-3"], "--trials"),
        (["bernoulli", "certify", "--group", "free:2", "--delta", "0.1", "--max-order", "0"],
         "max order"),
        (["bernoulli", "certify", "--group", "free:2", "--delta", "1.5", "--max-order", "0"],
         "max order"),
        (["bernoulli", "certify", "--group", "free:2", "--delta", "0.1", "--max-order", "-3"],
         "max order"),
        (["measure", "--group", "free:1", "--delta", "0.1", "--max-order", "0"], "max order"),
        (["measure", "--group", "free:1", "--delta", "1.5", "--max-order", "-3"], "max order"),
    ],
    ids=["certify-delta-nan", "measure-delta-nan", "measure-delta-inf",
         "defects-noise-nan", "defects-noise-negative", "bundle-trials-negative",
         "certify-max-order-zero", "certify-max-order-zero-depth-zero",
         "certify-max-order-negative", "measure-max-order-zero",
         "measure-max-order-negative-depth-zero"],
)
def test_out_of_range_options_exit_two(capsys, swap_file, argv, flag):
    """A non-finite delta or noise, a negative noise, negative trials and a
    max order below 1 are refused with an error naming the flag, not run
    and reported as NaN or as a failed search."""
    code, env, _ = run(capsys, [a.format(action=swap_file) for a in argv])
    assert code == 2
    assert flag in env["error"]


@pytest.mark.parametrize("noise", ["1e200", "1e308"])
def test_perturb_overflowing_defect_exits_two_quietly(capsys, swap_file, noise):
    """A family whose ``v v* v`` overflows fails its defect check with the
    usual text, and no floating-point warning reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["perturb", swap_file, "--eta", "0.1", "--noise", noise])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == (
        "PreconditionError: partial-isometry defect inf of 1 is not below 2*eta"
    )
    assert captured.err == ""


# ---------------------------------------------------------------------------
# subcommand reports


def test_covariant_rep_report(capsys, swap_file):
    """covariant-rep takes no decision tolerance: its defects are exact."""
    code, env, _ = run(capsys, ["covariant-rep", swap_file])
    assert code == 0
    assert "decision_tol" not in env["config"]
    rel = env["report"]["relations"]
    assert rel["skipped"] == []
    assert all(v == 0.0 for v in rel["entries"].values())
    assert env["report"]["covariance"]["entries"] == {"covariance": 0.0}


def test_covariant_rep_rejects_broken_action(capsys, broken_file):
    code, env, _ = run(capsys, ["covariant-rep", broken_file])
    assert code == 2


def test_defects_clean(capsys, swap_file):
    code, env, _ = run(capsys, ["defects", swap_file])
    assert code == 0
    assert env["config"]["decision_tol"] == 1e-9


def test_defects_noise_fails(capsys, swap_file):
    code, env, _ = run(capsys, ["defects", swap_file, "--noise", "0.5", "--seed", "3"])
    assert code == 1
    assert env["ok"] is False
    assert env["report"]["noise"] == 0.5


@pytest.mark.parametrize("noise", ["1e200", "1e308"])
def test_defects_overflowing_noise_reports_inf(capsys, swap_file, noise):
    """Defects that overflow are reported as inf: exit 1, quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["defects", swap_file, "--noise", noise])
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert code == 1 and env["ok"] is False
    assert env["report"]["covariance"]["entries"]["covariance"] == float("inf")
    assert float("inf") in env["report"]["relations"]["entries"].values()
    assert captured.err == ""


def test_noised_family_matches_per_element_draws():
    """One stacked draw gives each element the real and imaginary noise
    that per-element draws in scan order gave, bit for bit."""
    from parfell.cli import _noised_family

    for act, radius in [(pf.FinitePartialAction(pf.cyclic_group(3), 3, {1: {0: 1, 1: 2}, 2: {1: 0, 2: 1}}), 1),
                        (pf.FinitePartialAction(pf.FreeGroup(2), 2, {(1,): {0: 1}, (-1,): {1: 0}, (2,): {0: 0, 1: 1},
                                                                      (-2,): {0: 0, 1: 1}}), 2)]:
        rep = pf.std_covariant_rep(act)
        elems = pf.scan_elements(act.group, radius)
        for sigma in (0.0, 0.003):
            fam = _noised_family(rep, elems, sigma, 7)
            rng = np.random.default_rng(7)
            for t in elems:
                m = rep.v.matrix(t)
                if sigma > 0 and t != act.group.identity:
                    m = m + sigma * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)) / np.sqrt(2.0)
                assert np.array_equal(fam.matrix(t), m)
            assert sorted(fam.elements(), key=elems.index) == elems


def test_perturb_clean_certificate(capsys, swap_file):
    code, env, _ = run(capsys, ["perturb", swap_file, "--eta", "0.01"])
    assert code == 0
    cert = env["report"]["certificate"]
    assert cert["ok"] is True
    assert cert["eta"] == 0.01


def test_crossed_product_expected_dimension(capsys, swap_file):
    code, env, _ = run(capsys, ["crossed-product", swap_file, "--expect-dim", "4"])
    assert code == 0
    assert env["report"]["dimension"] == 4
    assert env["report"]["center_dimension"] == 1
    assert env["report"]["model_size"] == 4

    code, env, _ = run(capsys, ["crossed-product", swap_file, "--expect-dim", "5"])
    assert code == 1
    assert env["ok"] is False


def test_crossed_product_rejects_non_injective_map(capsys, tmp_path):
    # element 1 sends both points to 0; written without "domain" fields,
    # which action_from_json checks against the set of map values
    data = {
        "group": {"kind": "finite", "order": 2, "table": [[0, 1], [1, 0]]},
        "n": 2,
        "elements": [{"t": "0", "map": {"0": 0, "1": 1}}, {"t": "1", "map": {"0": 0, "1": 0}}],
    }
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(data))
    code, env, _ = run(capsys, ["crossed-product", str(path)])
    assert code == 2
    assert env["error"] == "PreconditionError: model rank 3 differs from the section count 4"


def test_non_injective_action_round_trips_through_json(capsys, tmp_path):
    # the repeated target 0 is written once, so the file reads back and
    # crossed-product reaches its own rank check
    act = pf.FinitePartialAction(pf.cyclic_group(2), 2, {0: {0: 0, 1: 1}, 1: {0: 0, 1: 0}})
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(pf.action_to_json(act)))
    code, env, _ = run(capsys, ["crossed-product", str(path)])
    assert code == 2
    assert env["error"] == "PreconditionError: model rank 3 differs from the section count 4"


def test_crossed_product_rejects_non_action(capsys, broken_file):
    # injective maps whose composition identity fails: the centre formula
    # holds for partial actions only
    code, env, _ = run(capsys, ["crossed-product", broken_file])
    assert code == 2
    assert env["error"] == (
        "PreconditionError: the element maps do not form a partial action (see validate-action)"
    )


def _free_cyclic_file(tmp_path, m):
    act = pf.FinitePartialAction(
        pf.cyclic_group(m), m, {t: {z: (z + t) % m for z in range(m)} for t in range(m)}
    )
    path = tmp_path / f"z{m}.json"
    path.write_text(json.dumps(pf.action_to_json(act)))
    return str(path)


def test_crossed_product_runs_past_the_model_matrix_bound(capsys, tmp_path):
    # n * |G| = 4096: only image and reduced_norm form matrices that large
    code, env, _ = run(capsys, ["crossed-product", _free_cyclic_file(tmp_path, 64)])
    assert code == 0
    assert env["report"]["dimension"] == 4096
    assert env["report"]["center_dimension"] == 1


def test_crossed_product_takes_a_group_past_order_64(capsys, tmp_path):
    # Z/128 scans 128^2 pairs, well inside the scan pair limit
    code, env, _ = run(capsys, ["crossed-product", _free_cyclic_file(tmp_path, 128)])
    assert code == 0
    assert env["report"]["dimension"] == 128 * 128
    assert env["report"]["center_dimension"] == 1


def test_crossed_product_runs_no_svd(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("crossed-product called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    code, env, _ = run(capsys, ["crossed-product", _free_cyclic_file(tmp_path, 16)])
    assert code == 0
    assert env["report"]["center_dimension"] == 1


def test_commands_leave_numpy_ma_unloaded():
    """One crossed-product, covariant-rep, perturb and bernoulli certify run
    in a fresh interpreter import no ``numpy.ma`` (plain ``np.unique`` does),
    which would add to every command's start-up time and memory."""
    script = """
import contextlib, io, sys
from parfell.cli import main
for argv in (["crossed-product", "cyclic6.json"], ["covariant-rep", "free2.json", "--radius", "2"],
             ["perturb", "cyclic6.json", "--eta", "0.1", "--noise", "0.003", "--radius", "2"],
             ["bernoulli", "certify", "--group", "free:1", "--delta", "0.2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], cwd=DATA, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_bernoulli_certify_report(capsys):
    code, env, _ = run(
        capsys, ["bernoulli", "certify", "--group", "free:1", "--delta", "0.2"]
    )
    assert code == 0
    assert env["subcommand"] == "bernoulli certify"
    assert env["report"]["verified"] is True
    cert = env["report"]["certificate"]
    assert cert["N"] == 3
    assert cert["density_bound"] == 0.125
    assert cert["equivariance_defect"] == 0.0
    assert cert["points_checked"] == {"window": 8, "quotient": 8}
    assert cert["hom"]["images"] == [1]


def test_bernoulli_certify_budget_failure(capsys):
    code, env, _ = run(
        capsys,
        ["bernoulli", "certify", "--group", "free:1", "--delta", "0.2",
         "--max-order", "3"],
    )
    assert code == 1
    assert "error" in env


def test_bernoulli_certify_search_budget_exits_two(capsys):
    """Depth 15 on free:8 uses all 8 generators: 16^8 image tuples for
    each of Z/2 x Z/8 and Z/4 x Z/4, the targets of order 16.  Both run out
    of their tuple budget, and the first one's error is raised."""
    code, env, _ = run(capsys, ["bernoulli", "certify", "--group", "free:8", "--delta", "4e-5"])
    assert code == 2
    assert "MalformedDataError: certificate search stopped after 2097152 image tuples" in env["error"]
    assert "MAX_SEARCH_TUPLES" in env["error"]


def test_bernoulli_certify_no_abelian_quotient_exits_one(capsys):
    """Depth 11 on free:2 holds ``a b`` and ``b a``, whose exponent sums
    agree, so no abelian quotient separates the window, up to order 144."""
    code, env, _ = run(capsys, ["bernoulli", "certify", "--group", "free:2", "--delta", "0.0009",
                                "--max-order", "144"])
    assert code == 1
    assert env["error"] == "no homomorphism within the search budget separates the window"
    assert "report" not in env


def test_bernoulli_certify_equal_exponent_sums_exit_one_before_any_target(capsys, monkeypatch):
    """Depth 20 on free:3 holds ``a b`` and ``b a``: the search tries no
    target, so the order-132 one cannot run out of its tuple budget."""
    def refuse(*args):
        raise AssertionError("a target was searched")

    monkeypatch.setattr(bernoulli, "_first_separating", refuse)
    code, env, _ = run(capsys, ["bernoulli", "certify", "--group", "free:3", "--delta", "1.5e-6",
                                "--max-order", "144"])
    assert code == 1
    assert env["error"] == "no homomorphism within the search budget separates the window"


@pytest.mark.parametrize("command", ["bernoulli certify", "measure"], ids=["certify", "measure"])
def test_max_order_above_limit_exits_two(capsys, command):
    """``--max-order`` runs up to the largest finite group order: depth 100
    on free:1 is certified (and measured) through a quotient of order 110,
    and one more than 512 is refused, naming the limit."""
    argv = [*command.split(), "--group", "free:1", "--delta", "1e-30"]
    code, env, _ = run(capsys, [*argv, "--max-order", "513"])
    assert code == 2
    assert env["error"] == "MalformedDataError: max order 513 is outside 1..512"
    code, env, _ = run(capsys, [*argv, "--max-order", "200"])
    assert code == 0


def test_measure_reads_no_configuration_table(capsys, monkeypatch):
    """``measure`` counts over the bits each test reads: on the order-110
    certificate of depth 100 it never reads the model's table of 2^109
    configurations."""
    def refuse(self):
        raise AssertionError("QuotientApprox.bits read")

    monkeypatch.setattr(pf.QuotientApprox, "bits", property(refuse))
    code, env, _ = run(capsys, ["measure", "--group", "free:1", "--delta", "1e-30", "--max-order", "200"])
    assert code == 0
    report = env["report"]
    assert (report["N"], report["quotient_order"]) == (100, 110)
    assert report["measure"]["max_defect"] == 0.0
    assert {v["value"] for v in report["measure"]["values"]} == {1.0, 0.5}


BAD_TABLES = {"scalar": 5, "nested": [[[0]]], "ragged": [[0, 1], [1]]}


@pytest.mark.parametrize("table", sorted(BAD_TABLES))
def test_malformed_group_table_exits_two(capsys, tmp_path, table):
    """A finite group's table must be a list of equal-length lists of
    integers: any other shape, in an action file, a ``--group`` file or a
    ``--hom`` file, exits 2 with an error naming the table."""
    group = {"kind": "finite", "order": 2, "table": BAD_TABLES[table]}
    files = {}
    for name, data in (("action", {"group": group, "n": 1, "elements": []}), ("group", group),
                       ("hom", {"images": [1], "source": {"kind": "free", "rank": 1}, "target": group})):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(data), encoding="utf-8")
    runs = [[command, files["action"]] for command in
            ("validate-action", "covariant-rep", "defects", "crossed-product", "bundle-axioms")]
    runs += [["perturb", files["action"], "--eta", "0.1"]]
    runs += [[*argv[:-4], "--group", files["group"], "--delta", "0.2"] for argv in (CERTIFY, MEASURE)]
    runs += [[*argv, "--hom", files["hom"]] for argv in (CERTIFY, MEASURE)]
    for argv in runs:
        code, env, _ = run(capsys, argv)
        assert (code, env["error"]) == (2, "MalformedDataError: finite group 'table' must be a "
                                           "list of equal-length lists of integers"), argv


Z2 = {"kind": "finite", "order": 2, "table": [[0, 1], [1, 0]]}
FREE1 = {"kind": "free", "rank": 1}
TRIVIAL = {"kind": "finite", "table": [[0]]}
CERTIFY_FREE1 = ["bernoulli", "certify", "--group", "free:1", "--delta", "0.2"]
# name: (argv before the file, file data); file data None means no file
MALFORMED_INPUTS = {
    "hom images scalar": ([*CERTIFY_FREE1, "--hom"], {"images": 5, "source": FREE1, "target": Z2}),
    "hom images strings": ([*CERTIFY_FREE1, "--hom"], {"images": ["x"], "source": FREE1, "target": Z2}),
    "hom images floats": (["measure", "--group", "free:1", "--delta", "0.2", "--hom"],
                          {"images": [1.0], "source": FREE1, "target": Z2}),
    "action labels scalar": (["validate-action"], {"group": {**Z2, "labels": 5}, "n": 1, "elements": []}),
    "action labels ints": (["validate-action"], {"group": {**Z2, "labels": [1, 2]}, "n": 1, "elements": []}),
    "action rank bool": (["validate-action"], {"group": {"kind": "free", "rank": True}, "n": 1, "elements": []}),
    "action order float": (["validate-action"], {"group": {**TRIVIAL, "order": 1.0}, "n": 1, "elements": []}),
    "action order bool": (["validate-action"], {"group": {**TRIVIAL, "order": True}, "n": 1, "elements": []}),
    "action map key not canonical": (["validate-action"], {"group": Z2, "n": 3, "elements": [
        {"t": "1", "map": {"0": 1, "1": 0, "01": 2}}]}),
    "group labels scalar": (["bernoulli", "certify", "--delta", "0.2", "--group"], {**Z2, "labels": 5}),
    "group spec free": (["bernoulli", "certify", "--delta", "0.2", "--group", "free:x"], None),
    "group spec cyclic": (["measure", "--delta", "0.2", "--group", "cyclic:x"], None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_exit_two_quietly(capsys, tmp_path, name):
    """Images of a homomorphism must be a list of integers, group labels a
    list of strings, a free rank, a finite order and a built-in ``--group``
    count integers; anything else exits 2 with a ``MalformedDataError`` and
    nothing on stderr."""
    argv, data = MALFORMED_INPUTS[name]
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [*argv, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (code, captured.err) == (2, ""), error
    assert error.startswith("MalformedDataError: "), error


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["bundle-axioms", "covariant-rep", "defects", "measure"])
def test_out_of_range_tol_exits_two(capsys, swap_file, command, tol):
    """A decision tolerance that is negative or not finite is refused with
    an error naming the flag, as ``--noise`` is, not run as a check that
    every comparison fails.  covariant-rep and measure, which decide exact
    identities, take no ``--tol`` at all."""
    argv = MEASURE if command == "measure" else [command, swap_file]
    if command not in DECISION_TOL:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", tol])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        return
    code, env, _ = run(capsys, [*argv, "--tol", tol])
    assert code == 2
    assert env["error"] == f"MalformedDataError: --tol must be finite and >= 0, got {float(tol)!r}"


def test_measure_report(capsys):
    code, env, _ = run(capsys, ["measure", "--group", "free:1", "--delta", "0.2"])
    assert code == 0
    assert env["report"]["N"] == 3
    assert env["report"]["quotient_order"] == 4
    m = env["report"]["measure"]
    assert m["max_defect"] == 0.0
    assert m["normalization"] == 1.0
    vals = {v["test"]: v["value"] for v in m["values"]}
    assert vals["x[1] = 1"] == 0.5


def test_measure_builds_one_quotient_model(capsys, monkeypatch):
    """``measure`` averages over the model its certificate checked, not
    over a second build of it."""
    builds = []
    init = pf.QuotientApprox.__init__
    monkeypatch.setattr(pf.QuotientApprox, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    code, env, _ = run(capsys, ["measure", "--group", "free:1", "--delta", "0.01"])
    assert code == 0 and env["report"]["quotient_order"] == 8
    assert len(builds) == 1


def test_certify_builds_no_quotient_model(capsys, monkeypatch):
    """``bernoulli certify`` proves its certificate and re-verifies it from
    table identities, with no model of the quotient's configurations."""
    builds = []
    init = pf.QuotientApprox.__init__
    monkeypatch.setattr(pf.QuotientApprox, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    code, env, _ = run(capsys, ["bernoulli", "certify", "--group", "free:1", "--delta", "1e-4"])
    assert code == 0 and env["report"]["verified"] is True
    assert env["report"]["certificate"]["points_checked"] == {"window": 16384, "quotient": 16384}
    assert builds == []


def test_bundle_axioms_counts(capsys, swap_file):
    code, env, _ = run(capsys, ["bundle-axioms", swap_file, "--trials", "50"])
    assert code == 0
    assert env["report"]["checks"] == 200
    assert env["report"]["violations"] == []


# ---------------------------------------------------------------------------
# determinism and seeds


def test_reports_are_byte_identical(capsys, swap_file):
    argv = ["defects", swap_file, "--noise", "0.25", "--seed", "7"]
    _, _, first = run(capsys, argv)
    _, _, second = run(capsys, argv)
    assert first == second


DATA = Path(__file__).parent / "data"

GOLDEN_ARGS = {
    "covariant-rep": ["--radius", "2"],
    "defects": ["--noise", "0.01", "--seed", "3", "--radius", "2"],
    "perturb": ["--eta", "0.1", "--noise", "0.003", "--radius", "2"],
    "bundle-axioms": ["--radius", "2"],
    "crossed-product": [],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
@pytest.mark.parametrize("stem", ["swap", "cyclic6", "free2"])
def test_reports_match_golden(capsys, monkeypatch, stem, command):
    """Reports on the fixtures in tests/data stay byte-identical to the
    checked-in ones; relative paths keep the ``inputs`` keys stable."""
    monkeypatch.chdir(DATA)
    _, _, text = run(capsys, [command, f"{stem}.json", *GOLDEN_ARGS[command]])
    assert text == (DATA / "golden" / f"{stem}.{command}.json").read_text(encoding="utf-8")


BERNOULLI_GOLDENS = {
    "certify-free1": ["bernoulli", "certify", "--group", "free:1", "--delta", "0.01"],
    "certify-free2": ["bernoulli", "certify", "--group", "free:2", "--delta", "0.01"],
    "certify-free2-budget": ["bernoulli", "certify", "--group", "free:2", "--delta", "0.05",
                             "--max-order", "4"],
    "measure-free1": ["measure", "--group", "free:1", "--delta", "0.01"],
    "measure-free2": ["measure", "--group", "free:2", "--delta", "0.01"],
}


@pytest.mark.parametrize("name", sorted(BERNOULLI_GOLDENS))
def test_bernoulli_reports_match_golden(capsys, name):
    """Certificates and measure reports at window depth 7 (the budget case
    fails the search and exits 1) stay byte-identical."""
    code, _, text = run(capsys, BERNOULLI_GOLDENS[name])
    assert code == (1 if name.endswith("budget") else 0)
    assert text == (DATA / "golden" / f"bernoulli.{name}.json").read_text(encoding="utf-8")


def test_radius_zero_error_is_shared(capsys, monkeypatch):
    """Every free-group scan rejects radius 0 with one message."""
    monkeypatch.chdir(DATA)
    errors = set()
    for command, *extra in (["validate-action"], ["covariant-rep"], ["defects"],
                            ["perturb", "--eta", "0.1"], ["bundle-axioms"]):
        code, env, _ = run(capsys, [command, "free2.json", *extra, "--radius", "0"])
        assert code == 2
        errors.add(env["error"])
    assert errors == {"MalformedDataError: free-group scans need radius >= 1"}


def _edit_free2(edit):
    data = json.loads((DATA / "free2.json").read_text(encoding="utf-8"))
    edit(data)
    return data


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(elements=5),
        lambda d: d["elements"][0].update(domain=5),
        lambda d: d["elements"][0].update(domain=[0.0, 2, 3]),
        lambda d: d["elements"][0].update(t=5),
        lambda d: d["elements"][0]["map"].update({"0": 2.0}),
        lambda d: (d["elements"][0].pop("domain"), d["elements"][0]["map"].update({"2": True})),
        lambda d: d.update(n=True, elements=[{"t": "a", "map": {"0": 0}}]),
    ],
    ids=["elements-int", "domain-int", "domain-float", "t-int", "map-value-float",
         "map-value-bool", "n-bool"],
)
def test_malformed_action_fields_exit_two(capsys, tmp_path, edit):
    """Fields of the wrong JSON type are refused as malformed data, not
    read through int() or left to raise a TypeError.  Each edit keeps the
    declared domain consistent, so only the type check can catch it."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edit_free2(edit)))
    code, env, _ = run(capsys, ["validate-action", str(path)])
    assert code == 2
    assert env["error"].startswith("MalformedDataError: ")


@pytest.mark.parametrize("radius, code", [(5, 0), (6, 2), (7, 2)])
def test_scan_pair_limit(capsys, monkeypatch, radius, code):
    """Radius 5 on free:2 scans 485 words (235225 pairs) and finishes;
    radius 6 (2.1M pairs) and 7 (19M pairs) are refused at once."""
    monkeypatch.chdir(DATA)
    got, env, _ = run(capsys, ["covariant-rep", "free2.json", "--radius", str(radius)])
    assert got == code
    if code == 0:
        assert env["report"]["relations"]["skipped"] == []
    else:
        words = {6: 1457, 7: 4373}[radius]
        assert env["error"] == (
            f"MalformedDataError: a scan over {words} elements has {words**2} "
            f"element pairs, above the limit of {pf.MAX_SCAN_PAIRS}"
        )


def _json_text(value):
    return json.dumps(value, sort_keys=True, indent=2, default=_json_scalar)


def _encoded(value):
    out = []
    _encode(value, out, "")
    return "".join(out)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e-300, 1e300])
_STRINGS = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'))
class _Int(int):
    def __repr__(self):
        return "not json"


class _Float(float):
    __repr__ = _Int.__repr__


class _Str(str):
    __str__ = _Int.__repr__


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**200),
    _FLOATS, _STRINGS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
    # subclasses are written as their base type, whatever their repr
    st.integers().map(_Int), _FLOATS.map(_Float), _STRINGS.map(_Str),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=5)
    | st.dictionaries(st.integers() | _FLOATS, inner, max_size=3),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_report_encoder_matches_json_dumps(value):
    """The report encoder writes what ``json.dumps`` with sorted keys, a
    two-space indent and ``_json_scalar`` writes, byte for byte."""
    assert _encoded(value) == _json_text(value)


@settings(max_examples=100, deadline=None)
@given(_VALUES, st.sampled_from([object(), np.zeros(2), 1j, np.complex128(1), {1, 2}, b"x"]))
def test_report_encoder_refuses_what_json_dumps_refuses(value, bad):
    """An object that is not JSON data raises ``_json_scalar``'s TypeError,
    with the same text as through ``json.dumps``."""
    data = [value, {"k": bad}]
    with pytest.raises(TypeError) as want:
        _json_text(data)
    with pytest.raises(TypeError) as got:
        _encoded(data)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("is not JSON serializable")


def test_json_out_matches_stdout(capsys, swap_file, tmp_path):
    out = tmp_path / "report.json"
    _, _, text = run(
        capsys, ["validate-action", swap_file, "--json-out", str(out)]
    )
    assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("command", [
    ["validate-action", "{action}"], ["covariant-rep", "{action}"], ["defects", "{action}"],
    ["perturb", "{action}", "--eta", "0.01"], ["crossed-product", "{action}"], ["bundle-axioms", "{action}"],
    ["bernoulli", "certify", "--group", "{group}", "--hom", "{hom}", "--delta", "0.3"],
    ["measure", "--group", "{group}", "--hom", "{hom}", "--delta", "0.3"],
], ids=lambda c: c[0] if c[0] != "bernoulli" else "certify")
def test_each_input_is_opened_once(capsys, monkeypatch, swap_file, tmp_path, command):
    """Every input file is opened once, and the hash a report records is
    that of the bytes read."""
    hom = pf.GroupHom(pf.FreeGroup(1), pf.cyclic_group(4), (1,))
    files = {"action": swap_file, "group": str(tmp_path / "group.json"), "hom": str(tmp_path / "hom.json")}
    Path(files["group"]).write_text(json.dumps(pf.group_to_json(pf.FreeGroup(1))))
    Path(files["hom"]).write_text(json.dumps(pf.hom_to_json(hom)))
    argv = [a.format(**files) for a in command]
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k))
    code, env, _ = run(capsys, argv)
    monkeypatch.undo()
    assert code == 0
    read = [f for f in files.values() if f in argv]
    assert sorted(map(str, opened)) == sorted(read)
    assert env["inputs"] == {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in read}


def test_config_echoes_options(capsys, swap_file):
    """``config`` holds the registry, the options, and the shared options
    the subcommand reads: ``perturb`` reads a radius and a seed, and has no
    decision tolerance."""
    _, env, _ = run(capsys, ["perturb", swap_file, "--eta", "0.01", "--seed", "5"])
    config = env["config"]
    assert config["options"] == {"action": swap_file, "eta": 0.01, "noise": 0.0}
    assert (config["radius"], config["seed"]) == (3, 5)
    assert "decision_tol" not in config
    assert config["tolerances"] == TOLERANCES


def test_skipped_pairs_are_counted_per_relation(capsys):
    """At radius 5 on free:2 most pairs leave the ball: the report gives a
    count and a first pair per relation, not a record per pair."""
    code, env, text = run(capsys, ["defects", str(DATA / "free2.json"), "--radius", "5",
                                   "--noise", "0.01", "--seed", "3"])
    assert code == 1
    assert [r["entry"] for r in env["report"]["relations"]["skipped"]] == ["triple_product", "intertwine"]
    assert len(text) < 100_000


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("command", ["defects", "perturb"])
def test_skipped_counts_match_every_pair_reference(capsys, command, radius):
    """Each relation's skipped record holds the number of elements or pairs
    whose inverse or product lies outside the scanned ball, and the first
    of them in scan order, as a loop over every pair finds them."""
    path = str(DATA / "free2.json")
    extra = {"defects": ["--noise", "0.01", "--seed", "3"],
             "perturb": ["--eta", "0.1", "--noise", "0.003"]}[command]
    _, env, _ = run(capsys, [command, path, "--radius", str(radius), *extra])
    report = env["report"]
    got = report["relations"]["skipped"] if command == "defects" else report["certificate"]["skipped"]

    group = pf.action_from_json(json.loads(Path(path).read_text(encoding="utf-8"))).group
    elems = pf.scan_elements(group, radius)
    ball = set(elems)
    missing = {"selfadjoint": [[t] for t in elems if group.inverse(t) not in ball],
               "triple_product": [], "intertwine": []}
    for s in elems:
        for t in elems:
            st = group.multiply(s, t)
            if group.inverse(s) not in ball or st not in ball:
                missing["triple_product"].append([s, t])
            if st not in ball:
                missing["intertwine"].append([s, t])
    if command == "perturb":  # the certificate scans no intertwining law
        del missing["intertwine"]
    want = [{"entry": entry, "count": len(hits), "elements": [pf.word_to_str(group, g) for g in hits[0]]}
            for entry, hits in missing.items() if hits]
    assert want and got == want


# ---------------------------------------------------------------------------
# every accepted option is read


def accepted_options() -> set:
    """Every (subcommand, option) pair the parser accepts, ``-h`` aside."""
    pairs = set()

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{prefix} {name}".strip())
            elif action.option_strings and action.dest != "help":
                pairs.add((prefix, action.option_strings[0]))

    walk(build_parser(), "")
    return pairs


CERTIFY = ["bernoulli", "certify", "--group", "free:1", "--delta", "0.2"]
MEASURE = ["measure", "--group", "free:1", "--delta", "0.2"]

# per accepted pair, two runs that differ only in that option; {out} is a
# report file, {hom} a homomorphism file, {bad_free} and {broken} actions
# that fail the bundle axioms, so that their violations depend on the draws
OPTION_RUNS = {
    ("validate-action", "--radius"): (["validate-action", "free2.json", "--radius", "1"],
                                      ["validate-action", "free2.json", "--radius", "2"]),
    ("covariant-rep", "--radius"): (["covariant-rep", "free2.json", "--radius", "1"],
                                    ["covariant-rep", "free2.json", "--radius", "0"]),
    ("defects", "--radius"): (["defects", "free2.json", "--noise", "0.01", "--radius", "1"],
                              ["defects", "free2.json", "--noise", "0.01", "--radius", "2"]),
    ("defects", "--seed"): (["defects", "swap.json", "--noise", "0.1", "--seed", "1"],
                            ["defects", "swap.json", "--noise", "0.1", "--seed", "2"]),
    ("defects", "--tol"): (["defects", "swap.json", "--noise", "0.01"],
                           ["defects", "swap.json", "--noise", "0.01", "--tol", "1"]),
    ("defects", "--noise"): (["defects", "swap.json"], ["defects", "swap.json", "--noise", "0.01"]),
    ("perturb", "--radius"): (["perturb", "free2.json", "--eta", "0.1", "--radius", "1"],
                              ["perturb", "free2.json", "--eta", "0.1", "--radius", "2"]),
    ("perturb", "--seed"): (["perturb", "swap.json", "--eta", "0.1", "--noise", "0.003", "--seed", "1"],
                            ["perturb", "swap.json", "--eta", "0.1", "--noise", "0.003", "--seed", "2"]),
    ("perturb", "--eta"): (["perturb", "swap.json", "--eta", "0.1"],
                           ["perturb", "swap.json", "--eta", "0.05"]),
    ("perturb", "--noise"): (["perturb", "swap.json", "--eta", "0.1"],
                             ["perturb", "swap.json", "--eta", "0.1", "--noise", "0.003"]),
    ("crossed-product", "--expect-dim"): (["crossed-product", "swap.json"],
                                          ["crossed-product", "swap.json", "--expect-dim", "4"]),
    ("bernoulli certify", "--group"): (CERTIFY, [*CERTIFY[:3], "free:2", *CERTIFY[4:]]),
    ("bernoulli certify", "--delta"): (CERTIFY, [*CERTIFY[:5], "0.1"]),
    ("bernoulli certify", "--hom"): (CERTIFY, [*CERTIFY, "--hom", "{hom}"]),
    ("bernoulli certify", "--max-order"): (CERTIFY, [*CERTIFY, "--max-order", "3"]),
    ("measure", "--group"): (MEASURE, [*MEASURE[:2], "free:2", *MEASURE[3:]]),
    ("measure", "--delta"): (MEASURE, [*MEASURE[:4], "0.1"]),
    ("measure", "--hom"): (MEASURE, [*MEASURE, "--hom", "{hom}"]),
    ("measure", "--max-order"): (MEASURE, [*MEASURE, "--max-order", "3"]),
    ("bundle-axioms", "--radius"): (["bundle-axioms", "{bad_free}", "--trials", "20", "--radius", "1"],
                                    ["bundle-axioms", "{bad_free}", "--trials", "20", "--radius", "2"]),
    ("bundle-axioms", "--seed"): (["bundle-axioms", "{broken}", "--trials", "20", "--seed", "1"],
                                  ["bundle-axioms", "{broken}", "--trials", "20", "--seed", "2"]),
    ("bundle-axioms", "--tol"): (["bundle-axioms", "{broken}", "--trials", "20"],
                                 ["bundle-axioms", "{broken}", "--trials", "20", "--tol", "10"]),
    ("bundle-axioms", "--trials"): (["bundle-axioms", "swap.json", "--trials", "10"],
                                    ["bundle-axioms", "swap.json", "--trials", "20"]),
}
BASE_RUNS = {
    "validate-action": ["validate-action", "swap.json"],
    "covariant-rep": ["covariant-rep", "swap.json"],
    "defects": ["defects", "swap.json"],
    "perturb": ["perturb", "swap.json", "--eta", "0.1"],
    "crossed-product": ["crossed-product", "swap.json"],
    "bernoulli certify": CERTIFY,
    "measure": MEASURE,
    "bundle-axioms": ["bundle-axioms", "swap.json", "--trials", "10"],
}
OPTION_RUNS.update({(command, "--json-out"): (argv, [*argv, "--json-out", "{out}"])
                    for command, argv in BASE_RUNS.items()})


def test_every_accepted_option_has_runs():
    assert set(OPTION_RUNS) == accepted_options()


@pytest.fixture
def option_files(tmp_path):
    hom = {"images": [1], "source": {"kind": "free", "rank": 1},
           "target": {"kind": "finite", "order": 8,
                      "table": [[(i + j) % 8 for j in range(8)] for i in range(8)]}}
    # a^-1 is not the inverse of a, and Z/2 acts by a full 3-cycle
    bad_free = {"group": {"kind": "free", "rank": 1}, "n": 3,
                "elements": [{"t": "a", "map": {"0": 1, "1": 2}}, {"t": "a^-1", "map": {"0": 2}}]}
    broken = pf.action_to_json(pf.FinitePartialAction(pf.cyclic_group(2), 3, {1: {0: 1, 1: 2, 2: 0}}))
    files = {"out": str(tmp_path / "out.json")}
    for name, data in (("hom", hom), ("bad_free", bad_free), ("broken", broken)):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(data), encoding="utf-8")
    return files


@pytest.mark.parametrize("pair", sorted(OPTION_RUNS), ids=" ".join)
def test_every_option_changes_the_outcome(capsys, monkeypatch, option_files, pair):
    """Changing any accepted option changes the exit code, the report
    outside ``config``, or (``--json-out``) the file written."""
    monkeypatch.chdir(DATA)
    out = Path(option_files["out"])

    def outcome(argv):
        out.unlink(missing_ok=True)
        code = main([a.format(**option_files) for a in argv])
        env = json.loads(capsys.readouterr().out)
        env.pop("config", None)
        return code, env, out.read_text(encoding="utf-8") if out.exists() else None

    first, second = map(outcome, OPTION_RUNS[pair])
    assert first != second


# the shared options each subcommand takes no more: none changed its report,
# and covariant-rep and measure decide exact identities
REMOVED_PAIRS = [
    *((command, "--jobs") for command in BASE_RUNS),
    *((command, "--tol") for command in ("validate-action", "covariant-rep", "perturb",
                                          "crossed-product", "bernoulli certify", "measure")),
    *((command, "--radius") for command in ("crossed-product", "bernoulli certify", "measure")),
    *((command, "--seed") for command in ("validate-action", "covariant-rep", "crossed-product",
                                           "bernoulli certify", "measure")),
]


@pytest.mark.parametrize("pair", REMOVED_PAIRS, ids=" ".join)
def test_removed_options_exit_two(capsys, monkeypatch, pair):
    command, option = pair
    monkeypatch.chdir(DATA)
    with pytest.raises(SystemExit) as exc:
        main([*BASE_RUNS[command], option, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# library parameters that no caller outside the tests set: each call below
# binds no arguments, so it fails before any work
REMOVED_PARAMETERS = {
    "check_equivariance point_metric": lambda: pf.check_equivariance(None, point_metric=None),
    "section_mul max_word_length": lambda: pf.section_mul(None, None, None, max_word_length=1),
    "is_partial_isometry tol": lambda: pf.is_partial_isometry(None, tol=1e-10),
    "coordinate_indicator value": lambda: pf.CylinderFunction.coordinate_indicator(1, value=0),
    "same_data elements": lambda: pf.FinitePartialAction.same_data(None, None, elements=None),
    "hom_from_json source": lambda: pf.hom_from_json({}, source=None),
    "invariant_measure_approx elements": lambda: pf.invariant_measure_approx(None, [], elements=None),
    "certify_rfd max_cyclic": lambda: pf.certify_rfd(None, 0.1, max_cyclic=12),
}


@pytest.mark.parametrize("name", sorted(REMOVED_PARAMETERS))
def test_removed_library_parameters_raise_type_error(name):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        REMOVED_PARAMETERS[name]()
