"""End-to-end command line coverage through in-process main()."""

import json
from pathlib import Path

import pytest

import parfell as pf
from parfell.cli import main


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


# ---------------------------------------------------------------------------
# subcommand reports


def test_covariant_rep_report(capsys, swap_file):
    code, env, _ = run(capsys, ["covariant-rep", swap_file])
    assert code == 0
    assert env["config"]["decision_tol"] == 1e-12
    rel = env["report"]["relations"]
    assert rel["skipped"] == []
    assert all(v <= 1e-12 for v in rel["entries"].values())


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


@pytest.mark.parametrize("command", ["bernoulli certify", "measure"], ids=["certify", "measure"])
def test_max_order_above_limit_exits_two(capsys, command):
    # depth 100 would otherwise pick a quotient of order 110 and enumerate
    # 2^109 configurations
    code, env, _ = run(
        capsys,
        [*command.split(), "--group", "free:1", "--delta", "1e-30", "--max-order", "200"],
    )
    assert code == 2
    assert env["error"] == "MalformedDataError: max order 200 exceeds the supported 16"


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
    "crossed-product": ["--radius", "2"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
@pytest.mark.parametrize("stem", ["swap", "cyclic6", "free2"])
def test_reports_match_golden(capsys, monkeypatch, stem, command):
    """Reports on the fixtures in tests/data stay byte-identical to the
    checked-in ones; relative paths keep the ``inputs`` keys stable."""
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PARFELL_SEED", raising=False)
    _, _, text = run(capsys, [command, f"{stem}.json", *GOLDEN_ARGS[command]])
    assert text == (DATA / "golden" / f"{stem}.{command}.json").read_text(encoding="utf-8")


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


def test_json_out_matches_stdout(capsys, swap_file, tmp_path):
    out = tmp_path / "report.json"
    _, _, text = run(
        capsys, ["validate-action", swap_file, "--json-out", str(out)]
    )
    assert out.read_text(encoding="utf-8") == text


def test_env_seed_overrides_flag(capsys, swap_file, monkeypatch):
    argv = ["defects", swap_file, "--noise", "0.25", "--seed", "7"]
    monkeypatch.setenv("PARFELL_SEED", "123")
    _, env, with_env = run(capsys, argv)
    assert env["config"]["seed"] == 123
    monkeypatch.delenv("PARFELL_SEED")
    _, _, explicit = run(
        capsys, ["defects", swap_file, "--noise", "0.25", "--seed", "123"]
    )
    assert with_env == explicit


def test_env_seed_must_be_integer(capsys, swap_file, monkeypatch):
    monkeypatch.setenv("PARFELL_SEED", "abc")
    code, env, _ = run(capsys, ["validate-action", swap_file])
    assert code == 2


def test_config_echoes_options(capsys, swap_file):
    _, env, _ = run(capsys, ["perturb", swap_file, "--eta", "0.01", "--seed", "5"])
    opts = env["config"]["options"]
    assert opts["eta"] == 0.01
    assert env["config"]["seed"] == 5
    assert env["config"]["tolerances"]["pi_tol"] == 1e-10
