"""Self-tests of the benchmark: oracles, metric names, seeded input pools."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import worker
import workloads
from parfell import cli, matrices, reps

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_case(workload, case, tmp_path):
    path = None
    if case.payload is not None:
        path = tmp_path / "input.json"
        path.write_bytes(case.payload)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(case.argv(None if path is None else str(path)))
    return rc, out.getvalue()


def _corrupt(text, edit):
    env = json.loads(text)
    edit(env["report"])
    return json.dumps(env)


CORRUPTIONS = {
    "exact_scan": [
        lambda r: r["relations"]["entries"].update(triple_product=1e-6),
        lambda r: r["covariance"]["entries"].update(covariance=2e-12),
        lambda r: r["relations"]["skipped"].append({"entry": "intertwine"}),
        lambda r: r["relations"]["entries"].pop("intertwine"),
    ],
    "noisy_round": [
        lambda r: r["certificate"]["entries"].update(triple_product=5.2),
        lambda r: r["certificate"]["entries"].update(pi_defect=2e-10),
        lambda r: r["certificate"]["entries"].update(covariance=4.3),
        lambda r: r["certificate"]["per_element"].popitem(),
    ],
    "rfd_certify": [
        lambda r: r.update(verified=False),
        lambda r: r["certificate"].update(density_bound=2.0 ** -6),
        lambda r: r["certificate"]["hom"].update(images=[1, 1]),
        lambda r: r["certificate"]["hom"].update(images=[0, 1]),
    ],
    "crossed_model": [
        lambda r: r.update(center_dimension=r["center_dimension"] + 1),
        lambda r: r.update(dimension=r["dimension"] - 1),
    ],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_real_report_and_rejects_corruptions(workload, tmp_path):
    case = workloads.make_pool(workload, seed=3, size=1)[0]
    rc, text = _run_case(workload, case, tmp_path)
    assert workloads.check(workload, case, rc, text) == []
    assert workloads.check(workload, case, 1, text) != []
    assert workloads.check(workload, case, 0, text[:-20]) != []
    for edit in CORRUPTIONS[workload]:
        assert workloads.check(workload, case, 0, _corrupt(text, edit)) != []


def test_center_dimension_oracle_on_known_actions():
    # Z/2 swapping two points: one orbit, trivial isotropy
    assert workloads.center_dimension({0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}, 2) == 1
    # Z/2 fixing two points: two orbits, isotropy Z/2 each
    assert workloads.center_dimension({0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}}, 2) == 4


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.END_TO_END == declared
    samples = [worker.Sample(0.05, 0.04, 100, True, 0.004, 0.004),
               worker.Sample(0.06, 0.05, 100, False, 0.004, 0.004)]
    emitted = worker.end_to_end(samples, nominal_s=0.005)
    assert set(emitted) | {"setup_s"} == set(declared)
    assert emitted["ok_ratio"] == 0.5
    # the reference kernel ran at 4/5 of its nominal time, so op times scale by 5/4
    assert emitted["op_p50_ms"] == pytest.approx(55.0 * 1.25)


def test_layer_names_match_benchmark_json(tmp_path):
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layertrace.LAYER_METRICS == declared
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.next_op()
        _run_case("exact_scan", workloads.make_pool("exact_scan", 1, size=1)[0], tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    emitted = set(tracer.layer_metrics(1)) | {"cli.report_bytes", "trace.overhead_ratio"}
    assert emitted == set(declared)


def test_tracer_counts_and_uninstalls(tmp_path):
    original = matrices.op_norm
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert reps.op_norm is not original
        tracer.next_op()
        case = workloads.make_pool("exact_scan", 2, size=1)[0]
        rc, text = _run_case("exact_scan", case, tmp_path)
        assert workloads.check("exact_scan", case, rc, text) == []
    finally:
        tracer.uninstall()
    assert reps.op_norm is original and matrices.op_norm is original
    metrics = tracer.layer_metrics(1)
    # 17 elements: one identity check, 17 adjoints and 3 norms per pair
    assert metrics["matrices.op_norm.calls"] > 1 + 17 + 3 * 17**2
    assert metrics["reps.op_norm_per_pair"] == metrics["matrices.op_norm.calls"] / 17**2
    main_total = sum(row[1] for (_, name), row in tracer.per_op_breakdown().items()
                     if name == "cli.main")
    self_total = sum(row[2] for row in tracer.per_op_breakdown().values())
    assert self_total == pytest.approx(main_total)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_pool(workload):
    assert workloads.make_pool(workload, 11) == workloads.make_pool(workload, 11)


def _shape(workload, case):
    if case.payload is None:
        delta = case.facts["delta"]
        return next(n for n in range(64) if 2.0 ** -n < delta)
    data = json.loads(case.payload)
    return (data["group"].get("order"), data["n"], len(data["elements"]),
            case.facts.get("dimension"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs_not_shape(workload):
    a, b = workloads.make_pool(workload, 11), workloads.make_pool(workload, 12)
    assert [c.payload or c.args for c in a] != [c.payload or c.args for c in b]
    assert len({_shape(workload, c) for c in a + b}) == 1


def test_refuses_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
