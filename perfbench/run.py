"""Benchmark entry point; run from the root of a parfell checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Each call starts fresh worker processes (``worker.py``), which pin
BLAS/OpenMP threads to 1. With ``--trace 0``, four workers only set up, for
the median set-up time, and then one worker sets up and measures. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones.
With ``--trace 1`` they are the per-layer metrics of a traced run. The
lines before it show the metrics with their units, and they record the
machine, the versions, the code under test, the seed and the input shape.
Times are reported at reference speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
DEADLINE_S = 170

# end-to-end metric -> unit; ok_ratio is 1 - fail_ratio, which is never 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args: list[str], root: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _code_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "parfell" / "cli.py").is_file():
        print("error: run from the root of a parfell checkout (src/parfell is missing)",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_worker([*common, "--setup-only"], root, deadline)["setup_s"]
                  for _ in range(probes)]
        result = _worker([*common, "--trace", str(args.trace)], root, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        import layertrace

        units = {k: unit for k, (unit, _) in layertrace.LAYER_METRICS.items()}
    else:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    record = {**result["record"], **_code_identity(root), "setup_samples": setups}
    print("record " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:44s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{args.workload:14s} {'fail_ratio':44s} {fail_ratio:14.6g} ratio")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
