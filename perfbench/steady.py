"""Run every workload over several seeds and report each end-to-end metric.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b] [--seconds S]

Run from the root of a parfell checkout.  For each workload and metric it
prints the median over seeds, the quartiles, and the spread (quartile
distance over the median) next to the metric's bound from BENCHMARK.json,
plus the fail ratio over all ops.  The benchmark is steady when every
spread except that of ``setup_s`` stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal = json.loads(lines[0].split(" ", 1)[1]).get("steal_ticks")
            print(f"{workload:14s} seed {seed:3d}  steal {steal}  " + "  ".join(
                f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 or metric["name"] == "setup_s" else "  WIDE"
            print(f"{workload:14s} {metric['name']:14s} median {med:12.6g} {metric['unit']:6s}"
                  f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                  f" bound {metric['bound']:.0%}{flag}", flush=True)
        print(f"{workload:14s} fail_ratio     {failed / max(attempted, 1):.6g}"
              f" ({failed} of {attempted} ops)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
