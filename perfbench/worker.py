"""One workload in a fresh process: set up, then time a closed loop of ops.

Started by ``run.py`` from the root of a checkout.  Set-up is the imports,
input generation and one untimed warm-up op.  The timed loop has one client:
each op calls ``parfell.cli.main(argv)`` in-process with stdout captured.
The op's report is then checked, and the reference kernel of ``speed.py``
runs once, outside the op's timing. Only then does the next op start. The
last stdout line is a JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before numpy is imported; the program is single-threaded
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 100  # leaves 10 samples beyond the nearest-rank p90
MIN_TRACE_SAMPLES = 20
MAX_TRACEBACKS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class Sample(NamedTuple):
    """One op's wall and CPU seconds, report size, verdict, and the
    reference kernel's wall and CPU seconds right after it."""

    wall: float
    cpu: float
    report_bytes: int
    ok: bool
    ref_wall: float
    ref_cpu: float


class Loop:
    """Closed loop over one input pool; counts every failure."""

    def __init__(self, cli, workload: str, ops: list, reference) -> None:
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.reference = reference
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0

    def run_op(self) -> Sample:
        """One op, checked, then one run of the reference kernel."""
        case, argv = self.ops[self.next % len(self.ops)]
        self.next += 1
        out = io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                traceback.print_exc()
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        text = out.getvalue()
        problems = ["raised"] if rc is None else workloads.check(self.workload, case, rc, text)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                print(f"op {argv}: {problems}", file=sys.stderr)
        return Sample(wall, cpu, len(text.encode()), not problems, *self.reference.run())

    def measure(self, seconds: float, min_samples: int, before_op=None) -> list[Sample]:
        gc.collect()
        samples = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(samples) < min_samples:
            if before_op is not None:
                before_op()
            samples.append(self.run_op())
        return samples


def end_to_end(samples: list[Sample], nominal_s: float) -> dict:
    """Metrics of one timed loop, op times at reference speed.

    Throughput is the median over blocks, so that a burst of steal time,
    which the reference kernel does not see, moves only its own block.
    """
    blocks = speed.normalized(samples, nominal_s)
    norm = [t for block in blocks for t in block]
    wall_ms = [w * 1e3 for w, _ in norm]
    return {
        "ops_per_s": statistics.median(len(b) / sum(w for w, _ in b) for b in blocks),
        "op_p50_ms": statistics.median(wall_ms),
        "op_p90_ms": percentile(wall_ms, 0.9),
        "cpu_ms_per_op": sum(c for _, c in norm) * 1e3 / len(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": sum(s.ok for s in samples) / len(samples),
    }


def p50(samples: list[Sample], nominal_s: float) -> float:
    """Median op wall time at reference speed."""
    blocks = speed.normalized(samples, nominal_s)
    return statistics.median(w for block in blocks for w, _ in block)


def raw_times(samples: list[Sample]) -> dict:
    """Unscaled op times and the reference kernel's time, for the record."""
    wall_ms = [s.wall * 1e3 for s in samples]
    return {
        "raw_op_p50_ms": statistics.median(wall_ms),
        "raw_op_p90_ms": percentile(wall_ms, 0.9),
        "reference_ms": statistics.median(s.ref_wall for s in samples) * 1e3,
    }


def record(workload: str, seed: int, samples: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "workload": workload,
        "seed": seed,
        "input_shape": workloads.WORKLOADS[workload].shape,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # parfell is imported from the checkout's src/, as the tier-1 tests do
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from parfell import cli

    pool = workloads.make_pool(args.workload, args.seed)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    try:
        ops = []
        for i, case in enumerate(pool):
            path = None
            if case.payload is not None:
                path = tmp / f"input-{i:03d}.json"
                path.write_bytes(case.payload)
                path = str(path.relative_to(root))
            ops.append((case, case.argv(path)))
        reference = speed.Reference(workloads.WORKLOADS[args.workload].reference)
        loop = Loop(cli, args.workload, ops, reference)
        loop.run_op()  # warm-up, untimed
        setup = time.perf_counter() - SETUP_START
        result = {"setup_s": setup * reference.factor()}
        if not args.setup_only:
            result.update(timed_run(loop, args))
        result["attempted"] = loop.attempted
        result["failed"] = loop.failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(loop: Loop, args) -> dict:
    steal = steal_ticks()
    if not args.trace:
        samples = loop.measure(args.seconds, MIN_SAMPLES)
        metrics = end_to_end(samples, loop.reference.nominal_s)
    else:
        import layertrace

        half = args.seconds / 2
        plain = loop.measure(half, MIN_TRACE_SAMPLES)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = loop.measure(half, MIN_TRACE_SAMPLES, before_op=tracer.next_op)
        finally:
            tracer.uninstall()
        for name in tracer.missing:
            print(f"warning: layer function {name} not found; its metrics read 0",
                  file=sys.stderr)
        nominal = loop.reference.nominal_s
        scale = nominal / statistics.median(s.ref_wall for s in traced)
        metrics = tracer.layer_metrics(len(traced), time_scale=scale)
        metrics["cli.report_bytes"] = statistics.mean(s.report_bytes for s in traced)
        metrics["trace.overhead_ratio"] = p50(traced, nominal) / p50(plain, nominal)
        out = HERE / ".out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        samples = plain + traced
    after = steal_ticks()
    rec = record(args.workload, args.seed, len(samples))
    rec["steal_ticks"] = None if steal is None or after is None else after - steal
    rec.update(raw_times(samples))
    return {"metrics": metrics, "record": rec}


if __name__ == "__main__":
    sys.exit(main())
