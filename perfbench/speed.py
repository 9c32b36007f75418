"""Machine-speed reference: a fixed kernel timed next to every op.

On a shared 2-core VM the CPU's speed drifts by a quarter or more over
minutes, as other tenants come and go. CPU time drifts with it, so the raw
op times of one commit spread by 10-40% between runs. A fixed kernel that
never calls parfell slows by about the same factor. The benchmark times
this kernel after every op. It scales each op by the kernel's nominal time
over the kernel's median time in the op's block of BLOCK ops. Op times are
then reported at the speed where the kernel takes its nominal time.

The kernel is built from parts, and each workload names the parts that
track its own work best. ``norms`` is 32 operator norms of 8x8 complex
matrices. Their cost is mostly numpy's Python-level call overhead, so they
track interpreter-bound ops, and the pure-Python ``rfd_certify`` too.
``svd`` is one SVD of a tall 1500x28 matrix. It tracks the large SVD of
``crossed_model``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# nominal seconds per part, near their median on a 2-core Xeon VM
NOMINAL_S = {"norms": 0.0014, "svd": 0.0022}
BLOCK = 10


class Reference:
    def __init__(self, parts: tuple[str, ...]) -> None:
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                      for _ in range(32)] if "norms" in parts else []
        self.tall = [rng.standard_normal((1500, 28)) + 1j * rng.standard_normal((1500, 28))
                     ] if "svd" in parts else []
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)

    def run(self) -> tuple[float, float]:
        """One kernel run: (wall seconds, CPU seconds)."""
        wall, cpu = time.perf_counter(), time.process_time()
        for m in self.small:
            np.linalg.norm(m, 2)
        for m in self.tall:
            np.linalg.svd(m, compute_uv=False)
        return time.perf_counter() - wall, time.process_time() - cpu

    def factor(self, runs: int = 9) -> float:
        """Wall-time scale factor to reference speed, from fresh runs."""
        return self.nominal_s / statistics.median(self.run()[0] for _ in range(runs))


def normalized(samples: list, nominal_s: float) -> list[list[tuple[float, float]]]:
    """Consecutive blocks of (wall, CPU) per sample at reference speed."""
    out = []
    blocks = max(1, len(samples) // BLOCK)
    for b in range(blocks):
        block = samples[b * len(samples) // blocks:(b + 1) * len(samples) // blocks]
        wall = nominal_s / statistics.median(s.ref_wall for s in block)
        cpu = nominal_s / statistics.median(s.ref_cpu for s in block)
        out.append([(s.wall * wall, s.cpu * cpu) for s in block])
    return out
