"""Seeded input pools and independent oracles for the four workloads.

Each workload repeats one ``parfell`` CLI subcommand on inputs of one fixed
shape.  Inputs are generated here from the workload seed with the standard
library only, and every fact an oracle compares against is computed from
the generator's own data, never by calling the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

EXACT_TOL = 1e-12
PI_TOL = 1e-10
ETA = 0.1
NOISE = 0.003
POOL_SIZE = 256


@dataclass(frozen=True)
class Case:
    """One op's input: an optional JSON file plus the argv around it."""

    payload: bytes | None
    args: tuple[str, ...]
    facts: dict = field(default_factory=dict)

    def argv(self, path: str | None) -> list[str]:
        return [path if a == "{input}" else a for a in self.args]


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _restricted_maps(perms: dict, subset: list[int]) -> dict:
    """Restrict full permutations to ``subset``, relabelled 0..k-1."""
    index = {z: i for i, z in enumerate(sorted(subset))}
    return {
        t: {index[z]: index[p[z]] for z in index if p[z] in index}
        for t, p in perms.items()
    }


def _cycle_perm(cycles: list[list[int]], n: int) -> list[int]:
    perm = list(range(n))
    for cyc in cycles:
        for i, z in enumerate(cyc):
            perm[z] = cyc[(i + 1) % len(cyc)]
    return perm


def _power(perm: list[int], k: int) -> list[int]:
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[z] for z in out]
    return out


def _cyclic_group_json(m: int) -> dict:
    return {
        "kind": "finite",
        "order": m,
        "table": [[(i + j) % m for j in range(m)] for i in range(m)],
    }


def _action_json(group: dict, n: int, maps: dict) -> dict:
    return {
        "group": group,
        "n": n,
        "elements": [
            {"t": str(t), "map": {str(z): w for z, w in sorted(m.items())}}
            for t, m in maps.items()
        ],
    }


def _cyclic_action(rng: random.Random, m: int, cycle_type: list[int], points: int) -> dict:
    """Z/m acting through a permutation of the given cycle type, restricted."""
    n = sum(cycle_type)
    order = rng.sample(range(n), n)
    cycles, pos = [], 0
    for length in cycle_type:
        cycles.append(order[pos : pos + length])
        pos += length
    gen = _cycle_perm(cycles, n)
    perms = {t: _power(gen, t) for t in range(m)}
    return _restricted_maps(perms, rng.sample(range(n), points))


# ---------------------------------------------------------------------------
# exact_scan: covariant-rep on rank-2 free-group actions, radius 2

SCAN_GLOBAL, SCAN_POINTS, SCAN_RADIUS = 10, 8, 2


def _exact_scan_case(rng: random.Random) -> Case:
    perms = {g: rng.sample(range(SCAN_GLOBAL), SCAN_GLOBAL) for g in ("a", "b")}
    maps = _restricted_maps(perms, rng.sample(range(SCAN_GLOBAL), SCAN_POINTS))
    data = _action_json({"kind": "free", "rank": 2}, SCAN_POINTS, maps)
    return Case(
        _dumps(data),
        ("covariant-rep", "{input}", "--radius", str(SCAN_RADIUS)),
        {"points": SCAN_POINTS},
    )


def _check_exact_scan(case: Case, env: dict) -> list[str]:
    rep = env["report"]
    bad = []
    if rep["points"] != case.facts["points"] or rep["dim"] != case.facts["points"]:
        bad.append("point count or dimension differs from the input")
    rel, cov = rep["relations"], rep["covariance"]
    wanted = {"selfadjoint", "triple_product", "commuting_ranges", "intertwine"}
    if set(rel["entries"]) != wanted or set(cov["entries"]) != {"covariance"}:
        bad.append("defect entries missing")
    for name, value in {**rel["entries"], **cov["entries"]}.items():
        if not value <= EXACT_TOL:
            bad.append(f"{name} defect {value!r} exceeds {EXACT_TOL}")
    if rel["skipped"] or cov["skipped"]:
        bad.append("element pairs were skipped")
    return bad


# ---------------------------------------------------------------------------
# noisy_round: perturb on Z/16 acting on 12 of 16 points

ROUND_ORDER, ROUND_POINTS = 16, 12


def _noisy_round_case(rng: random.Random) -> Case:
    maps = _cyclic_action(rng, ROUND_ORDER, [ROUND_ORDER], ROUND_POINTS)
    data = _action_json(_cyclic_group_json(ROUND_ORDER), ROUND_POINTS, maps)
    noise_seed = rng.randrange(2**31)
    return Case(
        _dumps(data),
        ("perturb", "{input}", "--eta", repr(ETA), "--noise", repr(NOISE),
         "--seed", str(noise_seed)),
        {"elements": ROUND_ORDER},
    )


def _check_noisy_round(case: Case, env: dict) -> list[str]:
    cert = env["report"]["certificate"]
    eta = ETA
    # the standard model sends each point to a diagonal unit, so C = 1
    contraction = 1.0
    bounds = {
        "distance_bound": 10.0 * eta,
        "selfadjoint": 21.0 * eta,
        "triple_product": 51.0 * eta,
        "covariance": 21.0 * eta * (1.0 + contraction),
        "pi_defect": PI_TOL,
    }
    bad = []
    if cert["eta"] != eta or cert["contraction_constant"] != contraction:
        bad.append("eta or contraction constant differs from the input")
    if set(cert["entries"]) != set(bounds):
        bad.append("certificate entries missing")
    for name, bound in bounds.items():
        value = cert["entries"].get(name)
        if value is None or not value <= bound:
            bad.append(f"{name} = {value!r} exceeds its bound {bound}")
    if len(cert["per_element"]) != case.facts["elements"]:
        bad.append("not every element was rounded")
    if cert["skipped"]:
        bad.append("element pairs were skipped")
    return bad


# ---------------------------------------------------------------------------
# rfd_certify: bernoulli certify on free:2 at window depth 7

RFD_RANK, RFD_DEPTH = 2, 7


def _rfd_case(rng: random.Random) -> Case:
    # every delta in (2^-7, 2^-6) selects the same depth, hence the same work
    delta = round(2.0 ** -RFD_DEPTH * (1.05 + 0.9 * rng.random()), 8)
    return Case(
        None,
        ("bernoulli", "certify", "--group", f"free:{RFD_RANK}", "--delta", repr(delta)),
        {"delta": delta},
    )


def free_words(rank: int, count: int) -> list[tuple[int, ...]]:
    """First ``count`` reduced words, by length then letter order +1 < -1 < +2 < ..."""
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    words, level = [()], [()]
    while len(words) < count:
        level = [w + (s,) for w in level for s in letters if not (w and w[-1] == -s)]
        words.extend(level)
    return words[:count]


def _eval_hom(hom: dict, word: tuple[int, ...]) -> int:
    table = hom["target"]["table"]
    out = 0
    for s in word:
        x = hom["images"][abs(s) - 1]
        if s < 0:
            x = table[x].index(0)
        out = table[out][x]
    return out


def _check_rfd(case: Case, env: dict) -> list[str]:
    rep = env["report"]
    cert = rep["certificate"]
    depth = 0
    while 2.0 ** -depth >= case.facts["delta"]:
        depth += 1
    bad = []
    if rep["verified"] is not True:
        bad.append("certificate not verified")
    if cert["N"] != depth or cert["density_bound"] != 2.0 ** -depth:
        bad.append(f"depth or density bound differs from 2^-{depth}")
    if not cert["max_window_distance"] <= cert["density_bound"]:
        bad.append("window distance exceeds the density bound")
    hom = cert["hom"]
    if hom["source"] != {"kind": "free", "rank": RFD_RANK}:
        bad.append("hom source is not the free group")
    images = [_eval_hom(hom, w) for w in free_words(RFD_RANK, depth + 1)]
    if len(set(images)) != len(images) or 0 in images[1:]:
        bad.append("hom does not separate the window coordinates")
    return bad


# ---------------------------------------------------------------------------
# crossed_model: crossed-product on Z/6 acting on 6 of 8 points, 28 basis terms

CROSSED_ORDER, CROSSED_TYPE, CROSSED_POINTS, CROSSED_BASIS = 6, [6, 2], 6, 28


def center_dimension(maps: dict, n: int) -> int:
    """Sum over orbits of the isotropy order (the isotropy groups are abelian)."""
    parent = list(range(n))

    def find(z):
        while parent[z] != z:
            z = parent[z]
        return z

    for m in maps.values():
        for z, w in m.items():
            parent[find(z)] = find(w)
    roots = {find(z): z for z in range(n)}
    return sum(sum(1 for m in maps.values() if m.get(x) == x) for x in roots.values())


def _crossed_case(rng: random.Random) -> Case:
    while True:
        maps = _cyclic_action(rng, CROSSED_ORDER, CROSSED_TYPE, CROSSED_POINTS)
        basis = sum(len(m) for m in maps.values())
        if basis == CROSSED_BASIS:
            break
    data = _action_json(_cyclic_group_json(CROSSED_ORDER), CROSSED_POINTS, maps)
    return Case(
        _dumps(data),
        ("crossed-product", "{input}"),
        {"dimension": basis, "center_dimension": center_dimension(maps, CROSSED_POINTS)},
    )


def _check_crossed(case: Case, env: dict) -> list[str]:
    rep = env["report"]
    bad = []
    if rep["model_size"] != CROSSED_POINTS * CROSSED_ORDER:
        bad.append("model size differs from points x order")
    if rep["dimension"] != case.facts["dimension"]:
        bad.append(f"dimension {rep['dimension']} != {case.facts['dimension']}")
    if rep["center_dimension"] != case.facts["center_dimension"]:
        bad.append(
            f"center_dimension {rep['center_dimension']} != {case.facts['center_dimension']}"
        )
    return bad


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], Case]
    check: Callable[[Case, dict], list[str]]
    shape: dict
    reference: tuple[str, ...] = ("norms",)  # speed.py parts that track the op


WORKLOADS = {
    "exact_scan": Workload(
        _exact_scan_case, _check_exact_scan,
        {"group": "free:2", "points": SCAN_POINTS, "radius": SCAN_RADIUS,
         "ball_size": 1 + sum(4 * 3 ** (k - 1) for k in range(1, SCAN_RADIUS + 1))},
    ),
    "noisy_round": Workload(
        _noisy_round_case, _check_noisy_round,
        {"group": f"cyclic:{ROUND_ORDER}", "points": ROUND_POINTS, "eta": ETA, "noise": NOISE},
    ),
    "rfd_certify": Workload(
        _rfd_case, _check_rfd,
        {"group": f"free:{RFD_RANK}", "depth": RFD_DEPTH, "ball_size": RFD_DEPTH + 1},
    ),
    "crossed_model": Workload(
        _crossed_case, _check_crossed,
        {"group": f"cyclic:{CROSSED_ORDER}", "points": CROSSED_POINTS,
         "basis": CROSSED_BASIS, "model_size": CROSSED_POINTS * CROSSED_ORDER,
         "matrix_mb": CROSSED_BASIS**2 * (CROSSED_POINTS * CROSSED_ORDER) ** 2 * 16 / 2**20},
        reference=("norms", "svd"),
    ),
}


def make_pool(workload: str, seed: int, size: int = POOL_SIZE) -> list[Case]:
    """The workload's input pool; the same seed gives byte-identical inputs."""
    rng = random.Random(f"{workload}/{seed}")
    return [WORKLOADS[workload].make(rng) for _ in range(size)]


def check(workload: str, case: Case, rc: int, text: str) -> list[str]:
    """Problems with one op's outcome; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        env = json.loads(text)
        if env.get("ok") is not True:
            return ["report not ok"]
        return WORKLOADS[workload].check(case, env)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
