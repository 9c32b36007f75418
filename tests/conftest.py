"""Shared generators: random valid partial actions built by restriction,
the restriction itself, the symmetric groups used as non-abelian cases,
and a dict-based letter composition that references compare rows with.

Restricting a global permutation action to an arbitrary subset always yields
a valid partial action, so these generators produce axioms-by-construction
inputs for randomized suites.  Cyclic groups act globally through a
permutation whose cycle lengths divide the order; free groups through
arbitrary permutations per generator.
"""

import itertools
from typing import Mapping, Sequence

import numpy as np
import pytest

import parfell as pf
from parfell import FiniteGroup, FinitePartialAction, GroupSpec, MalformedDataError


def restriction_action(
    group: GroupSpec,
    global_maps: Mapping[object, Sequence[int]],
    subset: Sequence[int],
) -> FinitePartialAction:
    """Restrict a global permutation action to a subset, relabelled 0..k-1.

    ``global_maps`` sends declared elements to full permutations; generators
    suffice for free groups, every element is expected for finite groups.
    """
    sub = sorted(set(int(z) for z in subset))
    index = {z: i for i, z in enumerate(sub)}
    maps = {}
    for g, perm in global_maps.items():
        perm = list(perm)
        if sorted(perm) != list(range(len(perm))):
            raise MalformedDataError("global map is not a permutation")
        pairs = {index[z]: index[perm[z]] for z in sub if perm[z] in index}
        maps[g] = pairs
    return FinitePartialAction(group, len(sub), maps)


def composed_map(action: FinitePartialAction, key) -> dict:
    """``eta_key`` as a dict, composed on dicts: a declared key's map, the
    identity for an undeclared identity, else the maps of a free word's
    letters with the rightmost acting first.  It reads only declared maps
    from the action, so references built on it check the action's own
    letter composition."""
    group = action.group
    key = group.check_element(key)
    if action.is_declared(key):
        return dict(action.element_map(key).pairs)
    out = {z: z for z in range(action.n)}
    if key == group.identity:
        return out
    if not isinstance(group, pf.FreeGroup):
        raise pf.UndeclaredElementError(f"no data for element {pf.word_to_str(group, key)}")
    for letter in reversed(key):
        if not action.is_declared((letter,)):
            raise pf.UndeclaredElementError(f"no data for generator letter {letter}")
        f = dict(action.element_map((letter,)).pairs)
        out = {z: f[w] for z, w in out.items() if w in f}
    return out


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n points; identity first, then lexicographic."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # compose(p, q)(i) = p(q(i))
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    labels = tuple("".join(map(str, p)) for p in perms)
    return FiniteGroup(table, labels)


def _divisor_cycles(rng: np.random.Generator, m: int, n: int) -> list[int]:
    divs = [d for d in range(1, m + 1) if m % d == 0]
    lengths = []
    left = n
    while left > 0:
        opts = [d for d in divs if d <= left]
        d = int(rng.choice(opts))
        lengths.append(d)
        left -= d
    return lengths


def _perm_with_order_dividing(rng: np.random.Generator, m: int, n: int) -> list[int]:
    pts = list(rng.permutation(n))
    perm = [0] * n
    pos = 0
    for length in _divisor_cycles(rng, m, n):
        cyc = pts[pos : pos + length]
        for i, z in enumerate(cyc):
            perm[z] = cyc[(i + 1) % length]
        pos += length
    return perm


def random_cyclic_action(rng: np.random.Generator, m: int, n_global: int) -> pf.FinitePartialAction:
    group = pf.cyclic_group(m)
    perm = _perm_with_order_dividing(rng, m, n_global)
    power = list(range(n_global))
    global_maps = {}
    for j in range(m):
        global_maps[j] = list(power)
        power = [perm[z] for z in power]
    k = int(rng.integers(1, n_global + 1))
    subset = rng.choice(n_global, size=k, replace=False)
    return restriction_action(group, global_maps, subset)


def random_free_action(rng: np.random.Generator, rank: int, n_global: int) -> pf.FinitePartialAction:
    group = pf.FreeGroup(rank=rank)
    global_maps = {}
    for i in range(1, rank + 1):
        perm = list(rng.permutation(n_global))
        inv = [0] * n_global
        for z, w in enumerate(perm):
            inv[w] = z
        global_maps[(i,)] = perm
        global_maps[(-i,)] = inv
    k = int(rng.integers(1, n_global + 1))
    subset = rng.choice(n_global, size=k, replace=False)
    return restriction_action(group, global_maps, subset)


GROUP_MENU = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5),
              ("cyclic", 6), ("free", 1), ("free", 2)]


def random_valid_action(rng: np.random.Generator, max_points: int = 8) -> pf.FinitePartialAction:
    kind, par = GROUP_MENU[int(rng.integers(0, len(GROUP_MENU)))]
    n_global = int(rng.integers(2, max_points + 1))
    if kind == "cyclic":
        return random_cyclic_action(rng, par, n_global)
    return random_free_action(rng, par, n_global)


@pytest.fixture
def swap_action() -> pf.FinitePartialAction:
    return pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})


@pytest.fixture
def fixed_point_action() -> pf.FinitePartialAction:
    return pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 0}})
