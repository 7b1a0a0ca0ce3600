"""Reference dynamics: orbit walks, step-by-step powers and union-find.

The library reads iterates, orbits and permutation powers from a cycle table,
takes the adapted metric by pointer doubling and finds components with
scipy.  This module keeps the plain versions they replaced, each walking the
map one step at a time, so property tests can hold the library to them.
"""

from __future__ import annotations

import math

import numpy as np

from solenoidlab import ComponentPartition, FiniteMetricSpace, SelfMap, TorusSpace


def orbit_by_walk(mapping: SelfMap, p) -> tuple:
    out = [p]
    q = mapping(p)
    while q != p:
        out.append(q)
        q = mapping(q)
    return tuple(out)


def iterate_by_walk(mapping: SelfMap, n: int, x):
    orbit = orbit_by_walk(mapping, x)
    return orbit[n % len(orbit)]


def order_by_walk(mapping: SelfMap) -> int:
    seen: set = set()
    acc = 1
    for p in mapping.forward:
        if p not in seen:
            cyc = orbit_by_walk(mapping, p)
            seen.update(cyc)
            acc = math.lcm(acc, len(cyc))
    return acc


def permutation_indices_by_lookup(space: FiniteMetricSpace, mapping: SelfMap) -> np.ndarray:
    return np.array([space.index_of(mapping(p)) for p in space.points])


def perm_powers_by_steps(ts: TorusSpace, lo: int, hi: int) -> dict[int, np.ndarray]:
    space = ts.base_space
    fwd = permutation_indices_by_lookup(space, ts.monodromy)
    bwd = np.argsort(fwd)
    out = {0: np.arange(len(space))}
    for m in range(1, hi + 1):
        out[m] = fwd[out[m - 1]]
    for m in range(-1, lo - 1, -1):
        out[m] = bwd[out[m + 1]]
    return out


def adapted_matrix_by_steps(space: FiniteMetricSpace, mapping: SelfMap) -> np.ndarray:
    """max over n in [0, order) of d(f^n x, f^n y), one power at a time."""
    idx = permutation_indices_by_lookup(space, mapping)
    out = space.matrix.copy()
    cur = idx
    ident = np.arange(len(space))
    while not np.array_equal(cur, ident):
        out = np.maximum(out, space.matrix[np.ix_(cur, cur)])
        cur = idx[cur]
    return out


class _DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def components_by_union_find(
    space: FiniteMetricSpace, mapping: SelfMap, epsilon: float
) -> ComponentPartition:
    n = len(space)
    dsu = _DisjointSets(n)
    close = space.matrix <= epsilon
    for i, j in np.argwhere(np.triu(close, k=1)):
        dsu.union(int(i), int(j))
    for i, p in enumerate(space.points):
        dsu.union(i, space.index_of(mapping(p)))
    roots: dict[int, list] = {}
    for i, p in enumerate(space.points):
        roots.setdefault(dsu.find(i), []).append(p)
    blocks = tuple(tuple(members) for _, members in sorted(roots.items()))
    invariant = all({mapping(p) for p in block} == set(block) for block in blocks)
    return ComponentPartition(
        resolution=epsilon,
        blocks=blocks,
        invariant=invariant,
        witness=blocks[0] if len(blocks) > 1 else None,
    )
