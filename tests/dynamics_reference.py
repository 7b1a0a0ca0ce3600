"""Reference dynamics: orbit walks, step-by-step powers and union-find.

The library reads iterates, orbits and permutation powers from a cycle table,
takes the adapted metric by pointer doubling and merges component labels
with a numpy union step.  This module keeps the plain versions they replaced,
each walking the map one step at a time, and scipy's connected components,
so property tests can hold the library to them.  It also keeps the
single-pass versions of the pair scans that the library now runs in row
blocks: bilipschitz, isometry, components and the dense-orbit covering.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from solenoidlab import (
    BilipschitzEstimate,
    ComponentPartition,
    DenseOrbitReport,
    FiniteMetricSpace,
    InvalidInputError,
    InvariantError,
    IsometryReport,
    SelfMap,
    TorusSpace,
)


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


def label_components_by_scipy(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy's component labels of the graph on ``0 .. count - 1`` with an
    edge from ``a[k]`` to ``b[k]`` for every ``k``."""
    graph = coo_matrix(
        (np.ones(len(a), dtype=np.int8), (a, b)), shape=(count, count)
    )
    return connected_components(graph, directed=False)[1]


# ============================================================
# All-at-once N^2 passes
# ============================================================
# The library walks these pairs in row blocks; these are the single-pass
# versions it replaced, each holding full-size temporaries.


def bilipschitz_all_at_once(space: FiniteMetricSpace, mapping: SelfMap) -> BilipschitzEstimate:
    n = len(space)
    if n < 2:
        return BilipschitzEstimate(1.0, 1.0, 1.0, None, None)
    idx = permutation_indices_by_lookup(space, mapping)
    m = space.matrix
    m2 = m[np.ix_(idx, idx)]
    iu, ju = np.triu_indices(n, k=1)
    base = m[iu, ju]
    image = m2[iu, ju]
    if np.any(base == 0) or np.any(image == 0):
        raise InvalidInputError("zero distance between distinct points")
    up = image / base
    down = base / image
    ei = int(np.argmax(up))
    ci = int(np.argmax(down))
    c_upper = float(up[ei])
    c_lower = float(down[ci])
    return BilipschitzEstimate(
        constant=max(c_upper, c_lower),
        c_upper=c_upper,
        c_lower=c_lower,
        expanding_pair=(space.points[iu[ei]], space.points[ju[ei]]),
        contracting_pair=(space.points[iu[ci]], space.points[ju[ci]]),
    )


def isometry_all_at_once(
    space: FiniteMetricSpace, mapping: SelfMap, tol: float = 0.0
) -> IsometryReport:
    n = len(space)
    if n < 2:
        return IsometryReport(True, 0.0, None)
    idx = permutation_indices_by_lookup(space, mapping)
    dev = np.abs(space.matrix[np.ix_(idx, idx)] - space.matrix)
    iu, ju = np.triu_indices(n, k=1)
    flat = dev[iu, ju]
    worst = int(np.argmax(flat))
    return IsometryReport(
        is_isometry=bool(flat[worst] <= tol),
        max_deviation=float(flat[worst]),
        worst_pair=(space.points[iu[worst]], space.points[ju[worst]]),
    )


def components_all_at_once(
    space: FiniteMetricSpace, mapping: SelfMap, epsilon: float
) -> ComponentPartition:
    """Every close pair and every map edge in one scipy call."""
    n = len(space)
    image = permutation_indices_by_lookup(space, mapping)
    close_i, close_j = np.nonzero(np.triu(space.matrix <= epsilon, k=1))
    rows = np.concatenate([close_i, np.arange(n)])
    cols = np.concatenate([close_j, image])
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    root = first[labels]
    members = np.argsort(root, kind="stable")
    bounds = np.flatnonzero(np.diff(root[members])) + 1
    blocks = tuple(
        tuple(space.points[i] for i in block) for block in np.split(members, bounds)
    )
    return ComponentPartition(
        resolution=epsilon,
        blocks=blocks,
        invariant=bool(np.all(labels[image] == labels)),
        witness=blocks[0] if len(blocks) > 1 else None,
    )


def dense_orbit_all_at_once(
    space: FiniteMetricSpace, mapping: SelfMap, origin, epsilon: float, max_iter: int
) -> DenseOrbitReport:
    """The covering minimum over a copy of all the orbit's rows at once."""
    cycle = orbit_by_walk(mapping, origin)
    if 2 * max_iter + 1 < len(cycle):
        cycle = cycle[: max_iter + 1] + cycle[len(cycle) - max_iter:]
    rows = sorted(space.index_of(p) for p in cycle)
    nearest = space.matrix[rows].min(axis=0)
    covered = int(np.count_nonzero(nearest <= epsilon))
    dense = covered == len(space)
    if dense and len(components_all_at_once(space, mapping, epsilon).blocks) != 1:
        raise InvariantError("dense orbit with a disconnected graph")
    return DenseOrbitReport(dense=dense, covering_fraction=covered / len(space))
