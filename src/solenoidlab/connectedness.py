"""Connectivity of the glued space at a finite resolution.

The glued space is connected exactly when the base admits no proper clopen
set invariant under the monodromy.  At resolution epsilon the finite stand-in
is the component structure of the graph with an edge for every base pair at
distance <= epsilon and an edge from every point to its image.  Each
component is then an epsilon-clopen invariant set; more than one component
yields an explicit witness of disconnection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import SelfMap, iterate
from .errors import InvalidInputError, InvariantError
from .metric_core import FiniteMetricSpace

Point = Any


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


@dataclass(frozen=True)
class ComponentPartition:
    """Blocks are ordered by first appearance and each is closed under the
    map; ``witness`` is the first block whenever there are at least two."""

    resolution: float
    blocks: tuple[tuple[Point, ...], ...]
    invariant: bool
    witness: tuple[Point, ...] | None


def invariant_components(
    space: FiniteMetricSpace, mapping: SelfMap, epsilon: float
) -> ComponentPartition:
    if epsilon <= 0:
        raise InvalidInputError(f"resolution must be positive, got {epsilon}")
    n = len(space)
    dsu = _DisjointSets(n)
    close = space.matrix <= epsilon
    for i, j in np.argwhere(np.triu(close, k=1)):
        dsu.union(int(i), int(j))
    for i, p in enumerate(space.points):
        dsu.union(i, space.index_of(mapping(p)))
    roots: dict[int, list[Point]] = {}
    for i, p in enumerate(space.points):
        roots.setdefault(dsu.find(i), []).append(p)
    blocks = tuple(tuple(members) for _, members in sorted(roots.items()))
    invariant = all(
        {mapping(p) for p in block} == set(block) for block in blocks
    )
    return ComponentPartition(
        resolution=epsilon,
        blocks=blocks,
        invariant=invariant,
        witness=blocks[0] if len(blocks) > 1 else None,
    )


@dataclass(frozen=True)
class DenseOrbitReport:
    dense: bool
    covering_fraction: float


def dense_orbit_check(
    space: FiniteMetricSpace,
    mapping: SelfMap,
    origin: Point,
    epsilon: float,
    max_iter: int,
) -> DenseOrbitReport:
    """Does the origin's orbit come within epsilon of every point?

    Walks ``max_iter`` steps in each direction.  A dense orbit chains the
    whole space together, so a positive answer forces a single component at
    the same resolution; that implication is checked and a failure raises
    :class:`InvariantError`.
    """
    if epsilon <= 0:
        raise InvalidInputError(f"resolution must be positive, got {epsilon}")
    if max_iter < 0:
        raise InvalidInputError(f"iteration budget must be nonnegative, got {max_iter}")
    orbit = {origin}
    fwd = bwd = origin
    for _ in range(max_iter):
        fwd = mapping(fwd)
        bwd = mapping.inverse(bwd)
        orbit.add(fwd)
        orbit.add(bwd)
    rows = sorted(space.index_of(p) for p in orbit)
    nearest = space.matrix[rows].min(axis=0)
    covered = int(np.count_nonzero(nearest <= epsilon))
    dense = covered == len(space)
    if dense:
        parts = invariant_components(space, mapping, epsilon)
        if len(parts.blocks) != 1:
            raise InvariantError("dense orbit with a disconnected graph")
    return DenseOrbitReport(dense=dense, covering_fraction=covered / len(space))
