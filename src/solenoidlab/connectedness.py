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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .dynamics import SelfMap, index_cycles
from .errors import InvalidInputError, InvariantError
from .metric_core import FiniteMetricSpace, row_blocks, upper_blocks

Point = Any


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
    table = index_cycles(space, mapping)
    image = table.power(1)
    # labels[i] names the component of i among the edges seen so far.  The
    # map's cycles come first; each row block of close pairs then merges
    # components by one scipy call on the graph of their labels, so no pass
    # holds more than one block of pairs.
    labels = np.empty(n, dtype=np.intp)
    labels[table.slots] = table.start
    m = space.matrix
    for rows, cols, upper in upper_blocks(n):
        if not labels.any():
            break  # a single component: nothing left to merge
        close_i, close_j = np.nonzero((m[rows, cols] <= epsilon) & upper)
        if close_i.size:
            count = int(labels.max()) + 1
            graph = coo_matrix(
                (
                    np.ones(close_i.size, dtype=np.int8),
                    (labels[rows.start + close_i], labels[cols.start + close_j]),
                ),
                shape=(count, count),
            )
            labels = connected_components(graph, directed=False)[1][labels]
    # Blocks ordered by their smallest index, members in index order.
    _, first, which = np.unique(labels, return_index=True, return_inverse=True)
    root = first[which]
    members = np.argsort(root, kind="stable")
    bounds = np.flatnonzero(np.diff(root[members])) + 1
    blocks = tuple(
        tuple(space.points[i] for i in block) for block in np.split(members, bounds)
    )
    invariant = bool(np.all(labels[image] == labels))
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

    Takes the points up to ``max_iter`` steps away in each direction, read
    from the cycle through the origin.  A dense orbit chains the whole space
    together, so a positive answer forces a single component at the same
    resolution; that implication is checked and a failure raises
    :class:`InvariantError`.
    """
    if epsilon <= 0:
        raise InvalidInputError(f"resolution must be positive, got {epsilon}")
    if max_iter < 0:
        raise InvalidInputError(f"iteration budget must be nonnegative, got {max_iter}")
    cycle = mapping.orbit(origin)
    if 2 * max_iter + 1 < len(cycle):
        cycle = cycle[: max_iter + 1] + cycle[len(cycle) - max_iter:]
    rows = np.array(sorted(space.index_of(p) for p in cycle), dtype=np.intp)
    nearest = np.full(len(space), np.inf)
    for part in row_blocks(len(rows), len(space)):
        np.minimum(nearest, space.matrix[rows[part]].min(axis=0), out=nearest)
    covered = int(np.count_nonzero(nearest <= epsilon))
    dense = covered == len(space)
    if dense:
        parts = invariant_components(space, mapping, epsilon)
        if len(parts.blocks) != 1:
            raise InvariantError("dense orbit with a disconnected graph")
    return DenseOrbitReport(dense=dense, covering_fraction=covered / len(space))
