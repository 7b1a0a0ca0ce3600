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


def _merge_labels(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The component of each of the labels ``0 .. count - 1`` in the graph
    with an edge from ``a[k]`` to ``b[k]`` for every ``k``.

    Components are numbered 0, 1, ... in the order of their smallest
    label, so the component holding label 0 is 0.  Each round hooks the
    larger root of every edge whose ends still differ to the smaller one
    (the smallest, where several edges meet one root), then jumps pointers
    until every label points at its root.  Roots only ever point lower, so
    no cycle forms.
    """
    root = np.arange(count)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return np.unique(root, return_inverse=True)[1]


def invariant_components(
    space: FiniteMetricSpace, mapping: SelfMap, epsilon: float
) -> ComponentPartition:
    if not epsilon > 0:
        raise InvalidInputError(f"resolution must be positive, got {epsilon}")
    n = len(space)
    table = index_cycles(space, mapping)
    image = table.power(1)
    # labels[i] names the component of i among the edges seen so far.  The
    # map's cycles come first; each row block of close pairs then merges the
    # components its pairs join (_merge_labels), so no pass holds more than
    # one block of pairs.  Label 0 stays the component of label 0, so all
    # zeros means one component.
    labels = np.empty(n, dtype=np.intp)
    labels[table.slots] = table.start
    for rows, cols, upper in upper_blocks(n):
        if not labels.any():
            break  # a single component: nothing left to merge
        close = space.distances(rows, cols) <= epsilon
        close_i, close_j = np.nonzero(close & upper)
        if close_i.size:
            merged = _merge_labels(
                int(labels.max()) + 1,
                labels[rows.start + close_i],
                labels[cols.start + close_j],
            )
            labels = merged[labels]
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
    if not epsilon > 0:
        raise InvalidInputError(f"resolution must be positive, got {epsilon}")
    if max_iter < 0:
        raise InvalidInputError(f"iteration budget must be nonnegative, got {max_iter}")
    table = index_cycles(space, mapping)
    i = space.index_of(origin)
    # An even cycle may list its antipode twice, which the minimum ignores.
    reach = min(max_iter, int(table.length[table.rank[i]]) // 2)
    rows = table.step(i, np.arange(-reach, reach + 1))
    nearest = np.full(len(space), np.inf)
    for part in row_blocks(len(rows), len(space)):
        block = space.distances(rows[part], slice(None))
        np.minimum(nearest, block.min(axis=0), out=nearest)
    covered = int(np.count_nonzero(nearest <= epsilon))
    dense = covered == len(space)
    if dense:
        parts = invariant_components(space, mapping, epsilon)
        if len(parts.blocks) != 1:
            raise InvariantError("dense orbit with a disconnected graph")
    return DenseOrbitReport(dense=dense, covering_fraction=covered / len(space))
