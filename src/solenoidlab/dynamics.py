"""Invertible self-maps of finite spaces and how they distort metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .errors import InvalidInputError, UnsupportedMapError
from .metric_core import FiniteMetricSpace, upper_blocks

Point = Any


class _CycleTable(NamedTuple):
    """The cycles of a permutation, each a tuple in map order, and for each
    point the cycle through it with the point's position in that cycle."""

    cycles: tuple[tuple, ...]
    where: dict


def _cycle_table(forward: dict, backward: dict) -> _CycleTable:
    """Decompose ``forward`` into cycles, checking it permutes its keys and
    that ``backward`` is its inverse."""
    if len(backward) != len(forward):
        raise UnsupportedMapError("the backward table is not the inverse of the forward one")
    where: dict = {}
    cycles = []
    for start in forward:
        if start in where:
            continue
        # None marks the points of the cycle being walked.
        walk = [start]
        where[start] = None
        q = forward[start]
        while q != start:
            if q in where or q not in forward:
                raise UnsupportedMapError("the forward table does not permute its keys")
            walk.append(q)
            where[q] = None
            q = forward[q]
        cycle = tuple(walk)
        for pos, p in enumerate(cycle):
            image = cycle[(pos + 1) % len(cycle)]
            if image not in backward or backward[image] != p:
                raise UnsupportedMapError(
                    "the backward table is not the inverse of the forward one"
                )
            where[p] = (cycle, pos)
        cycles.append(cycle)
    return _CycleTable(cycles=tuple(cycles), where=where)


@dataclass(frozen=True, eq=False)
class SelfMap:
    """A bijection of a finite point set, stored as forward/backward tables.

    ``kind`` is a free-form tag (``permutation-table``, ``shift-map``,
    ``group-translation``) kept for reports.

    Iterates, orbits and the order are read from a cycle table built on first
    use and kept on the map, so neither table may be written to after the map
    is first used.  Building it raises :class:`UnsupportedMapError` when
    ``forward`` does not permute its keys or ``backward`` is not its inverse.
    """

    forward: dict
    backward: dict
    kind: str = "permutation-table"

    def __call__(self, p: Point) -> Point:
        try:
            return self.forward[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the map's domain") from None

    def inverse(self, p: Point) -> Point:
        try:
            return self.backward[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the map's range") from None

    @cached_property
    def _cycles(self) -> _CycleTable:
        return _cycle_table(self.forward, self.backward)

    def _locate(self, p: Point) -> tuple[tuple, int]:
        try:
            return self._cycles.where[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the map's domain") from None

    def orbit(self, p: Point) -> tuple:
        """The cycle through ``p``: (p, f(p), f(f(p)), ...) up to first return."""
        cycle, pos = self._locate(p)
        return cycle[pos:] + cycle[:pos]

    def order(self) -> int:
        """Least n >= 1 with the n-th iterate equal to the identity."""
        return math.lcm(*(len(cycle) for cycle in self._cycles.cycles))


def self_map_from_function(
    points: Iterable[Point], fn: Callable[[Point], Point], kind: str = "permutation-table"
) -> SelfMap:
    """Tabulate ``fn`` over ``points`` and check it permutes them."""
    pts = list(points)
    forward = {p: fn(p) for p in pts}
    if set(forward.values()) != set(pts):
        raise UnsupportedMapError("the map does not permute the given point set")
    backward = {q: p for p, q in forward.items()}
    return SelfMap(forward=forward, backward=backward, kind=kind)


def iterate(mapping: SelfMap, n: int, x: Point) -> Point:
    """n-th iterate (negative n walks the inverse): one cycle-table lookup,
    so any |n| costs O(1)."""
    cycle, pos = mapping._locate(x)
    return cycle[(pos + n) % len(cycle)]


class IndexCycles(NamedTuple):
    """A map's cycle table in a space's index order: ``slots`` lists the
    space indices cycle after cycle, ``start``/``length`` give, for each
    slot, where its cycle begins and how long it is, and ``rank`` gives the
    slot of each space index."""

    slots: np.ndarray
    start: np.ndarray
    length: np.ndarray
    rank: np.ndarray

    def step(self, x: np.ndarray, n) -> np.ndarray:
        """Index of f^n(points[x]) for an index array ``x`` and whole
        numbers ``n``, integers or integral floats of any size, that
        broadcast against it.  ``n`` is reduced modulo the cycle length
        first, which is exact for floats too."""
        slot = self.rank[x]
        first = self.start[slot]
        length = self.length[slot]
        shift = np.remainder(n, length).astype(np.intp)
        return self.slots[first + (slot - first + shift) % length]

    def power(self, n: int) -> np.ndarray:
        """Index array of the n-th iterate: entry i is the index of f^n(points[i])."""
        return self.step(np.arange(len(self.slots)), n)

    def longest_pair_period(self) -> int:
        """The largest lcm of two cycle lengths (a cycle paired with itself
        included): every pair's joint orbit repeats within that many steps."""
        lengths = set(self.length.tolist())
        return max(math.lcm(a, b) for a in lengths for b in lengths)


def index_cycles(space: FiniteMetricSpace, mapping: SelfMap) -> IndexCycles:
    """The map's cycle table over the points of ``space``, which must be its domain."""
    if set(mapping.forward.keys()) != set(space.points):
        raise UnsupportedMapError("map domain does not match the space's points")
    cycles = mapping._cycles.cycles
    sizes = np.array([len(cycle) for cycle in cycles], dtype=np.intp)
    slots = np.fromiter(
        (space.index_of(p) for cycle in cycles for p in cycle), dtype=np.intp, count=len(space)
    )
    rank = np.empty_like(slots)
    rank[slots] = np.arange(len(slots))
    return IndexCycles(
        slots=slots,
        start=np.repeat(np.cumsum(sizes) - sizes, sizes),
        length=np.repeat(sizes, sizes),
        rank=rank,
    )


def _permutation_indices(space: FiniteMetricSpace, mapping: SelfMap) -> np.ndarray:
    return index_cycles(space, mapping).power(1)


# ============================================================
# Distortion estimates
# ============================================================

@dataclass(frozen=True)
class BilipschitzEstimate:
    """Smallest constant C with d(x,y)/C <= d(f(x),f(y)) <= C d(x,y) on the
    sample, with the pairs attaining each one-sided bound."""

    constant: float
    c_upper: float
    c_lower: float
    expanding_pair: tuple | None
    contracting_pair: tuple | None


def _worst_pairs(
    space: FiniteMetricSpace,
    mapping: SelfMap,
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
) -> list[tuple[float, tuple[int, int]]]:
    """One scan of the pairs i < j, a row block at a time.

    ``score(base, image, upper)`` maps a block of d(x_i, x_j) and
    d(f(x_i), f(x_j)), with the mask of its cells i < j, to value arrays that
    hold ``-inf`` off the mask.  For each value array this returns the
    maximum over all pairs and the first pair (i, j) attaining it in
    row-major order: what ``np.argmax`` over the values of every pair in
    ``np.triu_indices`` order gives, NaN included, since each block's and
    the blocks' first maxima are taken by ``np.argmax`` too.  Both blocks
    are gathered (:meth:`FiniteMetricSpace.distances`), so the scan needs
    no N x N table.
    """
    image = _permutation_indices(space, mapping)
    hits = []
    for rows, cols, upper in upper_blocks(len(space)):
        base = space.distances(rows, cols)
        moved = space.distances(image[rows, None], image[cols])
        found = []
        for values in score(base, moved, upper):
            k = int(np.argmax(values))
            r, c = divmod(k, values.shape[1])
            found.append((values.flat[k], (rows.start + r, cols.start + c)))
        hits.append(found)
    out = []
    for per_block in zip(*hits):
        value, pair = per_block[int(np.argmax([v for v, _ in per_block]))]
        out.append((float(value), pair))
    return out


def _ratios(base: np.ndarray, image: np.ndarray, upper: np.ndarray):
    if ((base == 0) & upper).any() or ((image == 0) & upper).any():
        raise InvalidInputError("zero distance between distinct points")
    up = np.divide(image, base, out=np.full(base.shape, -np.inf), where=upper)
    down = np.divide(base, image, out=np.full(base.shape, -np.inf), where=upper)
    return up, down


def _deviation(base: np.ndarray, image: np.ndarray, upper: np.ndarray):
    dev = np.full(base.shape, -np.inf)
    np.subtract(image, base, out=dev, where=upper)
    return (np.abs(dev, out=dev, where=upper),)


def estimate_bilipschitz_constant(
    space: FiniteMetricSpace, mapping: SelfMap
) -> BilipschitzEstimate:
    """Exhaustive over all pairs, with each bound's first pair in index
    order; the scan holds one row block of temporaries at a time."""
    if len(space) < 2:
        return BilipschitzEstimate(1.0, 1.0, 1.0, None, None)
    (c_upper, (ei, ej)), (c_lower, (ci, cj)) = _worst_pairs(space, mapping, _ratios)
    return BilipschitzEstimate(
        constant=max(c_upper, c_lower),
        c_upper=c_upper,
        c_lower=c_lower,
        expanding_pair=(space.points[ei], space.points[ej]),
        contracting_pair=(space.points[ci], space.points[cj]),
    )


@dataclass(frozen=True)
class IsometryReport:
    is_isometry: bool
    max_deviation: float
    worst_pair: tuple | None


def verify_isometry(
    space: FiniteMetricSpace, mapping: SelfMap, tol: float = 0.0
) -> IsometryReport:
    """Check |d(f(x),f(y)) - d(x,y)| <= tol over all pairs; the worst pair is
    the first attaining the maximum deviation in index order."""
    if len(space) < 2:
        return IsometryReport(True, 0.0, None)
    [(worst, (i, j))] = _worst_pairs(space, mapping, _deviation)
    return IsometryReport(
        is_isometry=worst <= tol,
        max_deviation=worst,
        worst_pair=(space.points[i], space.points[j]),
    )


def adapted_metric(space: FiniteMetricSpace, mapping: SelfMap) -> FiniteMetricSpace:
    """Largest distance along the joint orbit: sup_n d(f^n(x), f^n(y)).

    The joint orbit of a pair repeats after the lcm of its two cycle lengths,
    so the supremum is a maximum over the first ``period`` iterates, the
    largest such lcm (at most N^2, however large the map's order).  The
    result dominates d, is again a metric, and makes ``mapping`` an exact
    isometry.

    The maximum is taken by pointer doubling: ``out`` holds the maximum over
    the first w iterates, and max(out, out[P^w, P^w]) the maximum over the
    first 2w.  A last window shifted by P^(period - w), read from the cycle
    table, covers the rest, so the work is about log2(period) <= 2 log2(N)
    gathers of N^2 entries, each maximised into ``out`` in place.  ``max`` is
    exact, so the values are those of a step-by-step scan.
    """
    table = index_cycles(space, mapping)
    period = table.longest_pair_period()
    out = space.matrix.copy()
    step, width = table.power(1), 1
    while 2 * width <= period:
        np.maximum(out, out[np.ix_(step, step)], out=out)
        step, width = step[step], 2 * width
    if width < period:
        rest = table.power(period - width)
        np.maximum(out, out[np.ix_(rest, rest)], out=out)
    label = f"{space.label} (adapted)" if space.label else "adapted"
    return FiniteMetricSpace(points=space.points, matrix=out, label=label)
