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


class IndexCycles(NamedTuple):
    """A permutation's cycles over the indices of a point list: ``slots``
    lists the indices cycle after cycle, ``start``/``length`` give, for each
    slot, where its cycle begins and how long it is, and ``rank`` gives the
    slot of each index."""

    slots: np.ndarray
    start: np.ndarray
    length: np.ndarray
    rank: np.ndarray

    def step(self, x: np.ndarray, n) -> np.ndarray:
        """Index of f^n(points[x]) for an index array ``x`` and whole
        numbers ``n``, integers or integral floats of any size, that
        broadcast against it.  ``n`` is reduced modulo the cycle length
        first: exactly, in Python ints for an int beyond int64."""
        slot = self.rank[x]
        first = self.start[slot]
        length = self.length[slot]
        big = isinstance(n, int) and not -2 ** 63 <= n < 2 ** 63
        shift = np.remainder(n, length.astype(object) if big else length).astype(np.intp)
        return self.slots[first + (slot - first + shift) % length]

    def power(self, n: int) -> np.ndarray:
        """Index array of the n-th iterate: entry i is the index of f^n(points[i])."""
        return self.step(np.arange(len(self.slots)), n)

    def longest_pair_period(self) -> int:
        """The largest lcm of two cycle lengths (a cycle paired with itself
        included): every pair's joint orbit repeats within that many steps."""
        lengths = set(self.length.tolist())
        return max(math.lcm(a, b) for a in lengths for b in lengths)


def _build_cycles(forward: dict, backward: dict, index: dict) -> IndexCycles:
    """The cycle table of ``forward`` over its keys numbered by ``index``,
    each cycle from its smallest index, its head, and the cycles in the
    order of their heads; log2(N) rounds of pointer doubling find the heads.
    Refuses a ``forward`` that does not permute its keys and a ``backward``
    that is not its inverse."""
    n = len(forward)
    image = np.fromiter((index.get(q, -1) for q in forward.values()), np.intp, n)
    if (image < 0).any() or (np.bincount(image, minlength=n) != 1).any():
        raise UnsupportedMapError("the forward table does not permute its keys")
    missing = object()
    if len(backward) != n or any(backward.get(q, missing) != p for p, q in forward.items()):
        raise UnsupportedMapError("the backward table is not the inverse of the forward one")
    ids = np.arange(n)
    # After k rounds head[i] is the least of i, f(i), ..., f^(2^k - 1)(i),
    # reached at f^ahead[i](i), and hop is f^(2^k).
    head, ahead, hop = ids, np.zeros_like(ids), image
    for k in range(max(n - 1, 0).bit_length()):
        later = head[hop] < head
        head = np.where(later, head[hop], head)
        ahead = np.where(later, ahead[hop] + 2 ** k, ahead)
        hop = hop[hop]
    sizes = np.bincount(head, minlength=n)
    rank = (np.cumsum(sizes) - sizes)[head] + (-ahead) % sizes[head]
    slots = np.empty_like(rank)
    slots[rank] = ids
    return IndexCycles(slots, rank[head[slots]], sizes[head[slots]], rank)


@dataclass(frozen=True, eq=False)
class SelfMap:
    """A bijection of a finite point set, stored as forward/backward tables.

    ``kind`` is a free-form tag (``permutation-table``, ``shift-map``,
    ``group-translation``) kept for reports.

    Iterates, orbits and the order are views of one :class:`IndexCycles`
    over the domain in ``forward`` order, built on first use and kept on
    the map, so neither table may be written to after the map is first
    used.  Building it raises :class:`UnsupportedMapError` when ``forward``
    does not permute its keys or ``backward`` is not its inverse.
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
    def _domain(self) -> tuple:
        return tuple(self.forward)

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self._domain)}

    @cached_property
    def _cycles(self) -> IndexCycles:
        return _build_cycles(self.forward, self.backward, self._index)

    def _locate(self, p: Point) -> tuple[int, int, int]:
        """The slot of ``p`` in the cycle table, with its cycle's start and length."""
        table = self._cycles
        try:
            slot = int(table.rank[self._index[p]])
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the map's domain") from None
        return slot, int(table.start[slot]), int(table.length[slot])

    def orbit(self, p: Point) -> tuple:
        """The cycle through ``p``: (p, f(p), f(f(p)), ...) up to first return."""
        slot, first, length = self._locate(p)
        cycle = np.roll(self._cycles.slots[first:first + length], first - slot)
        return tuple(self._domain[i] for i in cycle.tolist())

    def order(self) -> int:
        """Least n >= 1 with the n-th iterate equal to the identity."""
        return math.lcm(*set(self._cycles.length.tolist()))


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
    reduced in Python ints, so any |n| costs O(1)."""
    slot, first, length = mapping._locate(x)
    return mapping._domain[mapping._cycles.slots[first + (slot - first + n) % length]]


def index_cycles(space: FiniteMetricSpace, mapping: SelfMap) -> IndexCycles:
    """The map's cycle table over the indices of ``space``, whose points
    must be the map's domain: the map's own table when the space lists them
    in ``forward`` order, as every model and every space derived from one
    does, and otherwise that table renumbered."""
    table = mapping._cycles
    if space.points == mapping._domain:
        return table
    to_domain = np.fromiter((mapping._index.get(p, -1) for p in space.points), np.intp)
    if len(space) != len(mapping._domain) or (to_domain < 0).any():
        raise UnsupportedMapError("map domain does not match the space's points")
    to_space = np.empty_like(to_domain)
    to_space[to_domain] = np.arange(len(space))
    return table._replace(slots=to_space[table.slots], rank=table.rank[to_domain])


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
    image = index_cycles(space, mapping).power(1)
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
