"""Invertible self-maps of finite spaces and how they distort metrics."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple

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

    def step(self, x: np.ndarray | int, n):
        """Index of f^n(points[x]) for an index or index array ``x`` and
        whole numbers ``n``, integers or integral floats of any size, that
        broadcast against it.  Where a 1-D ``x`` outnumbers the points times
        the span of shifts from the least n to the greatest, each f^n(x) is
        read from a table of one :meth:`power` per shift: a gather.  Otherwise
        ``n`` is reduced modulo the cycle length first: exactly, in Python
        ints for an int beyond int64."""
        if np.ndim(x) == 1 and len(x) > len(self.slots):
            low = np.min(n)
            span = np.max(n) - low + 1
            if len(x) > len(self.slots) * span:
                powers = np.stack([self.power(int(low) + k) for k in range(int(span))])
                return powers[np.asarray(n - low, dtype=np.intp), x]
        slot = self.rank[x]
        first = self.start[slot]
        length = self.length[slot]
        big = isinstance(n, int) and not -2 ** 63 <= n < 2 ** 63
        shift = np.asarray(n % (length.astype(object) if big else length), dtype=np.intp)
        return self.slots[first + (slot - first + shift) % length]

    def power(self, n: int) -> np.ndarray:
        """Index array of the n-th iterate: entry i is the index of f^n(points[i])."""
        return self.step(np.arange(len(self.slots)), n)

    def longest_pair_period(self) -> int:
        """The largest lcm of two cycle lengths (a cycle paired with itself
        included): every pair's joint orbit repeats within that many steps."""
        lengths = set(self.length.tolist())
        return max(math.lcm(a, b) for a in lengths for b in lengths)


def _build_cycles(image: np.ndarray) -> IndexCycles:
    """The cycle table of the permutation ``image`` of its indices, each
    cycle from its smallest index, its head, and the cycles in the order of
    their heads; log2(N) rounds of pointer doubling find the heads."""
    n = len(image)
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
    """A bijection of a finite point set: ``image[i]`` is the index in
    ``domain`` of the image of ``domain[i]``.

    Construction raises :class:`UnsupportedMapError` unless ``image`` is an
    integer array permuting ``range(len(domain))``, and keeps a read-only
    copy.  Iterates, orbits and the order are views of one
    :class:`IndexCycles` built from it on first use; ``forward`` and the
    point-to-index table, which refuses a repeated point, on first read.
    """

    domain: tuple
    image: np.ndarray

    def __post_init__(self) -> None:
        domain, image = tuple(self.domain), np.asarray(self.image)
        n = len(domain)
        in_range = image.dtype.kind in "iu" and image.shape == (n,) and (
            n == 0 or 0 <= image.min() <= image.max() < n
        )
        if not in_range or (np.bincount(image.astype(np.intp), minlength=n) != 1).any():
            raise UnsupportedMapError("the image is not a permutation of the domain's indices")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "image", image.astype(np.intp))
        self.image.flags.writeable = False

    def __call__(self, p: Point) -> Point:
        return self.domain[self.image[self._index_of(p)]]

    def inverse(self, p: Point) -> Point:
        return iterate(self, -1, p)

    @cached_property
    def forward(self) -> Mapping:
        """Each point of the domain to its image, read-only."""
        domain = self.domain
        return MappingProxyType({p: domain[i] for p, i in zip(domain, self.image.tolist())})

    @cached_property
    def _index(self) -> dict:
        index = {p: i for i, p in enumerate(self.domain)}
        if len(index) != len(self.domain):
            raise UnsupportedMapError("the map's domain repeats a point")
        return index

    def _index_of(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the map's domain") from None

    @cached_property
    def _cycles(self) -> IndexCycles:
        return _build_cycles(self.image)

    def orbit(self, p: Point) -> tuple:
        """The cycle through ``p``: (p, f(p), f(f(p)), ...) up to first return."""
        table, i = self._cycles, self._index_of(p)
        steps = np.arange(table.length[table.rank[i]])
        return tuple(self.domain[j] for j in table.step(i, steps).tolist())

    def order(self) -> int:
        """Least n >= 1 with the n-th iterate equal to the identity."""
        return math.lcm(*set(self._cycles.length.tolist()))


def self_map_from_function(points: Iterable[Point], fn: Callable[[Point], Point]) -> SelfMap:
    """Tabulate ``fn`` over the distinct ``points`` and check it permutes them."""
    domain = tuple(points)
    index = {p: i for i, p in enumerate(domain)}
    if len(index) != len(domain):
        raise InvalidInputError("duplicate points in the map's domain")
    image = np.fromiter((index.get(fn(p), -1) for p in domain), np.intp, len(domain))
    return SelfMap(domain, image)


def iterate(mapping: SelfMap, n: int, x: Point) -> Point:
    """n-th iterate (negative n walks the inverse): one cycle-table step,
    reduced exactly, so any |n| costs O(1).  ``n`` is any integer, a numpy
    integer too; a float, even an integral one, is refused."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidInputError(f"step count must be an integer, got {n!r}") from None
    return mapping.domain[mapping._cycles.step(mapping._index_of(x), n)]


def domain_indices(space: FiniteMetricSpace, mapping: SelfMap) -> np.ndarray | None:
    """The domain index of each point of ``space``, ``None`` when its points
    are the domain itself (as in every model), refusing any other points."""
    if space.points is mapping.domain or space.points == mapping.domain:
        return None
    to_domain = np.fromiter((mapping._index.get(p, -1) for p in space.points), np.intp)
    if len(space) != len(mapping.domain) or (to_domain < 0).any():
        raise UnsupportedMapError("map domain does not match the space's points")
    return to_domain


def index_cycles(space: FiniteMetricSpace, mapping: SelfMap) -> IndexCycles:
    """The map's cycle table over the indices of ``space``, whose points
    must be the map's domain: the map's own table when the space lists them
    in domain order, and otherwise that table renumbered."""
    to_domain = domain_indices(space, mapping)
    table = mapping._cycles
    if to_domain is None:
        return table
    to_space = np.argsort(to_domain)  # the inverse permutation
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
    return FiniteMetricSpace(points=space.points, matrix=out)
