"""Finite metric spaces: axiom scans, transforms, and covering dimension.

Distances are indexed by the point list and read through one gather,
:meth:`FiniteMetricSpace.distances`.  A space is given either its
distance matrix or, when its distances are all integer powers of one base
in (0, 1) (shift and residue-ring models), that base and the exponent of
every pair in closed form (:class:`PowerLevels`).  A power space holds no
N x N table until a scan or an export reads its ``matrix``, and its
distances, strictly decreasing in exponent, compare exactly as exponents.

Passes over all pairs walk the space in row blocks of at most
:data:`ROW_BLOCK_CELLS` cells (:func:`row_blocks`, :func:`upper_blocks`).
Apart from its inputs, such a pass holds at most one N x N result plus
temporaries the size of one block.  The two axiom scans read the whole
matrix, plus one N x N temporary at a time.  :class:`ShortestPaths` solves
and keeps shortest paths, for the metric verdict and the torus chain table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, InvariantError

Point = Any

#: Default slack for floating-point comparisons in verification scans.
DEFAULT_TOLERANCE = 1.0e-9

#: Cells per row block of an N^2 pass (512 KiB of float64).  Read when a
#: pass starts, so a test can shrink it to put block edges anywhere.
ROW_BLOCK_CELLS = 1 << 16

#: Violations a failing scan keeps as witnesses, the first in scan order;
#: the rest are only counted.
WITNESS_LIMIT = 5


def row_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices covering ``range(count)`` in order, each of as many rows of
    ``width`` cells as fit in :data:`ROW_BLOCK_CELLS`, and at least one."""
    step = max(1, ROW_BLOCK_CELLS // max(1, width))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def upper_blocks(n: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """The pairs ``i < j`` of ``n`` points, a row block at a time: the rows,
    the columns from the block's first row plus one on, and the mask of the
    cells with ``j > i``.  Row-major order over the blocks' masked cells is
    the order of ``np.triu_indices(n, k=1)``.  Cell ``(a, b)`` of a block is
    the pair ``(rows.start + a, rows.start + 1 + b)``, above the diagonal when
    ``a <= b``, so every mask is a read-only view of the first block's."""
    blocks = list(row_blocks(n - 1, n))
    upper = np.arange(blocks[0].stop if blocks else 0)[:, None] <= np.arange(n - 1)
    upper.flags.writeable = False
    for rows in blocks:
        cols = slice(rows.start + 1, n)
        yield rows, cols, upper[: rows.stop - rows.start, : n - cols.start]


@dataclass(frozen=True, eq=False)
class PowerLevels:
    """A power space's distances in closed form over O(N) data.

    ``of(rows, cols)`` takes integer index arrays (or integers) that
    broadcast against each other and gives each pair's level, an index into
    ``exponents``, which holds the exponent of every level (``inf`` for
    equal points).  The smallest exponent of the table is attained by some
    pair, so a space reads its diameter off the table.
    """

    of: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exponents: np.ndarray

    def table(self, values: np.ndarray, n: int) -> np.ndarray:
        """The N x N table of ``values[level]`` over every pair of ``n``
        points, filled a row block at a time: the distance matrix from the
        distance of each level, or the exponent table from ``exponents``."""
        index = np.arange(n)
        out = np.empty((n, n), dtype=values.dtype)
        for rows in row_blocks(n, n):
            np.take(values, self.of(index[rows, None], index), out=out[rows])
        return out


class FiniteMetricSpace:
    """A finite point set with a distance for every pair of its points.

    ``distances(rows, cols)`` gathers the distances of index pairs, bit for
    bit ``matrix[rows, cols]``; ``dist``, ``dist_exponent`` and
    ``diameter`` read the same data.  A NaN distance is refused, since
    every comparison with it is false and the scans would pass it.

    A space is given in one of two forms.  A plain space is given its
    ``matrix`` and stores it.  A power space is given ``power_base`` in
    (0, 1) and ``levels`` (:class:`PowerLevels`), a closed form over O(N)
    data: the distance of a level is Python's ``power_base ** exponent``, with
    ``inf`` exponents on the diagonal so equal points get distance exactly
    0.  It builds no N x N table until ``matrix`` is read; the matrix is
    then gathered from the levels a row block at a time, and the gathers
    read it from then on.  Any other combination of the three is refused.

    The verification scans memoise their verdicts and tallies per tolerance
    on the space, so the matrix may not be written to once built.
    """

    def __init__(
        self,
        points: tuple,
        matrix: np.ndarray | None = None,
        power_base: float | None = None,
        levels: PowerLevels | None = None,
    ) -> None:
        n = len(points)
        if n == 0:
            raise InvalidInputError("a metric space needs at least one point")
        self._index = {p: i for i, p in enumerate(points)}
        if len(self._index) != n:
            raise InvalidInputError("duplicate points in metric space")
        given = (matrix is not None, power_base is not None, levels is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise InvalidInputError(
                "a metric space takes a distance matrix, or a power base with levels"
            )
        if matrix is None:
            if not 0.0 < power_base < 1.0:
                raise InvalidInputError(f"power base must lie in (0, 1), got {power_base}")
            if np.isnan(levels.exponents).any():
                raise InvalidInputError("distance matrix contains NaN")
            # numpy's array power can round differently from Python's, which
            # tests/shift_space_reference.py's shift_metric uses.
            distinct, where = np.unique(levels.exponents, return_inverse=True)
            self._level_distances = np.array([power_base ** e for e in distinct.tolist()])[where]
        elif matrix.shape != (n, n):
            raise InvalidInputError(
                f"distance matrix shape {matrix.shape} does not match {n} points"
            )
        elif np.isnan(matrix.min()):  # min propagates NaN: no N x N temporary
            raise InvalidInputError("distance matrix contains NaN")
        self.points = points
        self.power_base = power_base
        self.levels = levels
        self._matrix = matrix
        self._verdicts: dict = {}

    @property
    def matrix(self) -> np.ndarray:
        """The N x N distance matrix, built on first read."""
        if self._matrix is None:
            self._matrix = self.levels.table(self._level_distances, len(self))
        return self._matrix

    def _gathered(self) -> bool:
        """Whether the distances are read from the levels, not the matrix."""
        return self._matrix is None

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self._index

    def index_of(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in this space") from None

    def distances(self, rows, cols) -> np.ndarray:
        """``matrix[rows, cols]``, for integer index arrays (or integers)
        that broadcast against each other, or for a slice of columns with an
        integer, a slice or a 1-D index array of rows: one row, a block or
        some whole rows.  Once the matrix is built, a row or a block is a
        view of it, which the caller must not write to."""
        if not self._gathered():
            return self.matrix[rows, cols]
        if isinstance(cols, slice):
            index = np.arange(len(self))
            rows, cols = index[rows] if isinstance(rows, slice) else rows, index[cols]
            if np.ndim(rows) == 1:
                rows = rows[:, None]
        return self._level_distances.take(self.levels.of(rows, cols))

    def dist(self, p: Point, q: Point) -> float:
        return float(self.distances(self.index_of(p), self.index_of(q)))

    def dist_exponent(self, p: Point, q: Point) -> float:
        """Exact exponent of ``dist(p, q)`` as a power of ``power_base``.

        Returns ``inf`` for equal points.  Raises when the space carries no
        power structure.
        """
        if self.power_base is None:
            raise InvalidInputError("space carries no exponent table")
        i, j = self.index_of(p), self.index_of(q)
        return float(self.levels.exponents.take(self.levels.of(i, j)))

    def diameter(self) -> float:
        if self._gathered():
            return float(self._level_distances.max())
        return float(self.matrix.max())


def metric_space_from_matrix(
    points: Sequence[Point],
    matrix: np.ndarray | Sequence[Sequence[float]],
) -> FiniteMetricSpace:
    """Build a space from any square array-like, copying to float64."""
    arr = np.asarray(matrix, dtype=float).copy()
    return FiniteMetricSpace(points=tuple(points), matrix=arr)


# ============================================================
# Axiom verification
# ============================================================

@dataclass(frozen=True)
class AxiomViolation:
    """One failed comparison.

    ``kind`` is one of ``identity``, ``symmetry``, ``separation``,
    ``triangle``, ``ultrametric``.  For triangle and ultrametric kinds the
    points are ``(x, z, y)``: endpoints first, midpoint last.  ``slack`` is
    the amount by which the inequality failed.
    """

    kind: str
    points: tuple
    slack: float


@dataclass(frozen=True)
class MetricReport:
    """Outcome of a verification scan: each count is of every violation, each
    tuple holds the first :data:`WITNESS_LIMIT` in scan order.

    ``is_ultrametric`` is ``None`` when the strong triangle inequality was
    not part of the scan.
    """

    axiom_violations: tuple[AxiomViolation, ...]
    ultrametric_violations: tuple[AxiomViolation, ...]
    axiom_violation_count: int
    ultrametric_violation_count: int
    diameter: float
    is_metric: bool
    is_ultrametric: bool | None


#: How many comparisons failed, and the first :data:`WITNESS_LIMIT` of them.
Tally = tuple[int, tuple[AxiomViolation, ...]]


#: Side of the square tiles in which :func:`_with_transpose` pairs a matrix
#: with its transpose.
_TILE = 64


def _with_transpose(op: np.ufunc, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(m, m.T)``, one tile at a time.

    A whole ``m.T`` operand reads one element per row of ``m``; on large
    matrices those strided reads cost several times the arithmetic.  A
    64 x 64 tile of the transpose touches few enough pages to stay cached.
    """
    if out is None:
        out = np.empty_like(m)
    n = len(m)
    for i in range(0, n, _TILE):
        for j in range(0, n, _TILE):
            op(
                m[i : i + _TILE, j : j + _TILE],
                m[j : j + _TILE, i : i + _TILE].T,
                out=out[i : i + _TILE, j : j + _TILE],
            )
    return out


def _prim_order(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A dense Prim pass over the symmetric finite weights ``w`` from vertex
    0: the order in which the vertices join the tree, and the key ``h[t]``
    by which the ``t``-th joined (``inf`` for the first).

    Single-linkage clusters are contiguous in that order (Gower & Ross
    1969).  O(N^2) in O(N) array calls of length N.
    """
    n = len(w)
    order = np.empty(n, dtype=np.intp)
    h = np.empty(n)
    taken = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    v = 0
    for t in range(n):
        order[t] = v
        h[t] = best[v]
        taken[v] = True
        np.minimum(best, w[v], out=best)
        np.putmask(best, taken, np.inf)
        v = int(np.argmin(best))
    return order, h


#: Side of the square blocks in which :class:`ShortestPaths` stores its
#: distances and bounds what a pivot or a query can change.
_SOLVE_BLOCK = 32


class ShortestPaths:
    """All-pairs shortest paths over the complete graph whose edge weights
    are ``min(weights, weights.T)``, bit for bit scipy's undirected
    ``floyd_warshall`` of a graph that stores every entry as an edge (but for
    the sign of a zero where the weights hold ``-0.0``).  Every entry must be
    finite and nonnegative, or :class:`InvariantError` is raised; the
    diagonal is read as 0.

    The distances are kept only as they are solved: over the vertices in
    Prim order (:attr:`order`, :func:`_prim_order`), in square blocks of
    side :data:`_SOLVE_BLOCK`, ``inf`` past the last vertex.  :meth:`cells`
    and :meth:`matrix` read them by vertex index, and :meth:`lower` relaxes
    queries through them.

    The pivots ``k`` run in index order, and each relaxes ``D[i, j]`` to
    ``fl(D[i, k] + D[k, j])`` where that is smaller, as scipy's loop does;
    row and column ``k`` cannot change at pivot ``k``, since ``D[k, k]`` is
    0.  Four things make it fast without changing a bit:

    * A block pairs two runs of single-linkage neighbours.
    * A pivot skips every block pair ``(I, J)`` with ``fl(min_I c + min_J
      c) >= bmax[I, J]``, where ``c`` is column ``k`` with ``inf`` in row
      ``k`` (which cannot change) and ``bmax`` bounds each block's entries
      from above.  Rounding is monotone, so ``fl(c[i] + c[j]) >= D[i, j]``
      then holds on the whole block and no cell of it can change.  D never
      increases, so a bound stays valid; it is refreshed on each block a
      pivot relaxes.
    * ``fl(a + b) == fl(b + a)`` keeps D symmetric, so only the block pairs
      ``I <= J`` are relaxed (``bmax`` is ``-inf`` below the diagonal), and
      each relaxed block is written to its mirror too.  A pivot's column is
      then its row, one read.
    * Most pivots change nothing, and such a pivot leaves D and ``bmax`` as
      they were.  So the pivots are checked a window at a time, on one
      state: the window's columns are read at once, and the candidates
      ``fl(c[i] + c[j])`` of its live block pairs are compared with the
      blocks, a chunk of pairs at a time in pivot order.  The first pivot
      whose candidates fall below a cell is the only one applied: its
      blocks that change take the minimum, and the next window starts
      just after it.  The pivots before it changed nothing and are done.
      A window width starts at 1, doubles after a window that changes
      nothing, and holds at most :data:`ROW_BLOCK_CELLS` column cells.  A
      ``-0.0`` candidate does not fall below a ``+0.0`` cell, so a zero may
      keep the other sign than scipy's.

    Each window costs O(w N^2 / B^2) in a few array calls, plus B^2 per
    block pair of its pivots that it cannot rule out: scipy's O(N^3) at
    worst.  Besides the weights, the solve holds two N x N arrays at a time.
    """

    def __init__(self, weights: np.ndarray) -> None:
        n = len(weights)
        if n and not (weights.min() >= 0.0 and weights.max() < math.inf):
            raise InvariantError("shortest paths need finite nonnegative weights")
        b = _SOLVE_BLOCK
        nb = -(-n // b)
        w = _with_transpose(np.minimum, weights)
        order, _ = _prim_order(w)
        # The padding is inf, which no pivot relaxes.  D is stored whole, as
        # the solve keeps it symmetric.  The last block row can be short:
        # the strip's rows past its last vertex are reset to inf, so that
        # they keep no copy of the block row before.
        d = np.full((nb, nb, b, b), np.inf)
        strip = np.full((b, nb * b), np.inf)
        for rows in range(nb):
            take = order[rows * b : (rows + 1) * b]
            strip[: len(take), :n] = w.take(take, axis=0).take(order, axis=1)
            strip[len(take) :] = np.inf
            d[rows] = strip.reshape(b, nb, b).transpose(1, 0, 2)
        del w, strip
        at = np.arange(n)
        d[at // b, at // b, at % b, at % b] = 0.0
        bmax = d.max(axis=(2, 3))
        bmax[np.tril_indices(nb, -1)] = -np.inf
        place = np.empty(n, dtype=np.intp)
        place[order] = at
        span = max(1, ROW_BLOCK_CELLS // max(1, nb * b))
        start, width = 0, 1
        while start < n:
            pivots = place[start : start + width]
            K, o = np.divmod(pivots, b)
            cols = d[K, :, o, :]
            cols.reshape(len(pivots), nb * b)[np.arange(len(pivots)), pivots] = np.inf
            cmin = cols.min(axis=2)
            T, I, J = np.nonzero(cmin[:, :, None] + cmin[:, None, :] < bmax)
            first = None
            for part in row_blocks(len(T), b * b):
                t, i, j = T[part], I[part], J[part]
                if first is not None and t[0] != first:
                    break
                blocks = d[i, j]
                through = cols[t, i, :, None] + cols[t, j, None, :]
                hit = (through < blocks).any(axis=(1, 2))
                if first is None and hit.any():
                    first = t[hit.argmax()]
                if first is not None:
                    hit &= t == first
                    i, j, blocks = i[hit], j[hit], blocks[hit]
                    np.minimum(blocks, through[hit], out=blocks)
                    d[i, j] = blocks
                    d[j, i] = blocks.transpose(0, 2, 1)
                    bmax[i, j] = blocks.max(axis=(1, 2))
            if first is None:
                start, width = start + width, min(2 * width, span)
            else:
                start, width = start + int(first) + 1, 1
        #: The vertices in the order the distances are stored in.
        self.order = order
        self._place = place
        self._blocks = d
        self._block_min = d.min(axis=(2, 3))

    def __len__(self) -> int:
        return len(self.order)

    def cells(self, i, j) -> np.ndarray:
        """Distances between vertices ``i`` and ``j``: integers or broadcasting index arrays."""
        b = _SOLVE_BLOCK
        (I, a), (J, c) = divmod(self._place[i], b), divmod(self._place[j], b)
        return self._blocks[I, J, a, c]

    def matrix(self) -> np.ndarray:
        """The N x N distance matrix, in vertex index order."""
        n, nb, b = len(self), len(self._blocks), _SOLVE_BLOCK
        out = np.empty((n, n))
        for rows in range(nb):
            take = self.order[rows * b : (rows + 1) * b]
            strip = self._blocks[rows].transpose(1, 0, 2).reshape(b, nb * b)
            out[take] = strip[: len(take)].take(self._place, axis=1)
        return out

    def query_chunks(self, count: int) -> Iterator[slice]:
        """Slices of ``range(count)`` that :meth:`lower` takes within :data:`ROW_BLOCK_CELLS`."""
        nb = len(self._blocks)
        return row_blocks(count, nb * max(_SOLVE_BLOCK, nb))

    def lower(self, direct: np.ndarray, rows_p: np.ndarray, rows_q: np.ndarray) -> None:
        """Lower each ``direct[k]``, in place, to ``min over a, b of
        (rows_p[k, a] + D[a, b]) + rows_q[k, b]`` where that is smaller: the
        shortest path from a point p off the graph to a point q off it, with
        ``rows_p`` and ``rows_q`` their nonnegative edges to the vertices,
        one row per query, in the vertex order :attr:`order`.

        Every term is nonnegative and rounding is monotone, so each
        candidate of the blocks ``(I, J)`` is at least ``fl(fl(min
        rows_p[k, I] + min D[I, J]) + min rows_q[k, J])``: a triple ``(k, I,
        J)`` whose bound is not below ``direct[k]`` cannot lower it and is
        skipped.  For the rest, the minimum over a is taken before
        ``rows_q[k, b]`` is added, which monotone rounding also allows.  The
        result is bit for bit that of the full N x N sum.
        """
        nb, b = len(self._blocks), _SOLVE_BLOCK
        pad = ((0, 0), (0, nb * b - len(self)))
        rows_p, rows_q = (
            np.pad(x, pad, constant_values=np.inf).reshape(len(x), nb, b) for x in (rows_p, rows_q)
        )
        bound = rows_p.min(axis=2)[:, :, None] + self._block_min
        bound += rows_q.min(axis=2)[:, None, :]
        K, I, J = np.nonzero(bound < direct[:, None, None])
        for live in row_blocks(len(K), b * b):
            k, i, j = K[live], I[live], J[live]
            through = self._blocks[i, j]
            through += rows_p[k, i, :, None]
            best = through.min(axis=1)
            best += rows_q[k, j]
            np.minimum.at(direct, k, best.min(axis=1))


def _memoised(scan: Callable[[FiniteMetricSpace, float], Any]):
    """Keep ``scan(space, tol)`` on the space, one result per tolerance: a
    verdict (``True`` proves the exhaustive scan finds nothing) or a tally."""

    def cached(space: FiniteMetricSpace, tol: float):
        memo = space._verdicts  # type: ignore[attr-defined]
        key = (scan.__name__, tol)
        if key not in memo:
            memo[key] = scan(space, tol)
        return memo[key]

    return cached


def _cells(count_rows: int, width: int, block: Callable[[slice], np.ndarray]) -> tuple[int, list]:
    """How many cells of a ``count_rows`` x ``width`` boolean matrix are
    true, and the first :data:`WITNESS_LIMIT` of them, ``[i, j]`` in
    row-major order, read one row block ``block(rows)`` at a time."""
    count = 0
    found: list = []
    for rows in row_blocks(count_rows, width):
        hit = block(rows)
        count += int(np.count_nonzero(hit))
        if len(found) < WITNESS_LIMIT:
            found += (np.argwhere(hit)[: WITNESS_LIMIT - len(found)] + (rows.start, 0)).tolist()
    return count, found


@_memoised
def _basic_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    """Identity, symmetry and separation failures, found a row block at a
    time beside one N x N temporary, ``|m - m.T|``, and witnessed in that
    order of kinds and row-major order of pairs.

    A symmetry failure is ``|m[i, j] - m[j, i]| > tol`` above the diagonal
    and ``0 > tol`` on and below it, so a negative ``tol`` flags every pair
    there.  Separation fails at ``m[i, j] <= sep`` (:func:`_exact_tol`), ``i < j``.
    """
    m = space.matrix
    pts = space.points
    n = len(m)
    sep = _exact_tol(space, tol)
    asym = _with_transpose(np.subtract, m)
    np.abs(asym, out=asym)
    index = np.arange(n)

    def above(rows):
        return index > index[rows, None]

    faulty, identity = _cells(n, 1, lambda rows: np.abs(np.diag(m)[rows, None]) > tol)
    skewed, symmetry = _cells(n, n, lambda rows: np.where(above(rows), asym[rows] > tol, tol < 0))
    close, separation = _cells(n, n, lambda rows: (m[rows] <= sep) & above(rows))
    out = [AxiomViolation("identity", (pts[i],), float(abs(m[i, i]))) for i, _ in identity]
    out += [AxiomViolation("symmetry", (pts[i], pts[j]), float(asym[i, j])) for i, j in symmetry]
    for i, j in separation:
        out.append(AxiomViolation("separation", (pts[i], pts[j]), float(sep - m[i, j])))
    return faulty + skewed + close, tuple(out[:WITNESS_LIMIT])


def _triple_tally(space: FiniteMetricSpace, kind: str, combine: np.ufunc, tol: float) -> Tally:
    """The triples with ``m[i, j] > combine(m[i, k], m[k, j]) + tol``,
    ``i < j``, witnessed in the exhaustive scan's order (``k``, ``i``, ``j``)
    as ``kind`` violations with slack ``m[i, j] - combine(m[i, k], m[k, j])``.

    For each ``k`` the pairs are walked in :func:`upper_blocks`: O(N^3) in
    array calls that hold nothing larger than a block.
    """
    m = space.matrix
    pts = space.points
    blocks = list(upper_blocks(len(m)))
    count = 0
    out: list[AxiomViolation] = []
    for k in range(len(m)):
        for rows, cols, upper in blocks:
            bound = combine(m[rows, k, None], m[k, cols])
            bound += tol
            hit = m[rows, cols] > bound
            hit &= upper
            found = np.count_nonzero(hit)
            count += found
            if found and len(out) < WITNESS_LIMIT:
                for i, j in np.argwhere(hit)[: WITNESS_LIMIT - len(out)]:
                    i, j = rows.start + i, cols.start + j
                    slack = float(m[i, j] - combine(m[i, k], m[k, j]))
                    out.append(AxiomViolation(kind, (pts[i], pts[j], pts[k]), slack))
    return int(count), tuple(out)


def _within_subdominant(key: np.ndarray, tol: float) -> bool:
    """Whether ``key[i, j] <= sub[i, j] + tol`` for every ``i != j``.

    ``sub`` is the subdominant ultrametric of the edge weights
    ``w = min(key, key.T)``: the largest weight on the minimum spanning tree
    path from ``i`` to ``j``, which is the single-linkage cophenetic
    distance (Gower & Ross 1969).  Since ``sub[i, j] <= max(key[i, k],
    key[k, j])`` for every ``k``, a ``True`` answer rules out a
    strong-triangle violation at ``tol``.  Off-diagonal keys must be finite.

    A dense Prim pass over ``w`` (:func:`_prim_order`) gives the visiting
    order and the key ``h[t]`` by which the ``t``-th vertex joined.
    Single-linkage clusters are contiguous in that order, so ``sub[order[a], order[b]]`` is
    ``max(h[a+1 .. b])`` for ``a < b``: a running maximum along each row of
    ``max(key, key.T)`` gathered in Prim order.  Both passes are O(N^2) in
    O(N) array calls per vertex, with ``w`` the only N x N temporary.
    """
    n = len(key)
    w = _with_transpose(np.minimum, key)
    order, h = _prim_order(w)
    peak = _with_transpose(np.maximum, key, out=w)
    for a in range(n - 1):
        bound = np.maximum.accumulate(h[a + 1 :]) + tol
        if not np.all(peak[order[a]][order[a + 1 :]] <= bound):
            return False
    return True


@_memoised
def _basic_clear(space: FiniteMetricSpace, tol: float) -> bool:
    """No basic violation, an exactly zero diagonal and finite distances: the
    precondition of both fast verdicts.  A diagonal that is nonzero within
    ``tol`` shifts the triple scan's ``k = i`` and ``k = j`` sums, which
    neither bound covers."""
    m = space.matrix
    clear = not _basic_tally(space, tol)[0] and not np.diag(m).any()
    return clear and bool(np.isfinite(m).all())


def _exact_tol(space: FiniteMetricSpace, tol: float) -> float:
    """Separation's and the strong triangle inequality's tolerance: none on a
    power space.  There a distance is 0 only between equal points (or on
    underflow), ``max`` is exact and ``power_base ** e`` strictly decreases
    over the attained exponents, so ``d(x,z) > max(d(x,y), d(y,z))`` at 0 is
    ``e(x,z) < min(e(x,y), e(y,z))``: a comparison of exponents."""
    return 0.0 if space.levels is not None else tol


@_memoised
def _ultrametric_clear(space: FiniteMetricSpace, tol: float) -> bool:
    return _basic_clear(space, tol) and _within_subdominant(space.matrix, _exact_tol(space, tol))


@_memoised
def _axiom_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    # Off the diagonal every distance is positive (separation and symmetry at
    # tol >= 0), so a float ultrametric at tol, or at 0 on a power space, is
    # also a metric at tol: fl(a + b) >= max(a, b).
    # Otherwise the shortest-path fixpoint sp over min(m, m.T) bounds every
    # fl(m_ik + m_kj) from below, since float addition is monotone.
    m = space.matrix
    if _basic_clear(space, tol) and (
        _ultrametric_clear(space, tol)
        or np.all(m <= ShortestPaths(m).matrix() + tol)
    ):
        return 0, ()
    basic_count, basic = _basic_tally(space, tol)
    triangle_count, triangle = _triple_tally(space, "triangle", np.add, tol)
    return basic_count + triangle_count, (basic + triangle)[:WITNESS_LIMIT]


@_memoised
def _ultrametric_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    if _ultrametric_clear(space, tol):
        return 0, ()
    return _triple_tally(space, "ultrametric", np.maximum, _exact_tol(space, tol))


def _scan(space: FiniteMetricSpace, tol: float, with_ultra: bool) -> MetricReport:
    axiom_count, axioms = _axiom_tally(space, tol)
    ultra_count, ultra = _ultrametric_tally(space, tol) if with_ultra else (0, ())
    return MetricReport(
        axiom_violations=axioms,
        ultrametric_violations=ultra,
        axiom_violation_count=axiom_count,
        ultrametric_violation_count=ultra_count,
        diameter=space.diameter(),
        is_metric=not axiom_count,
        is_ultrametric=not (axiom_count or ultra_count) if with_ultra else None,
    )


def verify_metric_axioms(space: FiniteMetricSpace, tol: float = 0.0) -> MetricReport:
    """Exhaustively check identity, symmetry, separation and triangle.

    A violation is counted whenever an inequality fails by more than
    ``tol``, or on a power space by any amount for separation; the first
    :data:`WITNESS_LIMIT` are kept as witnesses.

    A space with no identity, symmetry or separation violation, an exactly
    zero diagonal and finite distances is first tested without enumerating
    triples: it passes if no distance exceeds its subdominant ultrametric
    (O(N^2), the verdict of :func:`verify_ultrametric`) or, failing that,
    its shortest-path distance over ``min(m, m.T)`` plus ``tol``
    (:class:`ShortestPaths`, a Floyd-Warshall that skips the block pairs a
    pivot cannot change, O(N^3) at worst).  Both tests imply that
    the triple scan finds nothing.  Any other space is tallied by O(N^3) array
    passes over row blocks, with the count and the witnesses' order and slack
    of the exhaustive scan.  Verdicts and tallies are memoised per ``tol`` on
    the space and shared with :func:`verify_ultrametric`.
    """
    return _scan(space, tol, with_ultra=False)


def verify_ultrametric(space: FiniteMetricSpace, tol: float = 0.0) -> MetricReport:
    """Like :func:`verify_metric_axioms`, plus the strong triangle inequality.

    The strong inequality is first tested in O(N^2) against the subdominant
    ultrametric, on the matrix with ``tol``, or with no tolerance on a power
    space, whose distances compare exactly as their exponents do.  Only a
    space that fails this test is tallied by the O(N^3) triple pass, at the
    same tolerance.  The verdict is the one :func:`verify_metric_axioms`
    reads, so a run with both scans makes one Prim pass per space.
    """
    return _scan(space, tol, with_ultra=True)


# ============================================================
# Transforms
# ============================================================

def snowflake(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """Raise every distance to the power ``alpha``.

    For 0 < alpha <= 1 this is again a metric, and for any alpha > 0 it
    preserves ultrametricity.  For alpha > 1 the result may only be a
    quasi-metric; nothing is asserted here, run a verification scan if the
    triangle defect matters.  Power-structured spaces stay exact: the base
    becomes ``power_base ** alpha`` and the result shares the levels.  A
    plain space takes one Python power per distinct distance, as the levels
    do: numpy's array power can round differently.
    """
    if not alpha > 0:
        raise InvalidInputError(f"snowflake exponent must be positive, got {alpha}")
    if space.power_base is not None:
        return FiniteMetricSpace(
            points=space.points, power_base=space.power_base ** alpha, levels=space.levels
        )
    # A negative distance has no real power; its NaN is refused.
    distinct, where = np.unique(space.matrix, return_inverse=True)
    powers = np.array([d ** alpha if d >= 0 else math.nan for d in distinct.tolist()])
    return FiniteMetricSpace(points=space.points, matrix=powers[where].reshape(space.matrix.shape))


def truncate(space: FiniteMetricSpace, k: float) -> FiniteMetricSpace:
    """Cap every distance at ``k`` (``min(d, k)``), a metric again for k > 0."""
    if not k > 0:
        raise InvalidInputError(f"truncation level must be positive, got {k}")
    if k >= space.diameter():
        return space
    return FiniteMetricSpace(points=space.points, matrix=np.minimum(space.matrix, k))


# ============================================================
# Covering counts and box dimension
# ============================================================

@dataclass(frozen=True)
class DimensionFit:
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    r_squared: float


def covering_number(space: FiniteMetricSpace, scale: float) -> int:
    """Greedy first-fit covering: walk points in index order, opening a new
    closed ball (centered at the current point) whenever the point is farther
    than ``scale`` from every existing center."""
    if not scale > 0:
        raise InvalidInputError(f"scale must be positive, got {scale}")
    covered = np.zeros(len(space), dtype=bool)
    count = 0
    for i in range(len(space)):
        if not covered[i]:
            count += 1
            covered |= space.distances(i, slice(None)) <= scale
    return count


def fit_scales(space: FiniteMetricSpace, scales: Sequence[float]) -> tuple[float, ...]:
    """``scales`` as floats, once checked fit for a dimension fit: at least
    three, positive, strictly decreasing, below the diameter (unless it is
    0) and apart enough that a line fit of their logarithms has rank 2."""
    scales = tuple(float(s) for s in scales)
    if len(scales) < 3:
        raise InvalidInputError("need at least three scales for a dimension fit")
    if any(not s > 0 for s in scales):
        raise InvalidInputError("scales must be positive")
    if any(a <= b for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("scales must be strictly decreasing")
    diam = space.diameter()
    if diam > 0 and any(s >= diam for s in scales):
        raise InvalidInputError(
            f"every scale must be below the diameter {diam:g}"
        )
    if np.polyfit(-np.log(scales), np.zeros(len(scales)), 1, full=True)[2] < 2:
        raise InvalidInputError(f"scales {scales} are too close together for a line fit")
    return scales


def box_counting_dimension(
    space: FiniteMetricSpace, scales: Sequence[float]
) -> DimensionFit:
    """Least-squares slope of log(covering count) against log(1/scale),
    over scales that :func:`fit_scales` accepts: its fit has rank 2."""
    scales = fit_scales(space, scales)
    counts = tuple(covering_number(space, s) for s in scales)
    if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])):
        raise InvalidInputError(f"covering counts decreased along scales: {counts}")
    x = -np.log(np.array(scales))
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(residuals ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionFit(
        scales=scales, counts=counts, slope=float(slope), r_squared=r_squared
    )
