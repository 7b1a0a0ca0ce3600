"""Finite metric spaces: axiom scans, transforms, and covering dimension.

Distances are indexed by the point list and read through one gather,
:meth:`FiniteMetricSpace.distances`.  Spaces whose distances are all integer
powers of one base in (0, 1) (shift and residue-ring models) additionally
carry that base together with the integer exponent of every pair;
comparisons that would be noisy in floating point (ultrametric triples,
snowflake identities) are then done on the exponents exactly.  Such a space
may be given in closed form (:class:`PowerLevels`), and then holds no N x N
table until a scan or an export reads its ``exponents`` or ``matrix``.

Passes over all pairs walk the space in row blocks of at most
:data:`ROW_BLOCK_CELLS` cells (:func:`row_blocks`, :func:`upper_blocks`).
Apart from its inputs, such a pass holds at most one N x N result plus
temporaries the size of one block.  The two axiom scans read the whole
matrix, and the exponent table where the space has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError

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

    def exponent_table(self, n: int) -> np.ndarray:
        """The N x N exponent table of ``n`` points, a row block at a time."""
        index = np.arange(n)
        out = np.empty((n, n))
        for rows in row_blocks(n, n):
            np.take(self.exponents, self.of(index[rows, None], index), out=out[rows])
        return out


class FiniteMetricSpace:
    """A finite point set with a distance for every pair of its points.

    ``distances(rows, cols)`` gathers the distances of index pairs, bit for
    bit ``matrix[rows, cols]``; ``dist``, ``dist_exponent`` and
    ``diameter`` read the same data.  A NaN distance is refused, since
    every comparison with it is false and the scans would pass it.

    A space given a ``matrix`` stores it.  A power space (``power_base``
    set) has ``power_base ** exponents`` as its matrix, entry for entry,
    with ``inf`` exponents on the diagonal so equal points get distance
    exactly 0.  It is given either its N x N exponent table or ``levels``
    (:class:`PowerLevels`), a closed form over O(N) data.  A space with
    levels builds no N x N table until ``exponents`` or ``matrix`` is read:
    ``exponents`` is then filled from the levels a row block at a time and
    ``matrix`` is ``power_base ** exponents``, and the gathers read the
    matrix from then on.  A matrix given with an exponent table is
    rechecked against it a row block at a time.

    The verification scans memoise their verdicts and tallies per tolerance
    on the space, so neither table may be written to once built.
    """

    def __init__(
        self,
        points: tuple,
        matrix: np.ndarray | None = None,
        label: str = "",
        power_base: float | None = None,
        exponents: np.ndarray | None = None,
        levels: PowerLevels | None = None,
    ) -> None:
        n = len(points)
        if n == 0:
            raise InvalidInputError("a metric space needs at least one point")
        if len(set(points)) != n:
            raise InvalidInputError("duplicate points in metric space")
        self.points = points
        self.label = label
        self.power_base = power_base
        self.levels = levels
        self._matrix = matrix
        self._exponents = exponents
        if power_base is not None:
            if not 0.0 < power_base < 1.0:
                raise InvalidInputError(f"power base must lie in (0, 1), got {power_base}")
            if levels is not None:
                if np.isnan(levels.exponents).any():
                    raise InvalidInputError("distance matrix contains NaN")
                self._level_distances = power_base ** levels.exponents
            elif exponents is None or exponents.shape != (n, n):
                raise InvalidInputError("exponent table missing or mis-shaped")
            elif matrix is None and np.isnan(exponents.min()):
                raise InvalidInputError("distance matrix contains NaN")
        elif matrix is None:
            raise InvalidInputError("a metric space needs a distance matrix")
        if matrix is not None:
            if matrix.shape != (n, n):
                raise InvalidInputError(
                    f"distance matrix shape {matrix.shape} does not match {n} points"
                )
            # min propagates NaN, so this needs no N x N temporary.
            if np.isnan(matrix.min()):
                raise InvalidInputError("distance matrix contains NaN")
            if power_base is not None:
                for rows in row_blocks(n, n):
                    if not np.array_equal(power_base ** self.exponents[rows], matrix[rows]):
                        raise InvalidInputError(
                            "exponent table does not reproduce the matrix"
                        )
        self._index = {p: i for i, p in enumerate(points)}
        self._verdicts: dict = {}

    @property
    def exponents(self) -> np.ndarray | None:
        """The N x N exponent table of a power space, built on first read."""
        if self._exponents is None and self.levels is not None:
            self._exponents = self.levels.exponent_table(len(self))
        return self._exponents

    @property
    def matrix(self) -> np.ndarray:
        """The N x N distance matrix, built on first read."""
        if self._matrix is None:
            self._matrix = self.power_base ** self.exponents
        return self._matrix

    def _gathered(self) -> bool:
        """Whether the distances are read from the levels, not the matrix."""
        return self._matrix is None and self.levels is not None

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
            raise InvalidInputError(f"space {self.label!r} carries no exponent table")
        i, j = self.index_of(p), self.index_of(q)
        if self._exponents is None:
            return float(self.levels.exponents.take(self.levels.of(i, j)))
        return float(self._exponents[i, j])

    def diameter(self) -> float:
        if self._gathered():
            return float(self._level_distances.max())
        return float(self.matrix.max())


def metric_space_from_matrix(
    points: Sequence[Point],
    matrix: np.ndarray | Sequence[Sequence[float]],
    label: str = "",
) -> FiniteMetricSpace:
    """Build a space from any square array-like, copying to float64."""
    arr = np.asarray(matrix, dtype=float).copy()
    return FiniteMetricSpace(points=tuple(points), matrix=arr, label=label)


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


def shortest_paths(weights: np.ndarray, directed: bool, return_predecessors: bool = False):
    """scipy's ``floyd_warshall`` with every entry of a dense weight matrix
    as an edge.

    Handed a dense array, scipy reads zero entries as missing edges, and
    also every entry within 1e-8 of zero (it masks with
    ``np.ma.masked_values``).  Distinct points at a tiny or zero distance
    would then be cut apart.  A sparse matrix that stores every entry keeps
    them all.

    This is the one place the package imports scipy, so a run that solves
    no shortest paths never loads it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import floyd_warshall

    n = len(weights)
    graph = csr_matrix(
        (
            np.ascontiguousarray(weights, dtype=np.float64).ravel(),
            np.tile(np.arange(n, dtype=np.int32), n),
            np.arange(0, n * n + 1, n, dtype=np.int64),
        ),
        shape=(n, n),
    )
    return floyd_warshall(
        graph, directed=directed, return_predecessors=return_predecessors
    )


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


def _cells(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """How many cells of a boolean matrix are true, and the first
    :data:`WITNESS_LIMIT` of them, ``(i, j)`` in row-major order, read a row
    block at a time until they are found."""
    count = int(np.count_nonzero(mask))
    found = np.empty((0, 2), dtype=np.intp)
    for rows in row_blocks(*mask.shape):
        if len(found) == min(count, WITNESS_LIMIT):
            break
        cells = np.argwhere(mask[rows])[: WITNESS_LIMIT - len(found)] + (rows.start, 0)
        found = np.concatenate([found, cells])
    return count, found


@_memoised
def _basic_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    """Identity, symmetry and separation failures, found with array passes,
    witnessed in that order of kinds and row-major order of pairs.

    A symmetry failure is ``|m[i, j] - m[j, i]| > tol`` above the diagonal
    and ``0 > tol`` on and below it, so a negative ``tol`` flags every pair
    there.  A separation failure is ``m[i, j] <= tol`` with ``i < j``.
    """
    m = space.matrix
    pts = space.points
    asym = _with_transpose(np.subtract, m)
    np.abs(asym, out=asym)
    flagged = asym > tol
    if tol < 0:
        rows = np.arange(len(m))[:, None]
        flagged |= rows >= rows.T
    elif flagged.any():
        flagged = np.triu(flagged, 1)
    faulty, identity = _cells(np.abs(np.diag(m))[:, None] > tol)
    asymmetric, symmetry = _cells(flagged)
    close, separation = _cells(np.triu(m <= tol, 1))
    out = [AxiomViolation("identity", (pts[i],), float(abs(m[i, i]))) for i, _ in identity]
    out += [AxiomViolation("symmetry", (pts[i], pts[j]), float(asym[i, j])) for i, j in symmetry]
    for i, j in separation:
        out.append(AxiomViolation("separation", (pts[i], pts[j]), float(tol - m[i, j])))
    return faulty + asymmetric + close, tuple(out[:WITNESS_LIMIT])


def _triple_tally(
    space: FiniteMetricSpace, kind: str, key: np.ndarray, combine: np.ufunc, tol: float
) -> Tally:
    """The triples with ``key[i, j] > combine(key[i, k], key[k, j]) + tol``,
    ``i < j``, witnessed in the exhaustive scan's order (``k``, ``i``, ``j``)
    as ``kind`` violations with slack ``m[i, j] - combine(m[i, k], m[k, j])``.

    For each ``k`` the pairs are walked in :func:`upper_blocks`: O(N^3) in
    array calls that hold nothing larger than a block.
    """
    m = space.matrix
    pts = space.points
    blocks = list(upper_blocks(len(key)))
    count = 0
    out: list[AxiomViolation] = []
    for k in range(len(key)):
        for rows, cols, upper in blocks:
            bound = combine(key[rows, k, None], key[k, cols])
            bound += tol
            hit = key[rows, cols] > bound
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

    A dense Prim pass over ``w`` records the visiting order and the key
    ``h[t]`` by which the ``t``-th vertex joined.  Single-linkage clusters
    are contiguous in that order, so ``sub[order[a], order[b]]`` is
    ``max(h[a+1 .. b])`` for ``a < b``: a running maximum along each row of
    ``max(key, key.T)`` gathered in Prim order.  Both passes are O(N^2) in
    O(N) array calls per vertex, with ``w`` the only N x N temporary.
    """
    n = len(key)
    w = _with_transpose(np.minimum, key)
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


@_memoised
def _float_ultrametric_clear(space: FiniteMetricSpace, tol: float) -> bool:
    return _basic_clear(space, tol) and _within_subdominant(space.matrix, tol)


@_memoised
def _axiom_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    # Off the diagonal every distance is positive (separation and symmetry at
    # tol >= 0), so a float ultrametric at tol is also a metric at tol:
    # fl(a + b) >= max(a, b).
    # Otherwise the shortest-path fixpoint sp bounds every fl(m_ik + m_kj)
    # from below, since float addition is monotone.
    m = space.matrix
    if _basic_clear(space, tol) and (
        _float_ultrametric_clear(space, tol)
        or np.all(m <= shortest_paths(m, directed=True) + tol)
    ):
        return 0, ()
    basic_count, basic = _basic_tally(space, tol)
    triangle_count, triangle = _triple_tally(space, "triangle", m, np.add, tol)
    return basic_count + triangle_count, (basic + triangle)[:WITNESS_LIMIT]


@_memoised
def _ultrametric_tally(space: FiniteMetricSpace, tol: float) -> Tally:
    # With an exponent table the strong triangle inequality is compared on
    # exponents with no tolerance: a^e decreases in e, so it reads
    # e(x,z) >= min(e(x,y), e(y,z)), and negation turns the min into a max.
    if space.exponents is None:
        key, key_tol, clear = space.matrix, tol, _float_ultrametric_clear(space, tol)
    else:
        key, key_tol = -space.exponents, 0.0
        clear = _basic_clear(space, tol) and _within_subdominant(key, key_tol)
    return (0, ()) if clear else _triple_tally(space, "ultrametric", key, np.maximum, key_tol)


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
    ``tol``; the first :data:`WITNESS_LIMIT` are kept as witnesses.

    A space with no identity, symmetry or separation violation, an exactly
    zero diagonal and finite distances is first tested without enumerating
    triples: it passes if no distance exceeds its subdominant ultrametric
    (O(N^2)) or, failing that, its shortest-path distance (scipy's
    Floyd-Warshall, O(N^3) in C), each plus ``tol``.  Both tests imply that
    the triple scan finds nothing.  Any other space is tallied by O(N^3) array
    passes over row blocks, with the count and the witnesses' order and slack
    of the exhaustive scan.  Verdicts and tallies are memoised per ``tol`` on
    the space and shared with :func:`verify_ultrametric`.
    """
    return _scan(space, tol, with_ultra=False)


def verify_ultrametric(space: FiniteMetricSpace, tol: float = 0.0) -> MetricReport:
    """Like :func:`verify_metric_axioms`, plus the strong triangle inequality.

    On spaces with an exponent table, ultrametric triples are compared on
    integer exponents so no float slack enters at all.

    The strong inequality is first tested in O(N^2) against the subdominant
    ultrametric, on the negated exponents when the space has an exponent
    table and on the matrix with ``tol`` otherwise.  Only a space that fails
    this test is tallied by the O(N^3) triple pass, on the same key.
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
    becomes ``power_base ** alpha`` and the exponents are untouched, so the
    result shares the levels and any exponent table already built.
    """
    if alpha <= 0:
        raise InvalidInputError(f"snowflake exponent must be positive, got {alpha}")
    label = f"{space.label}^{alpha:g}" if space.label else f"snowflake^{alpha:g}"
    if space.power_base is not None:
        return FiniteMetricSpace(
            points=space.points,
            label=label,
            power_base=space.power_base ** alpha,
            exponents=space._exponents,
            levels=space.levels,
        )
    return FiniteMetricSpace(
        points=space.points, matrix=space.matrix ** alpha, label=label
    )


def truncate(space: FiniteMetricSpace, k: float) -> FiniteMetricSpace:
    """Cap every distance at ``k`` (``min(d, k)``), a metric again for k > 0."""
    if k <= 0:
        raise InvalidInputError(f"truncation level must be positive, got {k}")
    if k >= space.diameter():
        return space
    return FiniteMetricSpace(
        points=space.points,
        matrix=np.minimum(space.matrix, k),
        label=f"{space.label} (capped at {k:g})" if space.label else f"capped at {k:g}",
    )


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
    if scale <= 0:
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
    three, positive, strictly decreasing and each below the diameter (no
    constraint for a degenerate single-point space)."""
    scales = tuple(float(s) for s in scales)
    if len(scales) < 3:
        raise InvalidInputError("need at least three scales for a dimension fit")
    if any(s <= 0 for s in scales):
        raise InvalidInputError("scales must be positive")
    if any(a <= b for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("scales must be strictly decreasing")
    diam = space.diameter()
    if diam > 0 and any(s >= diam for s in scales):
        raise InvalidInputError(
            f"every scale must be below the diameter {diam:g}"
        )
    return scales


def box_counting_dimension(
    space: FiniteMetricSpace, scales: Sequence[float]
) -> DimensionFit:
    """Least-squares slope of log(covering count) against log(1/scale),
    over scales that :func:`fit_scales` accepts."""
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


def sup_distance(
    f: Callable[[Point], Point], g: Callable[[Point], Point], space: FiniteMetricSpace
) -> float:
    """Uniform distance ``max_x d(f(x), g(x))`` between two self-maps."""
    worst = 0.0
    for p in space.points:
        worst = max(worst, space.dist(f(p), g(p)))
    return worst
