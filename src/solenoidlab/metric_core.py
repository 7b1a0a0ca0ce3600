"""Finite metric spaces: axiom scans, transforms, and covering dimension.

Distances live in a dense symmetric matrix indexed by the point list.  Spaces
whose distances are all integer powers of one base in (0, 1) (shift and
residue-ring models) additionally carry that base together with the integer
exponent of every entry; comparisons that would be noisy in floating point
(ultrametric triples, snowflake identities) are then done on the exponents
exactly.

Passes over all pairs walk the matrix in row blocks of at most
:data:`ROW_BLOCK_CELLS` cells (:func:`row_blocks`, :func:`upper_blocks`).
Apart from its inputs, such a pass holds at most one N x N result plus
temporaries the size of one block, so the dense ceiling is set by the arrays
a model keeps, not by the passes run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from .errors import InvalidInputError

Point = Any

#: Default slack for floating-point comparisons in verification scans.
DEFAULT_TOLERANCE = 1.0e-9

#: Cells per row block of an N^2 pass (512 KiB of float64).  Read when a
#: pass starts, so a test can shrink it to put block edges anywhere.
ROW_BLOCK_CELLS = 1 << 16


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
    the order of ``np.triu_indices(n, k=1)``."""
    for rows in row_blocks(n - 1, n):
        cols = slice(rows.start + 1, n)
        upper = np.arange(rows.start, rows.stop)[:, None] < np.arange(cols.start, n)
        yield rows, cols, upper


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite point set with a total, precomputed distance matrix.

    ``matrix[i, j]`` is the distance between ``points[i]`` and ``points[j]``;
    a NaN entry is refused, since every comparison with it is false and the
    scans would pass it.
    When ``power_base`` is set, ``exponents`` holds one exponent per pair and
    ``power_base ** exponents`` reproduces ``matrix`` entry for entry; the
    diagonal uses ``inf`` so equal points get distance exactly 0.

    The verification scans memoise their pass/fail verdicts per tolerance on
    the space, so neither array may be written to after construction.
    """

    points: tuple
    matrix: np.ndarray
    label: str = ""
    power_base: float | None = None
    exponents: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.points)
        if n == 0:
            raise InvalidInputError("a metric space needs at least one point")
        if len(set(self.points)) != n:
            raise InvalidInputError("duplicate points in metric space")
        if self.matrix.shape != (n, n):
            raise InvalidInputError(
                f"distance matrix shape {self.matrix.shape} does not match {n} points"
            )
        # min propagates NaN, so this needs no N x N temporary.
        if np.isnan(self.matrix.min()):
            raise InvalidInputError("distance matrix contains NaN")
        if self.power_base is not None:
            if not 0.0 < self.power_base < 1.0:
                raise InvalidInputError(
                    f"power base must lie in (0, 1), got {self.power_base}"
                )
            if self.exponents is None or self.exponents.shape != (n, n):
                raise InvalidInputError("exponent table missing or mis-shaped")
            for rows in row_blocks(n, n):
                if not np.array_equal(
                    self.power_base ** self.exponents[rows], self.matrix[rows]
                ):
                    raise InvalidInputError("exponent table does not reproduce the matrix")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        object.__setattr__(self, "_verdicts", {})

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self._index  # type: ignore[attr-defined]

    def index_of(self, p: Point) -> int:
        try:
            return self._index[p]  # type: ignore[attr-defined]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in this space") from None

    def dist(self, p: Point, q: Point) -> float:
        return float(self.matrix[self.index_of(p), self.index_of(q)])

    def dist_exponent(self, p: Point, q: Point) -> float:
        """Exact exponent of ``dist(p, q)`` as a power of ``power_base``.

        Returns ``inf`` for equal points.  Raises when the space carries no
        power structure.
        """
        if self.exponents is None:
            raise InvalidInputError(f"space {self.label!r} carries no exponent table")
        return float(self.exponents[self.index_of(p), self.index_of(q)])

    def diameter(self) -> float:
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
    """Outcome of a verification scan.

    ``is_ultrametric`` is ``None`` when the strong triangle inequality was
    not part of the scan.
    """

    axiom_violations: tuple[AxiomViolation, ...]
    ultrametric_violations: tuple[AxiomViolation, ...]
    diameter: float
    is_metric: bool
    is_ultrametric: bool | None


def shortest_paths(weights: np.ndarray, directed: bool, return_predecessors: bool = False):
    """scipy's ``floyd_warshall`` with every entry of a dense weight matrix
    as an edge.

    Handed a dense array, scipy reads zero entries as missing edges, and
    also every entry within 1e-8 of zero (it masks with
    ``np.ma.masked_values``).  Distinct points at a tiny or zero distance
    would then be cut apart.  A sparse matrix that stores every entry keeps
    them all.
    """
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


def _basic_failures(space: FiniteMetricSpace, tol: float):
    """The identity indices, the symmetry and separation pairs ``(i, j)``
    in row-major order, and ``|m - m.T|``: what :func:`_basic_violations`
    lists, found with array passes.

    A symmetry failure is ``|m[i, j] - m[j, i]| > tol`` above the diagonal
    and ``0 > tol`` on and below it, so a negative ``tol`` flags every pair
    there.  A separation failure is ``m[i, j] <= tol`` with ``i < j``.
    """
    m = space.matrix
    asym = _with_transpose(np.subtract, m)
    np.abs(asym, out=asym)
    flagged = asym > tol
    if tol < 0:
        rows = np.arange(len(m))[:, None]
        flagged |= rows >= rows.T
    elif flagged.any():
        flagged = np.triu(flagged, 1)
    close = m <= tol
    off_diagonal = np.count_nonzero(close) > np.count_nonzero(np.diag(close))
    return (
        np.flatnonzero(np.abs(np.diag(m)) > tol),
        np.argwhere(flagged),
        np.argwhere(np.triu(close, 1)) if off_diagonal else np.empty((0, 2), np.intp),
        asym,
    )


def _basic_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    """Identity, symmetry and separation failures, each kind in row-major
    order of its pairs, as :func:`_basic_failures` finds them."""
    m = space.matrix
    pts = space.points
    identity, symmetry, separation, asym = _basic_failures(space, tol)
    out = [AxiomViolation("identity", (pts[i],), float(abs(m[i, i]))) for i in identity]
    for i, j in symmetry:
        out.append(AxiomViolation("symmetry", (pts[i], pts[j]), float(asym[i, j])))
    for i, j in separation:
        out.append(AxiomViolation("separation", (pts[i], pts[j]), float(tol - m[i, j])))
    return out


def _triangle_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    m = space.matrix
    pts = space.points
    upper = np.triu(np.ones_like(m, dtype=bool), k=1)
    out = []
    for k in range(len(pts)):
        through = m[:, k][:, None] + m[k, :][None, :]
        for i, j in np.argwhere(upper & (m > through + tol)):
            out.append(
                AxiomViolation(
                    "triangle",
                    (pts[i], pts[j], pts[k]),
                    float(m[i, j] - through[i, j]),
                )
            )
    return out


def _ultrametric_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    m = space.matrix
    pts = space.points
    upper = np.triu(np.ones_like(m, dtype=bool), k=1)
    out = []
    if space.exponents is not None:
        # Exact route: a^e decreases in e, so the strong triangle inequality
        # d(x,z) <= max(d(x,y), d(y,z)) is e(x,z) >= min(e(x,y), e(y,z)).
        e = space.exponents
        for k in range(len(pts)):
            floor = np.minimum(e[:, k][:, None], e[k, :][None, :])
            for i, j in np.argwhere(upper & (e < floor)):
                peak = max(m[i, k], m[k, j])
                out.append(
                    AxiomViolation(
                        "ultrametric", (pts[i], pts[j], pts[k]), float(m[i, j] - peak)
                    )
                )
        return out
    for k in range(len(pts)):
        peak = np.maximum(m[:, k][:, None], m[k, :][None, :])
        for i, j in np.argwhere(upper & (m > peak + tol)):
            out.append(
                AxiomViolation(
                    "ultrametric", (pts[i], pts[j], pts[k]), float(m[i, j] - peak[i, j])
                )
            )
    return out


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


def _memoised(verdict: Callable[[FiniteMetricSpace, float], bool]):
    """Keep ``verdict(space, tol)`` on the space, one boolean per tolerance.

    A verdict of ``True`` proves the exact scan finds nothing; ``False`` only
    means the exact scan has to run.
    """

    def cached(space: FiniteMetricSpace, tol: float) -> bool:
        memo = space._verdicts  # type: ignore[attr-defined]
        key = (verdict.__name__, tol)
        if key not in memo:
            memo[key] = verdict(space, tol)
        return memo[key]

    return cached


@_memoised
def _basic_clear(space: FiniteMetricSpace, tol: float) -> bool:
    """No basic violation, an exactly zero diagonal and finite distances: the
    precondition of both fast verdicts.  A diagonal that is nonzero within
    ``tol`` shifts the triple scan's ``k = i`` and ``k = j`` sums, which
    neither bound covers."""
    m = space.matrix
    identity, symmetry, separation, _ = _basic_failures(space, tol)
    return (
        not (len(identity) or len(symmetry) or len(separation))
        and not np.diag(m).any()
        and bool(np.isfinite(m).all())
    )


@_memoised
def _float_ultrametric_clear(space: FiniteMetricSpace, tol: float) -> bool:
    return _basic_clear(space, tol) and _within_subdominant(space.matrix, tol)


@_memoised
def _metric_clear(space: FiniteMetricSpace, tol: float) -> bool:
    # Off the diagonal every distance is positive (separation and symmetry at
    # tol >= 0), so a float ultrametric at tol is also a metric at tol:
    # fl(a + b) >= max(a, b).
    # Otherwise the shortest-path fixpoint sp bounds every fl(m_ik + m_kj)
    # from below, since float addition is monotone.
    if not _basic_clear(space, tol):
        return False
    if _float_ultrametric_clear(space, tol):
        return True
    m = space.matrix
    return bool(np.all(m <= shortest_paths(m, directed=True) + tol))


@_memoised
def _ultrametric_clear(space: FiniteMetricSpace, tol: float) -> bool:
    if space.exponents is None:
        return _float_ultrametric_clear(space, tol)
    # The exact scan compares exponents, e(x,z) >= min(e(x,y), e(y,z)), with
    # no tolerance; negation turns that into a max exactly.
    return _basic_clear(space, tol) and _within_subdominant(-space.exponents, 0.0)


def _scan(space: FiniteMetricSpace, tol: float, with_ultra: bool) -> MetricReport:
    axioms: tuple[AxiomViolation, ...] = ()
    if not _metric_clear(space, tol):
        axioms = tuple(_basic_violations(space, tol) + _triangle_violations(space, tol))
    ultra: tuple[AxiomViolation, ...] = ()
    if with_ultra and not _ultrametric_clear(space, tol):
        ultra = tuple(_ultrametric_violations(space, tol))
    return MetricReport(
        axiom_violations=axioms,
        ultrametric_violations=ultra,
        diameter=space.diameter(),
        is_metric=not axioms,
        is_ultrametric=(not axioms and not ultra) if with_ultra else None,
    )


def verify_metric_axioms(space: FiniteMetricSpace, tol: float = 0.0) -> MetricReport:
    """Exhaustively check identity, symmetry, separation and triangle.

    A violation is recorded whenever an inequality fails by more than
    ``tol``; every offending pair or triple is kept.

    A space with no identity, symmetry or separation violation, an exactly
    zero diagonal and finite distances is first tested without enumerating
    triples: it passes if no distance exceeds its subdominant ultrametric
    (O(N^2)) or, failing that, its shortest-path distance (scipy's
    Floyd-Warshall, O(N^3) in C), each plus ``tol``.  Both tests imply that
    the triple scan finds nothing.  Any other space runs the Python-driven
    O(N^3) triple scan, so the violations, their order and their slack are
    those of the exhaustive scan.  Verdicts are memoised per ``tol`` on the
    space and shared with :func:`verify_ultrametric`.
    """
    return _scan(space, tol, with_ultra=False)


def verify_ultrametric(space: FiniteMetricSpace, tol: float = 0.0) -> MetricReport:
    """Like :func:`verify_metric_axioms`, plus the strong triangle inequality.

    On spaces with an exponent table, ultrametric triples are compared on
    integer exponents so no float slack enters at all.

    The strong inequality is first tested in O(N^2) against the subdominant
    ultrametric, on the negated exponents when the space has an exponent
    table and on the matrix with ``tol`` otherwise.  Only a space that fails
    this test runs the O(N^3) triple scan that lists its violations.
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
    becomes ``power_base ** alpha`` and the exponents are untouched.
    """
    if alpha <= 0:
        raise InvalidInputError(f"snowflake exponent must be positive, got {alpha}")
    label = f"{space.label}^{alpha:g}" if space.label else f"snowflake^{alpha:g}"
    if space.power_base is not None:
        new_base = space.power_base ** alpha
        return FiniteMetricSpace(
            points=space.points,
            matrix=new_base ** space.exponents,
            label=label,
            power_base=new_base,
            exponents=space.exponents,
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
    m = space.matrix
    covered = np.zeros(len(space.points), dtype=bool)
    count = 0
    for i in range(len(space.points)):
        if not covered[i]:
            count += 1
            covered |= m[i] <= scale
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
