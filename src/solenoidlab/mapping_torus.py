"""The mapping torus of a finite metric space under an invertible self-map.

Points are classes of (base point, real time) under (x, t) ~ (f(x), t+1); the
canonical representative has time in [0, 1).  Four distances are provided:

* ``product_metric``: max of base distance and time gap, on representatives.
  Its broadcasting kernel is the one place that formula is computed; the
  quotient and representative kernels minimise it over shifted
  representatives.  The scalar call, ``product_distance_pairs`` and
  ``product_distance_matrix`` are views of it.
* ``quotient_metric``: infimum of the product metric over representative
  shifts.  Only valid when the glue map is an isometry; the infimum is a
  minimum over an explicit finite window, and the window bound is checked
  rather than assumed.  One broadcasting kernel computes it; the scalar
  call, the paired view and the quotient export are views of that kernel.
* ``representative_distance``: minimum of the product metric over
  representatives constrained to times within 3/4 of zero and within 1/2 of
  each other.  Symmetric and positive, but not a metric in general: the
  triangle inequality can genuinely fail when the glue map only satisfies a
  bilipschitz bound.  One broadcasting kernel computes it; the scalar call,
  the paired and all-pairs views and the rows of off-sample chain queries
  are views of that kernel, so all of them agree bit for bit.
* chain distance (:class:`ChainMetricTable`): shortest-path repair of the
  representative distance over a caller-supplied sample of at most
  :data:`MAX_CHAIN_SAMPLE` points, which restores the triangle inequality.
  One Floyd-Warshall solve (exact, skipping the blocks a pivot cannot
  change) gives every chain distance, without the chains that attain them,
  and the table keeps them in the solve's blocks; queries with endpoints off
  the sample are answered in batches that skip the blocks their bounds rule
  out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .dynamics import (
    IndexCycles,
    SelfMap,
    domain_indices,
    estimate_bilipschitz_constant,
    index_cycles,
    iterate,  # unused here; bench/spans.py wraps this module's binding
)
from .errors import (
    InvalidInputError,
    InvariantError,
    UnsupportedModeError,
)
from .metric_core import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    _shortest_path_blocks,
    _unblocked,
    row_blocks,
    truncate,
    upper_blocks,
)

Point = Any

#: Representative times are constrained to [-3/4, 3/4] in the constrained
#: minimum.  A canonical time r lies in [0, 1), so |r + m| <= 3/4 leaves only
#: the shifts m = -1 and m = 0.
_TIME_CAP = 0.75
_GAP_CAP = 0.5
_SHIFTS = (-1, 0)


@dataclass(frozen=True)
class TorusPoint:
    base: Any
    time: float


@dataclass(frozen=True, eq=False)
class TorusSpace:
    """A finite base space glued to itself across a unit time interval.

    ``lipschitz_constant`` is a two-sided bound C >= 1 for the monodromy
    (C = 1 means isometric glue); ``diameter_bound`` caps the base diameter
    and is at least 1/2.
    """

    base_space: FiniteMetricSpace
    monodromy: SelfMap
    lipschitz_constant: float
    diameter_bound: float

    @cached_property
    def _cycles(self) -> IndexCycles:
        """The monodromy's cycle table over the base space's indices."""
        return index_cycles(self.base_space, self.monodromy)

    @cached_property
    def _shift_powers(self) -> dict[int, np.ndarray]:
        """Index arrays of f^m over the base space for each shift m in the
        representative window, built on first use and kept on the torus."""
        return {m: self._cycles.power(m) for m in _SHIFTS}


def make_torus_space(
    space: FiniteMetricSpace,
    mapping: SelfMap,
    lipschitz_constant: float | None = None,
    diameter_bound: float | None = None,
) -> TorusSpace:
    """Assemble a torus space, capping the base diameter if needed.

    The diameter bound defaults to max(diameter, 1/2); an explicit bound
    below the diameter truncates the base metric.  The bilipschitz constant
    defaults to the estimate over the (possibly truncated) base.  The
    space's points must be the map's domain (:func:`domain_indices`).
    """
    domain_indices(space, mapping)
    if diameter_bound is None:
        diameter_bound = max(space.diameter(), 0.5)
    if not 0.5 <= diameter_bound < math.inf:
        raise InvalidInputError(
            f"diameter bound must be finite and at least 1/2, got {diameter_bound}"
        )
    space = truncate(space, diameter_bound)
    if lipschitz_constant is None:
        lipschitz_constant = estimate_bilipschitz_constant(space, mapping).constant
    if not 1.0 <= lipschitz_constant < math.inf:
        raise InvalidInputError(
            f"bilipschitz constant must be finite and at least 1, got {lipschitz_constant}"
        )
    return TorusSpace(
        base_space=space,
        monodromy=mapping,
        lipschitz_constant=float(lipschitz_constant),
        diameter_bound=float(diameter_bound),
    )


def dist_to_integers(a: float) -> float:
    """Distance from a real number to the nearest integer, in [0, 1/2]."""
    return abs(a - round(a))


def distances_to_integers(a: np.ndarray) -> np.ndarray:
    """:func:`dist_to_integers` of each entry, bit for bit: ``np.round``
    rounds halves to even, as ``round`` does."""
    return np.abs(a - np.round(a))


def circle_distance(u: float, v: float) -> float:
    """Distance between two angles on the unit-length circle R/Z."""
    return dist_to_integers(u - v)


def _canonical(ts: TorusSpace, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base indices and times in [0, 1) of the representatives of the
    points (``x``, ``t``), base indices and finite times.

    Applies (x, t) -> (f^n(x), t+n) with n = -floor(t); one extra wrap
    covers the case where rounding pushes t+n up to exactly 1.
    """
    n = -np.floor(t)
    time = t + n
    wrap = time >= 1.0
    time[wrap] -= 1.0
    n[wrap] -= 1.0
    return ts._cycles.step(x, n), time


def canonicalize(x: Point, t: float, ts: TorusSpace) -> TorusPoint:
    """The representative of (x, t) with time in [0, 1): the 1x1 view of
    the array canonicalisation."""
    if not math.isfinite(t):
        raise InvalidInputError(f"time {t} is not finite")
    base, time = _canonical(
        ts, np.array([ts.base_space.index_of(x)]), np.array([t], dtype=float)
    )
    return TorusPoint(base=ts.base_space.points[base[0]], time=float(time[0]))


def _sample_arrays(ts: TorusSpace, points: Sequence[TorusPoint]) -> list[np.ndarray]:
    """The base indices and times of canonical ``points``, checked by :func:`_require_points`."""
    idx = np.array([ts.base_space.index_of(p.base) for p in points], dtype=np.intp)
    return _require_points(ts, idx, [p.time for p in points])


# ============================================================
# Views shared by the kernels
# ============================================================
#
# A kernel takes (ts, i, r, j, t): base indices ``i``/``j`` and times
# ``r``/``t``, ``i`` of the shape of ``r`` and ``j`` of that of ``t``.  The two
# sides broadcast against each other, paired as (K,) with (K,) or all pairs as
# (A, 1) against (1, B), and the kernel gives the distance from each point
# (i, r) to each point (j, t).

def _one(kernel, ts: TorusSpace, idx: np.ndarray, times: np.ndarray) -> float:
    """``kernel`` from the first of two points to the second."""
    return float(kernel(ts, idx[:1], times[:1], idx[1:], times[1:])[0])


def _require_points(ts: TorusSpace, *ends, flows=()) -> list[np.ndarray]:
    """``ends``, base indices and times in turn (``i, r, j, t``), as intp and float
    arrays, refused unless all, ``flows`` too, are 1-D and of one length, the
    indices name base points, the times lie in [0, 1) and the flows are finite."""
    shapes = [np.shape(a) for a in ends + flows]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise InvalidInputError(f"point arrays of shapes {shapes} are not one length")
    out = []
    for idx, times in zip(ends[::2], ends[1::2]):
        idx, times = np.asarray(idx), np.asarray(times, dtype=float)
        if idx.dtype.kind not in "iu" and idx.size:
            raise InvalidInputError(f"base indices must be integers, not {idx.dtype}")
        bad = (idx < 0) | (idx >= len(ts.base_space))
        if bad.any():
            raise InvalidInputError(f"base index {idx[bad][0]} is out of range")
        bad = ~((0.0 <= times) & (times < 1.0))
        if bad.any():
            raise InvalidInputError(f"time {times[bad][0]} is not canonical (needs [0, 1))")
        out += [idx.astype(np.intp, copy=False), times]
    if not all(np.isfinite(f).all() for f in flows):
        raise InvalidInputError("flow times must be finite")
    return out


def _all_pairs(kernel, ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """``kernel`` over all pairs of canonical ``points``, for a kernel that
    is symmetric bit for bit over a symmetric base, as the product and
    representative kernels are: ``|a - b|`` rounds as ``|b - a|``.  Each row
    block computes its pairs on and right of the diagonal, and is mirrored
    below it."""
    idx, times = _sample_arrays(ts, points)
    n = len(points)
    out = np.empty((n, n))
    for rows in row_blocks(n, n):
        cols = slice(rows.start, n)
        out[rows, cols] = kernel(
            ts, idx[rows, None], times[rows, None], idx[None, cols], times[None, cols]
        )
        out[cols, rows] = out[rows, cols].T
    return out


# ============================================================
# Product metric
# ============================================================

def _product_kernel(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """max(base distance, time gap) from the points (``i``, ``r``) to the
    points (``j``, ``t``), for any times."""
    rho = ts.base_space.distances(i, j)
    np.maximum(rho, np.abs(r - t), out=rho)
    return rho


def product_metric(x: Point, r: float, y: Point, t: float, ts: TorusSpace) -> float:
    """max(base distance, time gap) between two representatives, at any
    times: the 1x1 view of the product kernel."""
    idx = np.array([ts.base_space.index_of(x), ts.base_space.index_of(y)], dtype=np.intp)
    return _one(_product_kernel, ts, idx, np.array([r, t], dtype=float))


def product_distance_pairs(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`product_metric` of each pair (``i[k]``, ``r[k]``), (``j[k]``, ``t[k]``)."""
    return _product_kernel(ts, *_require_points(ts, i, r, j, t))


def product_distance_matrix(ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """:func:`product_metric` over all pairs of ``points``: the pairs on and
    above the diagonal, mirrored."""
    return _all_pairs(_product_kernel, ts, points)


# ============================================================
# Quotient metric (isometric glue)
# ============================================================

def _require_isometric(ts: TorusSpace) -> None:
    if ts.lipschitz_constant != 1.0:
        raise UnsupportedModeError(
            "quotient metric needs an isometric monodromy; "
            "use a ChainMetricTable for bilipschitz glue"
        )


def _quotient_kernel(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`quotient_metric` from the points (``i``, ``r``) to the points
    (``j``, ``t``), at canonical times.

    One loop runs over the shifts n within ``reach`` of some pair's gap
    ``t - r`` and keeps the plain minimum.  A shift outside a pair's own
    window satisfies rho >= |r+n-t| > reach, and the identity shift already
    gives at most max(diameter_bound, 1) < reach, so the extra shifts never
    win; ``min`` is exact and each rho is rounded as in a loop over one
    pair, so every view agrees bit for bit.
    """
    _require_isometric(ts)
    reach = ts.diameter_bound + 1.0
    gap = t - r
    best = np.full(np.broadcast(i, r, j, t).shape, np.inf)
    if best.size == 0:
        return best
    for n in range(math.ceil(gap.min() - reach), math.floor(gap.max() + reach) + 1):
        rho = _product_kernel(ts, ts._cycles.power(n)[i], r + n, j, t)
        np.minimum(best, rho, out=best)
    if not np.all(best <= max(ts.diameter_bound, 1.0)):
        raise InvariantError("window bound violated")
    return best


def quotient_metric(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Distance in the glued space: the product metric minimised over
    representative shifts of ``p``.

    Defined only when the monodromy is an isometry (lipschitz constant 1);
    otherwise the chain distance is the right tool and this raises.  This is
    the 1x1 view of the kernel that also gives the paired view and the
    quotient export.
    """
    return _one(_quotient_kernel, ts, *_sample_arrays(ts, (p, q)))


def quotient_distance_pairs(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`quotient_metric` of each pair (``i[k]``, ``r[k]``), (``j[k]``, ``t[k]``)."""
    return _quotient_kernel(ts, *_require_points(ts, i, r, j, t))


def quotient_distance_matrix(ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """:func:`quotient_metric` over all pairs of ``points``, zero on the
    diagonal.

    Each pair a < b is computed once, from ``points[a]`` to ``points[b]``,
    and mirrored: the two orientations can round ``|(r + n) - t|``
    differently.  The kernel takes the pairs a row block at a time
    (:func:`~solenoidlab.metric_core.upper_blocks`), so its temporaries do
    not grow with the matrix.
    """
    idx, times = _sample_arrays(ts, points)
    _require_isometric(ts)
    out = np.zeros((len(points), len(points)))
    for rows, cols, upper in upper_blocks(len(points)):
        a, b = np.nonzero(upper)
        a += rows.start
        b += cols.start
        out[a, b] = out[b, a] = _quotient_kernel(ts, idx[a], times[a], idx[b], times[b])
    return out


# ============================================================
# Constrained representative distance
# ============================================================

def _representative_kernel(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`representative_distance` from the points (``i``, ``r``) to the
    points (``j``, ``t``), at canonical times: the product kernel minimised
    over the shift pairs (m, n) of the window, where admissible."""
    powers = ts._shift_powers
    best = np.full(np.broadcast(i, r, j, t).shape, np.inf)
    for m in _SHIFTS:
        rp, rows = r + m, powers[m][i]
        for n in _SHIFTS:
            tp = t + n
            ok = (np.abs(rp) <= _TIME_CAP) & (np.abs(tp) <= _TIME_CAP)
            ok &= np.abs(rp - tp) <= _GAP_CAP
            rho = _product_kernel(ts, rows, rp, powers[n][j], tp)
            np.minimum(best, rho, out=best, where=ok)
    if not np.all(np.isfinite(best)):
        raise InvariantError("no admissible representative pair")
    return best


def representative_distance(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Minimum of the product metric over constrained representative pairs.

    Representatives (f^m(x), r+m), (f^n(y), t+n) are admissible when both
    times lie in [-3/4, 3/4] and differ by at most 1/2; for canonical inputs
    that leaves the shifts m, n = -1, 0.  This is the 1x1 view of the kernel
    that also gives the matrix and the chain rows.
    """
    return _one(_representative_kernel, ts, *_sample_arrays(ts, (p, q)))


def representative_distance_pairs(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`representative_distance` of each pair (``i[k]``, ``r[k]``), (``j[k]``, ``t[k]``)."""
    return _representative_kernel(ts, *_require_points(ts, i, r, j, t))


def representative_distance_matrix(
    ts: TorusSpace, points: Sequence[TorusPoint]
) -> np.ndarray:
    """:func:`representative_distance` over all pairs of ``points``: the
    pairs on and above the diagonal, mirrored (swapping the two points swaps
    the shifts m and n)."""
    return _all_pairs(_representative_kernel, ts, points)


# ============================================================
# Chain (shortest-path) distance
# ============================================================

#: Largest chain sample, counted after de-duplication.  The all-pairs solve is
#: cubic at worst: a table of four times per base point takes 0.2-0.5 s at 1024
#: points and 0.5-2.8 s at 2048 on a 2-core x86 host.  Off-sample queries are
#: not: 500 of them take about 0.2 s on the 2048-point padic table, where the
#: block bounds leave about 1% of the (query, block, block) triples.
MAX_CHAIN_SAMPLE = 2048


def distinct_chain_sample(
    ts: TorusSpace, sample: Sequence[TorusPoint]
) -> tuple[TorusPoint, ...]:
    """``sample`` without repeats, in first-seen order.

    Raises :class:`InvalidInputError` for a time that is not canonical or
    when more than :data:`MAX_CHAIN_SAMPLE` distinct points remain; the
    table refuses a point off the torus before its first distance.
    """
    seen = dict.fromkeys(sample)
    for p in seen:
        if not 0.0 <= p.time < 1.0:
            raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    if len(seen) > MAX_CHAIN_SAMPLE:
        raise InvalidInputError(
            f"chain sample of {len(seen)} points exceeds the limit of "
            f"{MAX_CHAIN_SAMPLE}"
        )
    return tuple(seen)


class ChainMetricTable:
    """All-pairs chain distances over a fixed sample of canonical points.

    Edge weights are the constrained representative distance; the chain
    distance is the shortest-path metric they generate, which satisfies the
    triangle inequality even when single edges do not.  The edge graph is
    complete, so one Floyd-Warshall solve serves every sample size up to
    :data:`MAX_CHAIN_SAMPLE`, bit for bit scipy's; a larger sample raises
    :class:`InvalidInputError` before any distance is computed.

    The table keeps the distances in the layout they are solved in
    (:func:`~solenoidlab.metric_core._shortest_path_blocks`): square blocks
    over the sample in Prim order, with each block's minimum.  Lookups and
    :meth:`distance_matrix` read the blocks, and off-sample queries
    (:meth:`distances_via`) skip every block their bound rules out.
    """

    def __init__(self, ts: TorusSpace, sample: Sequence[TorusPoint]):
        self.ts = ts
        self.sample = distinct_chain_sample(ts, sample)
        self.edges = representative_distance_matrix(ts, self.sample)
        self._blocks, self._order = _shortest_path_blocks(self.edges)
        self._place = np.empty_like(self._order)
        self._place[self._order] = np.arange(len(self._order))
        self._block_min = self._blocks.min(axis=(2, 3))
        # Sample positions by (base index, time); indices and times in Prim order.
        idx, times = _sample_arrays(ts, self.sample)
        self._index = {key: k for k, key in enumerate(zip(idx.tolist(), times.tolist()))}
        self._idx, self._times = idx[self._order], times[self._order]

    def __len__(self) -> int:
        return len(self.sample)

    def index_of(self, p: TorusPoint) -> int:
        try:
            return self._index[self.ts.base_space.index_of(p.base), p.time]
        except (KeyError, InvalidInputError):
            raise InvalidInputError(f"point {p!r} is not in the chain sample") from None

    def _cells(self, i, j):
        """Chain distances between the sample points of indices ``i`` and
        ``j``, integers or index arrays that broadcast."""
        b = self._blocks.shape[2]
        (I, a), (J, c) = divmod(self._place[i], b), divmod(self._place[j], b)
        return self._blocks[I, J, a, c]

    def distance(self, p: TorusPoint, q: TorusPoint) -> float:
        return float(self._cells(self.index_of(p), self.index_of(q)))

    def distance_matrix(self) -> np.ndarray:
        return _unblocked(self._blocks, self._order)

    def distance_via(self, p: TorusPoint, q: TorusPoint) -> float:
        """Chain distance allowing ``p`` and ``q`` off the sample: the
        one-pair view of :meth:`distances_via`."""
        idx, times = _sample_arrays(self.ts, (p, q))
        return float(self.distances_via(idx[:1], times[:1], idx[1:], times[1:])[0])

    def distances_via(self, i, r, j, t) -> np.ndarray:
        """Chain distance of each pair of canonical points (``i[k]``,
        ``r[k]``), (``j[k]``, ``t[k]``), base indices and times, endpoints
        allowed off the sample.

        A pair whose (base index, time) keys are both on the sample reads
        the table.  Otherwise chains run through the sample plus the two
        endpoints; a shortest chain never revisits an endpoint, so the value
        is ``min(direct, (row_p[a] + D[a, b]) + row_q[b])`` over the sample
        points a, b: the exact chain distance over the extended sample,
        where ``direct`` is the representative distance of the pair.
        """
        i, r, j, t = _require_points(self.ts, i, r, j, t)
        keys = zip(np.concatenate([i, j]).tolist(), np.concatenate([r, t]).tolist())
        a, b = np.array([self._index.get(key, -1) for key in keys], dtype=np.intp).reshape(2, -1)
        on = (a >= 0) & (b >= 0)
        out = np.empty(len(i))
        out[on] = self._cells(a[on], b[on])
        off = np.flatnonzero(~on)
        if off.size:
            out[off] = self._off_sample(i[off], r[off], j[off], t[off])
        return out

    def _off_sample(self, i, r, j, t) -> np.ndarray:
        """``min(direct, min over a, b of (row_p[a] + D[a, b]) + row_q[b])``
        of each pair, a chunk of pairs at a time."""
        out = _representative_kernel(self.ts, i, r, j, t)
        nb, _, b, _ = self._blocks.shape
        for part in row_blocks(len(out), nb * max(b, nb)):
            # A call per chunk frees its rows and blocks before the next one.
            self._lower(out[part], self._rows(i[part], r[part]), self._rows(j[part], t[part]))
        return out

    def _lower(self, direct: np.ndarray, rows_p: np.ndarray, rows_q: np.ndarray) -> None:
        """Lower each ``direct[k]``, in place, to ``min over a, b of
        (rows_p[k, a] + D[a, b]) + rows_q[k, b]`` where that is smaller; the
        rows are in the table's blocks (:meth:`_rows`).

        Every term is nonnegative and rounding is monotone, so each
        candidate of the blocks ``(I, J)`` is at least ``fl(fl(min
        rows_p[k, I] + min D[I, J]) + min rows_q[k, J])``: a triple ``(k, I,
        J)`` whose bound is not below ``direct[k]`` cannot lower it and is
        skipped.  For the rest, the minimum over a is taken before
        ``rows_q[k, b]`` is added, which monotone rounding also allows.  The
        result is bit for bit that of the full S x S sum.
        """
        b = self._blocks.shape[2]
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

    def _rows(self, idx: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Representative distances from the points (``idx``, ``times``) to
        the sample, one row per point, in Prim order and split into the
        table's blocks, ``inf`` past the last sample point."""
        nb, _, b, _ = self._blocks.shape
        rows = _representative_kernel(
            self.ts, idx[:, None], times[:, None],
            self._idx[None, :], self._times[None, :],
        )
        # Padded once the kernel's temporaries are freed.
        rows = np.pad(rows, ((0, 0), (0, nb * b - len(self))), constant_values=np.inf)
        return rows.reshape(len(idx), nb, b)


# ============================================================
# Flow and fibers
# ============================================================

def flow(p: TorusPoint, r: float, ts: TorusSpace) -> TorusPoint:
    """Move ``r`` units along the time direction (the natural R-action)."""
    _sample_arrays(ts, [p])  # refuses a point off the torus or not canonical
    return canonicalize(p.base, p.time + r, ts)


def fiber(t: float, sample: Sequence[Point], ts: TorusSpace) -> list[TorusPoint]:
    """Canonical images of (x, t) for each base point x in ``sample``."""
    out = [canonicalize(x, t, ts) for x in sample]
    if len(set(out)) != len(out):
        raise InvalidInputError("sample lists a base point twice")
    return out


def project_to_circle(p: TorusPoint) -> float:
    """Position of a canonical point on the unit circle, in [0, 1)."""
    if not 0.0 <= p.time < 1.0:
        raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    return p.time


def _close(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray, tol: float
) -> np.ndarray:
    """Whether each point (``i``, ``r``) equals the point (``j``, ``t``) up
    to ``tol`` once its time gap is rounded to the nearest integer n, halves
    to even, and the base of the second is moved by f^n."""
    gap = r - t
    n = np.round(gap)
    close = np.abs(gap - n) <= tol
    close[close] = i[close] == ts._cycles.step(j[close], n[close])
    return close


def torus_points_close(
    p: TorusPoint, q: TorusPoint, ts: TorusSpace, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Equality of canonical points up to a wrap at the time boundary.

    Rounding can park two images of the same point on opposite sides of the
    t = 0 seam; this compares them as points of the glued space.  The 1x1
    view of the array comparison.
    """
    i, j = (np.array([ts.base_space.index_of(x.base)]) for x in (p, q))
    r, t = (np.array([x.time], dtype=float) for x in (p, q))
    return bool(_close(ts, i, r, j, t, tol)[0])


def flow_law_failures(
    ts: TorusSpace, idx: np.ndarray, times: np.ndarray, r: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Which of the points (``idx``, ``times``), canonical, break a flow law
    for the flow times ``r`` and ``s``: the composition law, that
    ``flow(flow(p, s), r)`` is ``flow(p, r + s)`` up to 1e-12 across the
    seam, or the circle law, that ``flow(p, r)`` lies within 1e-9 of
    ``time + r`` on the circle.  Each value is rounded as the scalar calls
    round it."""
    idx, times = _require_points(ts, idx, times, flows=(r, s))
    mid, mid_times = _canonical(ts, idx, times + s)
    lhs, lhs_times = _canonical(ts, mid, mid_times + r)
    rhs, rhs_times = _canonical(ts, idx, times + (r + s))
    _, moved = _canonical(ts, idx, times + r)
    ok = _close(ts, lhs, lhs_times, rhs, rhs_times, 1e-12)
    ok &= distances_to_integers(moved - (times + r)) <= 1e-9
    return ~ok
