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
  One dense Floyd-Warshall solve gives every chain distance; queries with
  endpoints off the sample are answered in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

from .dynamics import (
    IndexCycles,
    SelfMap,
    estimate_bilipschitz_constant,
    index_cycles,
    iterate,  # unused here; bench/spans.py wraps this module's binding
)
from .errors import (
    InvalidInputError,
    InvariantError,
    UnsupportedMapError,
    UnsupportedModeError,
)
from .metric_core import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    row_blocks,
    shortest_paths,
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
        """The monodromy's cycle table in the base space's index order,
        built on first use and kept on the torus."""
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
    defaults to the estimate over the (possibly truncated) base.
    """
    if set(mapping.forward.keys()) != set(space.points):
        raise UnsupportedMapError("map domain does not match the space's points")
    if diameter_bound is None:
        diameter_bound = max(space.diameter(), 0.5)
    if diameter_bound < 0.5:
        raise InvalidInputError(
            f"diameter bound must be at least 1/2, got {diameter_bound}"
        )
    space = truncate(space, diameter_bound)
    if lipschitz_constant is None:
        lipschitz_constant = estimate_bilipschitz_constant(space, mapping).constant
    if lipschitz_constant < 1.0:
        raise InvalidInputError(
            f"bilipschitz constant must be at least 1, got {lipschitz_constant}"
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


def _require_canonical(p: TorusPoint, ts: TorusSpace) -> int:
    if not 0.0 <= p.time < 1.0:
        raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    return ts.base_space.index_of(p.base)


def _sample_arrays(ts: TorusSpace, points: Sequence[TorusPoint]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([_require_canonical(p, ts) for p in points], dtype=np.intp)
    times = np.array([p.time for p in points], dtype=float)
    return idx, times


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


def _pairs(
    kernel, ts: TorusSpace, ps: Sequence[TorusPoint], qs: Sequence[TorusPoint]
) -> np.ndarray:
    """``kernel`` of each pair ``(ps[k], qs[k])`` of canonical points."""
    if len(ps) != len(qs):
        raise InvalidInputError(f"{len(ps)} start points for {len(qs)} end points")
    return kernel(ts, *_sample_arrays(ts, ps), *_sample_arrays(ts, qs))


def _all_pairs(kernel, ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """``kernel`` over all pairs of canonical ``points``, a row block at a
    time."""
    idx, times = _sample_arrays(ts, points)
    out = np.empty((len(points), len(points)))
    for rows in row_blocks(len(points), len(points)):
        out[rows] = kernel(
            ts, idx[rows, None], times[rows, None], idx[None, :], times[None, :]
        )
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
    ts: TorusSpace, ps: Sequence[TorusPoint], qs: Sequence[TorusPoint]
) -> np.ndarray:
    """:func:`product_metric` of each pair ``(ps[k], qs[k])``."""
    return _pairs(_product_kernel, ts, ps, qs)


def product_distance_matrix(ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """:func:`product_metric` over all pairs of ``points``."""
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

    Each pair has its own shift window ``[lo, hi]``; one loop runs over the
    union of the windows and masks the shifts outside a pair's own.  ``min``
    and ``max`` are exact and ``|(r + n) - t|`` is rounded as in a loop over
    one pair, so every view agrees bit for bit.
    """
    _require_isometric(ts)
    reach = ts.diameter_bound + 1.0
    gap = t - r
    lo = np.ceil(gap - reach)
    hi = np.floor(gap + reach)
    best = np.full(np.broadcast(i, r, j, t).shape, np.inf)
    if best.size == 0:
        return best
    for n in range(int(lo.min()), int(hi.max()) + 1):
        rho = _product_kernel(ts, ts._cycles.power(n)[i], r + n, j, t)
        np.minimum(best, rho, out=best, where=(lo <= n) & (n <= hi))
    # Shifts outside the window satisfy rho >= |r+n-t| > reach, and the
    # identity shift already gives at most max(diameter_bound, 1) < reach.
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
    ts: TorusSpace, ps: Sequence[TorusPoint], qs: Sequence[TorusPoint]
) -> np.ndarray:
    """:func:`quotient_metric` of each pair ``(ps[k], qs[k])``."""
    return _pairs(_quotient_kernel, ts, ps, qs)


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

def _shifted_times(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``times + m`` for each shift m of the window, stacked on a new first
    axis; the mask of those inside the time cap; whether each shift has any."""
    shifted = times + np.array(_SHIFTS).reshape((-1,) + (1,) * times.ndim)
    inside = np.abs(shifted) <= _TIME_CAP
    return shifted, inside, inside.reshape(len(_SHIFTS), -1).any(axis=1)


def _representative_kernel(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`representative_distance` from the points (``i``, ``r``) to the
    points (``j``, ``t``), at canonical times.

    The time masks of each shift are computed once, outside the loop over
    shift pairs.
    """
    powers = ts._shift_powers
    row_times, row_inside, row_any = _shifted_times(r)
    col_times, col_inside, col_any = _shifted_times(t)
    columns = [
        (col_times[k], col_inside[k], powers[n][j])
        for k, n in enumerate(_SHIFTS) if col_any[k]
    ]
    best = np.full(np.broadcast(i, r, j, t).shape, np.inf)
    for k, m in enumerate(_SHIFTS):
        if not row_any[k]:
            continue
        rp, row_ok, rows = row_times[k], row_inside[k], powers[m][i]
        for tp, col_ok, cols in columns:
            ok = row_ok & col_ok & (np.abs(rp - tp) <= _GAP_CAP)
            if not ok.any():
                continue
            rho = _product_kernel(ts, rows, rp, cols, tp)
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
    ts: TorusSpace, ps: Sequence[TorusPoint], qs: Sequence[TorusPoint]
) -> np.ndarray:
    """:func:`representative_distance` of each pair ``(ps[k], qs[k])``."""
    return _pairs(_representative_kernel, ts, ps, qs)


def representative_distance_matrix(
    ts: TorusSpace, points: Sequence[TorusPoint]
) -> np.ndarray:
    """:func:`representative_distance` over all pairs of ``points``, a row
    block at a time."""
    return _all_pairs(_representative_kernel, ts, points)


# ============================================================
# Chain (shortest-path) distance
# ============================================================

@dataclass(frozen=True)
class ChainWitness:
    """A minimising chain: its points, the edge values, and their sum."""

    points: tuple[TorusPoint, ...]
    edge_values: tuple[float, ...]
    total: float


_NO_PRED = -9999

#: Largest chain sample, counted after de-duplication.  The all-pairs solve is
#: cubic: a table takes about 1.4 s at 1024 points and 11 s at 2048 on a 2-core
#: x86 host.
MAX_CHAIN_SAMPLE = 2048


def distinct_chain_sample(
    ts: TorusSpace, sample: Sequence[TorusPoint]
) -> tuple[TorusPoint, ...]:
    """``sample`` without repeats, in first-seen order.

    Raises :class:`InvalidInputError` for a point that is not canonical or
    when more than :data:`MAX_CHAIN_SAMPLE` distinct points remain.
    """
    seen: dict[TorusPoint, None] = {}
    for p in sample:
        _require_canonical(p, ts)
        seen.setdefault(p)
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
    complete, so one dense Floyd-Warshall solve serves every sample size up
    to :data:`MAX_CHAIN_SAMPLE`; a larger sample raises
    :class:`InvalidInputError` before any distance is computed.
    """

    def __init__(self, ts: TorusSpace, sample: Sequence[TorusPoint]):
        self.ts = ts
        self.sample = distinct_chain_sample(ts, sample)
        self._index = {p: i for i, p in enumerate(self.sample)}
        self.edges = representative_distance_matrix(ts, self.sample)
        self._idx, self._times = _sample_arrays(ts, self.sample)
        self._dist = shortest_paths(self.edges, directed=False)
        self._pred: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sample)

    def index_of(self, p: TorusPoint) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the chain sample") from None

    def distance(self, p: TorusPoint, q: TorusPoint) -> float:
        return float(self._dist[self.index_of(p), self.index_of(q)])

    def distance_matrix(self) -> np.ndarray:
        return self._dist.copy()

    def witness(self, p: TorusPoint, q: TorusPoint) -> ChainWitness:
        i, j = self.index_of(p), self.index_of(q)
        if self._pred is None:
            # The solve without predecessors gives the same distances bit
            # for bit, so tables that never show a chain skip this one.
            _, self._pred = shortest_paths(
                self.edges, directed=False, return_predecessors=True
            )
        pred = self._pred[i]
        if i == j:
            return ChainWitness(points=(p,), edge_values=(), total=0.0)
        chain = [j]
        while chain[-1] != i:
            back = int(pred[chain[-1]])
            if back == _NO_PRED:
                raise InvalidInputError("sample is disconnected at these points")
            chain.append(back)
        chain.reverse()
        edge_values = tuple(
            float(self.edges[a, b]) for a, b in zip(chain, chain[1:])
        )
        return ChainWitness(
            points=tuple(self.sample[k] for k in chain),
            edge_values=edge_values,
            total=float(sum(edge_values)),
        )

    def distance_via(self, p: TorusPoint, q: TorusPoint) -> float:
        """Chain distance allowing ``p`` and ``q`` off the sample: the
        one-pair view of :meth:`distances_via`."""
        return float(self.distances_via((p,), (q,))[0])

    def distances_via(
        self, ps: Sequence[TorusPoint], qs: Sequence[TorusPoint]
    ) -> np.ndarray:
        """Chain distance of each pair ``(ps[k], qs[k])``, endpoints allowed
        off the sample.

        A pair on the sample reads the table.  Otherwise chains run through
        the sample plus the two endpoints; a shortest chain never revisits an
        endpoint, so the value is ``min(direct, (row_p[a] + D[a, b]) +
        row_q[b])`` over the sample points a, b: the exact chain distance
        over the extended sample, where ``direct`` is the representative
        distance of the pair.
        """
        if len(ps) != len(qs):
            raise InvalidInputError(f"{len(ps)} start points for {len(qs)} end points")
        out = np.empty(len(ps))
        off = []
        for k, (p, q) in enumerate(zip(ps, qs)):
            i, j = self._index.get(p), self._index.get(q)
            if i is None or j is None:
                off.append(k)
            else:
                out[k] = self._dist[i, j]
        if not off:
            return out
        p_idx, p_times = _sample_arrays(self.ts, [ps[k] for k in off])
        q_idx, q_times = _sample_arrays(self.ts, [qs[k] for k in off])
        edge = _representative_kernel(self.ts, p_idx, p_times, q_idx, q_times)
        for part in row_blocks(len(off), len(self.sample)):
            rows_p = self._rows(p_idx[part], p_times[part])
            rows_q = self._rows(q_idx[part], q_times[part])
            for k, x, y, d in zip(off[part], rows_p, rows_q, edge[part]):
                out[k] = self._through(x, y, float(d))
        return out

    def _rows(self, idx: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Representative distances from the points (``idx``, ``times``) to
        the sample, one row per point."""
        return _representative_kernel(
            self.ts, idx[:, None], times[:, None],
            self._idx[None, :], self._times[None, :],
        )

    def _through(self, row_p: np.ndarray, row_q: np.ndarray, direct: float) -> float:
        """``min(direct, min over a, b of (row_p[a] + D[a, b]) + row_q[b])``.

        Each candidate is a rounded sum of nonnegative terms, so it is at
        least ``row_p[a]`` and at least ``row_q[b]``: rows and columns whose
        entry is already ``>= direct`` cannot lower the result and are
        skipped.  Rounding is monotone, so the minimum over a can be taken
        before ``row_q[b]`` is added.  The result is bit for bit that of the
        full S x S sum.
        """
        a = np.flatnonzero(row_p < direct)
        b = np.flatnonzero(row_q < direct)
        if a.size == 0 or b.size == 0:
            return direct
        block = self._dist.take(a, axis=0).take(b, axis=1)
        block += row_p[a, None]
        return min(direct, float((block.min(axis=0) + row_q[b]).min()))


def chain_metric(
    p: TorusPoint, q: TorusPoint, ts: TorusSpace, sample: Sequence[TorusPoint]
) -> tuple[float, ChainWitness]:
    """One-off chain distance with its witness chain.

    Both endpoints must belong to ``sample``.  Builds the full table and,
    for the witness, its predecessor solve; use :class:`ChainMetricTable`
    directly when querying many pairs.
    """
    table = ChainMetricTable(ts, sample)
    value = table.distance(p, q)
    return value, table.witness(p, q)


# ============================================================
# Flow and fibers
# ============================================================

def flow(p: TorusPoint, r: float, ts: TorusSpace) -> TorusPoint:
    """Move ``r`` units along the time direction (the natural R-action)."""
    _require_canonical(p, ts)
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
    mid, mid_times = _canonical(ts, idx, times + s)
    lhs, lhs_times = _canonical(ts, mid, mid_times + r)
    rhs, rhs_times = _canonical(ts, idx, times + (r + s))
    _, moved = _canonical(ts, idx, times + r)
    ok = _close(ts, lhs, lhs_times, rhs, rhs_times, 1e-12)
    ok &= distances_to_integers(moved - (times + r)) <= 1e-9
    return ~ok
