"""The mapping torus of a finite metric space under an invertible self-map.

Points are classes of (base point, real time) under (x, t) ~ (f(x), t+1); the
canonical representative has time in [0, 1).  Four distances are provided:

* ``product_metric``: max of base distance and time gap, on representatives.
* ``quotient_metric``: infimum of the product metric over representative
  shifts.  Only valid when the glue map is an isometry; the infimum is a
  minimum over an explicit finite window, and the window bound is checked
  rather than assumed.
* ``representative_distance``: minimum of the product metric over
  representatives constrained to times within 3/4 of zero and within 1/2 of
  each other.  Symmetric and positive, but not a metric in general: the
  triangle inequality can genuinely fail when the glue map only satisfies a
  bilipschitz bound.
* chain distance (:class:`ChainMetricTable`): shortest-path repair of the
  representative distance over a caller-supplied sample, which restores the
  triangle inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra, floyd_warshall

from .dynamics import SelfMap, estimate_bilipschitz_constant, index_cycles, iterate
from .errors import (
    InvalidInputError,
    InvariantError,
    UnsupportedMapError,
    UnsupportedModeError,
)
from .metric_core import DEFAULT_TOLERANCE, FiniteMetricSpace, truncate

Point = Any

#: Representative times are constrained to [-3/4, 3/4] in the constrained
#: minimum; shifts are enumerated over a wider window and the excess is
#: checked redundant.
_TIME_CAP = 0.75
_GAP_CAP = 0.5
_SHIFTS = (-2, -1, 0, 1, 2)
_CORE_SHIFTS = (-1, 0)


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


def circle_distance(u: float, v: float) -> float:
    """Distance between two angles on the unit-length circle R/Z."""
    return dist_to_integers(u - v)


def canonicalize(x: Point, t: float, ts: TorusSpace) -> TorusPoint:
    """The representative of (x, t) with time in [0, 1).

    Applies (x, t) -> (f^n(x), t+n) with n = -floor(t); one extra wrap
    covers the case where rounding pushes t+n up to exactly 1.
    """
    n = -math.floor(t)
    time = t + n
    if time >= 1.0:
        time -= 1.0
        n -= 1
    return TorusPoint(base=iterate(ts.monodromy, n, x), time=time)


def _require_canonical(p: TorusPoint, ts: TorusSpace) -> int:
    if not 0.0 <= p.time < 1.0:
        raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    return ts.base_space.index_of(p.base)


def product_metric(x: Point, r: float, y: Point, t: float, ts: TorusSpace) -> float:
    """max(base distance, time gap) between two representatives."""
    return max(ts.base_space.dist(x, y), abs(r - t))


# ============================================================
# Quotient metric (isometric glue)
# ============================================================

def quotient_metric(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Distance in the glued space: the product metric minimised over
    representative shifts of ``p``.

    Defined only when the monodromy is an isometry (lipschitz constant 1);
    otherwise the chain distance is the right tool and this raises.
    """
    _require_canonical(p, ts)
    _require_canonical(q, ts)
    if ts.lipschitz_constant != 1.0:
        raise UnsupportedModeError(
            "quotient metric needs an isometric monodromy; "
            "use a ChainMetricTable for bilipschitz glue"
        )
    r, t = p.time, q.time
    reach = ts.diameter_bound + 1.0
    lo = math.ceil(t - r - reach)
    hi = math.floor(t - r + reach)
    best = math.inf
    for n in range(lo, hi + 1):
        rho = max(
            ts.base_space.dist(iterate(ts.monodromy, n, p.base), q.base),
            abs(r + n - t),
        )
        best = min(best, rho)
    # Shifts outside the window satisfy rho >= |r+n-t| > reach, and the
    # identity shift already gives at most max(diameter_bound, 1) < reach.
    if not best <= max(ts.diameter_bound, 1.0):
        raise InvariantError("window bound violated")
    return best


# ============================================================
# Constrained representative distance
# ============================================================

def _admissible(rp: float, tp: float) -> bool:
    return abs(rp) <= _TIME_CAP and abs(tp) <= _TIME_CAP and abs(rp - tp) <= _GAP_CAP


def representative_distance(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Minimum of the product metric over constrained representative pairs.

    Representatives (f^m(x), r+m), (f^n(y), t+n) are admissible when both
    times lie in [-3/4, 3/4] and differ by at most 1/2.  For canonical
    inputs the shifts m, n = -1, 0 already realise the minimum; a wider
    window is scanned anyway and the excess checked redundant.
    """
    _require_canonical(p, ts)
    _require_canonical(q, ts)
    best = math.inf
    core_best = math.inf
    for m in _SHIFTS:
        rp = p.time + m
        if abs(rp) > _TIME_CAP:
            continue
        xm = iterate(ts.monodromy, m, p.base)
        for n in _SHIFTS:
            tp = q.time + n
            if abs(tp) > _TIME_CAP or abs(rp - tp) > _GAP_CAP:
                continue
            yn = iterate(ts.monodromy, n, q.base)
            rho = max(ts.base_space.dist(xm, yn), abs(rp - tp))
            best = min(best, rho)
            if m in _CORE_SHIFTS and n in _CORE_SHIFTS:
                core_best = min(core_best, rho)
    if not best < math.inf:
        raise InvariantError("no admissible representative pair")
    if core_best != best:
        raise InvariantError("shifts beyond {-1, 0} improved the minimum")
    return best


def _perm_powers(ts: TorusSpace, lo: int, hi: int) -> dict[int, np.ndarray]:
    table = index_cycles(ts.base_space, ts.monodromy)
    return {m: table.power(m) for m in range(lo, hi + 1)}


def _sample_arrays(ts: TorusSpace, points: Sequence[TorusPoint]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([_require_canonical(p, ts) for p in points], dtype=np.intp)
    times = np.array([p.time for p in points], dtype=float)
    return idx, times


def representative_distance_matrix(
    ts: TorusSpace, points: Sequence[TorusPoint]
) -> np.ndarray:
    """Vectorised :func:`representative_distance` over all pairs."""
    idx, times = _sample_arrays(ts, points)
    powers = _perm_powers(ts, min(_SHIFTS), max(_SHIFTS))
    m_base = ts.base_space.matrix
    best = np.full((len(points), len(points)), np.inf)
    core = np.full_like(best, np.inf)
    for m in _SHIFTS:
        rp = times + m
        row_ok = np.abs(rp) <= _TIME_CAP
        if not row_ok.any():
            continue
        rows = powers[m][idx]
        for n in _SHIFTS:
            tp = times + n
            col_ok = np.abs(tp) <= _TIME_CAP
            gap = np.abs(rp[:, None] - tp[None, :])
            ok = row_ok[:, None] & col_ok[None, :] & (gap <= _GAP_CAP)
            if not ok.any():
                continue
            rho = np.maximum(m_base[np.ix_(rows, powers[n][idx])], gap)
            cand = np.where(ok, rho, np.inf)
            best = np.minimum(best, cand)
            if m in _CORE_SHIFTS and n in _CORE_SHIFTS:
                core = np.minimum(core, cand)
    if not np.all(np.isfinite(best)):
        raise InvariantError("no admissible representative pair")
    if not np.array_equal(core, best):
        raise InvariantError("shifts beyond {-1, 0} improved the minimum")
    return best


def _distance_rows(
    ts: TorusSpace, p: TorusPoint, idx: np.ndarray, times: np.ndarray,
    powers: dict[int, np.ndarray],
) -> np.ndarray:
    """Representative distances from one point to a prepared sample."""
    i = _require_canonical(p, ts)
    m_base = ts.base_space.matrix
    best = np.full(len(idx), np.inf)
    for m in _SHIFTS:
        rp = p.time + m
        if abs(rp) > _TIME_CAP:
            continue
        row = powers[m][i]
        for n in _SHIFTS:
            tp = times + n
            gap = np.abs(rp - tp)
            ok = (np.abs(tp) <= _TIME_CAP) & (gap <= _GAP_CAP)
            if not ok.any():
                continue
            rho = np.maximum(m_base[row, powers[n][idx]], gap)
            best = np.minimum(best, np.where(ok, rho, np.inf))
    if not np.all(np.isfinite(best)):
        raise InvariantError("no admissible representative pair")
    return best


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


class ChainMetricTable:
    """All-pairs chain distances over a fixed sample of canonical points.

    Edge weights are the constrained representative distance; the chain
    distance is the shortest-path metric they generate, which satisfies the
    triangle inequality even when single edges do not.  Dense all-pairs
    solving is used up to ``dense_limit`` points, single-source queries
    beyond that.
    """

    def __init__(self, ts: TorusSpace, sample: Sequence[TorusPoint], dense_limit: int = 512):
        seen: dict[TorusPoint, None] = {}
        for p in sample:
            _require_canonical(p, ts)
            seen.setdefault(p)
        self.ts = ts
        self.sample = tuple(seen)
        self._index = {p: i for i, p in enumerate(self.sample)}
        self.edges = representative_distance_matrix(ts, self.sample)
        self._powers = _perm_powers(ts, min(_SHIFTS), max(_SHIFTS))
        self._idx, self._times = _sample_arrays(ts, self.sample)
        self._dense = len(self.sample) <= dense_limit
        if self._dense:
            self._dist, self._pred = floyd_warshall(
                self.edges, directed=False, return_predecessors=True
            )
        else:
            self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.sample)

    def index_of(self, p: TorusPoint) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InvalidInputError(f"point {p!r} is not in the chain sample") from None

    def _row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if self._dense:
            return self._dist[i], self._pred[i]
        if i not in self._rows:
            d, pred = dijkstra(
                self.edges, directed=False, indices=i, return_predecessors=True
            )
            self._rows[i] = (d, pred)
        return self._rows[i]

    def distance(self, p: TorusPoint, q: TorusPoint) -> float:
        d, _ = self._row(self.index_of(p))
        return float(d[self.index_of(q)])

    def distance_matrix(self) -> np.ndarray:
        if self._dense:
            return self._dist.copy()
        return np.vstack([self._row(i)[0] for i in range(len(self.sample))])

    def witness(self, p: TorusPoint, q: TorusPoint) -> ChainWitness:
        i, j = self.index_of(p), self.index_of(q)
        _, pred = self._row(i)
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
        """Chain distance allowing ``p`` and ``q`` off the sample.

        Chains run through the sample plus the two endpoints; a shortest
        chain never revisits an endpoint, so the value is the exact chain
        distance over the extended sample.
        """
        if p in self._index and q in self._index:
            return self.distance(p, q)
        if not self._dense:
            raise UnsupportedModeError(
                "off-sample queries need the dense all-pairs table"
            )
        direct = representative_distance(p, q, self.ts)
        row_p = _distance_rows(self.ts, p, self._idx, self._times, self._powers)
        row_q = _distance_rows(self.ts, q, self._idx, self._times, self._powers)
        through = float(np.min(row_p[:, None] + self._dist + row_q[None, :]))
        return min(direct, through)


def chain_metric(
    p: TorusPoint, q: TorusPoint, ts: TorusSpace, sample: Sequence[TorusPoint]
) -> tuple[float, ChainWitness]:
    """One-off chain distance with its witness chain.

    Both endpoints must belong to ``sample``.  Builds the full table; use
    :class:`ChainMetricTable` directly when querying many pairs.
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


def torus_points_close(
    p: TorusPoint, q: TorusPoint, ts: TorusSpace, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Equality of canonical points up to a wrap at the time boundary.

    Rounding can park two images of the same point on opposite sides of the
    t = 0 seam; this compares them as points of the glued space.
    """
    gap = p.time - q.time
    n = round(gap)
    if abs(gap - n) > tol:
        return False
    return p.base == iterate(ts.monodromy, n, q.base)
