"""Reference torus distances: the product metric one pair at a time, the
scalar shift loops, per-point rows, one chain query at a time and per-row
Dijkstra; and canonical representatives one point at a time.

The library computes the product, quotient and representative distances with
one broadcasting kernel each, every chain distance with one Floyd-Warshall solve
and off-sample chain queries in pruned batches, and canonicalises points on
index arrays.  This module keeps the plain versions they replaced, so
property tests can hold the library to them.  Its
checks raise rather than assert, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from dynamics_reference import perm_powers_by_steps
from solenoidlab import (
    InvariantError,
    TorusPoint,
    TorusSpace,
    UnsupportedModeError,
    iterate,
)
from solenoidlab.mapping_torus import _representative_kernel, _sample_arrays

TIME_CAP = 0.75
GAP_CAP = 0.5
#: A wider shift window than the library's (-1, 0); the loop checks that the
#: extra shifts never lower the minimum.
SHIFTS = (-2, -1, 0, 1, 2)
CORE_SHIFTS = (-1, 0)


def canonicalize_by_steps(x, t: float, ts: TorusSpace) -> TorusPoint:
    """(f^n(x), t + n) with n = -floor(t), a Python integer, and one extra
    wrap when rounding pushes the time up to exactly 1."""
    n = -math.floor(t)
    time = t + n
    if time >= 1.0:
        time -= 1.0
        n -= 1
    return TorusPoint(base=iterate(ts.monodromy, n, x), time=time)


def points_close_by_steps(p: TorusPoint, q: TorusPoint, ts: TorusSpace, tol: float) -> bool:
    """Equality up to ``tol`` after rounding the time gap with ``round``."""
    gap = p.time - q.time
    n = round(gap)
    if abs(gap - n) > tol:
        return False
    return p.base == iterate(ts.monodromy, n, q.base)


def product_metric_by_pair(x, r: float, y, t: float, ts: TorusSpace) -> float:
    """max(base distance, time gap) of one pair of representatives, at any
    times."""
    return max(ts.base_space.dist(x, y), abs(r - t))


def quotient_metric_by_loop(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """The product metric minimised over the shifts n of ``p`` in the window
    ``[ceil(t - r - reach), floor(t - r + reach)]``, one shift at a time,
    with the base point shifted by ``iterate``."""
    _sample_arrays(ts, (p, q))  # refuses points off the torus or not canonical
    if ts.lipschitz_constant != 1.0:
        raise UnsupportedModeError("quotient metric needs an isometric monodromy")
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
    if not best <= max(ts.diameter_bound, 1.0):
        raise InvariantError("window bound violated")
    return best


def representative_distance_by_loop(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Minimum of the product metric over admissible shift pairs, one pair
    at a time, with the base points shifted by ``iterate``."""
    best = math.inf
    core_best = math.inf
    for m in SHIFTS:
        rp = p.time + m
        if abs(rp) > TIME_CAP:
            continue
        xm = iterate(ts.monodromy, m, p.base)
        for n in SHIFTS:
            tp = q.time + n
            if abs(tp) > TIME_CAP or abs(rp - tp) > GAP_CAP:
                continue
            yn = iterate(ts.monodromy, n, q.base)
            rho = max(ts.base_space.dist(xm, yn), abs(rp - tp))
            best = min(best, rho)
            if m in CORE_SHIFTS and n in CORE_SHIFTS:
                core_best = min(core_best, rho)
    if not best < math.inf:
        raise AssertionError("no admissible representative pair")
    if core_best != best:
        raise AssertionError("shifts beyond {-1, 0} improved the minimum")
    return best


def representative_matrix_by_loop(ts: TorusSpace, points) -> np.ndarray:
    return np.array([
        [representative_distance_by_loop(p, q, ts) for q in points] for p in points
    ])


def distance_rows(ts: TorusSpace, p: TorusPoint, points) -> np.ndarray:
    """Representative distances from ``p`` to ``points``, vectorised over
    the points with the shift powers built step by step."""
    powers = perm_powers_by_steps(ts, min(SHIFTS), max(SHIFTS))
    idx = np.array([ts.base_space.index_of(q.base) for q in points], dtype=np.intp)
    times = np.array([q.time for q in points], dtype=float)
    i = ts.base_space.index_of(p.base)
    m_base = ts.base_space.matrix
    best = np.full(len(idx), np.inf)
    for m in SHIFTS:
        rp = p.time + m
        if abs(rp) > TIME_CAP:
            continue
        row = powers[m][i]
        for n in SHIFTS:
            tp = times + n
            gap = np.abs(rp - tp)
            ok = (np.abs(tp) <= TIME_CAP) & (gap <= GAP_CAP)
            if not ok.any():
                continue
            rho = np.maximum(m_base[row, powers[n][idx]], gap)
            best = np.minimum(best, np.where(ok, rho, np.inf))
    if not np.all(np.isfinite(best)):
        raise AssertionError("no admissible representative pair")
    return best


def distance_via_by_block(table, p: TorusPoint, q: TorusPoint) -> float:
    """One chain query at a time, as ``ChainMetricTable.distance_via`` was:
    on the sample, the table entry; otherwise both rows to the sample, the
    full S x S sum ``row_p[:, None] + D + row_q[None, :]`` and the direct
    edge."""
    if p in table.sample and q in table.sample:
        return table.distance(p, q)
    row_p = distance_rows(table.ts, p, table.sample)
    row_q = distance_rows(table.ts, q, table.sample)
    through = float(np.min(row_p[:, None] + table.distance_matrix() + row_q[None, :]))
    return min(representative_distance_by_loop(p, q, table.ts), through)


def chain_matrix_by_dijkstra(edges: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths, one single-source Dijkstra per row.

    The graph stores every entry, since scipy reads zero (and, in a dense
    array, near-zero) entries as missing edges.
    """
    n = len(edges)
    graph = csr_matrix(
        (edges.ravel(), np.tile(np.arange(n), n), np.arange(0, n * n + 1, n)),
        shape=(n, n),
    )
    return np.vstack([
        dijkstra(graph, directed=False, indices=i) for i in range(n)
    ])


def representative_matrix_all_at_once(ts: TorusSpace, points) -> np.ndarray:
    """All pairs in one kernel call, which the library's matrix view and
    the chain table's edges now split into row blocks."""
    idx, times = _sample_arrays(ts, points)
    return _representative_kernel(
        ts, idx[:, None], times[:, None], idx[None, :], times[None, :]
    )
