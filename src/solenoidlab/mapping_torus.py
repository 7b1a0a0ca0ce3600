"""The mapping torus of a finite metric space under an invertible self-map.

Points are classes of (base point, real time) under (x, t) ~ (f(x), t+1); the
canonical representative has time in [0, 1).  Four distances are provided:

* ``product_metric``: max of base distance and time gap, on representatives.
  Its broadcasting kernel is the one place that formula is computed.  The
  scalar call, ``product_distance_pairs`` and ``product_distance_matrix``
  are views of it.  The three matrix views share one all-pairs driver,
  :func:`_all_pairs`.
* ``quotient_metric`` and ``representative_distance``: the product metric
  minimised over shifted representatives (f^m(x), r + m), (f^n(y), t + n),
  by one driver, :func:`_shift_minimum`, over a list of shift pairs where
  the shifted times are admissible.  The quotient metric (isometric glue
  only) shifts one side in a window the monodromy's cycles bound, and checks
  the window bound.  The representative distance takes m, n in {-1, 0}
  with times within 3/4 of zero and 1/2 of each other; the triangle
  inequality can genuinely fail for it under bilipschitz glue.  Admissibility
  and time gaps are decided once per row and time of the columns (per pair
  when paired), so base distances are gathered only for admissible cells.
  Every view of either, off-sample chain rows included, agrees bit for bit.
* chain distance (:class:`ChainMetricTable`): shortest-path repair of the
  representative distance over a caller-supplied sample of at most
  :data:`MAX_CHAIN_SAMPLE` points, which restores the triangle inequality.
  One exact Floyd-Warshall solve (:class:`~solenoidlab.metric_core.ShortestPaths`)
  gives every chain distance, without the chains that attain them, and
  answers queries with endpoints off the sample in batches.
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
    ShortestPaths,
    row_blocks,
    truncate,
)

Point = Any

#: Representative times are constrained to [-3/4, 3/4] in the constrained
#: minimum.  A canonical time r lies in [0, 1), so |r + m| <= 3/4 leaves only
#: the shifts m = -1 and m = 0: the shift pairs, in the order they are folded.
_TIME_CAP = 0.75
_GAP_CAP = 0.5
_SHIFT_PAIRS = ((-1, -1), (-1, 0), (0, -1), (0, 0))


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
    def _reach(self) -> float:
        """:func:`_quotient_kernel`'s reach, from the base diameter read once."""
        return min(self.diameter_bound, max(self.base_space.diameter(), 1.0)) + 1.0


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


def _require_finite(*values: float, name: str = "time") -> None:
    for value in values:
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} {value} is not finite")


def distances_to_integers(a: np.ndarray) -> np.ndarray:
    """Distance from each entry to the nearest integer, in [0, 1/2]:
    ``np.round`` rounds halves to even, as ``round`` does."""
    return np.abs(a - np.round(a))


def dist_to_integers(a: float) -> float:
    """Distance from a finite real number to the nearest integer: the
    one-number view of :func:`distances_to_integers`."""
    _require_finite(a, name="number")
    return float(distances_to_integers(np.array([a], dtype=float))[0])


def circle_distance(u: float, v: float) -> float:
    """Distance between two angles on the unit-length circle R/Z."""
    return dist_to_integers(u - v)


def _canonical_times(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shifts n and the times t + n in [0, 1) of finite times ``t``:
    n = -floor(t), less one where rounding pushes t + n up to exactly 1."""
    n = -np.floor(t)
    time = t + n
    wrap = time >= 1.0
    time[wrap] -= 1.0
    n[wrap] -= 1.0
    return n, time


def _canonical(ts: TorusSpace, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base indices and times in [0, 1) of the representatives of the
    points (``x``, ``t``), base indices and finite times: (x, t) ->
    (f^n(x), t + n), with n from :func:`_canonical_times`."""
    n, time = _canonical_times(t)
    return ts._cycles.step(x, n), time


def canonicalize(x: Point, t: float, ts: TorusSpace) -> TorusPoint:
    """The representative of (x, t) with time in [0, 1): the 1x1 view of
    the array canonicalisation."""
    _require_finite(t)
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


def _all_pairs(kernel, ts: TorusSpace, idx: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``kernel`` over all pairs of the checked points (``idx``, ``times``),
    each pair a <= b computed from point a to point b, a row block at a time.
    Only those cells are mirrored, so the kernel need not be symmetric bit for
    bit: the quotient kernel can round ``|(r + n) - t|`` differently in the
    two orientations."""
    n = len(idx)
    out = np.empty((n, n))
    for rows in row_blocks(n, n):
        cols = slice(rows.start, n)
        block = kernel(ts, idx[rows, None], times[rows, None], idx[None, cols], times[None, cols])
        square, right = np.split(block, [rows.stop - rows.start], axis=1)
        upper = np.arange(len(square))[:, None] <= np.arange(len(square))
        out[rows, rows] = np.where(upper, square, square.T)
        out[rows, rows.stop:], out[rows.stop:, rows] = right, right.T
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
    finite times: the 1x1 view of the product kernel."""
    _require_finite(r, t)
    idx = np.array([ts.base_space.index_of(x), ts.base_space.index_of(y)], dtype=np.intp)
    return _one(_product_kernel, ts, idx, np.array([r, t], dtype=float))


def product_distance_pairs(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`product_metric` of each pair (``i[k]``, ``r[k]``), (``j[k]``, ``t[k]``)."""
    return _product_kernel(ts, *_require_points(ts, i, r, j, t))


def product_distance_matrix(ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """:func:`product_metric` over all pairs of ``points``: the all-pairs
    view of the product kernel."""
    return _all_pairs(_product_kernel, ts, *_sample_arrays(ts, points))


# ============================================================
# Shifted representatives
# ============================================================

def _time_pieces(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of ``t`` grouped by time: ``(pieces, times, slot)``.

    Row p of ``pieces`` lists positions of the one time ``times[p]``, padded
    to the common width W with its last position; ``slot[b]`` is where
    position b sits in ``pieces.ravel()``.  For B positions of C distinct
    times, W = ceil(B / C) and a longer run of one time is cut every W
    positions, so the pieces hold at most 3B cells however uneven the runs.
    """
    order = np.argsort(t, kind="stable")
    t = t[order]
    new_time = np.ones(len(t), dtype=bool)
    new_time[1:] = t[1:] != t[:-1]
    width = -(-len(t) // max(np.count_nonzero(new_time), 1)) or 1
    place = np.arange(len(t))
    run_start = np.maximum.accumulate(np.where(new_time, place, 0))
    first = np.flatnonzero(new_time | ((place - run_start) % width == 0))
    size = np.diff(np.append(first, len(t)))
    pieces = order[first[:, None] + np.minimum(np.arange(width), size[:, None] - 1)]
    slot = np.empty_like(order)
    slot[order] = place + np.repeat(width * np.arange(len(first)) - first, size)
    return pieces, t[first], slot


def _shift_minimum(ts: TorusSpace, i, r, j, t, pairs, admissible) -> np.ndarray:
    """The product kernel from the points (``i``, ``r``) to the points
    (``j``, ``t``), at canonical times, minimised over the representatives
    (f^m(x), r + m), (f^n(y), t + n) of the shift pairs (m, n) of ``pairs``
    for which ``admissible(r + m, t + n)`` holds.

    Paired points are (K,) arrays; all pairs are (A, 1) rows against (1, B)
    columns.  Admissibility and the gap ``|(r + m) - (t + n)|`` depend only
    on the two times, so they are decided once per candidate: each pair, or
    each row against each piece of columns of one time (:func:`_time_pieces`).
    Each admissible cell then takes one base-distance gather, one ``max``
    with its gap and one ``min``; both are exact, so every view agrees bit
    for bit with the minimum taken cell by cell.  A candidate that admits no
    pair raises :class:`InvariantError`.
    """
    grid = np.ndim(t) == 2
    if grid:
        i, r, j, t = i[:, 0], r[:, 0], j[0], t[0]
        pieces, times, slot = _time_pieces(t)
        # Candidate k is row ca[k] against piece cp[k].
        ca, cp = np.divmod(np.arange(len(r) * len(pieces)), len(pieces) or 1)
    else:
        pieces, times = np.arange(len(t))[:, None], t
        ca = cp = np.arange(len(t))
    # Each candidate's two times; rows and columns stepped once per shift.
    r, t = r[ca], times[cp]
    rows, cols, cycles = {}, {}, ts._cycles
    best = np.full((len(ca), pieces.shape[1]), np.inf)
    for m, n in pairs:
        rp, tp = r + m, t + n
        k = np.flatnonzero(admissible(rp, tp))
        if not k.size:
            continue
        if m not in rows:
            rows[m] = cycles.step(i, m).take(ca)
        if n not in cols:
            cols[n] = cycles.step(j, n)[pieces]
        rho = _product_kernel(
            ts, rows[m].take(k)[:, None], rp.take(k)[:, None],
            cols[n].take(cp.take(k), axis=0), tp.take(k)[:, None],
        )
        best[k] = np.minimum(best.take(k, axis=0), rho, out=rho)
    # A candidate's cells share their shift pairs: inf in one is inf in all.
    if np.isinf(best[:, 0]).any():
        raise InvariantError("no admissible representative pair")
    if grid:
        return best.reshape(len(i), best.size // max(len(i), 1)).take(slot, axis=1)
    return best[:, 0]


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
    (``j``, ``t``): the shift minimum over (f^n(x), r + n), (y, t) with
    ``|(r + n) - t|`` within ``reach``, min(diameter bound, max(base
    diameter, 1)) + 1, as the identity shift gives at most max(base
    diameter, 1) < reach.  Then |n| <= floor(reach) + 1; and n, n -+ l (l
    the length of x's cycle, at most the longest, L) give one base point,
    and the one nearer the gap has the smaller rounded gap, so |n| <= L + 1
    loses nothing either."""
    _require_isometric(ts)
    reach = ts._reach
    w = min(math.floor(reach), int(ts._cycles.length.max(initial=0))) + 1
    best = _shift_minimum(
        ts, i, r, j, t, [(n, 0) for n in range(-w, w + 1)],
        lambda rp, tp: np.abs(rp - tp) <= reach,
    )
    if not np.all(best <= max(ts.diameter_bound, 1.0)):
        raise InvariantError("window bound violated")
    return best


def quotient_metric(p: TorusPoint, q: TorusPoint, ts: TorusSpace) -> float:
    """Distance in the glued space: the product metric minimised over
    representative shifts of ``p``.  Defined only when the monodromy is an
    isometry (lipschitz constant 1); otherwise the chain distance is the
    right tool and this raises.  The 1x1 view of the quotient kernel."""
    return _one(_quotient_kernel, ts, *_sample_arrays(ts, (p, q)))


def quotient_distance_pairs(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`quotient_metric` of each pair (``i[k]``, ``r[k]``), (``j[k]``, ``t[k]``)."""
    return _quotient_kernel(ts, *_require_points(ts, i, r, j, t))


def quotient_distance_matrix(ts: TorusSpace, points: Sequence[TorusPoint]) -> np.ndarray:
    """:func:`quotient_metric` over all pairs of ``points``: the all-pairs
    view of the quotient kernel, each pair a < b computed from ``points[a]``
    to ``points[b]``."""
    idx, times = _sample_arrays(ts, points)
    _require_isometric(ts)
    return _all_pairs(_quotient_kernel, ts, idx, times)


# ============================================================
# Constrained representative distance
# ============================================================

def _within_caps(rp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Whether both times lie within 3/4 of zero and within 1/2 of each other."""
    return (np.abs(rp) <= _TIME_CAP) & (np.abs(tp) <= _TIME_CAP) & (np.abs(rp - tp) <= _GAP_CAP)


def _representative_kernel(
    ts: TorusSpace, i: np.ndarray, r: np.ndarray, j: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """:func:`representative_distance` from the points (``i``, ``r``) to the
    points (``j``, ``t``): the shift minimum within the caps."""
    return _shift_minimum(ts, i, r, j, t, _SHIFT_PAIRS, _within_caps)


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
    all-pairs view of the representative kernel."""
    return _all_pairs(_representative_kernel, ts, *_sample_arrays(ts, points))


# ============================================================
# Chain (shortest-path) distance
# ============================================================

#: Largest chain sample, counted after de-duplication.  The all-pairs solve is
#: cubic at worst: a table of four times per base point takes 0.08-0.15 s at
#: 1024 points and 0.3-2.3 s at 2048 on a 2-core x86 host.  Off-sample queries
#: are not: 500 of them take 0.2-0.35 s on the 2048-point padic table, where
#: the block bounds leave about 1% of the (query, block, block) triples.
MAX_CHAIN_SAMPLE = 2048


def _require_chain_sample_size(size: int) -> None:
    """Refuse a chain sample of more than :data:`MAX_CHAIN_SAMPLE` distinct points."""
    if size > MAX_CHAIN_SAMPLE:
        raise InvalidInputError(
            f"chain sample of {size} points exceeds the limit of {MAX_CHAIN_SAMPLE}"
        )


def distinct_chain_sample(
    ts: TorusSpace, sample: Sequence[TorusPoint]
) -> tuple[tuple[TorusPoint, ...], np.ndarray, np.ndarray]:
    """``sample`` without repeats, in first-seen order, with the base indices
    and times of the kept points: ``(points, idx, times)``.

    Two points repeat when they have one (base index, time) key.  Raises
    :class:`InvalidInputError` for a point off the torus or not canonical
    (:func:`_sample_arrays`), and then when more than
    :data:`MAX_CHAIN_SAMPLE` distinct points remain.
    """
    idx, times = _sample_arrays(ts, sample)
    first: dict = {}
    for k, key in enumerate(zip(idx.tolist(), times.tolist())):
        first.setdefault(key, k)
    _require_chain_sample_size(len(first))
    keep = list(first.values())
    return tuple(sample[k] for k in keep), idx[keep], times[keep]


class ChainMetricTable:
    """All-pairs chain distances over a fixed sample of canonical points.

    Edge weights are the constrained representative distance; the chain
    distance is the shortest-path metric they generate, which satisfies the
    triangle inequality even when single edges do not.  The edge graph is
    complete, so one Floyd-Warshall solve serves every sample size up to
    :data:`MAX_CHAIN_SAMPLE`, bit for bit scipy's; a larger sample raises
    :class:`InvalidInputError` before any distance is computed.  The sample
    is checked and de-duplicated once (:func:`distinct_chain_sample`), and
    its edges come from :func:`representative_distance_matrix`.

    The table keeps no edge matrix: only the solve (:class:`ShortestPaths`),
    the sample's (base index, time) keys, and its indices and times in the
    solve's vertex order, from which off-sample query rows are built.
    """

    def __init__(self, ts: TorusSpace, sample: Sequence[TorusPoint]):
        self.ts = ts
        self.sample, idx, times = distinct_chain_sample(ts, sample)
        self._paths = ShortestPaths(representative_distance_matrix(ts, self.sample))
        # Sample positions by (base index, time); indices and times as one
        # row in the solve's vertex order.
        self._index = {key: k for k, key in enumerate(zip(idx.tolist(), times.tolist()))}
        self._idx, self._times = idx[None, self._paths.order], times[None, self._paths.order]

    def __len__(self) -> int:
        return len(self.sample)

    def index_of(self, p: TorusPoint) -> int:
        try:
            return self._index[self.ts.base_space.index_of(p.base), p.time]
        except (KeyError, InvalidInputError):
            raise InvalidInputError(f"point {p!r} is not in the chain sample") from None

    def distance(self, p: TorusPoint, q: TorusPoint) -> float:
        return float(self._paths.cells(self.index_of(p), self.index_of(q)))

    def distance_matrix(self) -> np.ndarray:
        return self._paths.matrix()

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
        points a, b (:meth:`ShortestPaths.lower`, a chunk of pairs at a
        time): the exact chain distance over the extended sample, where
        ``direct`` is the representative distance of the pair.
        """
        i, r, j, t = _require_points(self.ts, i, r, j, t)
        keys = zip(np.concatenate([i, j]).tolist(), np.concatenate([r, t]).tolist())
        a, b = np.array([self._index.get(key, -1) for key in keys], dtype=np.intp).reshape(2, -1)
        on = (a >= 0) & (b >= 0)
        out = np.empty(len(i))
        out[on] = self._paths.cells(a[on], b[on])
        off = np.flatnonzero(~on)
        if off.size:
            i, r, j, t = i[off], r[off], j[off], t[off]
            direct = _representative_kernel(self.ts, i, r, j, t)
            for part in self._paths.query_chunks(len(off)):
                # A call per chunk frees its rows before the next one.
                self._paths.lower(
                    direct[part], self._rows(i[part], r[part]), self._rows(j[part], t[part])
                )
            out[off] = direct
        return out

    def _rows(self, idx: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Representative distances from the points (``idx``, ``times``) to
        the sample, one row per point, in the solve's vertex order."""
        return _representative_kernel(self.ts, idx[:, None], times[:, None], self._idx, self._times)


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
    _require_finite(p.time, q.time)
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
    _, moved = _canonical_times(times + r)
    ok = _close(ts, lhs, lhs_times, rhs, rhs_times, 1e-12)
    ok &= distances_to_integers(moved - (times + r)) <= 1e-9
    return ~ok
