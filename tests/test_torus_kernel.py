"""The product, quotient and representative-distance kernels, the dense
chain solver and the batched chain queries, checked against the per-pair
product formula, the scalar loops, per-point rows, per-row Dijkstra and
one-at-a-time chain queries.

``mapping_torus_reference`` keeps the plain versions.  Each kernel must agree
with them bit for bit in all of its shapes: the 1x1 scalar view, the paired
view, the rows of off-sample chain queries and the matrix views; so must
every batched chain query.  The paired views and the batched chain queries
take base indices and times as arrays, and refuse arrays that do not name
canonical points.
"""

import dataclasses
import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mapping_torus_reference as ref
import metric_reference
from solenoidlab import (
    ChainMetricTable,
    InvalidInputError,
    InvariantError,
    TorusPoint,
    UnsupportedModeError,
    build_full_shift,
    build_padic_cycle,
    build_two_fixed_points,
    make_torus_space,
    mapping_torus,
    metric_core,
    metric_space_from_matrix,
    product_distance_matrix,
    product_distance_pairs,
    product_metric,
    quotient_distance_matrix,
    quotient_distance_pairs,
    quotient_metric,
    representative_distance,
    representative_distance_matrix,
    representative_distance_pairs,
    self_map_from_function,
)
from solenoidlab.mapping_torus import _representative_kernel, _sample_arrays

#: Builders of tori with at most 32 points: bilipschitz shift glue with
#: several ratios, and isometric residue rings.
TORI = (
    [(build_full_shift, (2, 0.5, k)) for k in range(1, 6)]
    + [(build_full_shift, (3, 0.5, k)) for k in range(1, 4)]
    + [(build_full_shift, (2, 0.25, 4)), (build_full_shift, (2, 0.75, 5))]
    + [(build_padic_cycle, (2, k)) for k in range(1, 6)]
    + [(build_padic_cycle, (3, k)) for k in range(1, 4)]
    + [(build_padic_cycle, (5, 2)), (build_padic_cycle, (7, 1))]
)

#: Times on and next to the caps: 3/4 bounds a representative time and 1/2
#: the gap, so 1/4 and 3/4 decide which shifts are admissible.
EDGE_TIMES = (
    0.0, 0.125, 0.25, 0.5, 0.625, 0.75,
    math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0),
    math.nextafter(0.75, 0.0), math.nextafter(0.75, 1.0),
    math.nextafter(1.0, 0.0),
)
TIMES = st.one_of(
    st.sampled_from(EDGE_TIMES), st.floats(0.0, 1.0, exclude_max=True),
)
#: Time pairs on the two sides of the seam, where time 1 is glued to time 0.
SEAM_TIMES = st.sampled_from([
    (0.01, 0.99), (0.99, 0.01), (0.0, math.nextafter(1.0, 0.0)), (0.125, 0.875),
])


@functools.lru_cache(maxsize=None)
def _torus(k):
    build, args = TORI[k]
    return build(*args)[2]


@st.composite
def tori(draw):
    return _torus(draw(st.integers(0, len(TORI) - 1)))


@st.composite
def point_pairs(draw, ts):
    """Two canonical points, often with times exactly 1/2 apart or on the
    two sides of the seam."""
    points = ts.base_space.points
    r, t = draw(TIMES), draw(TIMES)
    how = draw(st.integers(0, 2))
    if how == 1:
        t = r + 0.5 if r < 0.5 else r - 0.5
    elif how == 2:
        r, t = draw(SEAM_TIMES)
    x, y = (points[draw(st.integers(0, len(points) - 1))] for _ in range(2))
    return TorusPoint(x, r), TorusPoint(y, t)


@st.composite
def samples(draw, ts, max_size=24):
    pairs = draw(st.lists(point_pairs(ts), min_size=1, max_size=max_size // 2))
    return list(dict.fromkeys(p for pair in pairs for p in pair))


def _bits(value):
    return np.float64(value).tobytes()


def ends(ts, points):
    """The base indices and times of ``points``, one lookup per point."""
    idx = np.array([ts.base_space.index_of(p.base) for p in points], dtype=np.intp)
    return idx, np.array([p.time for p in points], dtype=float)


def paired(ts, ps, qs):
    """The pairs (``ps[k]``, ``qs[k]``) as the arrays ``i, r, j, t`` of the
    paired views."""
    return (*ends(ts, ps), *ends(ts, qs))


#: Any finite times: the scalar product metric takes representatives that
#: are not canonical.
ANY_TIMES = st.one_of(TIMES, st.floats(-4.0, 4.0), st.sampled_from((-1.0, 1.0, 2.5)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_views_match_the_pair_formula(data):
    ts = data.draw(tori())
    points = ts.base_space.points
    for _ in range(10):
        x, y = (points[data.draw(st.integers(0, len(points) - 1))] for _ in range(2))
        r, t = data.draw(ANY_TIMES), data.draw(ANY_TIMES)
        got = product_metric(x, r, y, t, ts)
        assert type(got) is float
        assert _bits(got) == _bits(ref.product_metric_by_pair(x, r, y, t, ts))
    pairs = data.draw(st.lists(point_pairs(ts), max_size=12))
    ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
    want = [ref.product_metric_by_pair(p.base, p.time, q.base, q.time, ts) for p, q in pairs]
    got = product_distance_pairs(ts, *paired(ts, ps, qs))
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
    sample = data.draw(samples(ts))
    want = np.array([
        [ref.product_metric_by_pair(p.base, p.time, q.base, q.time, ts) for q in sample]
        for p in sample
    ])
    cells = data.draw(st.sampled_from([1, 3 * len(sample), metric_core.ROW_BLOCK_CELLS]))
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = product_distance_matrix(ts, sample)
    assert got.tobytes() == want.tobytes()


def test_product_matrix_refuses_non_canonical_points():
    ts = _torus(0)
    p = TorusPoint(ts.base_space.points[0], 0.25)
    with pytest.raises(InvalidInputError, match="not canonical"):
        product_distance_matrix(ts, [p, TorusPoint(p.base, -0.5)])


def _array_views():
    """Every view that takes index and time arrays, on the isometric 8-point
    ring, whose chain sample is every base point at times 0 and 1/2."""
    ts = _isometric_torus(2, 1.0)
    sample = [TorusPoint(b, t) for b in ts.base_space.points for t in (0.0, 0.5)]
    table = ChainMetricTable(ts, sample)
    return {
        "product": functools.partial(product_distance_pairs, ts),
        "quotient": functools.partial(quotient_distance_pairs, ts),
        "representative": functools.partial(representative_distance_pairs, ts),
        "chain": table.distances_via,
    }


#: Index and time arrays of two points that no view accepts, with the
#: refusal each gets, next to a good pair of arrays.
GOOD_END = ([0, 7], [0.25, 0.5])
BAD_ENDS = [
    (([-1, 0], [0.25, 0.5]), "base index -1 is out of range"),
    (([0, 8], [0.25, 0.5]), "base index 8 is out of range"),
    (([0.0, 1.0], [0.25, 0.5]), "base indices must be integers"),
    ((np.array([True, False]), [0.25, 0.5]), "base indices must be integers"),
    (([0, 1], [0.25, 1.0]), "time 1.0 is not canonical"),
    (([0, 1], [-0.25, 0.5]), "time -0.25 is not canonical"),
    (([0, 1], [0.25, 3.5]), "time 3.5 is not canonical"),
    (([0, 1], [math.nan, 0.5]), "time nan is not canonical"),
    (([0, 1], [0.25]), "not one length"),
    (([0], [0.25]), "not one length"),
    (([[0, 1]], [[0.25, 0.5]]), "not one length"),
]


@pytest.mark.parametrize("view", ["product", "quotient", "representative", "chain"])
@pytest.mark.parametrize("end, match", BAD_ENDS)
@pytest.mark.parametrize("side", ["start", "end"])
def test_array_views_refuse_arrays_of_no_canonical_points(view, end, match, side):
    call = _array_views()[view]
    args = (*end, *GOOD_END) if side == "start" else (*GOOD_END, *end)
    with pytest.raises(InvalidInputError, match=match):
        call(*args)


@pytest.mark.parametrize("view", ["product", "quotient", "representative", "chain"])
def test_array_views_take_lists_and_empty_arrays(view):
    call = _array_views()[view]
    lists = (*GOOD_END, [7, 0], [0.5, 0.0])
    got = call(*lists)
    assert got.shape == (2,) and got.dtype == float
    assert got.tobytes() == call(*(np.array(a) for a in lists)).tobytes()
    assert call([], [], [], []).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scalar_view_matches_the_loop(data):
    ts = data.draw(tori())
    for _ in range(10):
        p, q = data.draw(point_pairs(ts))
        got = representative_distance(p, q, ts)
        assert type(got) is float
        assert _bits(got) == _bits(ref.representative_distance_by_loop(p, q, ts))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_view_matches_the_loop(data):
    ts = data.draw(tori())
    sample = data.draw(samples(ts))
    # The view computes the pairs on and above the diagonal, a row block at
    # a time, and mirrors them: the loop checks both triangles.
    cells = data.draw(st.sampled_from([1, 3 * len(sample), metric_core.ROW_BLOCK_CELLS]))
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = representative_distance_matrix(ts, sample)
    assert got.tobytes() == ref.representative_matrix_by_loop(ts, sample).tobytes()
    assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_block_matches_distance_rows(data):
    ts = data.draw(tori())
    sample = data.draw(samples(ts))
    p, q = data.draw(point_pairs(ts))
    # The block an off-sample chain query makes: two rows, q appended last.
    ends_idx, ends_times = _sample_arrays(ts, (p, q))
    idx, times = _sample_arrays(ts, sample + [q])
    block = _representative_kernel(
        ts, ends_idx[:, None], ends_times[:, None], idx[None, :], times[None, :]
    )
    assert block[0, :-1].tobytes() == ref.distance_rows(ts, p, sample).tobytes()
    assert block[1, :-1].tobytes() == ref.distance_rows(ts, q, sample).tobytes()
    assert _bits(block[0, -1]) == _bits(ref.representative_distance_by_loop(p, q, ts))

    table = ChainMetricTable(ts, sample)
    assert _bits(table.distance_via(p, q)) == _bits(ref.distance_via_by_block(table, p, q))


#: Models for the time-classed kernel against the per-cell one: residue
#: rings of two primes, full shifts whose glue is not an isometry, and the
#: two fixed points.
CLASSED_TORI = (
    [(build_padic_cycle, (2, k)) for k in (1, 3, 5)]
    + [(build_padic_cycle, (3, k)) for k in (1, 3)]
    + [(build_full_shift, (2, 0.3, 5)), (build_full_shift, (2, 0.7, 5))]
    + [(build_two_fixed_points, ())]
)
#: The caps of the window, 3/4 from the seam and 1/2 apart, and the seam
#: from both sides.
CAP_TIMES = (0.0, 0.25, 0.5, 0.75, 0.9999999999999999)


@functools.lru_cache(maxsize=None)
def _classed_torus(k):
    build, args = CLASSED_TORI[k]
    return build(*args)[2]


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classed_kernel_matches_the_per_cell_kernel(data):
    ts = _classed_torus(data.draw(st.integers(0, len(CLASSED_TORI) - 1)))
    n = len(ts.base_space)
    # A few times, most on the caps, shared by many points.
    times = st.one_of(st.sampled_from(CAP_TIMES), TIMES)
    times = data.draw(st.lists(times, min_size=1, max_size=5))

    def points(max_size):
        k = data.draw(st.integers(0, max_size))
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        at = data.draw(st.lists(st.sampled_from(times), min_size=k, max_size=k))
        return np.array(idx, dtype=np.intp), np.array(at, dtype=float)

    (i, r), (j, t) = points(12), points(40)
    k = min(len(i), len(j))
    paired_ends = (i[:k], r[:k], j[:k], t[:k])
    _same_bits(_representative_kernel(ts, *paired_ends),
               ref.representative_kernel_by_cell(ts, *paired_ends))
    _same_bits(representative_distance_pairs(ts, *paired_ends),
               ref.representative_kernel_by_cell(ts, *paired_ends))
    grid_ends = (i[:, None], r[:, None], j[None, :], t[None, :])
    _same_bits(_representative_kernel(ts, *grid_ends),
               ref.representative_kernel_by_cell(ts, *grid_ends))
    if k:
        got = representative_distance(
            TorusPoint(ts.base_space.points[i[0]], r[0]),
            TorusPoint(ts.base_space.points[j[0]], t[0]), ts,
        )
        want = ref.representative_kernel_by_cell(ts, *(a[:1] for a in paired_ends))
        _same_bits(np.array([got]), want)

    sample = list(dict.fromkeys(TorusPoint(ts.base_space.points[b], a) for b, a in zip(j, t)))
    cells = data.draw(st.sampled_from([1, 7, 3 * len(sample), metric_core.ROW_BLOCK_CELLS]))
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        _same_bits(representative_distance_matrix(ts, sample),
                   ref.representative_matrix_all_at_once(ts, sample))
        if sample and k:
            # Off-sample queries: their rows to the sample and their direct edges.
            table = ChainMetricTable(ts, sample)
            got = table.distances_via(i[:k], r[:k], i[::-1][:k], r[::-1][:k])
            with mock.patch.object(mapping_torus, "_representative_kernel",
                                   ref.representative_kernel_by_cell):
                want = table.distances_via(i[:k], r[:k], i[::-1][:k], r[::-1][:k])
            _same_bits(got, want)


@pytest.mark.parametrize("grid", [False, True])
def test_kernel_refuses_a_pair_with_no_admissible_shift_pair(grid):
    # Time 1.6 is not canonical, so no shift pair is admissible against time
    # 0; the views refuse such times, so only a direct kernel call meets it.
    ts = _classed_torus(0)
    i, r, j, t = np.array([0, 1]), np.array([0.5, 1.6]), np.array([1, 0]), np.array([0.0, 0.0])
    if grid:
        i, r, j, t = i[:, None], r[:, None], j[None, :], t[None, :]
    for kernel in (_representative_kernel, ref.representative_kernel_by_cell):
        with pytest.raises(InvariantError, match="no admissible representative pair"):
            kernel(ts, i, r, j, t)


@st.composite
def chain_queries(draw, ts, sample):
    """Query pairs whose endpoints are sample points or fresh points, some
    with ``p == q``."""
    def end():
        if draw(st.booleans()):
            return draw(st.sampled_from(sample))
        return draw(point_pairs(ts))[0]

    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        p = end()
        pairs.append((p, p if draw(st.integers(0, 5)) == 0 else end()))
    return [p for p, _ in pairs], [q for _, q in pairs]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_queries_match_one_at_a_time(data):
    ts = data.draw(tori())
    drawn = data.draw(samples(ts))
    # Repeats in the sample are dropped by the table.
    sample = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=4))
    table = ChainMetricTable(ts, sample)
    ps, qs = data.draw(chain_queries(ts, sample))
    want = np.array([ref.distance_via_by_block(table, p, q) for p, q in zip(ps, qs)])
    pairs = representative_distance_pairs(ts, *paired(ts, ps, qs))
    assert pairs.tobytes() == np.array([
        ref.representative_distance_by_loop(p, q, ts) for p, q in zip(ps, qs)
    ]).tobytes()
    assert table.distances_via(*paired(ts, ps, qs)).tobytes() == want.tobytes()
    for p, q, w in zip(ps, qs, want):
        got = table.distance_via(p, q)
        assert type(got) is float and _bits(got) == _bits(w)


@functools.lru_cache(maxsize=None)
def _shortcut_torus():
    """Identity glue over 16 points at random distances in [0.2, 1), which
    break the triangle inequality often, so that chains of two sample points
    beat many direct edges."""
    rng = np.random.RandomState(2)
    m = np.triu(rng.uniform(0.2, 1.0, (16, 16)), 1)
    space = metric_space_from_matrix(range(16), m + m.T)
    return make_torus_space(space, self_map_from_function(space.points, lambda x: x))


@pytest.mark.parametrize("cells", [None, 1, 5 * 48])
def test_batched_queries_keep_the_float_order(monkeypatch, cells):
    if cells is not None:
        # Chunks of one and of five queries.
        monkeypatch.setattr(metric_core, "ROW_BLOCK_CELLS", cells)
    ts = _shortcut_torus()
    rng = np.random.RandomState(7)
    points = ts.base_space.points
    sample = [TorusPoint(b, t) for b in points for t in (0.0, 0.3, 0.6)]
    table = ChainMetricTable(ts, sample)
    ps = [TorusPoint(points[rng.randint(16)], float(rng.rand())) for _ in range(300)]
    qs = [TorusPoint(points[rng.randint(16)], float(rng.rand())) for _ in range(300)]
    direct = representative_distance_pairs(ts, *paired(ts, ps, qs))
    got = table.distances_via(*paired(ts, ps, qs))
    assert np.count_nonzero(got < direct) >= 100
    want = np.array([ref.distance_via_by_block(table, p, q) for p, q in zip(ps, qs)])
    assert got.tobytes() == want.tobytes()
    # The data tell the float orders apart: adding the rows the other way
    # round, (row_p[a] + (D[a, b] + row_q[b])), changes some results.
    dist = table.distance_matrix()
    other = np.array([
        min(d, float(np.min(
            ref.distance_rows(ts, p, table.sample)[:, None]
            + (dist + ref.distance_rows(ts, q, table.sample)[None, :])
        )))
        for p, q, d in zip(ps, qs, direct)
    ])
    assert other.tobytes() != want.tobytes()


#: Tori with at least 16 base points, for samples that span several blocks
#: of the chain solve.
WIDE = [k for k in range(len(TORI)) if len(_torus(k).base_space) >= 16]


@st.composite
def wide_samples(draw):
    """A torus and 33 to 200 distinct canonical points of it, at a few
    shared times: more than one block of the chain solve, often a partial
    last block."""
    ts = _torus(draw(st.sampled_from(WIDE)))
    times = draw(st.lists(TIMES, min_size=3, max_size=8, unique=True))
    grid = [TorusPoint(b, t) for b in ts.base_space.points for t in times]
    size = draw(st.integers(33, min(200, len(grid))))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(
        len(grid), size, replace=False
    )
    return ts, [grid[k] for k in pick]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_pruned_queries_match_one_at_a_time(data):
    ts, sample = data.draw(wide_samples())
    # One cell splits every query chunk and every chunk of live block
    # triples down to one; a few block areas split both into several.
    cells = data.draw(st.sampled_from([1, 1024, 3 * 1024 + 5, metric_core.ROW_BLOCK_CELLS]))
    ps, qs = data.draw(chain_queries(ts, sample))
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        table = ChainMetricTable(ts, sample)
        got = table.distances_via(*paired(ts, ps, qs))
    want = np.array([ref.distance_via_by_block(table, p, q) for p, q in zip(ps, qs)])
    assert got.tobytes() == want.tobytes()

    edges = representative_distance_matrix(ts, table.sample)
    chain = metric_reference.shortest_paths_by_scipy(edges)
    assert table.distance_matrix().tobytes() == chain.tobytes()
    a, b = np.random.default_rng(len(sample)).integers(0, len(sample), (2, 50))
    on_p, on_q = [table.sample[k] for k in a], [table.sample[k] for k in b]
    assert table.distances_via(*paired(ts, on_p, on_q)).tobytes() == chain[a, b].tobytes()
    for p, q, d in zip(on_p, on_q, chain[a, b]):
        got = table.distance(p, q)
        assert type(got) is float and _bits(got) == _bits(d)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_solver_matches_dijkstra_rows(data):
    ts = data.draw(tori())
    sample = data.draw(samples(ts, max_size=40))
    table = ChainMetricTable(ts, sample)
    edges = representative_distance_matrix(ts, table.sample)
    assert edges.tobytes() == ref.representative_matrix_by_loop(ts, sample).tobytes()
    want = ref.chain_matrix_by_dijkstra(edges)
    assert np.allclose(table.distance_matrix(), want, rtol=0.0, atol=1e-12)


# ============================================================
# Quotient kernel
# ============================================================

#: Isometric tori with at most 32 points.
ISOMETRIC = (
    [(build_padic_cycle, (2, k)) for k in range(1, 6)]
    + [(build_padic_cycle, (3, k)) for k in range(1, 4)]
    + [(build_padic_cycle, (5, 2)), (build_padic_cycle, (7, 1))]
    + [(build_two_fixed_points, ())]
)
#: Diameter bounds whose window reach ``bound + 1`` has every quarter as its
#: fractional part, so that ``t - r`` on a quarter grid hits the window edges.
BOUNDS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.75)


@functools.lru_cache(maxsize=None)
def _isometric_torus(k, bound):
    build, args = ISOMETRIC[k]
    space, mapping, _ = build(*args)
    return make_torus_space(space, mapping, lipschitz_constant=1.0, diameter_bound=bound)


@st.composite
def isometric_tori(draw):
    return _isometric_torus(
        draw(st.integers(0, len(ISOMETRIC) - 1)), draw(st.sampled_from(BOUNDS))
    )


QUARTERS = tuple(k / 16 for k in range(16))
QUOTIENT_TIMES = st.one_of(
    st.sampled_from((0.0, 0.5, math.nextafter(1.0, 0.0), math.nextafter(0.5, 0.0))),
    st.sampled_from(QUARTERS),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def quotient_pairs(draw, ts):
    """Two canonical points: times drawn freely, exactly 1/2 apart, or with
    ``t - r`` on an integer edge of the shift window."""
    points = ts.base_space.points
    x, y = (points[draw(st.integers(0, len(points) - 1))] for _ in range(2))
    how = draw(st.integers(0, 2))
    r = draw(QUOTIENT_TIMES if how < 2 else st.sampled_from(QUARTERS))
    t = draw(QUOTIENT_TIMES)
    if how > 0:
        frac = 0.5 if how == 1 else (ts.diameter_bound + 1.0) % 1.0
        times = [
            r + g for m in (-1, 0, 1) for g in (m - frac, m + frac)
            if 0.0 <= r + g < 1.0
        ]
        assume(times)
        t = draw(st.sampled_from(times))
    return TorusPoint(x, r), TorusPoint(y, t)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quotient_scalar_and_paired_views_match_the_loop(data):
    ts = data.draw(isometric_tori())
    pairs = data.draw(st.lists(quotient_pairs(ts), max_size=12))
    want = [ref.quotient_metric_by_loop(p, q, ts) for p, q in pairs]
    for (p, q), w in zip(pairs, want):
        got = quotient_metric(p, q, ts)
        assert type(got) is float and _bits(got) == _bits(w)
    got = quotient_distance_pairs(ts, *paired(ts, [p for p, _ in pairs], [q for _, q in pairs]))
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def _quotient_matrix_by_loop(ts, sample):
    """The loop over each pair a < b, from ``sample[a]`` to ``sample[b]``."""
    want = np.zeros((len(sample), len(sample)))
    for a, p in enumerate(sample):
        for b in range(a + 1, len(sample)):
            want[a, b] = want[b, a] = ref.quotient_metric_by_loop(p, sample[b], ts)
    return want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_matrix_view_matches_the_loop(data):
    ts = data.draw(isometric_tori())
    pairs = data.draw(st.lists(quotient_pairs(ts), min_size=1, max_size=12))
    # Mostly distinct times; and several base points at one to three shared
    # times, in runs of uneven length that the time pieces cut.
    times = data.draw(st.lists(QUOTIENT_TIMES, min_size=1, max_size=3))
    shared = st.builds(TorusPoint, st.sampled_from(ts.base_space.points), st.sampled_from(times))
    for sample in (
        [p for pair in pairs for p in pair],
        data.draw(st.lists(shared, min_size=1, max_size=16)),
    ):
        sample = list(dict.fromkeys(sample))
        # Row blocks of one row, of three rows, and the library's.
        cells = data.draw(
            st.sampled_from([1, 3 * len(sample), metric_core.ROW_BLOCK_CELLS])
        )
        with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
            got = quotient_distance_matrix(ts, sample)
        assert got.tobytes() == _quotient_matrix_by_loop(ts, sample).tobytes()


def test_quotient_views_need_isometric_glue():
    ts = _torus(2)  # full shift: bilipschitz glue
    p, q = (TorusPoint(x, 0.25) for x in ts.base_space.points[:2])
    for call in (
        lambda: quotient_metric(p, q, ts),
        lambda: quotient_distance_pairs(ts, [], [], [], []),
        lambda: quotient_distance_matrix(ts, [p]),
    ):
        with pytest.raises(UnsupportedModeError):
            call()


def test_quotient_window_bound_is_checked():
    # Identity glue over two points at distance 5, declared with a diameter
    # bound of 1/2: no shift brings them closer than 5 > max(1/2, 1).
    space = metric_space_from_matrix(range(2), np.array([[0.0, 5.0], [5.0, 0.0]]))
    honest = make_torus_space(
        space, self_map_from_function(space.points, lambda x: x), lipschitz_constant=1.0
    )
    ts = dataclasses.replace(honest, diameter_bound=0.5)
    p, q = TorusPoint(0, 0.0), TorusPoint(1, 0.25)
    assert quotient_metric(p, q, honest) == ref.quotient_metric_by_loop(p, q, honest) == 5.0
    for call in (
        lambda: ref.quotient_metric_by_loop(p, q, ts),
        lambda: quotient_metric(p, q, ts),
        lambda: quotient_distance_pairs(ts, *paired(ts, [p, p], [p, q])),
        lambda: quotient_distance_matrix(ts, [p, q]),
    ):
        with pytest.raises(InvariantError, match="window bound"):
            call()


def _identity_glue(distance):
    """Identity glue over two points at ``distance``, which is also the
    diameter bound, so the quotient window of a plain loop grows with it."""
    space = metric_space_from_matrix(range(2), np.array([[0.0, distance], [distance, 0.0]]))
    return make_torus_space(
        space, self_map_from_function(space.points, lambda x: x), lipschitz_constant=1.0
    )


def _seam_sample(ts):
    return [TorusPoint(b, t) for b in ts.base_space.points for t in (0.0, 0.01, 0.5, 0.99)]


def test_quotient_views_do_not_grow_with_the_diameter_bound():
    ts = _identity_glue(1e9)
    sample = _seam_sample(ts)
    pairs = paired(ts, sample, sample[::-1])
    for call in (
        lambda: quotient_metric(sample[0], sample[-1], ts),
        lambda: quotient_distance_pairs(ts, *pairs),
        lambda: quotient_distance_matrix(ts, sample),
    ):
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 0.1


def test_a_diameter_bound_past_the_base_diameter_adds_no_shifts():
    # The 1024-cycle ring has diameter 1/2, so no shift gap past
    # max(1/2, 1) + 1 can win, whatever the declared bound: at B = 1e9 the
    # 512-point matrix costs what it costs at B = 1, with the same bits.
    space, f, _ = build_padic_cycle(2, 10)
    sample = [TorusPoint(b, t) for b in space.points[:128] for t in (0.0, 0.25, 0.5, 0.75)]
    narrow, wide = (make_torus_space(space, f, 1.0, bound) for bound in (1.0, 1e9))
    want = quotient_distance_matrix(narrow, sample)
    start = time.perf_counter()
    got = quotient_distance_matrix(wide, sample)
    assert time.perf_counter() - start < 0.1
    assert got.tobytes() == want.tobytes()
    pairs = paired(wide, sample, sample[::-1])
    want = quotient_distance_pairs(narrow, *pairs)
    assert quotient_distance_pairs(wide, *pairs).tobytes() == want.tobytes()


def test_quotient_views_match_the_loop_at_a_wide_window():
    ts = _identity_glue(1e3)
    sample = _seam_sample(ts)
    want = _quotient_matrix_by_loop(ts, sample)
    assert quotient_distance_matrix(ts, sample).tobytes() == want.tobytes()
    a, b = np.triu_indices(len(sample), 1)
    got = quotient_distance_pairs(ts, *paired(ts, [sample[k] for k in a], [sample[k] for k in b]))
    assert got.tobytes() == want[a, b].tobytes()
    for k, l in zip(a, b):
        assert _bits(quotient_metric(sample[k], sample[l], ts)) == _bits(want[k, l])
