"""The product, quotient and representative-distance kernels, the dense
chain solver and the batched chain queries, checked against the per-pair
product formula, the scalar loops, per-point rows, per-row Dijkstra and
one-at-a-time chain queries.

``mapping_torus_reference`` keeps the plain versions.  Each kernel must agree
with them bit for bit in all of its shapes: the 1x1 scalar view, the paired
view, the rows of off-sample chain queries and the matrix views; so must
every batched chain query.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mapping_torus_reference as ref
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


@functools.lru_cache(maxsize=None)
def _torus(k):
    build, args = TORI[k]
    return build(*args)[2]


@st.composite
def tori(draw):
    return _torus(draw(st.integers(0, len(TORI) - 1)))


@st.composite
def point_pairs(draw, ts):
    """Two canonical points, often with times exactly 1/2 apart."""
    points = ts.base_space.points
    r = draw(TIMES)
    if draw(st.booleans()):
        t = r + 0.5 if r < 0.5 else r - 0.5
    else:
        t = draw(TIMES)
    x, y = (points[draw(st.integers(0, len(points) - 1))] for _ in range(2))
    return TorusPoint(x, r), TorusPoint(y, t)


@st.composite
def samples(draw, ts, max_size=24):
    pairs = draw(st.lists(point_pairs(ts), min_size=1, max_size=max_size // 2))
    return list(dict.fromkeys(p for pair in pairs for p in pair))


def _bits(value):
    return np.float64(value).tobytes()


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
    assert product_distance_pairs(ts, ps, qs).tobytes() == np.array(want, dtype=float).tobytes()
    sample = data.draw(samples(ts))
    want = np.array([
        [ref.product_metric_by_pair(p.base, p.time, q.base, q.time, ts) for q in sample]
        for p in sample
    ])
    cells = data.draw(st.sampled_from([1, 3 * len(sample), metric_core.ROW_BLOCK_CELLS]))
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = product_distance_matrix(ts, sample)
    assert got.tobytes() == want.tobytes()


def test_product_views_refuse_unpaired_and_non_canonical_points():
    ts = _torus(0)
    p = TorusPoint(ts.base_space.points[0], 0.25)
    with pytest.raises(InvalidInputError, match="1 start points for 0 end points"):
        product_distance_pairs(ts, [p], [])
    for call in (
        lambda: product_distance_pairs(ts, [p], [TorusPoint(p.base, 1.0)]),
        lambda: product_distance_matrix(ts, [p, TorusPoint(p.base, -0.5)]),
    ):
        with pytest.raises(InvalidInputError, match="not canonical"):
            call()


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
    got = representative_distance_matrix(ts, sample)
    assert got.tobytes() == ref.representative_matrix_by_loop(ts, sample).tobytes()


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
    paired = representative_distance_pairs(ts, ps, qs)
    assert paired.tobytes() == np.array([
        ref.representative_distance_by_loop(p, q, ts) for p, q in zip(ps, qs)
    ]).tobytes()
    assert table.distances_via(ps, qs).tobytes() == want.tobytes()
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
    direct = representative_distance_pairs(ts, ps, qs)
    got = table.distances_via(ps, qs)
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_solver_matches_dijkstra_rows(data):
    ts = data.draw(tori())
    sample = data.draw(samples(ts, max_size=40))
    table = ChainMetricTable(ts, sample)
    assert table.edges.tobytes() == ref.representative_matrix_by_loop(ts, sample).tobytes()
    want = ref.chain_matrix_by_dijkstra(table.edges)
    assert np.allclose(table.distance_matrix(), want, rtol=0.0, atol=1e-12)
    for p in sample[:3]:
        for q in sample[-3:]:
            assert abs(table.witness(p, q).total - table.distance(p, q)) <= 1e-12


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
    paired = quotient_distance_pairs(ts, [p for p, _ in pairs], [q for _, q in pairs])
    assert paired.tobytes() == np.array(want, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_matrix_view_matches_the_loop(data):
    ts = data.draw(isometric_tori())
    pairs = data.draw(st.lists(quotient_pairs(ts), min_size=1, max_size=12))
    sample = list(dict.fromkeys(p for pair in pairs for p in pair))
    want = np.zeros((len(sample), len(sample)))
    for a, p in enumerate(sample):
        for b in range(a + 1, len(sample)):
            want[a, b] = want[b, a] = ref.quotient_metric_by_loop(p, sample[b], ts)
    # Row blocks of one row, of three rows, and the library's.
    cells = data.draw(
        st.sampled_from([1, 3 * len(sample), metric_core.ROW_BLOCK_CELLS])
    )
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = quotient_distance_matrix(ts, sample)
    assert got.tobytes() == want.tobytes()


def test_quotient_views_need_isometric_glue():
    ts = _torus(2)  # full shift: bilipschitz glue
    p, q = (TorusPoint(x, 0.25) for x in ts.base_space.points[:2])
    for call in (
        lambda: quotient_metric(p, q, ts),
        lambda: quotient_distance_pairs(ts, [], []),
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
        lambda: quotient_distance_pairs(ts, [p, p], [p, q]),
        lambda: quotient_distance_matrix(ts, [p, q]),
    ):
        with pytest.raises(InvariantError, match="window bound"):
            call()
