"""The representative-distance kernel, the dense chain solver and the batched
chain queries, checked against the scalar loop, per-point rows, per-row
Dijkstra and one-at-a-time chain queries.

``mapping_torus_reference`` keeps the plain versions.  The kernel must agree
with them bit for bit in all of its shapes: the 1x1 scalar view, the paired
view, the rows of off-sample chain queries and the all-pairs matrix; so must
every batched chain query.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapping_torus_reference as ref
from solenoidlab import (
    ChainMetricTable,
    TorusPoint,
    build_full_shift,
    build_padic_cycle,
    make_torus_space,
    mapping_torus,
    metric_space_from_matrix,
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
        monkeypatch.setattr(mapping_torus, "_ROW_BLOCK_CELLS", cells)
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
