"""The representative-distance kernel and the dense chain solver, checked
against the scalar loop, per-point rows and per-row Dijkstra.

``mapping_torus_reference`` keeps the plain versions.  The kernel must agree
with them bit for bit in all three of its shapes: the 1x1 scalar view, the
two rows of an off-sample chain query and the all-pairs matrix.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mapping_torus_reference as ref
from solenoidlab import (
    ChainMetricTable,
    TorusPoint,
    build_full_shift,
    build_padic_cycle,
    representative_distance,
    representative_distance_matrix,
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
    if p in table._index and q in table._index:
        return
    row_p, row_q = ref.distance_rows(ts, p, sample), ref.distance_rows(ts, q, sample)
    through = float(np.min(row_p[:, None] + table.distance_matrix() + row_q[None, :]))
    want = min(ref.representative_distance_by_loop(p, q, ts), through)
    assert _bits(table.distance_via(p, q)) == _bits(want)


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
