"""Gluing a finite base space across a unit time interval: representatives,
the four distances, and the flow."""

import math

import numpy as np
import pytest

from solenoidlab import mapping_torus
from solenoidlab import (
    Alphabet,
    ChainMetricTable,
    InvalidInputError,
    PeriodicSequence,
    TorusPoint,
    UnsupportedMapError,
    UnsupportedModeError,
    canonicalize,
    circle_distance,
    dist_to_integers,
    fiber,
    flow,
    build_full_shift,
    build_padic_cycle,
    make_torus_space,
    product_metric,
    project_to_circle,
    quotient_metric,
    representative_distance,
    representative_distance_matrix,
    self_map_from_function,
    torus_points_close,
)

BITS = Alphabet(("0", "1"))


def seq(text):
    return PeriodicSequence.from_text(BITS, text)


@pytest.fixture(scope="module")
def padic():
    _, _, ts = build_padic_cycle(2, 2)
    return ts


@pytest.fixture(scope="module")
def padic8():
    _, _, ts = build_padic_cycle(2, 3)
    return ts


@pytest.fixture(scope="module")
def shift_torus():
    _, _, ts = build_full_shift(2, 0.5, 4)
    return ts


def test_dist_to_integers_values():
    assert dist_to_integers(0.5) == 0.5
    assert dist_to_integers(1.25) == 0.25
    assert dist_to_integers(-0.3) == pytest.approx(0.3)
    assert dist_to_integers(7.0) == 0.0
    assert circle_distance(0.9, 0.1) == pytest.approx(0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dist_to_integers_refuses_non_finite_numbers(bad):
    with pytest.raises(InvalidInputError, match=f"number {bad} is not finite"):
        dist_to_integers(bad)
    with pytest.raises(InvalidInputError, match=f"number {bad} is not finite"):
        circle_distance(bad, 0.0)


def test_dist_to_integers_subadditive():
    rng = np.random.RandomState(31)
    for _ in range(500):
        a, b = rng.uniform(-5, 5, size=2)
        assert dist_to_integers(a + b) <= dist_to_integers(a) + dist_to_integers(b) + 1e-12


def test_canonicalize_wraps_through_the_map(shift_torus):
    parity = seq("2:01")
    p = canonicalize(parity, -0.5, shift_torus)
    assert p.base == seq("2:10")
    assert p.time == 0.5
    q = canonicalize(parity, 3.25, shift_torus)
    assert q.time == 0.25
    assert q.base == seq("2:10")  # three backward steps of the shift
    untouched = canonicalize(parity, 0.75, shift_torus)
    assert untouched == TorusPoint(parity, 0.75)


def test_canonicalize_rounding_at_the_seam(padic):
    p = canonicalize(3, -1e-17, padic)
    assert p.time == 0.0
    assert p.base == 3


def test_make_torus_space_validation():
    space, mapping, _ = build_padic_cycle(2, 2)
    with pytest.raises(InvalidInputError):
        make_torus_space(space, mapping, diameter_bound=0.25)
    with pytest.raises(InvalidInputError):
        make_torus_space(space, mapping, lipschitz_constant=0.5)
    capped = make_torus_space(space, mapping, diameter_bound=0.5)
    assert capped.base_space.diameter() == 0.5
    wrong = self_map_from_function((0, 1), lambda x: x)
    with pytest.raises(UnsupportedMapError):
        make_torus_space(space, wrong)


@pytest.mark.parametrize("bounds", [
    {"lipschitz_constant": math.nan},
    {"lipschitz_constant": math.inf},
    {"diameter_bound": math.inf},
    {"diameter_bound": math.nan},
])
def test_make_torus_space_refuses_non_finite_bounds(bounds):
    space, mapping, _ = build_padic_cycle(3, 2)
    with pytest.raises(InvalidInputError, match="finite"):
        make_torus_space(space, mapping, **bounds)


def test_product_metric_is_a_max(padic):
    assert product_metric(0, 0.1, 1, 0.4, padic) == 1.0
    assert product_metric(0, 0.1, 2, 0.4, padic) == 0.5
    assert product_metric(0, 0.1, 0, 0.4, padic) == pytest.approx(0.3)
    # Finite times outside [0, 1) are taken as they are.
    assert product_metric(0, 3.5, 1, -2.0, padic) == 5.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_product_metric_refuses_non_finite_times(padic, bad):
    for r, t in ((bad, 0.25), (0.25, bad)):
        with pytest.raises(InvalidInputError, match=f"time {bad} is not finite"):
            product_metric(0, r, 1, t, padic)


def test_quotient_metric_examples(padic):
    # wrapping one step brings (0, 0) next to (1, 0.5)
    assert quotient_metric(TorusPoint(0, 0.0), TorusPoint(1, 0.5), padic) == 0.5
    # equality regime: base distance 1/2, time gap 1/4
    assert quotient_metric(TorusPoint(0, 0.0), TorusPoint(2, 0.25), padic) == 0.5


def test_quotient_metric_bounds(padic8):
    rng = np.random.RandomState(32)
    points = padic8.base_space.points
    for _ in range(300):
        p = TorusPoint(points[rng.randint(8)], rng.rand())
        q = TorusPoint(points[rng.randint(8)], rng.rand())
        d = quotient_metric(p, q, padic8)
        rho = product_metric(p.base, p.time, q.base, q.time, padic8)
        assert d <= rho + 1e-12
        assert d >= dist_to_integers(p.time - q.time) - 1e-12
        assert d == pytest.approx(quotient_metric(q, p, padic8), abs=1e-12)


def test_quotient_metric_equality_regime(padic8):
    rng = np.random.RandomState(33)
    points = padic8.base_space.points
    hits = 0
    for _ in range(500):
        x, y = points[rng.randint(8)], points[rng.randint(8)]
        r = rng.rand()
        t = rng.rand()
        if padic8.base_space.dist(x, y) > 0.5 or abs(r - t) > 0.5:
            continue
        hits += 1
        p, q = TorusPoint(x, r), TorusPoint(y, t)
        rho = product_metric(x, r, y, t, padic8)
        assert quotient_metric(p, q, padic8) == pytest.approx(rho, abs=1e-12)
    assert hits > 100


def test_quotient_metric_needs_isometric_glue(shift_torus):
    zeros = TorusPoint(seq("1:0"), 0.0)
    ones = TorusPoint(seq("1:1"), 0.0)
    with pytest.raises(UnsupportedModeError):
        quotient_metric(zeros, ones, shift_torus)


def test_quotient_metric_rejects_non_canonical_times(padic):
    with pytest.raises(InvalidInputError):
        quotient_metric(TorusPoint(0, 1.5), TorusPoint(0, 0.0), padic)
    with pytest.raises(InvalidInputError):
        quotient_metric(TorusPoint(0, 0.0), TorusPoint(0, -0.25), padic)


def test_representative_distance_example(shift_torus):
    # only one admissible shift pair: (all-0, -0.1) against the defect at 0.1
    p = TorusPoint(seq("1:0"), 0.9)
    q = TorusPoint(seq("4:0010"), 0.1)
    assert representative_distance(p, q, shift_torus) == pytest.approx(0.5)


def test_representative_distance_symmetry_and_zero(shift_torus):
    rng = np.random.RandomState(34)
    points = shift_torus.base_space.points
    for _ in range(200):
        p = TorusPoint(points[rng.randint(16)], rng.rand())
        q = TorusPoint(points[rng.randint(16)], rng.rand())
        a = representative_distance(p, q, shift_torus)
        b = representative_distance(q, p, shift_torus)
        assert a == b
        assert a >= 0.0
    z = TorusPoint(points[3], 0.25)
    assert representative_distance(z, z, shift_torus) == 0.0


def test_representative_distance_triangle_failure(shift_torus):
    """The constrained minimum is not a metric: a concrete violating triple."""
    p1 = TorusPoint(seq("2:01"), 0.74)
    p2 = TorusPoint(seq("2:01"), 0.25)
    p3 = TorusPoint(seq("2:10"), 0.76)
    d12 = representative_distance(p1, p2, shift_torus)
    d23 = representative_distance(p2, p3, shift_torus)
    d13 = representative_distance(p1, p3, shift_torus)
    assert d12 == pytest.approx(0.49)
    assert d23 == pytest.approx(0.49)
    assert d13 == pytest.approx(1.0)
    assert d13 > d12 + d23


def test_representative_distance_matrix_matches_scalar(shift_torus):
    rng = np.random.RandomState(35)
    points = shift_torus.base_space.points
    sample = [
        TorusPoint(points[rng.randint(16)], rng.rand()) for _ in range(30)
    ]
    sample = list(dict.fromkeys(sample))
    table = representative_distance_matrix(shift_torus, sample)
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            assert table[i, j] == representative_distance(p, q, shift_torus)


def test_chain_table_repairs_the_triangle(shift_torus):
    points = shift_torus.base_space.points
    sample = [
        TorusPoint(b, t) for b in points for t in (0.0, 0.25, 0.74, 0.76)
    ]
    table = ChainMetricTable(shift_torus, sample)
    assert len(table) == 64
    p1 = TorusPoint(seq("2:01"), 0.74)
    p3 = TorusPoint(seq("2:10"), 0.76)
    direct = representative_distance(p1, p3, shift_torus)
    chained = table.distance(p1, p3)
    assert chained == pytest.approx(0.98)
    assert chained < direct
    # The shorter chain routes through ("2:01", 0.25): two edges of 0.49.
    i, mid, j = (table.index_of(p) for p in (p1, TorusPoint(seq("2:01"), 0.25), p3))
    edges = representative_distance_matrix(shift_torus, table.sample)
    assert edges[i, mid] + edges[mid, j] == chained
    assert (edges[i, mid], edges[mid, j]) == pytest.approx((0.49, 0.49))
    # a chain distance never exceeds its direct edge
    d0 = table.distance_matrix()
    assert np.all(d0 <= edges + 1e-12)


def test_chain_table_triangle_inequality(shift_torus):
    points = shift_torus.base_space.points
    sample = [TorusPoint(b, t) for b in points for t in (0.0, 0.5)]
    d0 = ChainMetricTable(shift_torus, sample).distance_matrix()
    n = len(sample)
    for k in range(n):
        through = d0[:, k][:, None] + d0[k, :][None, :]
        assert np.all(d0 <= through + 1e-9)


def test_chain_table_dedupes_and_validates(shift_torus):
    p = TorusPoint(shift_torus.base_space.points[0], 0.0)
    table = ChainMetricTable(shift_torus, [p, p])
    assert len(table) == 1
    with pytest.raises(InvalidInputError):
        ChainMetricTable(shift_torus, [TorusPoint(p.base, 1.25)])
    with pytest.raises(InvalidInputError):
        table.distance(p, TorusPoint(p.base, 0.5))


def test_distance_via_matches_extended_table(shift_torus):
    rng = np.random.RandomState(36)
    points = shift_torus.base_space.points
    sample = [TorusPoint(b, t) for b in points[:8] for t in (0.0, 0.4, 0.8)]
    table = ChainMetricTable(shift_torus, sample)
    for _ in range(25):
        p = TorusPoint(points[rng.randint(16)], rng.rand())
        q = TorusPoint(points[rng.randint(16)], rng.rand())
        if p == q or p in sample or q in sample:
            continue
        extended = ChainMetricTable(shift_torus, sample + [p, q])
        assert table.distance_via(p, q) == pytest.approx(
            extended.distance(p, q), abs=1e-12
        )
    on_sample = table.distance_via(sample[0], sample[5])
    assert on_sample == table.distance(sample[0], sample[5])


def test_chain_sample_ceiling_is_checked_first(shift_torus, monkeypatch):
    points = shift_torus.base_space.points
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 3)
    # The ceiling counts distinct points.
    repeated = [TorusPoint(b, 0.0) for b in points[:3]] * 2
    assert len(ChainMetricTable(shift_torus, repeated)) == 3

    def never(*args):
        raise AssertionError("the edge matrix was built")

    monkeypatch.setattr(mapping_torus, "representative_distance_matrix", never)
    with pytest.raises(InvalidInputError, match="limit of 3"):
        ChainMetricTable(shift_torus, [TorusPoint(b, 0.0) for b in points[:4]])


def test_distinct_chain_sample_keeps_first_seen_points_and_arrays(padic8):
    a, b, c = TorusPoint(3, 0.5), TorusPoint(1, 0.0), TorusPoint(3, 0.25)
    # -0.0 is the time 0.0, so (1, -0.0) repeats b.
    sample = [a, b, a, c, TorusPoint(1, -0.0), TorusPoint(3, 0.5)]
    points, idx, times = mapping_torus.distinct_chain_sample(padic8, sample)
    assert points == (a, b, c)
    assert idx.tolist() == [padic8.base_space.index_of(p.base) for p in points]
    assert times.tolist() == [0.5, 0.0, 0.25]
    assert idx.dtype == np.intp and times.dtype == float
    assert ChainMetricTable(padic8, sample).sample == (a, b, c)


@pytest.mark.parametrize("bad, match", [
    (TorusPoint(99, 0.5), "point 99 is not in this space"),
    (TorusPoint(0, 1.0), r"time 1.0 is not canonical"),
    (TorusPoint(0, -0.25), r"time -0.25 is not canonical"),
    (TorusPoint(0, math.nan), r"time nan is not canonical"),
])
def test_chain_sample_refuses_bad_points_before_the_ceiling(padic8, monkeypatch, bad, match):
    def never(*args):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 3)
    monkeypatch.setattr(mapping_torus, "representative_distance_matrix", never)
    monkeypatch.setattr(mapping_torus, "_representative_kernel", never)
    # Eight distinct points are over the ceiling of 3 as well.
    sample = [TorusPoint(x, 0.0) for x in padic8.base_space.points] + [bad]
    with pytest.raises(InvalidInputError, match=match):
        mapping_torus.distinct_chain_sample(padic8, sample)
    with pytest.raises(InvalidInputError, match=match):
        ChainMetricTable(padic8, sample)


def test_chain_table_keeps_zero_and_tiny_edges():
    # On a fixed point of the shift, times 1/4 and its float neighbour are at
    # representative distance exactly 0 (both shift to -3/4), and times 0
    # and 1 - 2**-53 at 2**-53.  Scipy reads zero and near-zero entries of a
    # dense array as missing edges; the table must not.
    _, _, ts = build_full_shift(2, 0.5, 1)
    x = ts.base_space.points[0]
    quarter = TorusPoint(x, 0.25)
    below = TorusPoint(x, math.nextafter(0.25, 0.0))
    start, end = TorusPoint(x, 0.0), TorusPoint(x, math.nextafter(1.0, 0.0))
    table = ChainMetricTable(ts, [start, quarter, below, end])
    assert representative_distance(quarter, below, ts) == 0.0
    assert table.distance(quarter, below) == 0.0
    assert table.distance(start, end) == representative_distance(start, end, ts) > 0.0


def test_chain_sandwich_example(shift_torus):
    # direct edge 0.5 caps the chain value; bilipschitz slack caps the gap
    p = TorusPoint(seq("1:0"), 0.9)
    q = TorusPoint(seq("4:0010"), 0.1)
    bases = [seq(t) for t in ("1:0", "1:1", "2:01", "2:10")]
    sample = [TorusPoint(b, t) for b in bases for t in (0.1, 0.5, 0.9)]
    table = ChainMetricTable(shift_torus, sample + [p, q])
    d0 = table.distance(p, q)
    assert 0.25 <= d0 <= 0.5


def test_flow_basics(shift_torus):
    zeros = seq("1:0")
    p = TorusPoint(zeros, 0.5)
    assert flow(p, 0.3, shift_torus) == TorusPoint(zeros, 0.8)
    wrapped = flow(p, 0.7, shift_torus)
    assert wrapped.time == pytest.approx(0.2)
    assert wrapped.base == zeros  # the all-0 point is fixed by the shift
    parity = seq("2:01")
    q = flow(TorusPoint(parity, 0.5), 0.7, shift_torus)
    assert q.base == seq("2:10")
    with pytest.raises(InvalidInputError):
        flow(TorusPoint(zeros, 1.5), 0.1, shift_torus)


def test_flow_group_law(shift_torus):
    rng = np.random.RandomState(37)
    points = shift_torus.base_space.points
    for _ in range(300):
        p = TorusPoint(points[rng.randint(16)], rng.rand())
        r, s = rng.uniform(-3, 3, size=2)
        lhs = flow(flow(p, s, shift_torus), r, shift_torus)
        rhs = flow(p, r + s, shift_torus)
        assert torus_points_close(lhs, rhs, shift_torus, tol=1e-12)


def test_flow_moves_the_circle_coordinate(shift_torus):
    rng = np.random.RandomState(38)
    points = shift_torus.base_space.points
    for _ in range(200):
        p = TorusPoint(points[rng.randint(16)], rng.rand())
        r = rng.uniform(-3, 3)
        moved = project_to_circle(flow(p, r, shift_torus))
        assert circle_distance(moved, project_to_circle(p) + r) < 1e-9


def test_fiber_and_projection(shift_torus):
    points = shift_torus.base_space.points
    level = fiber(0.25, points, shift_torus)
    assert len(level) == 16
    assert all(p.time == 0.25 for p in level)
    assert all(project_to_circle(p) == 0.25 for p in level)
    with pytest.raises(InvalidInputError):
        fiber(0.25, [points[0], points[0]], shift_torus)
    with pytest.raises(InvalidInputError):
        project_to_circle(TorusPoint(points[0], -0.5))


def test_flow_permutes_fibers(shift_torus):
    points = shift_torus.base_space.points
    start = fiber(0.25, points, shift_torus)
    moved = {flow(p, 0.5, shift_torus) for p in start}
    assert moved == set(fiber(0.75, points, shift_torus))
    wrapped = {flow(p, 0.9, shift_torus) for p in start}
    target = set(fiber(0.15, points, shift_torus))
    assert len(wrapped) == 16
    for p in wrapped:
        assert any(torus_points_close(p, q, shift_torus) for q in target)


def test_torus_points_close_wraps(padic):
    p = TorusPoint(3, 1.0 - 1e-13)
    q = canonicalize(3, 1.0, padic)
    assert q == TorusPoint(2, 0.0)  # one step down through the inverse map
    assert torus_points_close(p, q, padic)
    assert not torus_points_close(p, TorusPoint(3, 0.0), padic)
    assert not torus_points_close(p, TorusPoint(2, 0.5), padic)
