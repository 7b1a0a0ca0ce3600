"""Axiom scans, transforms and covering counts on small concrete spaces."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import metric_reference
from solenoidlab import (
    FiniteMetricSpace,
    InvalidInputError,
    box_counting_dimension,
    build_full_shift,
    build_padic_cycle,
    build_snowflake_interval,
    covering_number,
    metric_space_from_matrix,
    snowflake,
    truncate,
    verify_metric_axioms,
    verify_ultrametric,
)
from solenoidlab.metric_core import fit_scales

TWO_EXPONENTS = np.array([[math.inf, 1.0], [1.0, math.inf]])
TWO_LEVELS = metric_reference.table_levels(TWO_EXPONENTS)

LINE = metric_space_from_matrix((0, 1, 2), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_space_basics():
    assert len(LINE) == 3
    assert 1 in LINE and 5 not in LINE
    assert LINE.index_of(2) == 2
    assert LINE.dist(0, 2) == 2.0
    assert LINE.diameter() == 2.0
    with pytest.raises(InvalidInputError):
        LINE.index_of(5)
    with pytest.raises(InvalidInputError):
        LINE.dist_exponent(0, 1)  # no power structure on a plain matrix


def test_space_construction_errors():
    with pytest.raises(InvalidInputError):
        metric_space_from_matrix((), np.zeros((0, 0)))
    with pytest.raises(InvalidInputError):
        metric_space_from_matrix((0, 0), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        metric_space_from_matrix((0, 1), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError, match="power base"):
        FiniteMetricSpace(points=(0, 1), power_base=2.0, levels=TWO_LEVELS)


def test_nan_distances_are_refused():
    matrix = np.array([[0.0, math.nan, 1.0], [math.nan, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(InvalidInputError, match="NaN"):
        metric_space_from_matrix((0, 1, 2), matrix)
    with pytest.raises(InvalidInputError, match="NaN"):
        FiniteMetricSpace(points=(0, 1, 2), matrix=matrix)


@pytest.mark.parametrize("given", [
    {},
    {"matrix": 0.5 ** TWO_EXPONENTS, "power_base": 0.5, "levels": TWO_LEVELS},
    {"matrix": 0.5 ** TWO_EXPONENTS, "power_base": 0.5},
    {"matrix": 0.5 ** TWO_EXPONENTS, "levels": TWO_LEVELS},
    {"power_base": 0.5},
    {"levels": TWO_LEVELS},
])
def test_a_space_takes_a_matrix_or_a_power_base_with_levels(given):
    with pytest.raises(InvalidInputError, match="a distance matrix, or a power base with levels"):
        FiniteMetricSpace(points=(0, 1), **given)


#: An exponent table: integers, inf for equal points, and (rarely) any
#: float.  ``+ 0.0`` turns -0.0, which ``table_levels`` reads as 0.0, into 0.0.
EXPONENTS = (
    st.integers(-20, 80).map(float)
    | st.just(math.inf)
    | st.floats(-20.0, 300.0).map(lambda x: x + 0.0)
)


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from([0.3, 0.5, 0.8]) | st.floats(1e-3, 0.999),
    e=st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=EXPONENTS)
    ),
)
def test_a_power_space_gives_its_exponent_table_bit_for_bit(base, e):
    n = len(e)
    want = metric_reference.python_powers(base, e)
    space = FiniteMetricSpace(
        points=tuple(range(n)), power_base=base, levels=metric_reference.table_levels(e)
    )
    # Gathered from the levels first, then read from the built tables.
    for built in (False, True):
        assert space._gathered() is not built
        index = np.arange(n)
        assert space.distances(index[:, None], index).tobytes() == want.tobytes()
        assert space.distances(n - 1, slice(None)).tobytes() == want[n - 1].tobytes()
        for i in range(n):
            for j in range(n):
                assert repr(space.dist_exponent(i, j)) == repr(e[i, j].item())
        assert repr(space.diameter()) == repr(float(want.max()))
        assert space.levels.table(space.levels.exponents, n).tobytes() == e.tobytes()
        assert space.matrix.tobytes() == want.tobytes()


def test_power_structure_exponents():
    space, _, _ = build_full_shift(2, 0.5, 4)
    zeros = space.points[0]
    ones = space.points[-1]
    assert space.dist(zeros, ones) == 1.0
    assert space.dist_exponent(zeros, ones) == 0.0
    assert math.isinf(space.dist_exponent(zeros, zeros))
    exponents = space.levels.table(space.levels.exponents, len(space))
    assert np.array_equal(metric_reference.python_powers(space.power_base, exponents), space.matrix)


def test_verify_metric_axioms_clean():
    report = verify_metric_axioms(LINE)
    assert report.is_metric
    assert report.is_ultrametric is None  # strong inequality was not scanned
    assert report.axiom_violations == ()
    assert report.diameter == 2.0


def test_verify_ultrametric_flags_archimedean_triple():
    report = verify_ultrametric(LINE)
    assert report.is_metric
    assert report.is_ultrametric is False
    kinds = {v.kind for v in report.ultrametric_violations}
    assert kinds == {"ultrametric"}
    # endpoints first, midpoint last
    assert (0, 2, 1) in [v.points for v in report.ultrametric_violations]


def test_verify_ultrametric_exact_on_power_structure():
    space, _, _ = build_full_shift(2, 0.5, 4)
    report = verify_ultrametric(space)
    assert report.is_metric and report.is_ultrametric
    assert report.ultrametric_violations == ()
    assert report.diameter == 1.0


def test_identity_and_symmetry_violations_reported():
    bad = metric_space_from_matrix(
        ("a", "b"), [[0.5, 1.0], [2.0, 0.0]]
    )
    report = verify_metric_axioms(bad)
    kinds = sorted(v.kind for v in report.axiom_violations)
    assert kinds == ["identity", "symmetry"]
    assert not report.is_metric


def test_separation_violation_reported():
    bad = metric_space_from_matrix((0, 1), [[0.0, 0.0], [0.0, 0.0]])
    report = verify_metric_axioms(bad)
    assert [v.kind for v in report.axiom_violations] == ["separation"]


def test_triangle_violation_reported_with_slack():
    bad = metric_space_from_matrix(
        (0, 1, 2), [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    )
    report = verify_metric_axioms(bad)
    tri = [v for v in report.axiom_violations if v.kind == "triangle"]
    assert tri and tri[0].points == (0, 2, 1)
    assert tri[0].slack == pytest.approx(3.0)


def test_triangle_violation_through_a_tiny_distance():
    # d(0, 1) = 1e-9 is within 1e-8 of zero, which scipy's Floyd-Warshall
    # reads as a missing edge in a dense array; the shortest-path verdict
    # must still see the path 0-1-2.
    bad = metric_space_from_matrix(
        (0, 1, 2), [[0, 1e-9, 1.5], [1e-9, 0, 1.0], [1.5, 1.0, 0]]
    )
    report = verify_metric_axioms(bad, tol=1e-12)
    assert not report.is_metric
    assert [v.points for v in report.axiom_violations] == [(0, 2, 1)]


def test_tolerance_suppresses_small_defects():
    near = metric_space_from_matrix(
        (0, 1), [[0.0, 1.0], [1.0 + 5e-10, 0.0]]
    )
    assert not verify_metric_axioms(near).is_metric
    assert verify_metric_axioms(near, tol=1e-9).is_metric


def test_snowflake_plain_values():
    half = snowflake(LINE, 0.5)
    assert half.dist(0, 2) == pytest.approx(math.sqrt(2))
    assert half.dist(0, 1) == 1.0
    pair = metric_space_from_matrix((0, 1), [[0.0, 0.25], [0.25, 0.0]])
    assert snowflake(pair, 0.5).dist(0, 1) == 0.5
    negative = metric_space_from_matrix((0, 1), [[0.0, -0.25], [-0.25, 0.0]])
    with pytest.raises(InvalidInputError, match="NaN"):
        snowflake(negative, 0.5)
    with pytest.raises(InvalidInputError):
        snowflake(LINE, 0.0)
    with pytest.raises(InvalidInputError):
        snowflake(LINE, -1.0)


@pytest.mark.parametrize("grid, alpha", [(512, 0.3), (64, 0.7), (3, 0.3)])
def test_snowflake_of_a_plain_space_takes_a_python_power_per_distance(grid, alpha):
    coords = np.arange(grid + 1) / grid
    plain = metric_space_from_matrix(range(grid + 1), np.abs(coords[:, None] - coords[None, :]))
    want = [[d ** alpha for d in row] for row in plain.matrix.tolist()]
    assert snowflake(plain, alpha).matrix.tolist() == want


def test_snowflake_preserves_power_structure_exactly():
    space, _, _ = build_full_shift(2, 0.5, 4)
    for alpha in (0.5, 0.3, 2.0):
        left = snowflake(space, alpha)
        right, _, _ = build_full_shift(2, 0.5 ** alpha, 4)
        assert np.array_equal(left.matrix, right.matrix)
        assert left.power_base == 0.5 ** alpha
        assert left.levels is space.levels


def test_snowflake_below_one_keeps_axioms():
    grid = build_snowflake_interval(16, 1.0)
    assert verify_metric_axioms(snowflake(grid, 0.5)).is_metric


def test_snowflake_above_one_can_break_triangle():
    grid = build_snowflake_interval(16, 1.0)
    report = verify_metric_axioms(snowflake(grid, 2.0))
    assert not report.is_metric
    assert all(v.kind == "triangle" for v in report.axiom_violations)


def test_truncate_values_and_shortcut():
    space, _, _ = build_padic_cycle(2, 3)
    capped = truncate(space, 0.25)
    assert capped.diameter() == 0.25
    assert capped.dist(0, 4) == 0.25  # was already at the cap
    assert verify_metric_axioms(capped).is_metric
    assert truncate(space, 2.0) is space
    with pytest.raises(InvalidInputError):
        truncate(space, 0.0)
    far = metric_space_from_matrix((0, 1), [[0.0, 2.0], [2.0, 0.0]])
    near = metric_space_from_matrix((0, 1), [[0.0, 0.3], [0.3, 0.0]])
    assert truncate(far, 0.5).dist(0, 1) == 0.5
    assert truncate(near, 0.5).dist(0, 1) == 0.3


def test_covering_number_counts_cylinders():
    space, _, _ = build_full_shift(2, 0.5, 6)
    assert covering_number(space, 0.5) == 4
    assert covering_number(space, 0.25) == 16
    assert covering_number(space, 0.125) == 64
    with pytest.raises(InvalidInputError):
        covering_number(space, 0.0)


def test_box_counting_dimension_full_shift():
    space, _, _ = build_full_shift(2, 0.5, 6)
    fit = box_counting_dimension(space, [0.5, 0.25, 0.125])
    assert fit.counts == (4, 16, 64)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_box_counting_dimension_validation():
    space, _, _ = build_full_shift(2, 0.5, 4)
    with pytest.raises(InvalidInputError):
        box_counting_dimension(space, [0.5, 0.25])
    with pytest.raises(InvalidInputError):
        box_counting_dimension(space, [0.5, 0.25, -0.1])
    with pytest.raises(InvalidInputError):
        box_counting_dimension(space, [0.25, 0.25, 0.125])
    with pytest.raises(InvalidInputError):
        box_counting_dimension(space, [2.0, 0.5, 0.25])  # scale above diameter


def test_scales_too_close_for_a_line_fit_are_refused():
    # The counts are (16, 16, 16); the fit used to warn that it was poorly
    # conditioned and report slope 1.15 with r_squared 1.
    space, _, _ = build_full_shift(2, 0.5, 6)
    scales = [0.3, math.nextafter(0.3, 0.0), math.nextafter(math.nextafter(0.3, 0.0), 0.0)]
    with pytest.raises(InvalidInputError, match="too close together for a line fit"):
        fit_scales(space, scales)
    with pytest.raises(InvalidInputError, match="too close together for a line fit"):
        box_counting_dimension(space, scales)


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.floats(-50.0, 50.0, allow_subnormal=False), min_size=2, max_size=12, unique=True),
    data=st.data(),
)
def test_a_fit_of_rank_two_keeps_the_plain_polyfit_bits(x, data):
    # The dimension fit and the Ahlfors band read the rank from
    # ``polyfit(..., full=True)``; their slopes must stay the plain call's.
    assume(any(abs(v) > 1e-100 for v in x))
    y = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=len(x), max_size=len(x)))
    coefficients, _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    assume(rank == 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coefficients.tobytes() == np.polyfit(x, y, 1).tobytes()



def test_box_counting_degenerate_single_point():
    lone = metric_space_from_matrix(("x",), [[0.0]])
    fit = box_counting_dimension(lone, [0.5, 0.25, 0.125])
    assert fit.counts == (1, 1, 1)
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0

