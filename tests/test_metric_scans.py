"""The fast axiom verdicts and the failure tallies against the exhaustive
reference scan.

``verify_metric_axioms`` and ``verify_ultrametric`` clear passing spaces
without enumerating triples and tally failing ones with array passes; every
report must still equal the one the plain O(N^3) scan in ``metric_reference``
builds, violation counts and the order and slack of the witnesses included.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import floyd_warshall

import metric_reference
from solenoidlab import (
    MODEL_KINDS,
    FiniteMetricSpace,
    ModelSpec,
    build_full_shift,
    build_model,
    build_padic_cycle,
    build_snowflake_interval,
    metric_space_from_matrix,
    snowflake,
    verify_metric_axioms,
    verify_ultrametric,
)
from solenoidlab import metric_core

TOLERANCES = (0.0, 1.0e-9)
FLOAT_KINDS = ("euclidean", "path", "hierarchy", "random", "squared")
EXPONENT_KINDS = ("hierarchy", "levels")
#: Nudges, in units of the nonzero tolerance, that move a pair's distance
#: across or along the edge of a triangle or strong-triangle bound.
NUDGES = (-2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5)


def hierarchy_exponents(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exponents of a random hierarchy: merge random clusters at
    non-increasing integer levels, ties included; ``inf`` on the diagonal."""
    e = np.full((n, n), math.inf)
    clusters = [[i] for i in range(n)]
    level = int(rng.integers(0, 10))
    while len(clusters) > 1:
        a, b = sorted(rng.choice(len(clusters), size=2, replace=False))
        for i in clusters[a]:
            for j in clusters[b]:
                e[i, j] = e[j, i] = level
        clusters[a] += clusters.pop(b)
        level -= int(rng.integers(0, 2))
    return e


def symmetric(values: np.ndarray) -> np.ndarray:
    upper = np.triu(values, k=1)
    return upper + upper.T


def float_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind in ("euclidean", "squared"):
        coords = rng.random((n, int(rng.integers(1, 4))))
        m = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
        return m**2 if kind == "squared" else m
    if kind == "path":
        return floyd_warshall(symmetric(rng.uniform(0.1, 1.0, (n, n))), directed=False)
    if kind == "random":
        return symmetric(rng.uniform(0.01, 1.0, (n, n)))
    return rng.uniform(0.2, 0.9) ** hierarchy_exponents(n, rng)


@st.composite
def spaces(draw, float_kinds=FLOAT_KINDS, exponent_tables=st.booleans()):
    n = draw(st.integers(1, 32))
    with_exponents = draw(exponent_tables)
    kind = draw(st.sampled_from(EXPONENT_KINDS if with_exponents else float_kinds))
    diagonal_within_tol = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = tuple(range(n))
    if not with_exponents:
        m = float_matrix(kind, n, rng)
        # Ties and shortest paths put many distances exactly on a bound;
        # a nudge of one side of a pair tests the tolerance edge there.
        # The two sides of a pair move apart by at most 0.75 tolerances, so
        # one side can cross a bound the other stays within.
        for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
            i, j = rng.choice(n, size=2, replace=False)
            nudge = draw(st.sampled_from(NUDGES))
            m[i, j] += nudge * TOLERANCES[1]
            m[j, i] += (nudge + draw(st.sampled_from([0.0, 0.75, -0.75]))) * TOLERANCES[1]
        if diagonal_within_tol:
            np.fill_diagonal(m, draw(st.sampled_from([1e-10, -TOLERANCES[1]])))
        return metric_space_from_matrix(points, m)
    base = float(rng.choice([0.3, 0.5, 0.8]))
    if kind == "hierarchy":
        e = hierarchy_exponents(n, rng)
    else:
        e = symmetric(rng.integers(0, int(rng.choice([2, 4])), (n, n)).astype(float))
        np.fill_diagonal(e, math.inf)
    if diagonal_within_tol:
        np.fill_diagonal(e, math.ceil(math.log(1e-10) / math.log(base)))
    return FiniteMetricSpace(
        points=points, power_base=base, levels=metric_reference.table_levels(e)
    )


#: The scans' two tolerances, and a negative one, which every comparison
#: must also honour.
DIRECT_TOLERANCES = TOLERANCES + (-1.0e-9,)

#: Every scan at every tolerance, run in a drawn order on one space, so the
#: memoised verdicts and tallies are shared between calls and kept apart per
#: tolerance.
CALLS = tuple(
    (with_ultra, tol) for with_ultra in (False, True) for tol in DIRECT_TOLERANCES
)


def assert_reports_equal_reference(space, calls):
    for with_ultra, tol in calls:
        verify = verify_ultrametric if with_ultra else verify_metric_axioms
        assert verify(space, tol) == metric_reference.scan(space, tol, with_ultra)


@settings(max_examples=300, deadline=None)
@given(space=spaces(), calls=st.permutations(CALLS))
def test_reports_equal_exhaustive_scan(space, calls):
    assert_reports_equal_reference(space, calls)


@settings(max_examples=300, deadline=None)
@given(
    space=spaces(float_kinds=("hierarchy", "path"), exponent_tables=st.just(False)),
    calls=st.permutations(CALLS),
)
def test_reports_equal_exhaustive_scan_at_tolerance_edge(space, calls):
    # Ultrametrics and shortest-path metrics have many distances exactly on
    # a bound, so their nudged pairs probe the fast verdicts' tolerance edge.
    assert_reports_equal_reference(space, calls)


def full_shift_spec(ratio, max_period):
    return {
        "kind": "full-shift",
        "parameters": {"alphabet_size": 2, "ratio": ratio, "max_period": max_period},
    }


#: Every model kind, and full shifts at a ratio whose deepest distance is the
#: least subnormal (2^-1074 at max_period 5), one just below 1, and 0.3.
EXACTNESS_SPECS = [
    full_shift_spec(2.0 ** -537, 5),
    full_shift_spec(0.9999999999999999, 6),
    full_shift_spec(0.3, 6),
    {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 3}},
    {"kind": "two-fixed-points", "parameters": {}},
    {"kind": "snowflake-interval", "parameters": {"grid_size": 16, "alpha": 0.5}},
]


def test_the_exactness_specs_cover_every_model_kind():
    assert {spec["kind"] for spec in EXACTNESS_SPECS} == set(MODEL_KINDS)


@pytest.mark.parametrize("make", [
    *[lambda spec=spec: build_model(ModelSpec.from_dict(spec)).space for spec in EXACTNESS_SPECS],
    lambda: snowflake(build_padic_cycle(2, 5)[0], 2.5),
])
def test_power_spaces_scan_their_matrix_as_their_exponents(make):
    # The scans judge the strong triangle inequality of a power space on its
    # matrix with no tolerance; the reference compares exponents.  They agree
    # because the distances the space attains strictly decrease in exponent.
    space = make()
    if space.levels is not None:
        e = space.levels.table(space.levels.exponents, len(space))
        attained, first = np.unique(e, return_index=True)
        distance = space.matrix.ravel()[first]
        assert np.array_equal(space.matrix, distance[np.searchsorted(attained, e)])
        assert np.all(np.diff(distance) < 0), distance
    assert_reports_equal_reference(space, CALLS)


@pytest.mark.parametrize("ratio, max_period", [(1e-200, 4), (0.001, 10)])
def test_tiny_ratio_shifts_pass_both_scans_at_the_default_tolerance(ratio, max_period):
    # Distances of 1e-200 and 1e-12 lie below the default tolerance; a power
    # space's separation is judged exactly, so they separate their points.
    space, _, _ = build_full_shift(2, ratio, max_period)
    assert space.matrix[~np.eye(len(space), dtype=bool)].min() <= metric_core.DEFAULT_TOLERANCE
    for verify in (verify_metric_axioms, verify_ultrametric):
        report = verify(space, metric_core.DEFAULT_TOLERANCE)
        assert report.is_metric and report.is_ultrametric is not False
        assert report.axiom_violation_count == 0


def test_passing_spaces_enumerate_no_triples(monkeypatch):
    def refuse(space, kind, combine, tol):
        raise AssertionError(f"{kind} triple tally ran on a passing space")

    monkeypatch.setattr(metric_core, "_triple_tally", refuse)
    shift, _, _ = build_full_shift(2, 0.5, 6)
    grid = build_snowflake_interval(64, 0.5)
    for tol in TOLERANCES:
        assert verify_ultrametric(shift, tol).is_ultrametric
        assert verify_metric_axioms(grid, tol).is_metric


@pytest.mark.parametrize("verify", [verify_metric_axioms, verify_ultrametric])
def test_full_shift_of_1024_points_passes(verify):
    space, _, _ = build_full_shift(2, 0.5, 10)
    assert len(space) == 1024
    report = verify(space)
    assert report.is_metric
    assert report.is_ultrametric in (True, None)
    assert report.axiom_violations == report.ultrametric_violations == ()




@settings(max_examples=300, deadline=None)
@given(space=spaces(), tol=st.sampled_from(DIRECT_TOLERANCES))
def test_subdominant_verdict_equals_the_prim_reference(space, tol):
    # The key as the scans pass it: the matrix.  Hierarchies and two- or
    # four-level tables put many keys on ties.
    assert metric_core._within_subdominant(space.matrix, tol) == (
        metric_reference.within_subdominant(space.matrix, tol)
    )


def assert_tally_equals(got, violations):
    """The count of the reference's list, as a plain int (reports serialise
    it to JSON), and its first witnesses."""
    assert type(got[0]) is int
    assert got == (len(violations), tuple(violations[: metric_core.WITNESS_LIMIT]))


def blocks_of(rows, n):
    """Row blocks of ``rows`` rows of an ``n``-point pass; None keeps the
    library's block size."""
    cells = metric_core.ROW_BLOCK_CELLS if rows is None else rows * n
    return mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells)


BLOCK_ROWS = st.sampled_from([1, 3, None])


@settings(max_examples=200, deadline=None)
@given(space=spaces(), tol=st.sampled_from(DIRECT_TOLERANCES), rows=BLOCK_ROWS)
def test_basic_violations_equal_the_reference(space, tol, rows):
    with blocks_of(rows, len(space)):
        got = metric_core._basic_tally(space, tol)
    assert_tally_equals(got, metric_reference.basic_violations(space, tol))


@settings(max_examples=300, deadline=None)
@given(space=spaces(), tol=st.sampled_from(DIRECT_TOLERANCES), rows=BLOCK_ROWS)
def test_triple_tallies_equal_the_reference(space, tol, rows):
    # The fallbacks are one pass on the matrix with different combining
    # ufuncs: the triangle inequality at ``tol``, and the strong one at
    # ``tol``, or with none on a power space, where the reference compares
    # exponents.  Every space is tallied, passing ones (count 0) included.
    strong_tol = 0.0 if space.levels is not None else tol
    with blocks_of(rows, len(space)):
        triangle = metric_core._triple_tally(space, "triangle", np.add, tol)
        strong = metric_core._triple_tally(space, "ultrametric", np.maximum, strong_tol)
    assert_tally_equals(triangle, metric_reference.triangle_violations(space, tol))
    assert_tally_equals(strong, metric_reference.ultrametric_violations(space, tol))


def test_a_failing_run_tallies_each_kind_once(monkeypatch):
    # Both scans at two tolerances, twice over: the snowflaked interval with
    # alpha 1 is a metric but no ultrametric, and at a negative tolerance
    # every pair fails symmetry.  Each tally runs once per tolerance, and the
    # second scan reads the first one's.
    counted = {"triple tallies": 0, "basic masks": 0}
    triple_tally, cells = metric_core._triple_tally, metric_core._cells

    def counting_triples(*args):
        counted["triple tallies"] += 1
        return triple_tally(*args)

    def counting_basic(*args):
        counted["basic masks"] += 1
        return cells(*args)

    monkeypatch.setattr(metric_core, "_triple_tally", counting_triples)
    monkeypatch.setattr(metric_core, "_cells", counting_basic)
    grid = build_snowflake_interval(16, 1.0)
    for _ in range(2):
        for tol in (-1.0e-3, 1.0e-9):
            assert verify_metric_axioms(grid, tol).is_metric == (tol > 0)
            assert not verify_ultrametric(grid, tol).is_ultrametric
    # Triangle and strong triangle at -1e-3, strong triangle only at 1e-9;
    # one basic tally per tolerance, which reads three masks (identity,
    # symmetry, separation).
    assert counted == {"triple tallies": 3, "basic masks": 6}


def test_snowflake_grid_of_513_points_counts_every_violation():
    # The exhaustive scan lists 22,369,536 violating triples here; the tally
    # counts them all and keeps five.
    report = verify_ultrametric(build_snowflake_interval(512, 0.5), 1.0e-9)
    assert report.is_metric and report.axiom_violation_count == 0
    assert report.ultrametric_violation_count == 22_369_536
    assert len(report.ultrametric_violations) == metric_core.WITNESS_LIMIT


def test_subdominant_verdict_on_a_tie_hierarchy():
    # Two tight pairs two apart: Prim leaves the first pair on a tie.
    key = np.array([
        [0.0, 1.0, 2.0, 2.0],
        [1.0, 0.0, 2.0, 2.0],
        [2.0, 2.0, 0.0, 1.0],
        [2.0, 2.0, 1.0, 0.0],
    ])
    assert metric_core._within_subdominant(key, 0.0)
    # One direction of a cross pair just above its subdominant value 2.
    raised = key.copy()
    raised[0, 2] = 2.0 + 1.0e-12
    assert not metric_core._within_subdominant(raised, 0.0)
    assert metric_core._within_subdominant(raised, 1.0e-9)
    assert not metric_core._within_subdominant(key, -1.0e-9)
