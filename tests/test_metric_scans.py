"""The fast axiom verdicts against the exhaustive reference scan.

``verify_metric_axioms`` and ``verify_ultrametric`` clear passing spaces
without enumerating triples; every report must still equal the one the plain
O(N^3) scan in ``metric_reference`` builds, violations and their order
included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import floyd_warshall

import metric_reference
from solenoidlab import (
    FiniteMetricSpace,
    build_full_shift,
    build_snowflake_interval,
    metric_space_from_matrix,
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
        return metric_space_from_matrix(points, m, kind)
    base = float(rng.choice([0.3, 0.5, 0.8]))
    if kind == "hierarchy":
        e = hierarchy_exponents(n, rng)
    else:
        e = symmetric(rng.integers(0, int(rng.choice([2, 4])), (n, n)).astype(float))
        np.fill_diagonal(e, math.inf)
    if diagonal_within_tol:
        np.fill_diagonal(e, math.ceil(math.log(1e-10) / math.log(base)))
    return FiniteMetricSpace(
        points=points, matrix=base**e, label=kind, power_base=base, exponents=e
    )


#: Every scan at every tolerance, run in a drawn order on one space, so the
#: memoised verdicts are shared between calls and kept apart per tolerance.
CALLS = tuple((with_ultra, tol) for with_ultra in (False, True) for tol in TOLERANCES)


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


def test_passing_spaces_enumerate_no_triples(monkeypatch):
    def refuse(space, tol):
        raise AssertionError("triple scan ran on a passing space")

    monkeypatch.setattr(metric_core, "_triangle_violations", refuse)
    monkeypatch.setattr(metric_core, "_ultrametric_violations", refuse)
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


#: Tolerances of the direct verdict and basic-violation tests: the scans'
#: two, and a negative one, which every comparison must also honour.
DIRECT_TOLERANCES = TOLERANCES + (-1.0e-9,)


@settings(max_examples=300, deadline=None)
@given(space=spaces(), tol=st.sampled_from(DIRECT_TOLERANCES))
def test_subdominant_verdict_equals_the_prim_reference(space, tol):
    # Keys as the scans pass them: the matrix, and the negated exponents
    # (-inf on the diagonal unless a diagonal within tolerance was drawn).
    # Hierarchies and two- or four-level tables put many keys on ties.
    keys = [space.matrix]
    if space.exponents is not None:
        keys.append(-space.exponents)
    for key in keys:
        assert metric_core._within_subdominant(key, tol) == (
            metric_reference.within_subdominant(key, tol)
        )


@settings(max_examples=200, deadline=None)
@given(space=spaces(), tol=st.sampled_from(DIRECT_TOLERANCES))
def test_basic_violations_equal_the_reference(space, tol):
    assert metric_core._basic_violations(space, tol) == (
        metric_reference.basic_violations(space, tol)
    )


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
