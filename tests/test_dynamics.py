"""Self-maps, orbit bookkeeping, distortion constants and the adapted metric."""

import numpy as np
import pytest

from shift_space_reference import shift
from solenoidlab import (
    InvalidInputError,
    UnsupportedMapError,
    adapted_metric,
    build_full_shift,
    build_padic_cycle,
    estimate_bilipschitz_constant,
    iterate,
    metric_space_from_matrix,
    self_map_from_function,
    verify_isometry,
    verify_metric_axioms,
)

# three collinear points with a 3-cycle rotating them
LINE = metric_space_from_matrix((0, 1, 2), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
CYCLE = self_map_from_function((0, 1, 2), lambda x: (x + 1) % 3)


def test_self_map_call_and_inverse():
    assert CYCLE(2) == 0
    assert CYCLE.inverse(0) == 2
    with pytest.raises(InvalidInputError):
        CYCLE(5)
    with pytest.raises(InvalidInputError):
        CYCLE.inverse("nope")


def test_orbit_and_order():
    space, mapping, _ = build_padic_cycle(2, 3)
    assert mapping.orbit(0) == tuple(range(8))
    assert mapping.order() == 8
    fix = self_map_from_function((0, 1), lambda x: x)
    assert fix.order() == 1
    swap_pairs = self_map_from_function(range(4), lambda x: x ^ 1)
    assert swap_pairs.order() == 2


def test_self_map_from_function_rejects_non_permutation():
    with pytest.raises(UnsupportedMapError):
        self_map_from_function((0, 1, 2), lambda x: 0)
    with pytest.raises(UnsupportedMapError):
        self_map_from_function((0, 1), lambda x: x + 1)


def test_iterate_reduces_along_the_cycle():
    _, mapping, _ = build_padic_cycle(2, 3)
    assert iterate(mapping, 3, 1) == 4
    assert iterate(mapping, -1, 0) == 7
    assert iterate(mapping, 10 ** 9, 5) == (5 + 10 ** 9) % 8
    assert iterate(mapping, 0, 5) == 5


def test_iterate_takes_any_integer_and_refuses_every_other_step_count():
    _, mapping, _ = build_padic_cycle(5, 1)
    assert iterate(mapping, np.int64(7), 0) == 2
    assert iterate(mapping, np.uint8(3), 4) == 2
    assert iterate(mapping, 2 ** 70 + 1, 0) == (2 ** 70 + 1) % 5
    assert iterate(mapping, -(2 ** 70), 0) == -(2 ** 70) % 5
    for n in (2.5, 2.9, float("nan"), 2.0, np.float64(3.0), "2", None):
        with pytest.raises(InvalidInputError, match="step count must be an integer"):
            iterate(mapping, n, 0)


def test_full_shift_mapping_is_the_shift():
    space, mapping, _ = build_full_shift(2, 0.5, 4)
    for p in space.points:
        assert mapping(p) == shift(p, 1)
        assert mapping.inverse(p) == shift(p, -1)


def test_bilipschitz_estimate_on_line_cycle():
    est = estimate_bilipschitz_constant(LINE, CYCLE)
    assert est.constant == 2.0
    assert est.c_upper == 2.0
    assert est.c_lower == 2.0
    assert est.expanding_pair == (1, 2)  # d=1 maps onto d(2,0)=2
    assert est.contracting_pair == (0, 2)
    # the estimate is sharp: both one-sided bounds hold over all pairs
    for p in LINE.points:
        for q in LINE.points:
            if p != q:
                image = LINE.dist(CYCLE(p), CYCLE(q))
                assert image <= est.constant * LINE.dist(p, q)
                assert image >= LINE.dist(p, q) / est.constant


def test_bilipschitz_estimate_on_shift():
    space, mapping, _ = build_full_shift(2, 0.5, 4)
    est = estimate_bilipschitz_constant(space, mapping)
    assert est.constant == 2.0
    assert est.c_upper == 2.0
    assert est.c_lower == 2.0


def test_bilipschitz_degenerate_and_error_cases():
    lone = metric_space_from_matrix(("x",), [[0.0]])
    ident = self_map_from_function(("x",), lambda p: p)
    est = estimate_bilipschitz_constant(lone, ident)
    assert est.constant == 1.0 and est.expanding_pair is None
    glued = metric_space_from_matrix((0, 1), [[0.0, 0.0], [0.0, 0.0]])
    swap = self_map_from_function((0, 1), lambda x: 1 - x)
    with pytest.raises(InvalidInputError):
        estimate_bilipschitz_constant(glued, swap)
    with pytest.raises(UnsupportedMapError):
        estimate_bilipschitz_constant(LINE, self_map_from_function((0, 1), lambda x: x))


def test_verify_isometry_translation():
    space, mapping, _ = build_padic_cycle(2, 3)
    report = verify_isometry(space, mapping)
    assert report.is_isometry
    assert report.max_deviation == 0.0


def test_verify_isometry_flags_line_cycle():
    report = verify_isometry(LINE, CYCLE)
    assert not report.is_isometry
    assert report.max_deviation == 1.0
    assert report.worst_pair == (0, 2)
    assert verify_isometry(LINE, CYCLE, tol=1.0).is_isometry


def test_adapted_metric_line_cycle():
    tilde = adapted_metric(LINE, CYCLE)
    off = ~np.eye(3, dtype=bool)
    assert np.all(tilde.matrix[off] == 2.0)
    assert np.all(np.diag(tilde.matrix) == 0.0)


def test_adapted_metric_properties_random():
    rng = np.random.RandomState(23)
    for _ in range(30):
        n = 6
        raw = 1.0 + rng.rand(n, n)  # offset keeps the triangle inequality
        sym = np.triu(raw, 1)
        mat = sym + sym.T
        space = metric_space_from_matrix(range(n), mat)
        perm = rng.permutation(n)
        mapping = self_map_from_function(range(n), lambda x, p=perm: int(p[x]))
        tilde = adapted_metric(space, mapping)
        assert verify_metric_axioms(tilde).is_metric
        assert np.all(tilde.matrix >= space.matrix)
        report = verify_isometry(tilde, mapping)
        assert report.is_isometry and report.max_deviation == 0.0


def test_adapted_metric_fixed_by_isometries():
    space, mapping, _ = build_padic_cycle(2, 3)
    tilde = adapted_metric(space, mapping)
    assert np.array_equal(tilde.matrix, space.matrix)
