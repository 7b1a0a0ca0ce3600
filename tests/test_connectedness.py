"""Resolution-dependent components of (space, map) pairs and orbit density."""

import pytest

from solenoidlab import (
    ComponentPartition,
    InvalidInputError,
    InvariantError,
    build_full_shift,
    build_padic_cycle,
    build_two_fixed_points,
    dense_orbit_check,
    invariant_components,
    metric_space_from_matrix,
    self_map_from_function,
)
from solenoidlab import connectedness


def test_two_fixed_points_split():
    space, mapping, _ = build_two_fixed_points()
    parts = invariant_components(space, mapping, 0.5)
    assert len(parts.blocks) == 2
    assert parts.invariant
    assert parts.witness == parts.blocks[0]
    assert parts.resolution == 0.5
    assert {p for block in parts.blocks for p in block} == set(space.points)


def test_two_fixed_points_merge_at_diameter():
    space, mapping, _ = build_two_fixed_points()
    parts = invariant_components(space, mapping, 1.0)
    assert len(parts.blocks) == 1
    assert parts.witness is None


def test_full_shift_is_chained_at_half():
    space, mapping, _ = build_full_shift(2, 0.5, 4)
    parts = invariant_components(space, mapping, 0.5)
    assert len(parts.blocks) == 1
    assert parts.invariant


def test_padic_cycle_connected_at_every_resolution():
    space, mapping, _ = build_padic_cycle(2, 3)
    for eps in (0.125, 0.25, 0.5, 1.0):
        parts = invariant_components(space, mapping, eps)
        assert len(parts.blocks) == 1


def test_blocks_are_closed_under_the_map():
    # two near pairs far apart, the map swapping inside each pair
    space = metric_space_from_matrix(
        (0, 1, 2, 3),
        [[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1], [9, 9, 1, 0]],
    )
    swap = self_map_from_function((0, 1, 2, 3), lambda x: x ^ 1)
    parts = invariant_components(space, swap, 1.0)
    assert parts.blocks == ((0, 1), (2, 3))
    assert parts.invariant
    assert parts.witness == (0, 1)


def test_map_edges_do_merge():
    # same geometry, but the map now exchanges the two distant pairs
    space = metric_space_from_matrix(
        (0, 1, 2, 3),
        [[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1], [9, 9, 1, 0]],
    )
    cross = self_map_from_function((0, 1, 2, 3), lambda x: (x + 2) % 4)
    parts = invariant_components(space, cross, 1.0)
    assert len(parts.blocks) == 1


def test_invariant_components_validation():
    space, mapping, _ = build_two_fixed_points()
    with pytest.raises(InvalidInputError):
        invariant_components(space, mapping, 0.0)
    with pytest.raises(InvalidInputError):
        invariant_components(space, mapping, -1.0)


def test_dense_orbit_on_the_cycle():
    space, mapping, _ = build_padic_cycle(2, 3)
    report = dense_orbit_check(space, mapping, 0, 0.125, 8)
    assert report.dense
    assert report.covering_fraction == 1.0


def test_dense_orbit_budget_too_small():
    space, mapping, _ = build_padic_cycle(2, 3)
    report = dense_orbit_check(space, mapping, 0, 0.125, 2)
    assert not report.dense
    assert report.covering_fraction == pytest.approx(5 / 8)


def test_dense_orbit_large_epsilon_needs_no_steps():
    space, mapping, _ = build_padic_cycle(2, 3)
    report = dense_orbit_check(space, mapping, 0, 1.0, 0)
    assert report.dense


def test_dense_orbit_never_crosses_fixed_points():
    space, mapping, _ = build_two_fixed_points()
    report = dense_orbit_check(space, mapping, space.points[0], 0.5, 50)
    assert not report.dense
    assert report.covering_fraction == 0.5


def test_dense_orbit_validation():
    space, mapping, _ = build_padic_cycle(2, 2)
    with pytest.raises(InvalidInputError):
        dense_orbit_check(space, mapping, 0, 0.0, 4)
    with pytest.raises(InvalidInputError):
        dense_orbit_check(space, mapping, 0, 0.5, -1)
    with pytest.raises(InvalidInputError):
        dense_orbit_check(space, mapping, 99, 0.5, 4)


def test_dense_orbit_with_split_components_raises_invariant_error(monkeypatch):
    space, mapping, _ = build_padic_cycle(2, 3)
    split = ComponentPartition(
        resolution=0.125,
        blocks=(space.points[:4], space.points[4:]),
        invariant=True,
        witness=space.points[:4],
    )
    monkeypatch.setattr(connectedness, "invariant_components", lambda *args: split)
    with pytest.raises(InvariantError, match="disconnected") as caught:
        dense_orbit_check(space, mapping, 0, 0.125, 8)
    # A library bug, not a usage error.
    assert not isinstance(caught.value, InvalidInputError)
