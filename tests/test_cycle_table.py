"""The cycle table behind SelfMap, checked against step-by-step references.

``dynamics_reference`` keeps the orbit walks, the per-step adapted metric and
the union-find component scan that the cycle table, pointer doubling and the
numpy label merge replaced, and scipy's connected components, which the
label merge is held to.
"""

import ast
import math
import pathlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_reference as ref
import solenoidlab
from solenoidlab import (
    Alphabet,
    InvalidInputError,
    SelfMap,
    TorusSpace,
    UnsupportedMapError,
    adapted_metric,
    enumerate_periodic_points,
    invariant_components,
    iterate,
    metric_core,
    metric_space_from_matrix,
    self_map_from_function,
    verify_isometry,
)
from solenoidlab.connectedness import _merge_labels
from solenoidlab.dynamics import index_cycles

SEQUENCES = tuple(enumerate_periodic_points(Alphabet(("0", "1")), 6))


def _map_with_cycles(points, lengths):
    """The map sending each run of ``lengths`` consecutive points round a cycle."""
    image = {}
    start = 0
    for length in lengths:
        cycle = points[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
        start += length
    return self_map_from_function(points, image.__getitem__)


@st.composite
def cycle_maps(draw, max_points=40):
    """A permutation of at most ``max_points`` int or sequence points, drawn
    as a list of cycle lengths with fixed points and many short cycles."""
    lengths = draw(st.lists(
        st.one_of(st.just(1), st.integers(1, 13)), min_size=1, max_size=max_points,
    ))
    while sum(lengths) > max_points:
        lengths.pop()
    n = sum(lengths)
    pool = list(range(n)) if draw(st.booleans()) else list(SEQUENCES[:n])
    on_cycles = draw(st.permutations(pool))
    mapping = _map_with_cycles(on_cycles, lengths)
    # Table order and space order are drawn apart from the cycle layout.
    listed = draw(st.permutations(pool))
    mapping = SelfMap(
        forward={p: mapping.forward[p] for p in listed},
        backward=dict(mapping.backward),
    )
    return pool, mapping


@st.composite
def spaces_with_maps(draw):
    points, mapping = draw(cycle_maps())
    n = len(points)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        raw = rng.integers(1, 4, size=(n, n)).astype(float)  # many ties
    else:
        raw = rng.random((n, n)) + 0.01
    matrix = np.triu(raw, k=1)
    matrix = matrix + matrix.T
    return metric_space_from_matrix(points, matrix), mapping


@settings(max_examples=200, deadline=None)
@given(drawn=cycle_maps(), data=st.data())
def test_iterate_orbit_and_order_match_the_walks(drawn, data):
    points, mapping = drawn
    assert mapping.order() == ref.order_by_walk(mapping)
    for _ in range(5):
        x = data.draw(st.sampled_from(points))
        n = data.draw(st.one_of(st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9)))
        assert iterate(mapping, n, x) == ref.iterate_by_walk(mapping, n, x)
        assert mapping.orbit(x) == ref.orbit_by_walk(mapping, x)


@settings(max_examples=200, deadline=None)
@given(drawn=spaces_with_maps(), lo=st.integers(-4, 0), hi=st.integers(0, 4))
def test_perm_powers_match_the_steps(drawn, lo, hi):
    space, mapping = drawn
    ts = TorusSpace(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    table = index_cycles(space, mapping)
    for m, want in ref.perm_powers_by_steps(ts, lo, hi).items():
        assert np.array_equal(table.power(m), want)
    # The torus keeps the powers of its shift window, f^-1 and f^0.
    window = ref.perm_powers_by_steps(ts, -1, 0)
    assert ts._shift_powers.keys() == window.keys()
    for m, want in window.items():
        assert np.array_equal(ts._shift_powers[m], want)


@settings(max_examples=150, deadline=None)
@given(drawn=spaces_with_maps())
def test_adapted_metric_matches_the_step_loop_bit_for_bit(drawn):
    space, mapping = drawn
    got = adapted_metric(space, mapping).matrix
    assert got.tobytes() == ref.adapted_matrix_by_steps(space, mapping).tobytes()


@settings(max_examples=200, deadline=None)
@given(drawn=spaces_with_maps(), data=st.data())
def test_invariant_components_match_union_find(drawn, data):
    space, mapping = drawn
    values = np.unique(space.matrix[space.matrix > 0]).tolist() or [1.0]
    epsilon = data.draw(st.one_of(
        st.sampled_from(values), st.floats(1e-3, 4.0, allow_nan=False)
    ))
    # Blocks of one and of three rows make every space merge across many
    # row blocks; None keeps the library's block size.
    rows = data.draw(st.sampled_from([1, 3, None]))
    cells = metric_core.ROW_BLOCK_CELLS if rows is None else rows * len(space)
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = invariant_components(space, mapping, epsilon)
    assert got == ref.components_by_union_find(space, mapping, epsilon)


def _assert_merge_matches_scipy(count, a, b):
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    got = _merge_labels(count, a, b)
    want = ref.label_components_by_scipy(count, a, b)
    assert got.shape == (count,)
    # The same partition: each label of one side meets one label of the other.
    pairs = np.unique(np.stack([got, want]), axis=1)
    assert pairs.shape[1] == len(np.unique(got)) == len(np.unique(want))
    # Compact labels, with the component of label 0 named 0.
    assert np.array_equal(np.unique(got), np.arange(got.max() + 1))
    assert got[0] == 0


@pytest.mark.parametrize("count", [2, 3, 64, 1000])
def test_merge_labels_on_a_path_with_edges_in_descending_order(count):
    # Each edge joins the two highest labels not yet hooked, the worst order
    # for hooking to the smaller root.
    top = np.arange(count - 1, 0, -1)
    _assert_merge_matches_scipy(count, top, top - 1)
    _assert_merge_matches_scipy(count, top - 1, top)
    got = _merge_labels(count, top, top - 1)
    assert not got.any()


def test_merge_labels_on_a_star_with_duplicates_self_loops_and_untouched_labels():
    # Star on 3 with leaves 9, 7, 1, each edge twice and in both directions;
    # self-loops on 5 and 9; 0, 2, 4, 6 and 8 touch no edge; 10-11 apart.
    a = [3, 9, 3, 7, 1, 3, 5, 9, 10, 11]
    b = [9, 3, 7, 3, 3, 1, 5, 9, 11, 10]
    _assert_merge_matches_scipy(12, a, b)
    got = _merge_labels(12, np.array(a), np.array(b))
    assert got.tolist() == [0, 1, 2, 1, 3, 4, 5, 1, 6, 1, 7, 7]
    _assert_merge_matches_scipy(5, [], [])
    _assert_merge_matches_scipy(1, [0], [0])


def test_merge_labels_match_scipy_components_on_2000_random_graphs():
    # A fixed sweep rather than hypothesis: a merge that stops jumping
    # pointers too early fails on 29 of these graphs, while hypothesis's
    # draws keep most graphs too small to show it.
    rng = np.random.default_rng(12)
    for _ in range(2000):
        count = int(rng.integers(1, 61))
        a, b = rng.integers(0, count, size=(2, int(rng.integers(0, 3 * count + 1))))
        _assert_merge_matches_scipy(count, a, b)


def test_adapted_metric_at_order_30030_matches_the_step_loop():
    lengths = (2, 3, 5, 7, 11, 13)
    points = tuple(range(sum(lengths)))
    mapping = _map_with_cycles(points, lengths)
    assert len(points) == 41 and mapping.order() == 30030
    rng = np.random.default_rng(5)
    raw = np.triu(rng.random((41, 41)) + 0.01, k=1)
    space = metric_space_from_matrix(points, raw + raw.T)
    got = adapted_metric(space, mapping).matrix
    assert got.tobytes() == ref.adapted_matrix_by_steps(space, mapping).tobytes()


def test_adapted_metric_with_an_astronomical_order_is_fast():
    primes = [p for p in range(2, 90) if all(p % q for q in range(2, p))]
    lengths = primes + [1] * (1000 - sum(primes))
    points = tuple(range(1000))
    mapping = _map_with_cycles(points, lengths)
    assert mapping.order() > 10 ** 30
    coords = np.random.default_rng(11).random(1000)
    space = metric_space_from_matrix(points, np.abs(coords[:, None] - coords[None, :]))
    started = time.perf_counter()
    tilde = adapted_metric(space, mapping)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert np.all(tilde.matrix >= space.matrix)
    assert verify_isometry(tilde, mapping, tol=0.0).is_isometry


@pytest.mark.parametrize("forward, backward", [
    ({0: 1, 1: 1}, {1: 0}),           # not injective
    ({0: 1, 1: 0, 2: 0}, {0: 1, 1: 0}),  # two preimages of 0
    ({0: 1}, {1: 0}),                 # image outside the domain
    ({0: 1, 1: 0}, {0: 0, 1: 1}),     # backward is not the inverse
    ({0: 1, 1: 0}, {0: 1}),           # backward is missing a point
])
def test_a_table_that_is_not_a_bijection_is_refused(forward, backward):
    mapping = SelfMap(forward=forward, backward=backward)
    with pytest.raises(UnsupportedMapError):
        iterate(mapping, 1, 0)
    with pytest.raises(UnsupportedMapError):
        mapping.orbit(0)
    with pytest.raises(UnsupportedMapError):
        mapping.order()


def test_iterate_outside_the_domain_is_invalid_input():
    mapping = self_map_from_function((0, 1, 2), lambda x: (x + 1) % 3)
    with pytest.raises(InvalidInputError, match="domain"):
        iterate(mapping, 1, 7)
    with pytest.raises(InvalidInputError, match="domain"):
        mapping.orbit(7)


def test_the_library_has_no_assert_statements():
    # Invariants raise InvariantError, which ``python -O`` does not strip.
    package = pathlib.Path(solenoidlab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
