"""The cycle table behind SelfMap, checked against step-by-step references.

``dynamics_reference`` keeps the orbit walks, the per-step adapted metric and
the union-find component scan that the cycle table, pointer doubling and the
numpy label merge replaced, and scipy's connected components, which the
label merge is held to.
"""

import ast
import io
import json
import math
import pathlib
import time
from contextlib import redirect_stdout
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
    build_padic_cycle,
    enumerate_periodic_points,
    invariant_components,
    iterate,
    metric_core,
    metric_space_from_matrix,
    self_map_from_function,
    truncate,
    verify_isometry,
)
from solenoidlab import cli, dynamics, mapping_torus
from solenoidlab.connectedness import _merge_labels
from solenoidlab.dynamics import IndexCycles, index_cycles
from solenoidlab.models import ModelSpec, build_model

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
    return pool, self_map_from_function(listed, mapping)


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
        n = data.draw(st.one_of(
            st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 30, 10 ** 30),
        ))
        assert iterate(mapping, n, x) == ref.iterate_by_walk(mapping, n, x)
        assert mapping.orbit(x) == ref.orbit_by_walk(mapping, x)
        # A scalar index steps as a one-element array does, for any n.
        i = mapping.domain.index(x)
        assert mapping._cycles.step(i, n) == mapping._cycles.step(np.array([i]), n)[0]


@settings(max_examples=200, deadline=None)
@given(drawn=spaces_with_maps(), lo=st.integers(-4, 0), hi=st.integers(0, 4))
def test_perm_powers_match_the_steps(drawn, lo, hi):
    space, mapping = drawn
    ts = TorusSpace(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    table = index_cycles(space, mapping)
    for m, want in ref.perm_powers_by_steps(ts, lo, hi).items():
        assert np.array_equal(table.power(m), want)


@pytest.mark.parametrize("n", [2 ** 63, -2 ** 63 - 1, 10 ** 30, -10 ** 30, 2 ** 63 - 1])
def test_index_steps_beyond_int64_are_exact(n):
    space, mapping, _ = build_padic_cycle(3, 2)
    table = index_cycles(space, mapping)
    assert table.step(np.array([1]), n).tolist() == [(1 + n) % 9]
    assert table.step(1, n) == (1 + n) % 9
    assert table.power(n).tolist() == [(i + n) % 9 for i in range(9)]
    assert iterate(mapping, n, 1) == (1 + n) % 9


@settings(max_examples=150, deadline=None)
@given(drawn=cycle_maps(), data=st.data())
def test_a_table_of_powers_steps_as_each_index_does(drawn, data):
    # IndexCycles.step reads f^n from one power per shift where a 1-D index
    # array outnumbers the points times the span of shifts, and steps each
    # index otherwise.  Both must agree with per-index steps, at the
    # boundary and off it, for integral float shifts beyond int64 (one
    # shift there: its neighbours are not floats) and for an int; so must
    # a scalar index against shifts, a 2-D index array and a power.
    points, mapping = drawn
    table, n = mapping._cycles, len(points)
    far = data.draw(st.sampled_from([0.0, 2.0 ** 63, -(2.0 ** 70), 1e20]))
    spread = data.draw(st.integers(0, 3)) if far == 0.0 else 0
    edge = n * (2 * spread + 1)
    count = data.draw(st.sampled_from([edge, edge + 1]) | st.integers(1, edge + 50))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(0, n, count)
    shifts = far + rng.integers(-spread, spread + 1, count)
    shifts[:2] = (far + np.array([-spread, spread]))[:count]  # the whole span
    want = [table.step(int(i), int(s)) for i, s in zip(x, shifts)]
    assert table.step(x, shifts).tolist() == want
    whole = data.draw(st.integers(-5, 5))
    assert table.step(x, whole).tolist() == [table.step(int(i), whole) for i in x]
    i = int(x[0])
    assert table.step(i, shifts).tolist() == [table.step(i, int(s)) for s in shifts]
    grid = np.stack([x, x[::-1]])
    assert table.step(grid, shifts).tolist() == [
        [table.step(int(i), int(s)) for i, s in zip(row, shifts)] for row in grid
    ]
    assert table.power(whole).tolist() == [table.step(i, whole) for i in range(n)]


@pytest.mark.parametrize("low, high", [(0, 0), (-2, 1), (3, 3)])
@pytest.mark.parametrize("extra", [0, 1])
def test_a_step_reads_powers_only_above_the_points_times_the_span(low, high, extra):
    # 16 points and shifts low..high: 16 * span indices step one by one,
    # one more reads one power per shift.
    space, mapping, _ = build_padic_cycle(2, 4)
    table, span = index_cycles(space, mapping), high - low + 1
    count = 16 * span + extra
    x = np.arange(count) % 16
    shifts = low + np.arange(count) % span
    power = IndexCycles.power
    with mock.patch.object(IndexCycles, "power", autospec=True, side_effect=power) as counted:
        got = table.step(x, shifts)
    assert counted.call_count == (span if extra else 0)
    assert got.tolist() == [(i + s) % 16 for i, s in zip(x.tolist(), shifts.tolist())]


@pytest.mark.parametrize("far", [2.0 ** 63, -(2.0 ** 70), 1e20])
@pytest.mark.parametrize("count", [16, 17, 100])
def test_canonical_points_at_integral_times_beyond_int64(far, count):
    # 16 points: 16 indices step one by one, 17 and 100 read one power.
    space, mapping, _ = build_padic_cycle(2, 4)
    ts = TorusSpace(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    x = np.arange(count) % 16
    base, time = mapping_torus._canonical(ts, x, np.full(count, far))
    assert base.tolist() == [(i - int(far)) % 16 for i in x.tolist()]
    assert not time.any()


def test_a_model_space_shares_the_maps_table_and_a_reordered_space_renumbers_it():
    space, mapping, torus = build_padic_cycle(2, 4)
    table = index_cycles(space, mapping)
    assert table is mapping._cycles is torus._cycles
    assert index_cycles(truncate(space, 0.5), mapping) is table
    flipped = metric_space_from_matrix(space.points[::-1], space.matrix[::-1, ::-1])
    renumbered = index_cycles(flipped, mapping)
    assert np.array_equal(renumbered.power(1), ref.permutation_indices_by_lookup(flipped, mapping))
    wrong = metric_space_from_matrix(space.points[:-1], space.matrix[:-1, :-1])
    with pytest.raises(UnsupportedMapError, match="domain"):
        index_cycles(wrong, mapping)


def _count_table_builds(monkeypatch) -> mock.Mock:
    counted = mock.Mock(wraps=dynamics._build_cycles)
    monkeypatch.setattr(dynamics, "_build_cycles", counted)
    return counted


@pytest.mark.parametrize("kind, parameters, checks", [
    ("padic-cycle", {"prime": 2, "digits": 6}, [
        {"name": "bilipschitz"},
        {"name": "connectedness", "epsilon": 0.5},
        {"name": "dense-orbit", "epsilon": 0.5},
        {"name": "quotient-metric", "pairs": 50},
        {"name": "flow-laws", "triples": 50},
        {"name": "chain-sandwich", "pairs": 20},
    ]),
    ("full-shift", {"alphabet_size": 2, "ratio": 0.5, "max_period": 6}, [
        {"name": "bilipschitz"},
        {"name": "connectedness", "epsilon": 0.5},
        {"name": "dense-orbit", "epsilon": 0.5},
    ]),
])
def test_a_run_builds_one_cycle_table(tmp_path, monkeypatch, kind, parameters, checks):
    builds = _count_table_builds(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"space": {"kind": kind, "parameters": parameters}, "seed": 1, "checks": checks}
    ))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(config)]) == 0
    assert builds.call_count == 1


def test_building_a_model_builds_no_cycle_table(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    for kind, parameters in [
        ("padic-cycle", {"prime": 2, "digits": 6}),
        ("full-shift", {"alphabet_size": 2, "ratio": 0.5, "max_period": 6}),
    ]:
        build_model(ModelSpec.from_dict({"kind": kind, "parameters": parameters}))
    assert builds.call_count == 0


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


@pytest.mark.parametrize("image", [
    np.array([1, 1]),         # not injective
    np.array([1, 2]),         # index out of range
    np.array([1, -1]),        # negative index
    np.array([1, 0, 2]),      # wrong length
    np.array([[1, 0]]),       # wrong shape
    np.array([1.0, 0.0]),     # not integers
    np.array([True, False]),  # not integers
])
def test_an_image_that_is_not_a_permutation_is_refused(image):
    with pytest.raises(UnsupportedMapError, match="not a permutation"):
        SelfMap((0, 1), image)


def test_the_image_is_a_read_only_copy():
    given = np.array([1, 2, 0], dtype=np.int32)
    mapping = SelfMap(("a", "b", "c"), given)
    given[0] = 0
    assert mapping.image.dtype == np.intp
    assert mapping.image.tolist() == [1, 2, 0]
    with pytest.raises(ValueError, match="read-only"):
        mapping.image[0] = 0
    assert dict(mapping.forward) == {"a": "b", "b": "c", "c": "a"}
    with pytest.raises(TypeError):
        mapping.forward["a"] = "a"
    assert mapping.orbit("a") == ("a", "b", "c")


def test_a_domain_that_repeats_a_point_is_refused():
    with pytest.raises(InvalidInputError, match="duplicate"):
        self_map_from_function((0, 0, 1), lambda x: 1 - x)
    # A map built directly from its image refuses at its first point lookup.
    mapping = SelfMap((0, 0, 1), np.array([2, 1, 0]))
    with pytest.raises(UnsupportedMapError, match="repeats"):
        mapping(0)
    space = metric_space_from_matrix((0, 1), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(UnsupportedMapError):
        index_cycles(space, mapping)


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
