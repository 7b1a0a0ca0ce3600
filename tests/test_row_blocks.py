"""The N^2 passes that walk their matrix in row blocks, held bit for bit to
the single-pass versions they replaced, and the memory those passes hold.

The all-at-once versions are kept in ``dynamics_reference``,
``models_reference``, ``metric_reference``, ``shift_space_reference`` and
``mapping_torus_reference``.  Each property test shrinks
``metric_core.ROW_BLOCK_CELLS`` to blocks of one and of three rows, so that
block edges fall between every pair of rows, and also runs the library's
block size.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamics_reference
import mapping_torus_reference
import metric_reference
import models_reference
import shift_space_reference
from solenoidlab import (
    ChainMetricTable,
    FiniteMetricSpace,
    InvalidInputError,
    ModelSpec,
    TorusPoint,
    adapted_metric,
    build_full_shift,
    build_model,
    build_padic_cycle,
    dense_orbit_check,
    estimate_bilipschitz_constant,
    invariant_components,
    metric_core,
    metric_space_from_matrix,
    pairwise_depth_matrix,
    self_map_from_function,
    verify_isometry,
)

MiB = 1 << 20


@contextlib.contextmanager
def blocks_of(rows, width):
    """Row blocks of ``rows`` rows of ``width`` cells; None keeps the
    library's block size."""
    cells = metric_core.ROW_BLOCK_CELLS if rows is None else rows * width
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        yield


BLOCK_ROWS = st.sampled_from([1, 3, None])


@st.composite
def spaces_with_maps(draw):
    """Up to 24 int points at distances with many ties, some of them zero
    off the diagonal, under a random permutation."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.sampled_from([0, 1]))
    raw = rng.integers(low, 4, size=(n, n)).astype(float)
    if draw(st.booleans()):
        raw += rng.random((n, n))
    matrix = np.triu(raw, k=1)
    image = draw(st.permutations(range(n)))
    mapping = self_map_from_function(range(n), image.__getitem__)
    return metric_space_from_matrix(range(n), matrix + matrix.T), mapping


def _outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except InvalidInputError as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), rows=BLOCK_ROWS)
def test_upper_blocks_cover_the_upper_triangle_in_order(n, rows):
    # Every block's mask is a read-only view of one array.
    with blocks_of(rows, n):
        blocks = list(metric_core.upper_blocks(n))
    cells = [
        (rows.start + a, cols.start + b)
        for rows, cols, upper in blocks
        for a, b in zip(*np.nonzero(upper))
    ]
    assert cells == list(zip(*np.triu_indices(n, k=1)))
    for rows, cols, upper in blocks:
        assert upper.shape == (rows.stop - rows.start, n - cols.start)
        assert not upper.flags.writeable


@settings(max_examples=200, deadline=None)
@given(drawn=spaces_with_maps(), rows=BLOCK_ROWS, tol=st.sampled_from([0.0, 0.5, 1.0]))
def test_bilipschitz_and_isometry_match_the_single_pass(drawn, rows, tol):
    space, mapping = drawn
    with blocks_of(rows, len(space)):
        got = _outcome(lambda: estimate_bilipschitz_constant(space, mapping))
        iso = verify_isometry(space, mapping, tol)
    want = _outcome(lambda: dynamics_reference.bilipschitz_all_at_once(space, mapping))
    assert got == want
    assert iso == dynamics_reference.isometry_all_at_once(space, mapping, tol)
    assert type(iso.is_isometry) is bool and type(iso.max_deviation) is float


@settings(max_examples=200, deadline=None)
@given(drawn=spaces_with_maps(), rows=BLOCK_ROWS, data=st.data())
def test_components_and_dense_orbits_match_the_single_pass(drawn, rows, data):
    space, mapping = drawn
    values = np.unique(space.matrix).tolist()
    epsilon = data.draw(st.one_of(
        st.sampled_from([v for v in values if v > 0] or [1.0]),
        st.floats(1e-3, 4.0),
    ))
    origin = data.draw(st.sampled_from(space.points))
    max_iter = data.draw(st.integers(0, 30))
    with blocks_of(rows, len(space)):
        parts = invariant_components(space, mapping, epsilon)
        orbit = dense_orbit_check(space, mapping, origin, epsilon, max_iter)
    assert parts == dynamics_reference.components_all_at_once(space, mapping, epsilon)
    assert orbit == dynamics_reference.dense_orbit_all_at_once(
        space, mapping, origin, epsilon, max_iter
    )


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from([(2, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)]),
    rows=BLOCK_ROWS,
    data=st.data(),
)
def test_padic_exponents_and_their_recheck_match_the_single_pass(model, rows, data):
    prime, digits = model
    n = prime ** digits
    with blocks_of(rows, n):
        space, _, _ = build_padic_cycle(prime, digits)
    want = models_reference.padic_exponents_all_at_once(prime, digits)
    assert space.exponents.tobytes() == want.tobytes()
    assert space.matrix.tobytes() == (space.power_base ** want).tobytes()
    # The recheck refuses a table that differs from the matrix in one cell
    # (one that stays equal, an inf moved by +1, is accepted), wherever it is.
    bad = want.copy()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bad[i, j] += 1.0
    with blocks_of(rows, n):
        outcome = _outcome(lambda: FiniteMetricSpace(
            points=space.points, matrix=space.matrix,
            power_base=space.power_base, exponents=bad,
        ))
    if metric_reference.reproduces_all_at_once(space.power_base, bad, space.matrix):
        assert isinstance(outcome, FiniteMetricSpace)
    else:
        assert outcome == (InvalidInputError, "exponent table does not reproduce the matrix")


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from([(2, 0.5, 1), (2, 0.5, 5), (3, 0.3, 3), (2, 0.75, 6), (4, 0.5, 2)]),
    rows=BLOCK_ROWS,
)
def test_full_shift_exponents_and_their_recheck_match_the_single_pass(model, rows):
    alphabet_size, ratio, max_period = model
    n = alphabet_size ** max_period
    with blocks_of(rows, n):
        space, _, _ = build_full_shift(alphabet_size, ratio, max_period)
        depths = pairwise_depth_matrix(space.points)
    want = shift_space_reference.pairwise_depth_matrix(space.points)
    assert space.exponents.tobytes() == depths.tobytes() == want.tobytes()
    assert metric_reference.reproduces_all_at_once(ratio, want, space.matrix)


@st.composite
def chain_samples(draw):
    """A small torus and a chain sample of up to 40 of its canonical points."""
    build, args = draw(st.sampled_from([
        (build_full_shift, (2, 0.5, 4)),
        (build_full_shift, (3, 0.3, 2)),
        (build_padic_cycle, (2, 4)),
        (build_padic_cycle, (3, 2)),
    ]))
    ts = build(*args)[2]
    times = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 0.875]) | st.floats(0.0, 0.99)
    sample = draw(st.lists(
        st.builds(TorusPoint, st.sampled_from(ts.base_space.points), times),
        min_size=1, max_size=40,
    ))
    return ts, sample


@settings(max_examples=80, deadline=None)
@given(drawn=chain_samples(), rows=BLOCK_ROWS)
def test_chain_edges_match_the_single_kernel_call(drawn, rows):
    ts, sample = drawn
    distinct = list(dict.fromkeys(sample))
    with blocks_of(rows, len(distinct)):
        table = ChainMetricTable(ts, sample)
    want = mapping_torus_reference.representative_matrix_all_at_once(ts, distinct)
    assert table.edges.tobytes() == want.tobytes()


# ============================================================
# Memory held by each pass
# ============================================================

PADIC_1024 = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 10}}


@pytest.fixture(scope="module")
def padic_1024():
    return build_model(ModelSpec.from_dict(PADIC_1024))


def _peak_above_start(call):
    """Bytes the call held at its peak beyond what was allocated before it,
    as tracemalloc counts them (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def _identity_map(space):
    return self_map_from_function(space.points, lambda x: x)


@pytest.mark.parametrize("name, call", [
    ("bilipschitz", lambda m: estimate_bilipschitz_constant(m.space, m.mapping)),
    ("isometry", lambda m: verify_isometry(m.space, m.mapping)),
    ("components", lambda m: invariant_components(m.space, m.mapping, 0.25)),
    ("dense-orbit", lambda m: dense_orbit_check(m.space, m.mapping, 0, 0.25, 1024)),
    # Fixed points: no early exit, every row block of close pairs is merged.
    ("components of fixed points",
     lambda m: invariant_components(m.space, _identity_map(m.space), 0.25)),
])
def test_pair_passes_hold_under_4_mib_on_1024_points(padic_1024, name, call):
    call(padic_1024)  # the cycle table is built once and kept on the map
    _, peak = _peak_above_start(lambda: call(padic_1024))
    assert peak < 4 * MiB, f"{name} peaked {peak / MiB:.1f} MiB above its start"


def test_adapted_metric_peaks_under_two_and_a_half_results_on_1024_points(padic_1024):
    # The running maximum and one gather; the old pass also held the new
    # maximum beside them.
    adapted_metric(padic_1024.space, padic_1024.mapping)  # builds the cycle table
    result, peak = _peak_above_start(
        lambda: adapted_metric(padic_1024.space, padic_1024.mapping)
    )
    assert peak < 2.5 * result.matrix.nbytes, (
        f"peaked {peak / MiB:.1f} MiB for a {result.matrix.nbytes / MiB:.1f} MiB result"
    )


def test_building_a_1024_point_model_peaks_within_2_mib_of_what_it_keeps():
    spec = ModelSpec.from_dict(PADIC_1024)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        model = build_model(spec)
        kept, peak = tracemalloc.get_traced_memory()
        # The closed form keeps O(N) data; reading the matrix builds it and
        # the exponent table, a row block at a time.
        assert kept - start < MiB, f"the build keeps {(kept - start) / MiB:.1f} MiB"
        tracemalloc.reset_peak()
        tables = model.space.matrix.nbytes + model.space.exponents.nbytes
        with_tables, peak_tables = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 2 * MiB, f"peak {(peak - kept) / MiB:.1f} MiB above what it keeps"
    assert with_tables - kept >= tables == 2 * 8 * 1024 ** 2
    assert peak_tables - with_tables < 2 * MiB

