"""The block-pruned Floyd-Warshall against scipy's, bit for bit.

``metric_core.ShortestPaths`` skips every block pair a pivot provably
cannot change, and checks the pivots a window at a time, applying only
those that change a cell, so each of its results must hold the same bits as
scipy's undirected ``floyd_warshall``
(``metric_reference.shortest_paths_by_scipy``): on drawn weights of every
size around the block side, on weights with ties, few distinct values and
entries below scipy's dense-zero threshold, in narrow and wide windows, on
weights whose changes fall at the first, two consecutive or the last pivot,
and on the chain samples the chain table solves.  Weights holding ``-0.0``
may give a zero of the other sign, so there the results are only
``np.array_equal``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metric_reference
from solenoidlab import ChainMetricTable, ModelSpec, TorusPoint, build_model
from solenoidlab import representative_distance_matrix
from solenoidlab import cli, metric_core
from solenoidlab.errors import InvariantError
from solenoidlab.metric_core import ShortestPaths

KINDS = ("uniform", "tiny", "few", "powers", "clusters", "euclidean")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def weights(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Nonnegative weights of one ``kind``, not yet symmetric."""
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, (n, n))
    if kind == "tiny":
        # Entries below 1e-8, which scipy reads as missing edges in a dense
        # array, among entries of order one.
        return np.where(rng.random((n, n)) < 0.5, rng.uniform(0.0, 1e-8, (n, n)), rng.random((n, n)))
    if kind == "few":
        # Ties everywhere, zeros off the diagonal included.
        return rng.integers(0, 3, (n, n)) * 0.5
    if kind == "powers":
        return 0.3 ** rng.integers(0, 6, (n, n)).astype(float)
    if kind == "clusters":
        # Tight clusters far apart, with noise: most block pairs are ruled
        # out, and the pivots that do change something change few cells.
        label = rng.integers(0, max(1, n // 8), n)
        far = np.where(label[:, None] == label, 0.01, 1.0)
        return far * rng.uniform(1.0, 3.0, (n, n))
    coords = rng.random((n, 2))
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = weights(kind, n, rng)
    if draw(st.booleans()):
        upper = np.triu(w, k=1)
        w = upper + upper.T
    if draw(st.booleans()):
        np.fill_diagonal(w, rng.uniform(0.0, 1.0, n))
    return w


def narrow_windows(n: int) -> int:
    """A ``ROW_BLOCK_CELLS`` under which a solve of ``n`` points checks
    windows of at most two pivots, and evaluates one live block pair per
    chunk, so that an applied pivot's pairs straddle chunk ends."""
    return 2 * -(-n // metric_core._SOLVE_BLOCK) * metric_core._SOLVE_BLOCK


@settings(max_examples=200, deadline=None)
@given(weight_matrices(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_equals_scipy_floyd_warshall_bit_for_bit(w, narrow, negative_zeros, seed):
    # Asymmetric weights are read as min(w, w.T) and a nonzero diagonal as
    # 0, as scipy's undirected solve reads them.  Narrow windows restart at
    # every applied pivot; wide ones (the default cells) find it among up
    # to 64 pivots that change nothing.
    if negative_zeros:
        w = np.where(np.random.default_rng(seed).random(w.shape) < 0.2, -0.0, w)
    cells = narrow_windows(len(w)) if narrow else metric_core.ROW_BLOCK_CELLS
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = ShortestPaths(w).matrix()
    want = metric_reference.shortest_paths_by_scipy(w)
    if negative_zeros:
        assert np.array_equal(got, want)
    else:
        assert same_bits(got, want)
        assert same_bits(got, got.T)


@pytest.mark.parametrize("size", [1, 31, 32, 33])
def test_a_path_one_ulp_shorter_is_taken(size):
    # Two clusters of ``size`` points, every cross pair one ulp above
    # fl(a + b), and a hub, the last point, at a from the first cluster and
    # b from the second.  In Prim order the first cluster fills whole blocks,
    # so at the hub's pivot the bound of a cross block is tight, and each
    # cross pair must still drop by that ulp.
    a, b = 0.1, 0.2
    via = a + b
    n = 2 * size + 1
    w = np.full((n, n), 0.001)
    first, second, hub = slice(0, size), slice(size, n - 1), n - 1
    w[first, second] = w[second, first] = np.nextafter(via, 1.0)
    w[hub, first] = w[first, hub] = a
    w[hub, second] = w[second, hub] = b
    got = ShortestPaths(w).matrix()
    assert same_bits(got, metric_reference.shortest_paths_by_scipy(w))
    assert np.all(got[first, second] == via)


def test_negative_zeros_give_equal_distances():
    rng = np.random.default_rng(11)
    for n in (2, 33, 65):
        w = rng.integers(0, 3, (n, n)) * 0.5
        w[rng.random((n, n)) < 0.3] = -0.0
        want = metric_reference.shortest_paths_by_scipy(w)
        assert np.array_equal(ShortestPaths(w).matrix(), want)


def test_leaves_its_weights_as_they_were():
    w = np.random.default_rng(5).uniform(0.0, 1.0, (40, 40))
    kept = w.copy()
    ShortestPaths(w)
    assert np.array_equal(w, kept)


def changing_pivots(w: np.ndarray) -> list:
    """The pivots of a plain Floyd-Warshall over ``min(w, w.T)`` that lower a cell."""
    d = np.minimum(w, w.T)
    np.fill_diagonal(d, 0.0)
    changed = []
    for k in range(len(d)):
        through = d[:, k, None] + d[k]
        if (through < d).any():
            changed.append(k)
            np.minimum(d, through, out=d)
    return changed


def hub_weights(n: int, hubs) -> np.ndarray:
    """Unit weights, but for each hub's edges to the points that are not
    hubs, 0.4 for the first hub and 0.3 for the second, and 0.5 between
    the hubs.  Paths through a hub are shorter than the edges they skip,
    and no path through another point is shorter than the edge between the
    hubs, so exactly the hubs change cells, once at least two points are
    not hubs."""
    w = np.ones((n, n))
    rest = np.setdiff1d(np.arange(n), hubs)
    for hub, weight in zip(hubs, (0.4, 0.3)):
        w[hub, rest] = w[rest, hub] = weight
    w[np.ix_(hubs, hubs)] = 0.5
    return w


HUBS = {
    "first": lambda n: [0],
    "consecutive": lambda n: [n // 2, n // 2 + 1],
    "last": lambda n: [n - 1],
}


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
@pytest.mark.parametrize("hubs", HUBS)
@pytest.mark.parametrize("narrow", [False, True])
def test_only_the_pivots_that_change_a_cell_are_applied(n, hubs, narrow):
    hubs = [k for k in HUBS[hubs](n) if k < n]
    w = hub_weights(n, hubs)
    assert changing_pivots(w) == (hubs if n - len(hubs) >= 2 else [])
    cells = narrow_windows(n) if narrow else metric_core.ROW_BLOCK_CELLS
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        got = ShortestPaths(w).matrix()
    assert same_bits(got, metric_reference.shortest_paths_by_scipy(w))


def ties_and_zeros(rng: np.random.Generator, shape) -> np.ndarray:
    """Nonnegative entries on a grid of quarters, about a tenth of them 0."""
    return np.where(rng.random(shape) < 0.1, 0.0, rng.integers(1, 8, shape) * 0.25)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([33, 40]),
    queries=st.integers(1, 12),
    cells=st.sampled_from([1, metric_core.ROW_BLOCK_CELLS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reads_and_queries_of_one_solve(n, queries, cells, seed):
    # A partial last block; ties and zeros in the weights, the query rows
    # and the direct edges.  One cell splits every chunk of pivot blocks,
    # of queries and of live query triples down to one.
    rng = np.random.default_rng(seed)
    w = ties_and_zeros(rng, (n, n))
    rows_p, rows_q = ties_and_zeros(rng, (2, queries, n))
    direct = ties_and_zeros(rng, queries) * 4
    with mock.patch.object(metric_core, "ROW_BLOCK_CELLS", cells):
        paths = ShortestPaths(w)
        got = direct.copy()
        for part in paths.query_chunks(queries):
            paths.lower(got[part], rows_p[part], rows_q[part])
    want = metric_reference.shortest_paths_by_scipy(w)
    assert len(paths) == n
    assert same_bits(paths.matrix(), want)
    assert same_bits(paths.cells(np.arange(n)[:, None], np.arange(n)), want)
    assert all(same_bits(paths.cells(i, j), want[i, j]) for i, j in [(0, n - 1), (n - 1, 5)])
    # The rows are in the solve's vertex order, so D is too.
    d = paths.matrix()[np.ix_(paths.order, paths.order)]
    through = ((rows_p[:, :, None] + d) + rows_q[:, None, :]).min(axis=(1, 2))
    assert same_bits(got, np.minimum(direct, through))


def padding_cells(d: np.ndarray, n: int) -> np.ndarray:
    """The cells of blocks ``d`` whose row or column is past the last of
    ``n`` vertices."""
    nb, _, b, _ = d.shape
    past = np.arange(nb * b).reshape(nb, b) >= n
    return d[past[:, None, :, None] | past[None, :, None, :]]


@pytest.mark.parametrize("n", [33, 40])
def test_the_padding_of_the_blocks_is_inf(n):
    # The last block row is short, so its padded rows must not keep the
    # rows of the block row before it.
    w = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
    assert np.all(padding_cells(ShortestPaths(w)._blocks, n) == np.inf)


def test_an_empty_matrix_has_no_paths():
    assert ShortestPaths(np.zeros((0, 0))).matrix().shape == (0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, -1.0])
@pytest.mark.parametrize("cell", [(0, 1), (2, 2)])
def test_a_bad_entry_raises_an_invariant_error(bad, cell):
    w = np.ones((3, 3))
    w[cell] = bad
    with pytest.raises(InvariantError, match="finite nonnegative"):
        ShortestPaths(w)


def chain_sample(space: dict, times, max_bases=None):
    """A torus model and the chain sample of its base points at ``times``,
    the first ``max_bases`` of them as chain-sandwich picks them."""
    model = build_model(ModelSpec.from_dict(space))
    if max_bases is None:
        points = model.torus.base_space.points
        return model, [TorusPoint(b, float(t)) for b in points for t in times]
    check = {"name": "chain-sandwich", "max_bases": max_bases, "times": times}
    return model, cli._chain_sample(model, check)


SAMPLES = {
    # The chain-sandwich of the padic-orbit benchmark workload: 512 points.
    "padic-orbit": (
        {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 10}},
        [0.0, 0.25, 0.5, 0.75], 128,
    ),
    # The chain export of the torus-export benchmark workload: 512 points.
    "torus-export": (
        {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 7}},
        [0.0, 0.25, 0.5, 0.75], None,
    ),
    "full-shift-ratio-0.3": (
        {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.3, "max_period": 6}},
        [0.0, 0.3, 0.7], None,
    ),
    "padic-prime-3": (
        {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 4}},
        [0.0, 0.2, 0.45, 0.8], None,
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_chain_tables_equal_scipy_floyd_warshall(name):
    space, times, max_bases = SAMPLES[name]
    model, sample = chain_sample(space, times, max_bases)
    table = ChainMetricTable(model.torus, sample)
    edges = representative_distance_matrix(model.torus, table.sample)
    want = metric_reference.shortest_paths_by_scipy(edges)
    assert same_bits(table.distance_matrix(), want)


def test_a_chain_table_pads_its_blocks_with_inf():
    # 54 points: the 3^3 ring at two times, two blocks, the second short.
    model, sample = chain_sample(
        {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 3}}, [0.0, 0.5]
    )
    table = ChainMetricTable(model.torus, sample)
    assert len(table) == 54
    assert np.all(padding_cells(table._paths._blocks, len(table)) == np.inf)
