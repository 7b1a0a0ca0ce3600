"""The distance gather of the power models, held bit for bit to the eager
builds, and the checks that read it without building N x N tables.

``models_reference`` keeps the eager builders: spaces handed levels read
off their whole exponent table.  The lazy spaces gather distances from O(N)
data until a scan or an export reads ``matrix``; a patched
``PowerLevels.table`` counts those builds.
"""

import contextlib
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_reference
import mapping_torus_reference as ref
import metric_reference
import models_reference
from solenoidlab import (
    InvalidInputError,
    build_full_shift,
    build_model,
    build_padic_cycle,
    build_two_fixed_points,
    canonicalize,
    cli,
    dist_to_integers,
    distances_to_integers,
    flow_law_failures,
    metric_core,
    snowflake,
    torus_points_close,
)
from solenoidlab.models import ModelSpec

SRC = pathlib.Path(cli.__file__).resolve().parents[1]

#: (lazy builder, eager builder), each called with no arguments.
MODELS = [
    *[
        (lambda a=a, r=r, p=p: build_full_shift(a, r, p)[0],
         lambda a=a, r=r, p=p: models_reference.full_shift_space_eager(a, r, p))
        for a, r, p in [(2, 0.5, 1), (2, 0.3, 4), (2, 0.5, 6), (3, 0.3, 2), (3, 0.5, 3)]
    ],
    *[
        (lambda p=p, d=d: build_padic_cycle(p, d)[0],
         lambda p=p, d=d: models_reference.padic_space_eager(p, d))
        for p, d in [(2, 1), (2, 6), (3, 3), (5, 2)]
    ],
    (lambda: build_two_fixed_points()[0], models_reference.two_fixed_points_eager),
]


@contextlib.contextmanager
def counting_table_builds():
    """The sizes of the N x N tables built meanwhile from the library's
    levels; the eager references' own builds, from the levels of
    ``metric_reference.table_levels``, are not counted."""
    calls = []
    original = metric_core.PowerLevels.table

    def counted(levels, values, n):
        if levels.of.__module__ != metric_reference.__name__:
            calls.append(n)
        return original(levels, values, n)

    with mock.patch.object(metric_core.PowerLevels, "table", counted):
        yield calls


@pytest.fixture
def table_builds():
    with counting_table_builds() as calls:
        yield calls


@st.composite
def index_pairs(draw, n):
    """Index arrays that broadcast: all pairs (A, 1) by (1, B), paired (K,)
    with the diagonal mixed in, or two plain integers; or a slice of
    columns with an integer, a slice or a 1-D index array of rows."""
    ints = st.integers(0, n - 1)
    shape = draw(st.sampled_from(["all", "paired", "scalar", "sliced"]))
    if shape == "scalar":
        i = draw(ints)
        return i, draw(st.sampled_from([i, draw(ints)]))
    if shape == "sliced":
        bounds = st.none() | st.integers(-n - 1, n + 1)
        cols = slice(draw(bounds), draw(bounds), draw(st.none() | st.sampled_from([1, 2, -1])))
        rows = draw(st.one_of(
            ints,
            st.builds(slice, bounds, bounds),
            st.lists(ints, max_size=12).map(lambda r: np.array(r, dtype=np.intp)),
        ))
        return rows, cols
    rows = np.array(draw(st.lists(ints, min_size=1, max_size=12)), dtype=np.intp)
    if shape == "all":
        cols = np.array(draw(st.lists(ints, min_size=1, max_size=12)), dtype=np.intp)
        return rows[:, None], cols[None, :]
    cols = rows.copy()
    for k in draw(st.sets(st.integers(0, len(rows) - 1))):
        cols[k] = draw(ints)
    return rows, cols


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(MODELS), data=st.data())
def test_gather_and_lazy_tables_equal_the_eager_build(model, data):
    lazy_build, eager_build = model
    with counting_table_builds() as table_builds:
        _hold_lazy_to_eager(lazy_build(), eager_build(), data, table_builds)


def _hold_lazy_to_eager(lazy, eager, data, table_builds):
    assert lazy.points == eager.points
    n = len(lazy)
    for _ in range(3):
        rows, cols = data.draw(index_pairs(n))
        _same(lazy.distances(rows, cols), eager.matrix[rows, cols])
    p, q = (lazy.points[data.draw(st.integers(0, n - 1))] for _ in range(2))
    for x, y in ((p, q), (p, p)):
        assert repr(lazy.dist(x, y)) == repr(eager.dist(x, y))
        assert repr(lazy.dist_exponent(x, y)) == repr(eager.dist_exponent(x, y))
    assert repr(lazy.diameter()) == repr(eager.diameter())
    flake = data.draw(st.sampled_from([0.3, 0.5, 2.0]))
    lazy_flake, eager_flake = snowflake(lazy, flake), snowflake(eager, flake)
    assert lazy_flake.levels is lazy.levels
    assert repr(lazy_flake.diameter()) == repr(eager_flake.diameter())
    rows, cols = data.draw(index_pairs(n))
    _same(lazy_flake.distances(rows, cols), eager_flake.matrix[rows, cols])
    # Nothing above built a table of the closed-form spaces.
    assert table_builds == []
    assert _exponent_table(lazy).tobytes() == _exponent_table(eager).tobytes()
    assert lazy.matrix.tobytes() == eager.matrix.tobytes()
    assert lazy_flake.matrix.tobytes() == eager_flake.matrix.tobytes()
    # Once built, the gather reads the matrix.
    rows, cols = data.draw(index_pairs(n))
    _same(lazy.distances(rows, cols), eager.matrix[rows, cols])


def _exponent_table(space):
    return space.levels.table(space.levels.exponents, len(space))


def _same(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _run(tmp_path, space, checks):
    """The report of a ``run`` of ``checks`` on ``space``, seed 3."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"space": space, "seed": 3, "checks": checks}))
    out = tmp_path / "report.json"
    assert cli.main(["run", str(path), "--out", str(out)]) in (0, 1)
    return json.loads(out.read_text())


PADIC = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 6}}

GATHERED_CHECKS = [
    {"name": "bilipschitz"},
    {"name": "connectedness", "epsilon": 0.25},
    {"name": "dense-orbit", "epsilon": 0.25},
    {"name": "quotient-metric", "pairs": 200},
    {"name": "flow-laws", "triples": 200},
    {"name": "chain-sandwich", "pairs": 50, "max_bases": 8},
]


def test_padic_pair_and_sampling_checks_build_no_table(tmp_path, table_builds):
    report = _run(tmp_path, PADIC, GATHERED_CHECKS)
    assert [r["name"] for r in report["results"]] == [c["name"] for c in GATHERED_CHECKS]
    assert table_builds == []


@pytest.mark.parametrize("checks", [
    [{"name": "metric-axioms"}],
    [{"name": "ultrametric"}],
    [*GATHERED_CHECKS, {"name": "metric-axioms"}],
])
def test_axiom_scans_build_the_table_once(tmp_path, table_builds, checks):
    report = _run(tmp_path, PADIC, checks)
    assert report["results"][-1]["status"] == "pass"
    assert table_builds == [64]


@pytest.mark.parametrize("metric", ["base", "adapted"])
def test_base_and_adapted_exports_build_the_table(tmp_path, table_builds, metric):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"space": PADIC, "export": {"metric": metric}}))
    assert cli.main(["export", str(path), "--out", str(tmp_path / "m.csv")]) == 0
    assert table_builds == [64]


# ============================================================
# flow-laws on index arrays
# ============================================================

class WideFlows(np.random.RandomState):
    """Flow times scaled up, so that rounding breaks the laws."""

    def __init__(self, seed, scale):
        super().__init__(seed)
        self.scale = scale

    def uniform(self, *args, **kwargs):
        return super().uniform(*args, **kwargs) * self.scale


FLOW_MODELS = [
    {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 4}},
    {"kind": "full-shift", "parameters": {"alphabet_size": 3, "ratio": 0.3, "max_period": 2}},
    {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 3}},
    {"kind": "two-fixed-points", "parameters": {}},
]


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(FLOW_MODELS),
    seed=st.integers(0, 2**32 - 1),
    triples=st.integers(0, 300),
    scale=st.sampled_from([1.0, 1.0, 1e13, 1e15, 1e17]),
)
def test_flow_laws_report_equals_the_per_triple_loop(space, seed, triples, scale):
    model = build_model(ModelSpec.from_dict(space))
    check = {"name": "flow-laws", "triples": triples}
    got = cli._check_flow_laws(model, check, 0.0, WideFlows(seed, scale))
    want = cli_reference.check_flow_laws_by_triple(model, check, 0.0, WideFlows(seed, scale))
    assert json.dumps(got) == json.dumps(want)


def test_wide_flows_break_the_laws_as_the_loop_does():
    model = build_model(ModelSpec.from_dict(FLOW_MODELS[2]))
    check = {"name": "flow-laws", "triples": 400}
    got = cli._check_flow_laws(model, check, 0.0, WideFlows(5, 1e15))
    want = cli_reference.check_flow_laws_by_triple(model, check, 0.0, WideFlows(5, 1e15))
    assert got["status"] == "fail" and 0 < got["violations"] < 400
    assert got == want


SEAM_TIMES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-17, -1e-17, 1.0 - 1e-17, 0.5, -0.5, 2.5, 1e300, -1e300]
) | st.floats(-1e6, 1e6, allow_nan=False) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from([(build_padic_cycle, (3, 2)), (build_full_shift, (2, 0.5, 3))]),
    data=st.data(),
    t=SEAM_TIMES,
    u=SEAM_TIMES,
)
def test_canonicalize_and_closeness_equal_the_scalar_steps(model, data, t, u):
    build, args = model
    ts = build(*args)[2]
    x, y = (data.draw(st.sampled_from(ts.base_space.points)) for _ in range(2))
    got = canonicalize(x, t, ts)
    want = ref.canonicalize_by_steps(x, t, ts)
    assert got.base == want.base and repr(got.time) == repr(want.time)
    q = ref.canonicalize_by_steps(y, u, ts)
    for tol in (0.0, 1e-12, 0.25):
        assert torus_points_close(got, q, ts, tol) == ref.points_close_by_steps(got, q, ts, tol)
        assert torus_points_close(got, got, ts, tol)


def test_flow_law_failures_on_no_triples():
    ts = build_padic_cycle(2, 2)[2]
    empty = np.empty(0)
    assert flow_law_failures(ts, np.empty(0, dtype=np.intp), empty, empty, empty).shape == (0,)


@pytest.mark.parametrize("idx, times, flows, match", [
    # On the 8-point ring, index -1 once read as point 7 and index 8 raised
    # an IndexError.
    ([-1], [0.5], [0.3], "base index -1 is out of range"),
    ([8], [0.5], [0.3], "base index 8 is out of range"),
    ([0.0], [0.5], [0.3], "base indices must be integers"),
    ([0], [3.5], [0.3], "time 3.5 is not canonical"),
    ([0], [1.0], [0.3], "time 1.0 is not canonical"),
    # Two indices with one time were broadcast.
    ([0, 1], [0.5], [0.3, 0.3], "not one length"),
    ([0, 1], [0.5, 0.25], [0.3], "not one length"),
    ([0], [0.5], [math.inf], "flow times must be finite"),
    ([0], [0.5], [math.nan], "flow times must be finite"),
])
def test_flow_law_failures_refuse_arrays_of_no_canonical_points(idx, times, flows, match):
    ts = build_padic_cycle(2, 3)[2]
    with pytest.raises(InvalidInputError, match=match):
        flow_law_failures(ts, np.array(idx), np.array(times), np.array(flows), np.zeros(len(flows)))


# ============================================================
# quotient-metric circle distances
# ============================================================

@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.integers(-10, 10).map(lambda k: k + 0.5)
    | st.sampled_from([0.5, -0.5, 1.5, -2.5, 0.49999999999999994, -0.0]),
    min_size=1, max_size=40,
))
def test_array_circle_distance_equals_dist_to_integers(values):
    got = distances_to_integers(np.array(values, dtype=float))
    want = np.array([dist_to_integers(v) for v in values], dtype=float)
    assert got.tobytes() == want.tobytes()


def test_halves_round_to_even_in_both():
    halves = np.arange(-6, 6) + 0.5
    assert distances_to_integers(halves).tolist() == [dist_to_integers(v) for v in halves]
    assert np.round(halves).tolist() == [float(round(v)) for v in halves]


# ============================================================
# Memory
# ============================================================

def test_8192_point_padic_sampling_run_peaks_under_300_mib(tmp_path):
    """The sampling checks on a 2^13 residue ring, run in a child process:
    with both N x N tables built it peaked at 1103 MiB."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "space": {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 13}},
        "seed": 1,
        "checks": [
            {"name": "quotient-metric", "pairs": 1000},
            {"name": "flow-laws", "triples": 1000},
            {"name": "chain-sandwich", "pairs": 500, "max_bases": 128},
        ],
    }))
    script = (
        "import resource, sys\n"
        "from solenoidlab import cli\n"
        f"code = cli.main(['run', {str(config)!r}, '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib / 1024 < 300, f"peaked at {peak_kib / 1024:.0f} MiB"
