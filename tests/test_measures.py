"""Product measures on sequence space, ball measures, and regularity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measures_reference
from cli_reference import draw_cylinders_by_choice
from solenoidlab import (
    Alphabet,
    CylinderSet,
    InvalidInputError,
    OutOfRegimeError,
    PeriodicSequence,
    TorusPoint,
    WeightVector,
    ahlfors_check,
    base_ball_measure,
    build_full_shift,
    build_padic_cycle,
    cylinder_measure,
    doubling_check,
    shift_invariance_check,
)
from solenoidlab import cli, measures

BITS = Alphabet(("0", "1"))
UNIFORM = WeightVector.uniform(BITS)
ZEROS = PeriodicSequence.from_cells(BITS, "0")


@pytest.fixture(scope="module")
def shift_torus():
    _, _, ts = build_full_shift(2, 0.5, 4)
    return ts


def test_weight_vector_construction():
    assert UNIFORM.of("0") == 0.5
    assert UNIFORM.minimum() == 0.5
    skew = WeightVector.from_dict(BITS, {"0": 0.75, "1": 0.25})
    assert skew.of("1") == 0.25
    assert skew.minimum() == 0.25
    with pytest.raises(InvalidInputError):
        WeightVector.from_dict(BITS, {"0": 0.75, "1": 0.75})
    with pytest.raises(InvalidInputError):
        WeightVector.from_dict(BITS, {"0": 1.25, "1": -0.25})
    with pytest.raises(InvalidInputError):
        WeightVector.from_dict(BITS, {"0": 1.0})


@pytest.mark.parametrize("values", [
    (math.nan, math.nan), (math.nan, 1.0), (math.inf, -math.inf), (0.5, math.nan),
])
def test_weight_vector_refuses_non_finite_weights(values):
    with pytest.raises(InvalidInputError, match="non-finite"):
        WeightVector(BITS, values)


def test_cylinder_measure_is_a_product():
    cyl = CylinderSet.from_dict(BITS, {0: "0", 3: "1", -2: "0"})
    assert cylinder_measure(cyl, UNIFORM) == 0.125
    skew = WeightVector.from_dict(BITS, {"0": 0.75, "1": 0.25})
    assert cylinder_measure(cyl, skew) == pytest.approx(0.75 * 0.25 * 0.75)
    empty = CylinderSet.from_dict(BITS, {})
    assert cylinder_measure(empty, UNIFORM) == 1.0
    with pytest.raises(InvalidInputError):
        CylinderSet.from_dict(BITS, {0: "2"})


def test_cylinder_ball_window():
    cyl = CylinderSet.ball(ZEROS, 2)
    assert [j for j, _ in cyl.constraints] == [-1, 0, 1, 2]
    assert all(s == "0" for _, s in cyl.constraints)
    assert CylinderSet.ball(ZEROS, 0).constraints == ()


def test_cylinder_shift_moves_constraints():
    cyl = CylinderSet.from_dict(BITS, {0: "1", 2: "0"})
    moved = cyl.shifted(3)
    assert dict(moved.constraints) == {3: "1", 5: "0"}
    assert cylinder_measure(moved, UNIFORM) == cylinder_measure(cyl, UNIFORM)


def test_shift_invariance_exactly_zero():
    rng = np.random.RandomState(41)
    cylinders = []
    for _ in range(100):
        size = rng.randint(1, 5)
        idx = rng.choice(np.arange(-6, 7), size=size, replace=False)
        cylinders.append(
            CylinderSet.from_dict(
                BITS, {int(j): str(rng.randint(2)) for j in idx}
            )
        )
    assert shift_invariance_check(UNIFORM, cylinders) == 0.0
    skew = WeightVector.from_dict(BITS, {"0": 0.6, "1": 0.4})
    assert shift_invariance_check(skew, cylinders) == 0.0


@pytest.mark.parametrize("index", [2**63 - 1, 2**63, 10**20, -(2**63) - 1])
def test_cylinders_pin_indices_of_any_size(index):
    # Positions stored as int64 overflowed here; the measure reads only the
    # symbols.
    cyl = CylinderSet.from_dict(BITS, {index: "0", 0: "1"})
    assert cylinder_measure(cyl, UNIFORM) == 0.25
    assert cylinder_measure(CylinderSet.from_dict(BITS, {index: "0"}), UNIFORM) == 0.5
    assert shift_invariance_check(UNIFORM, [cyl]) == 0.0


def test_cylinder_measures_equal_the_scalar_products():
    # Long cylinders over many symbols with uneven weights: a different
    # product order would round differently somewhere among these.
    rng = np.random.RandomState(5)
    symbols = tuple(f"s{k}" for k in range(7))
    alphabet = Alphabet(symbols)
    raw = rng.rand(7)
    w = WeightVector(alphabet, tuple(raw / raw.sum()))
    cylinders = [CylinderSet(alphabet, ())]
    for _ in range(300):
        idx = rng.choice(np.arange(-20, 21), size=rng.randint(1, 30), replace=False)
        cylinders.append(
            CylinderSet.from_dict(
                alphabet, {int(j): symbols[rng.randint(7)] for j in idx}
            )
        )
    want = np.array([cylinder_measure(c, w) for c in cylinders])
    arrays = measures._as_arrays(cylinders, w)
    assert measures._cylinder_measures(arrays, w).tobytes() == want.tobytes()
    assert shift_invariance_check(w, cylinders) == 0.0
    assert shift_invariance_check(w, []) == 0.0
    with pytest.raises(InvalidInputError):
        shift_invariance_check(UNIFORM, cylinders)


#: Weights small enough that a product of a few goes subnormal or to 0.
TINY_WEIGHTS = [1e-100, 1e-160, 1e-200, 1e-310, 5e-324, 0.0]


@st.composite
def weight_vectors(draw, alphabet):
    """Uniform weights, or skewed ones of which some may be tiny, with the
    last symbol's weight making up the sum."""
    k = len(alphabet)
    kind = draw(st.sampled_from(["uniform", "skewed", "tiny"]))
    if kind == "uniform":
        return WeightVector.uniform(alphabet)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    values = [x / sum(raw) for x in raw]
    if kind == "tiny":
        for i in draw(st.sets(st.integers(0, k - 2), min_size=1)):
            values[i] = draw(st.sampled_from(TINY_WEIGHTS))
    values[-1] += 1.0 - sum(values)
    return WeightVector(alphabet, tuple(values))


@st.composite
def weighted_cylinders(draw):
    """The torus of a full shift over 2 to 36 symbols (for its ratio 1/2),
    weights over its symbols, cylinders of 0 to 8 pins, and balls of depth 0
    to 4 (up to 8 pins) around periodic points."""
    ts = build_full_shift(draw(st.integers(2, 36)), 0.5, 1)[2]
    alphabet = ts.base_space.points[0].alphabet
    w = draw(weight_vectors(alphabet))
    symbol = st.sampled_from(alphabet.symbols)
    pins = st.dictionaries(st.integers(-40, 40), symbol, max_size=8)
    cylinders = [
        CylinderSet.from_dict(alphabet, d) for d in draw(st.lists(pins, max_size=20))
    ]
    centers = draw(st.lists(st.lists(symbol, min_size=1, max_size=6), max_size=4))
    balls = [
        (PeriodicSequence.from_cells(alphabet, cells), draw(st.integers(0, 4)))
        for cells in centers
    ]
    return ts, w, cylinders, balls


def measure_bytes(cylinders, w):
    """The reference loop's measures, as the kernel's array bytes."""
    return np.array(
        [measures_reference.cylinder_measure(c, w) for c in cylinders], dtype=float
    ).tobytes()


@settings(max_examples=200, deadline=None)
@given(family=weighted_cylinders(), seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
def test_cylinder_kernel_equals_the_reference_loop(family, seed, count):
    ts, w, cylinders, balls = family
    cylinders = cylinders + [CylinderSet.ball(center, n) for center, n in balls]
    arrays = measures._as_arrays(cylinders, w)
    assert measures._cylinder_measures(arrays, w).tobytes() == measure_bytes(cylinders, w)
    for cyl in cylinders:
        assert repr(cylinder_measure(cyl, w)) == repr(measures_reference.cylinder_measure(cyl, w))
    assert repr(shift_invariance_check(w, cylinders)) == repr(
        measures_reference.shift_invariance_check(w, cylinders)
    )
    for center, n in balls:
        r = 0.5 ** n
        assert repr(base_ball_measure(center, r, 0.5, w)) == repr(
            measures_reference.base_ball_measure(center, r, 0.5, w)
        )
    # The ball views write their balls into the arrays from the centers' cells.
    samples = [TorusPoint(center, 0.25) for center, _ in balls]
    radii = [0.5 ** n for n in range(1, 5)]
    for mode in ("base", "torus") if samples else ():
        want = [[measures_reference.ball_measure(p, r, 0.5, ts, w, mode) for r in radii]
                for p in samples]
        got = measures._ball_measures(samples, radii, ts, w, mode)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
    # The check's drawn arrays measure what the first draw's cylinders did.
    drawn = cli._draw_cylinders(w.alphabet, count, np.random.RandomState(seed))
    first = draw_cylinders_by_choice(w.alphabet, count, np.random.RandomState(seed))
    assert measures._cylinder_measures(drawn, w).tobytes() == measure_bytes(first, w)
    assert shift_invariance_check(w, drawn) == 0.0


def test_base_ball_measure_dyadic_radii():
    for n in range(0, 7):
        assert base_ball_measure(ZEROS, 0.5 ** n, 0.5, UNIFORM) == 0.5 ** (2 * n)
    # intermediate radii round the window up to the next depth
    assert base_ball_measure(ZEROS, 0.3, 0.5, UNIFORM) == 0.5 ** 4
    assert base_ball_measure(ZEROS, 1.0, 0.5, UNIFORM) == 1.0
    with pytest.raises(InvalidInputError):
        base_ball_measure(ZEROS, 0.0, 0.5, UNIFORM)


def test_base_ball_measure_skewed_center():
    ones = PeriodicSequence.from_cells(BITS, "1")
    skew = WeightVector.from_dict(BITS, {"0": 0.75, "1": 0.25})
    assert base_ball_measure(ones, 0.5, 0.5, skew) == pytest.approx(0.25 ** 2)
    assert base_ball_measure(ZEROS, 0.5, 0.5, skew) == pytest.approx(0.75 ** 2)


def test_torus_ball_measure_values(shift_torus):
    p = TorusPoint(ZEROS, 0.5)
    assert measures._ball_measures([p], [0.25], shift_torus, UNIFORM, "torus")[0, 0] == 1 / 32
    assert measures._ball_measures([p], [0.5], shift_torus, UNIFORM, "torus")[0, 0] == 1 / 4
    for r in (0.0, 0.6, -0.1):
        with pytest.raises(OutOfRegimeError):
            measures._ball_measures([p], [r], shift_torus, UNIFORM, "torus")


def test_torus_ball_measure_needs_sequence_base():
    _, _, padic = build_padic_cycle(2, 2)
    with pytest.raises(InvalidInputError):
        measures._ball_measures([TorusPoint(0, 0.5)], [0.25], padic, UNIFORM, "torus")


def test_ahlfors_base_band_is_tight(shift_torus):
    samples = [TorusPoint(b, 0.0) for b in shift_torus.base_space.points[:4]]
    radii = [0.5 ** k for k in range(1, 6)]
    band = ahlfors_check(samples, radii, 2.0, shift_torus, UNIFORM, mode="base")
    assert band.c_low == 1.0
    assert band.c_high == 1.0
    assert band.fitted_exponent == pytest.approx(2.0)


@pytest.mark.parametrize("mode", ["base", "torus"])
def test_a_fit_of_rank_below_two_gives_no_slope(mode):
    # Both radii give the same ball.  The fit used to warn that it was
    # poorly conditioned and report a slope (1.0000000000000002 in base mode).
    _, _, ts = build_full_shift(2, 0.5, 6)
    samples = [TorusPoint(b, 0.25) for b in ts.base_space.points[:8]]
    radii = [0.25, math.nextafter(0.25, 1.0)]
    band = ahlfors_check(samples, radii, 2.0, ts, UNIFORM, mode)
    assert math.isnan(band.fitted_exponent) and band.c_low > 0
    want = measures_reference.ahlfors_check(samples, radii, 2.0, ts, UNIFORM, mode)
    assert math.isnan(want.fitted_exponent)


def test_ahlfors_torus_band(shift_torus):
    samples = [
        TorusPoint(b, t)
        for b in shift_torus.base_space.points[:4]
        for t in (0.0, 0.5)
    ]
    radii = [0.5 ** k for k in range(1, 6)]
    band = ahlfors_check(samples, radii, 3.0, shift_torus, UNIFORM, mode="torus")
    assert band.c_low == 2.0
    assert band.c_high == 2.0
    assert band.fitted_exponent == pytest.approx(3.0)
    with pytest.raises(InvalidInputError):
        ahlfors_check(samples, radii, 3.0, shift_torus, UNIFORM, mode="nope")


def test_ahlfors_rejects_degenerate_weights(shift_torus):
    samples = [TorusPoint(ZEROS, 0.0)]
    radii = [0.25, 0.125]
    dead = WeightVector(BITS, (1.0, 0.0))
    with pytest.raises(InvalidInputError):
        ahlfors_check(samples, radii, 3.0, shift_torus, dead, mode="torus")


def test_doubling_constant(shift_torus):
    samples = [TorusPoint(b, 0.25) for b in shift_torus.base_space.points[:4]]
    radii = [0.25, 0.125, 0.0625]
    # window one depth shallower (x4) and time slice twice as wide (x2)
    assert doubling_check(samples, radii, shift_torus, UNIFORM) == 8.0
    assert (
        doubling_check(samples, [0.25, 0.125], shift_torus, UNIFORM, mode="base")
        == 4.0
    )


def test_doubling_radius_regime(shift_torus):
    samples = [TorusPoint(ZEROS, 0.25)]
    with pytest.raises(OutOfRegimeError):
        # doubling 0.3 leaves the torus ball regime (0, 1/2]
        doubling_check(samples, [0.3], shift_torus, UNIFORM)


@pytest.mark.parametrize("ratio, max_period", [(0.5, 9), (0.1, 6), (1 / 3, 6), (0.3, 9), (0.7, 9)])
def test_balls_hold_the_points_within_their_radius(ratio, max_period):
    # One ulp on either side of every distance the space attains: the ball
    # of depth _ball_depth(r) is the points of depth at least that, and it
    # must be the points the space puts within r.
    space, _, _ = build_full_shift(2, ratio, max_period)
    depths = space.levels.table(space.levels.exponents, len(space))
    for d in np.unique(space.matrix)[1:].tolist():
        for r in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0)):
            n = measures._ball_depth(float(r), ratio)
            assert ratio ** n <= r and (n == 0 or ratio ** (n - 1) > r)
            for i in range(0, len(space), 37):
                within = space.distances(i, slice(None)) <= r
                assert np.array_equal(depths[i] >= n, within), (d, r, i)
    # The cylinder of that depth pins exactly the window the depths count.
    center = space.points[5]
    for n in range(max_period // 2 + 1):
        ball = CylinderSet.ball(center, n)
        pinned = [all(y.value_at(j) == s for j, s in ball.constraints) for y in space.points]
        assert pinned == (depths[5] >= n).tolist()


def test_ball_depth_has_no_guard_below_a_power():
    # 0.5 ** 2 > r, so the ball of radius r is one depth deeper than 1/4's.
    assert measures._ball_depth(0.25 * (1 - 1e-10), 0.5) == 3
    assert measures._ball_depth(0.25, 0.5) == 2
    assert measures._ball_depth(1.0, 0.5) == measures._ball_depth(7.5, 0.5) == 0
    with pytest.raises(InvalidInputError, match="ratio"):
        base_ball_measure(ZEROS, 0.25, 1.0, UNIFORM)


@pytest.mark.parametrize("radius", [1.0, 7.5, 1e308, math.inf])
def test_a_ball_of_radius_one_or_more_is_the_whole_space(radius):
    assert measures._ball_depth(radius, 0.5) == 0
    assert base_ball_measure(ZEROS, radius, 0.5, UNIFORM) == 1.0


def test_a_nan_radius_is_refused_as_not_positive():
    with pytest.raises(InvalidInputError, match="radius must be positive, got nan"):
        base_ball_measure(ZEROS, math.nan, 0.5, UNIFORM)


def outcome(call):
    """What ``call()`` gives: its value's repr, or its error's type and text."""
    try:
        return "value", repr(call())
    except Exception as e:  # noqa: BLE001 - the error is the outcome compared
        return "error", type(e), str(e)


@st.composite
def ball_families(draw):
    """A small full shift's torus with normalised weights, and samples and
    radii; in half the families these now and then hold a fault: a time off
    [0, 1), a base that is not a sequence or not over the weights' alphabet,
    a radius <= 0 or beyond 1/2."""
    k = draw(st.integers(2, 5))
    ratio = draw(st.sampled_from([0.5, 0.1, 0.3, 1 / 3, 0.7]) | st.floats(0.05, 0.8))
    max_period = draw(st.integers(1, max(p for p in range(1, 7) if k ** p <= 64)))
    _, _, ts = build_full_shift(k, ratio, max_period)
    points = ts.base_space.points
    alphabet = points[0].alphabet
    raw = draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))
    w = WeightVector(alphabet, tuple(x / sum(raw) for x in raw))
    other = PeriodicSequence.from_cells(Alphabet(alphabet.symbols + ("z",)), "z")
    faults = draw(st.booleans())
    base = st.sampled_from(points)
    time = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    if faults:
        base |= st.sampled_from([0, other])
        time |= st.sampled_from([1.0, -0.25])
    samples = draw(st.lists(st.builds(TorusPoint, base, time), min_size=1, max_size=4))
    level = st.builds(
        lambda n, side: float(np.nextafter(ratio ** n, side)) if side else ratio ** n,
        st.integers(0, 6), st.sampled_from([None, 0.0, 1.0]),
    )
    radius = level | st.floats(1e-3, 0.5)
    if faults:
        radius |= st.sampled_from([0.0, -0.1, 0.6, 1.5])
    radii = draw(st.lists(radius, min_size=1, max_size=4))
    return ts, w, samples, radii


@settings(max_examples=300, deadline=None)
@given(
    family=ball_families(),
    mode=st.sampled_from(["base", "torus"]),
    dim=st.floats(0.5, 4.0),
    padic=st.sampled_from([False] * 4 + [True]),
)
def test_measure_views_equal_the_per_ball_loops(family, mode, dim, padic):
    ts, w, samples, radii = family
    if padic:  # not a shift model: every view but the base ball refuses it
        ts = build_padic_cycle(2, 3)[2]
    ratio = ts.base_space.power_base
    for p in samples:
        if isinstance(p.base, PeriodicSequence):
            cyl = CylinderSet.ball(p.base, len(radii))
            assert outcome(lambda: cylinder_measure(cyl, w)) == outcome(
                lambda: measures_reference.cylinder_measure(cyl, w)
            )
        for r in radii:
            assert outcome(lambda: base_ball_measure(p.base, r, ratio, w)) == outcome(
                lambda: measures_reference.base_ball_measure(p.base, r, ratio, w)
            )
            assert outcome(
                lambda: float(measures._ball_measures([p], [r], ts, w, "torus")[0, 0])
            ) == outcome(lambda: measures_reference.torus_ball_measure(p, r, ts, w))
    assert outcome(lambda: ahlfors_check(samples, radii, dim, ts, w, mode)) == outcome(
        lambda: measures_reference.ahlfors_check(samples, radii, dim, ts, w, mode)
    )
    assert outcome(lambda: doubling_check(samples, radii, ts, w, mode)) == outcome(
        lambda: measures_reference.doubling_check(samples, radii, ts, w, mode)
    )


def test_each_view_multiplies_weights_in_one_kernel_call(monkeypatch, shift_torus):
    calls = []
    kernel = measures._cylinder_measures

    def counting(cylinders, w):
        calls.append(len(cylinders))
        return kernel(cylinders, w)

    monkeypatch.setattr(measures, "_cylinder_measures", counting)
    samples = [TorusPoint(b, 0.25) for b in shift_torus.base_space.points[:3]]
    radii = [0.25, 0.125]
    cylinder_measure(CylinderSet.ball(ZEROS, 2), UNIFORM)
    base_ball_measure(ZEROS, 0.25, 0.5, UNIFORM)
    measures._ball_measures([samples[0]], [0.25], shift_torus, UNIFORM, "torus")
    for mode in ("base", "torus"):
        ahlfors_check(samples, radii, 2.0, shift_torus, UNIFORM, mode)
        doubling_check(samples, radii, shift_torus, UNIFORM, mode)
    # One call per view: every ball of a family, and both radii of each
    # doubling pair, go through the same call.
    assert calls == [1, 1, 1, 6, 12, 6, 12]

