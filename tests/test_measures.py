"""Product measures on sequence space, ball measures, and regularity checks."""

import math

import numpy as np
import pytest

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
    torus_ball_measure,
)
from solenoidlab import measures

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
    assert measures._cylinder_measures(cylinders, w).tobytes() == want.tobytes()
    assert shift_invariance_check(w, cylinders) == 0.0
    assert shift_invariance_check(w, []) == 0.0
    with pytest.raises(InvalidInputError):
        shift_invariance_check(UNIFORM, cylinders)


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
    assert torus_ball_measure(p, 0.25, shift_torus, UNIFORM) == 1 / 32
    assert torus_ball_measure(p, 0.5, shift_torus, UNIFORM) == 1 / 4
    for r in (0.0, 0.6, -0.1):
        with pytest.raises(OutOfRegimeError):
            torus_ball_measure(p, r, shift_torus, UNIFORM)


def test_torus_ball_measure_needs_sequence_base():
    _, _, padic = build_padic_cycle(2, 2)
    with pytest.raises(InvalidInputError):
        torus_ball_measure(TorusPoint(0, 0.5), 0.25, padic, UNIFORM)


def test_ahlfors_base_band_is_tight(shift_torus):
    samples = [TorusPoint(b, 0.0) for b in shift_torus.base_space.points[:4]]
    radii = [0.5 ** k for k in range(1, 6)]
    band = ahlfors_check(samples, radii, 2.0, shift_torus, UNIFORM, mode="base")
    assert band.c_low == 1.0
    assert band.c_high == 1.0
    assert band.fitted_exponent == pytest.approx(2.0)


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
