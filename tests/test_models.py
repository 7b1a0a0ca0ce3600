"""The four prebuilt model families and their declarative specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models_reference
from shift_space_reference import shift
from solenoidlab import (
    InvalidInputError,
    ModelSpec,
    PeriodicSequence,
    TorusPoint,
    build_full_shift,
    build_model,
    build_padic_cycle,
    build_snowflake_interval,
    build_two_fixed_points,
    point_label,
    verify_metric_axioms,
    verify_ultrametric,
)
from solenoidlab import models
from solenoidlab.dynamics import estimate_bilipschitz_constant, index_cycles


def test_full_shift_build():
    space, mapping, ts = build_full_shift(2, 0.5, 4)
    assert len(space) == 16
    assert space.power_base == 0.5
    assert space.diameter() == 1.0
    assert verify_ultrametric(space).is_ultrametric
    assert all(mapping(p) == shift(p, 1) for p in space.points)
    assert ts.lipschitz_constant == 2.0
    assert ts.diameter_bound == 1.0
    wide, _, _ = build_full_shift(3, 1 / 3, 2)
    assert len(wide) == 9
    assert wide.diameter() == 1.0


def test_full_shift_validation():
    with pytest.raises(InvalidInputError):
        build_full_shift(1, 0.5, 4)
    with pytest.raises(InvalidInputError):
        build_full_shift(2, 1.5, 4)
    with pytest.raises(InvalidInputError):
        build_full_shift(2, 0.5, 0)
    with pytest.raises(InvalidInputError):
        build_full_shift(40, 0.5, 1)  # symbol table holds 36 tokens
    # 1 / 1e-310 overflows: the refusal names the ratio, not the constant.
    with pytest.raises(InvalidInputError, match=r"^ratio .* 1/ratio finite, got 1e-310$"):
        build_full_shift(2, 1e-310, 4)


@pytest.mark.parametrize("args, message", [
    ((1, 1.0, 99), "^alphabet size must be between 2 and 36, got 1$"),
    ((2, 1.0, 99), r"^ratio must lie in \(0, 1\) with 1/ratio finite, got 1.0$"),
    ((2, 1e-200, 99), "exceeds the limit of 16384$"),
    ((2, 1e-200, 6), "underflows to 0$"),
])
def test_full_shift_checks_alphabet_then_ratio_then_size_then_underflow(args, message):
    with pytest.raises(InvalidInputError, match=message):
        build_full_shift(*args)


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("alphabet_size, max_periods", [(2, range(1, 8)), (3, range(1, 7))])
def test_full_shift_glue_constant_is_the_estimated_distortion(alphabet_size, ratio, max_periods):
    for max_period in max_periods:
        space, mapping, ts = build_full_shift(alphabet_size, ratio, max_period)
        estimate = estimate_bilipschitz_constant(space, mapping).constant
        if max_period >= 3:
            # The float estimate can sit an ulp off: 1.4285714285714288 at
            # ratio 0.7 and max_period 7, where 1/0.7 is 1.4285714285714286.
            assert math.isclose(estimate, ts.lipschitz_constant, rel_tol=1e-12)
        else:
            # Every distinct pair is at distance 1, so the shift is an isometry.
            assert estimate == 1.0


@pytest.mark.parametrize("alphabet_size, max_period", [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (4, 2),
])
def test_full_shift_deepest_agreement_is_half_the_period(alphabet_size, max_period):
    space, _, _ = build_full_shift(alphabet_size, 0.5, max_period)
    exponents = space.levels.table(space.levels.exponents, len(space))
    finite = exponents[np.isfinite(exponents)]
    assert finite.max() == (max_period - 1) // 2


def test_full_shift_refuses_a_ratio_whose_smallest_distance_underflows():
    # At max_period 5 the smallest distance is ratio ** 2: 2^-1074, the
    # least subnormal, for 2^-537, and 2^-1076, which rounds to 0, for 2^-538.
    space, _, _ = build_full_shift(2, 2.0 ** -537, 5)
    assert space.matrix[~np.eye(len(space), dtype=bool)].min() == 2.0 ** -1074
    assert verify_ultrametric(space, 0.0).is_ultrametric
    with pytest.raises(InvalidInputError, match=r"^ratio .* max_period 5: .* ratio \*\* 2,"):
        build_full_shift(2, 2.0 ** -538, 5)
    with pytest.raises(InvalidInputError, match=r"^ratio 1e-200 is too small"):
        build_full_shift(2, 1e-200, 6)
    # At max_period 4 it is 1e-200 itself: a metric space, which the
    # default tolerance of 1e-9 finds not separated.
    space, _, _ = build_full_shift(2, 1e-200, 4)
    assert verify_metric_axioms(space, 0.0).is_metric


def test_padic_cycle_build():
    space, mapping, ts = build_padic_cycle(2, 3)
    assert space.points == tuple(range(8))
    assert space.dist(0, 1) == 1.0
    assert space.dist(0, 2) == 0.5
    assert space.dist(0, 4) == 0.25
    assert space.dist(2, 6) == 0.25
    assert space.dist(3, 7) == 0.25
    assert verify_ultrametric(space).is_ultrametric
    assert mapping(7) == 0
    assert ts.lipschitz_constant == 1.0
    trinary, _, _ = build_padic_cycle(3, 2)
    assert trinary.dist(0, 3) == pytest.approx(1 / 3)
    assert trinary.dist(0, 1) == 1.0


def test_padic_cycle_validation():
    with pytest.raises(InvalidInputError):
        build_padic_cycle(4, 2)
    with pytest.raises(InvalidInputError):
        build_padic_cycle(1, 2)
    with pytest.raises(InvalidInputError):
        build_padic_cycle(2, 0)


@pytest.mark.parametrize("prime", [10**400, 2**61 - 1, 4, 1])
def test_padic_cycle_without_digits_is_refused_before_the_primality_test(prime):
    # A prime past the float range overflowed at ``prime ** 0.5``, and a large
    # one kept the trial division going.
    with pytest.raises(InvalidInputError, match="need at least one digit, got 0"):
        build_padic_cycle(prime, 0)


def test_two_fixed_points_build():
    space, mapping, ts = build_two_fixed_points()
    assert len(space) == 2
    assert space.diameter() == 1.0
    assert all(mapping(p) == p for p in space.points)
    assert ts.lipschitz_constant == 1.0


def test_snowflake_interval_build():
    grid = build_snowflake_interval(16, 1.0)
    assert len(grid) == 17
    assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
    assert grid.dist(0.0, 1.0) == 1.0
    assert verify_metric_axioms(grid).is_metric
    root = build_snowflake_interval(4, 0.5)
    assert root.dist(0.0, 0.25) == 0.5
    with pytest.raises(InvalidInputError):
        build_snowflake_interval(1, 0.5)
    with pytest.raises(InvalidInputError):
        build_snowflake_interval(16, 1.5)
    with pytest.raises(InvalidInputError):
        build_snowflake_interval(16, 0.0)


@pytest.mark.parametrize("grid, alpha", [(3, 0.3), (64, 0.7), (100, 0.5), (512, 0.5)])
def test_snowflake_interval_is_one_python_power_per_gap(grid, alpha):
    space = build_snowflake_interval(grid, alpha)
    n = grid + 1
    want = [[(abs(i - j) / grid) ** alpha for j in range(n)] for i in range(n)]
    assert space.matrix.tolist() == want
    assert space.points == tuple(i / grid for i in range(n))


def test_model_spec_round_trip():
    raw = {
        "kind": "full-shift",
        "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 3},
    }
    spec = ModelSpec.from_dict(raw)
    assert spec.kind == "full-shift"
    assert spec.parameters == {"alphabet_size": 2, "ratio": 0.5, "max_period": 3}
    model = build_model(spec)
    assert len(model.space) == 8
    assert model.space.points[0].alphabet.symbols == ("0", "1")
    assert model.space.power_base == 0.5
    assert model.torus is not None


def test_model_spec_validation():
    with pytest.raises(InvalidInputError):
        ModelSpec.from_dict({"kind": "heptagon", "parameters": {}})
    with pytest.raises(InvalidInputError):
        ModelSpec.from_dict({"kind": "full-shift"})
    with pytest.raises(InvalidInputError):
        ModelSpec.from_dict(
            {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5}}
        )
    with pytest.raises(InvalidInputError):
        ModelSpec.from_dict(
            {
                "kind": "full-shift",
                "parameters": {
                    "alphabet_size": 2,
                    "ratio": 0.5,
                    "max_period": 3,
                    "extra": 1,
                },
            }
        )
    with pytest.raises(InvalidInputError):
        # bool is not an acceptable stand-in for an integer parameter
        ModelSpec.from_dict(
            {
                "kind": "full-shift",
                "parameters": {"alphabet_size": True, "ratio": 0.5, "max_period": 3},
            }
        )
    with pytest.raises(InvalidInputError):
        ModelSpec.from_dict(
            {
                "kind": "full-shift",
                "parameters": {"alphabet_size": 2, "ratio": "half", "max_period": 3},
            }
        )


def test_build_model_all_kinds():
    specs = [
        {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 2}},
        {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 2}},
        {"kind": "two-fixed-points", "parameters": {}},
        {"kind": "snowflake-interval", "parameters": {"grid_size": 8, "alpha": 0.5}},
    ]
    for raw in specs:
        model = build_model(ModelSpec.from_dict(raw))
        assert verify_metric_axioms(model.space).is_metric
    interval = build_model(ModelSpec.from_dict(specs[-1]))
    assert interval.mapping is None and interval.torus is None
    cycle = build_model(ModelSpec.from_dict(specs[1]))
    assert cycle.torus is not None


@pytest.mark.parametrize("parameters, message", [
    (
        {"alphabet_size": 2.0, "ratio": 0.5, "max_period": 3},
        "$.parameters.alphabet_size: 2.0 is not of type 'integer'",
    ),
    (
        {"alphabet_size": 2, "ratio": 0.5},
        "$.parameters: 'max_period' is a required property",
    ),
])
def test_model_spec_errors_name_the_parameter(parameters, message):
    with pytest.raises(InvalidInputError) as caught:
        ModelSpec.from_dict({"kind": "full-shift", "parameters": parameters})
    assert str(caught.value) == message


def test_integer_ratio_accepted_as_float():
    # JSON configs may carry 1 where 1.0 is meant; ints coerce into floats
    spec = ModelSpec.from_dict(
        {"kind": "snowflake-interval", "parameters": {"grid_size": 8, "alpha": 1}}
    )
    model = build_model(spec)
    assert model.space.dist(0.0, 1.0) == 1.0
    # The constructor coerces too, into a copy: the config keeps its int.
    raw = {"grid_size": 8, "alpha": 1}
    direct = ModelSpec("snowflake-interval", raw)
    assert direct.parameters == spec.parameters
    assert type(direct.parameters["alpha"]) is float and type(direct.parameters["grid_size"]) is int
    assert type(raw["alpha"]) is int


def test_point_labels():
    bits = build_full_shift(2, 0.5, 2)[0]
    parity = bits.points[1]
    assert isinstance(parity, PeriodicSequence)
    assert point_label(parity) == parity.to_text()
    assert point_label(TorusPoint(parity, 0.5)) == f"{parity.to_text()}@0.5"
    assert point_label(0.1) == "0.1"
    assert point_label(7) == "7"


@pytest.mark.parametrize("builder, fits, over", [
    (build_padic_cycle, (2, 3), (2, 4)),
    (build_full_shift, (2, 0.5, 3), (2, 0.5, 4)),
    (build_snowflake_interval, (7, 0.5), (8, 0.5)),
])
def test_the_point_ceiling_is_the_largest_model_built(monkeypatch, builder, fits, over):
    monkeypatch.setattr(models, "MAX_DENSE_POINTS", 8)
    built = builder(*fits)
    assert len(built[0] if isinstance(built, tuple) else built) == 8
    with pytest.raises(InvalidInputError, match="exceeds the limit of 8$"):
        builder(*over)


def _assert_same_map(built, space, want):
    """``built`` has the domain, image and cycle table of ``want``, bit for bit."""
    assert built.domain == space.points == want.domain
    assert built.image.dtype == want.image.dtype
    assert built.image.tobytes() == want.image.tobytes()
    for got, ref in zip(index_cycles(space, built), want._cycles):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@st.composite
def full_shift_sizes(draw, most=512):
    """An alphabet size of 2 to 5 and a period giving at most ``most`` points."""
    k = draw(st.integers(2, 5))
    return k, draw(st.integers(1, max(p for p in range(1, 10) if k ** p <= most)))


@settings(max_examples=60, deadline=None)
@given(size=full_shift_sizes())
def test_the_full_shift_image_is_the_tabulated_shift(size):
    alphabet_size, max_period = size
    space, mapping, _ = build_full_shift(alphabet_size, 0.5, max_period)
    _assert_same_map(
        mapping, space, models_reference.full_shift_map_by_lookup(alphabet_size, max_period)
    )


@settings(max_examples=60, deadline=None)
@given(prime=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), data=st.data())
def test_the_padic_image_is_the_tabulated_translation(prime, data):
    digits = data.draw(st.integers(1, max(d for d in range(1, 10) if prime ** d <= 600)))
    space, mapping, _ = build_padic_cycle(prime, digits)
    _assert_same_map(mapping, space, models_reference.padic_map_by_steps(prime, digits))


def test_the_two_fixed_points_are_fixed_by_the_shift():
    space, mapping, _ = build_two_fixed_points()
    _assert_same_map(mapping, space, models_reference.full_shift_map_by_lookup(2, 1))
