"""The config schema is the one validator: what it states, what it refuses,
and that its defaults are the ones the checks use."""

import json
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from solenoidlab import cli
from solenoidlab.cli import CONFIG_SCHEMA, main
from solenoidlab.models import _KINDS

#: The printed schema, byte for byte: how the names are declared must not
#: change what a config may say.
SCHEMA_FIXTURE = Path(__file__).parent / "fixtures" / "config_schema.json"

FULL_SHIFT = {
    "kind": "full-shift",
    "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 4},
}
PADIC = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 3}}

#: A model each check runs on, and the parameters it cannot run without.
CHECK_SETUPS = {
    "metric-axioms": (FULL_SHIFT, {}),
    "ultrametric": (FULL_SHIFT, {}),
    "bilipschitz": (FULL_SHIFT, {}),
    "quotient-metric": (PADIC, {}),
    "chain-sandwich": (PADIC, {}),
    "flow-laws": (FULL_SHIFT, {}),
    "connectedness": (FULL_SHIFT, {"epsilon": 0.5}),
    "dense-orbit": (FULL_SHIFT, {"epsilon": 0.5}),
    "measures": (FULL_SHIFT, {}),
    "dimension": (FULL_SHIFT, {"scales": [0.5, 0.25, 0.125]}),
}

#: Defaults that depend on the model, spelled out for the models above.
MODEL_DEFAULTS = {
    ("dense-orbit", "max_iter"): 16,
    ("measures", "weights"): {"0": 0.5, "1": 0.5},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _never(*args):
    raise AssertionError("a check ran although the config was refused")


@pytest.fixture
def no_check_runs(monkeypatch):
    for name, entry in cli._CHECKS.items():
        monkeypatch.setitem(cli._CHECKS, name, entry._replace(run=_never))


def test_every_check_has_a_setup():
    assert set(CHECK_SETUPS) == set(cli._CHECKS)


def test_the_schema_is_a_valid_draft7_schema(capsys):
    jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)
    assert main(["schema"]) == 0
    printed = json.loads(capsys.readouterr().out)
    jsonschema.Draft7Validator.check_schema(printed)
    assert printed == json.loads(json.dumps(CONFIG_SCHEMA))


def test_the_printed_schema_is_byte_identical_to_the_fixture(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out.encode() == SCHEMA_FIXTURE.read_bytes()


def test_the_printed_schema_states_every_parameter(capsys):
    assert main(["schema"]) == 0
    printed = json.loads(capsys.readouterr().out)
    clauses = printed["properties"]["checks"]["items"]["allOf"]
    by_name = {c["if"]["properties"]["name"]["const"]: c["then"] for c in clauses}
    for name, row in cli._CHECKS.items():
        then = by_name[name]
        assert set(then["properties"]) == {"name", *row.params}
        for key, sub in row.params.items():
            assert "type" in then["properties"][key]
            stated = "default" in sub or "description" in sub
            assert (key in then["required"]) == (not stated)
    space = printed["properties"]["space"]["allOf"]
    by_kind = {c["if"]["properties"]["kind"]["const"]: c["then"] for c in space}
    for kind, row in _KINDS.items():
        params = by_kind[kind]["properties"]["parameters"]
        assert {k: v["type"] for k, v in params["properties"].items()} == row.types
        assert params["required"] == list(row.types)


def _defaulted():
    for name, row in cli._CHECKS.items():
        for key, sub in row.params.items():
            if "default" in sub:
                yield name, key, sub["default"]
    for (name, key), value in MODEL_DEFAULTS.items():
        yield name, key, value


def _results(tmp_path, capsys, space, check):
    cfg = {"space": space, "seed": 3, "checks": [check]}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("name, key, default", list(_defaulted()))
def test_a_left_out_parameter_takes_its_default(tmp_path, capsys, name, key, default):
    space, required = CHECK_SETUPS[name]
    check = {"name": name, **required}
    left_out = _results(tmp_path, capsys, space, check)
    given = _results(tmp_path, capsys, space, {**check, key: default})
    assert left_out == given


def _type_cases():
    """(space, check, message): every check and model parameter given a
    string, ``true`` and, for an integer, ``5.0``."""
    for name, row in cli._CHECKS.items():
        space, required = CHECK_SETUPS[name]
        for key, sub in row.params.items():
            wrong = ["x", True] + ([5.0] if sub["type"] == "integer" else [])
            for value in wrong:
                check = {"name": name, **required, key: value}
                message = f"{value!r} is not of type {sub['type']!r}"
                yield space, check, f"$.checks[1].{key}: {message}"
    for kind, row in _KINDS.items():
        for key, t in row.types.items():
            for value in ["x", True] + ([5.0] if t == "integer" else []):
                space = {"kind": kind, "parameters": {
                    **{k: 2 for k in row.types}, key: value,
                }}
                message = f"{value!r} is not of type {t!r}"
                yield space, {"name": "metric-axioms"}, (
                    f"$.space.parameters.{key}: {message}"
                )


def _range_cases():
    shift, pad = FULL_SHIFT, PADIC
    return [
        (pad, {"name": "quotient-metric", "pairs": -1},
         "$.checks[1].pairs: -1 is less than the minimum of 0"),
        (pad, {"name": "chain-sandwich", "pairs": -1},
         "$.checks[1].pairs: -1 is less than the minimum of 0"),
        (pad, {"name": "chain-sandwich", "times": [0.0, -0.25]},
         "$.checks[1].times[1]: -0.25 is less than the minimum of 0"),
        (pad, {"name": "chain-sandwich", "times": [0.5, 1]},
         "$.checks[1].times[1]: 1 is greater than or equal to the maximum of 1"),
        (pad, {"name": "chain-sandwich", "times": []},
         "$.checks[1].times: [] should be non-empty"),
        (pad, {"name": "chain-sandwich", "times": [0.5, "x"]},
         "$.checks[1].times[1]: 'x' is not of type 'number'"),
        (pad, {"name": "chain-sandwich", "max_bases": 0},
         "$.checks[1].max_bases: 0 is less than the minimum of 1"),
        (shift, {"name": "flow-laws", "triples": -1},
         "$.checks[1].triples: -1 is less than the minimum of 0"),
        (shift, {"name": "measures", "cylinders": -1},
         "$.checks[1].cylinders: -1 is less than the minimum of 0"),
        (shift, {"name": "measures", "radii": [0.5, 0.0]},
         "$.checks[1].radii[1]: 0.0 is less than or equal to the minimum of 0"),
        (shift, {"name": "measures", "radii": [0.75]},
         "$.checks[1].radii[0]: 0.75 is greater than the maximum of 0.5"),
        (shift, {"name": "measures", "radii": []},
         "$.checks[1].radii: [] should be non-empty"),
        (shift, {"name": "measures", "weights": {"0": "a", "1": 0.5}},
         "$.checks[1].weights['0']: 'a' is not of type 'number'"),
        (shift, {"name": "measures", "weights": {"0": 0.0, "1": 1.0}},
         "$.checks[1].weights['0']: 0.0 is less than or equal to the minimum of 0"),
        (shift, {"name": "measures", "weights": {"0": 0.5, "1": -0.5}},
         "$.checks[1].weights['1']: -0.5 is less than or equal to the minimum of 0"),
        (shift, {"name": "dense-orbit", "epsilon": 0.5, "origin_index": -1},
         "$.checks[1].origin_index: -1 is less than the minimum of 0"),
        (shift, {"name": "dimension", "scales": []},
         "$.checks[1].scales: [] is too short"),
        (shift, {"name": "dimension", "scales": [0.5, True, 0.125]},
         "$.checks[1].scales[1]: True is not of type 'number'"),
        (shift, {"name": "connectedness"},
         "$.checks[1]: 'epsilon' is a required property"),
        (shift, {"name": "dimension"},
         "$.checks[1]: 'scales' is a required property"),
    ]


def _unknown_key_cases():
    for name in cli._CHECKS:
        space, required = CHECK_SETUPS[name]
        yield space, {"name": name, **required, "bogus": 1}, (
            "$.checks[1]: Additional properties are not allowed ('bogus' was unexpected)"
        )
    for kind, row in _KINDS.items():
        space = {"kind": kind, "parameters": {**{k: 2 for k in row.types}, "bogus": 1}}
        yield space, {"name": "metric-axioms"}, (
            "$.space.parameters: Additional properties are not allowed "
            "('bogus' was unexpected)"
        )


def _resolution_and_scale_cases():
    """Ranges the library also checks, which the schema states so that they
    are refused before any check runs."""
    shift = FULL_SHIFT
    return [
        (shift, {"name": "connectedness", "epsilon": 0},
         "$.checks[1].epsilon: 0 is less than or equal to the minimum of 0"),
        (shift, {"name": "dense-orbit", "epsilon": -0.5},
         "$.checks[1].epsilon: -0.5 is less than or equal to the minimum of 0"),
        (shift, {"name": "dense-orbit", "epsilon": 0.5, "max_iter": -3},
         "$.checks[1].max_iter: -3 is less than the minimum of 0"),
        (shift, {"name": "dimension", "scales": [0.5, 0.25]},
         "$.checks[1].scales: [0.5, 0.25] is too short"),
        (shift, {"name": "dimension", "scales": [0.5, 0.0, 0.25]},
         "$.checks[1].scales[1]: 0.0 is less than or equal to the minimum of 0"),
    ]


@pytest.mark.parametrize(
    "space, check, message",
    [*_type_cases(), *_range_cases(), *_unknown_key_cases(),
     *_resolution_and_scale_cases()],
)
def test_the_schema_refuses_before_any_check_runs(
    tmp_path, capsys, no_check_runs, space, check, message
):
    cfg = {"space": space, "seed": 1, "checks": [{"name": "metric-axioms"}, check]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("check, message", [
    ({"name": "dimension", "scales": [1.0, 0.5, 0.25]},
     "$.checks[1]: every scale must be below the diameter 1"),
    ({"name": "dimension", "scales": [0.25, 0.5, 0.125]},
     "$.checks[1]: scales must be strictly decreasing"),
    ({"name": "dense-orbit", "epsilon": 0.5, "origin_index": 16},
     "$.checks[1].origin_index: out of range"),
])
def test_ranges_that_depend_on_the_model_are_refused_before_any_check_runs(
    tmp_path, capsys, no_check_runs, check, message
):
    cfg = {"space": FULL_SHIFT, "checks": [{"name": "metric-axioms"}, check]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("command, cfg", [
    ("run", {"space": PADIC, "tolerance": "@", "checks": [{"name": "ultrametric"}]}),
    ("run", {"space": PADIC, "checks": [{"name": "connectedness", "epsilon": "@"}]}),
    ("run", {"space": PADIC, "checks": [{"name": "dimension", "scales": [0.5, "@"]}]}),
    ("export", {"space": PADIC, "export": {"metric": "chain", "times": [0.0, "@"]}}),
])
def test_non_finite_numbers_are_refused(tmp_path, capsys, no_check_runs, text, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@"', text))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config is not valid JSON: non-finite number {text}\n"


@pytest.mark.parametrize("command, cfg", [
    ("run", {"space": PADIC, "checks": [{"name": "ultrametric"}]}),
    ("export", {"space": PADIC, "export": {"metric": "base"}}),
])
def test_an_output_format_is_refused(tmp_path, capsys, no_check_runs, command, cfg):
    # A run writes JSON and an export CSV: there is no format to choose.
    out = tmp_path / "out.txt"
    cfg = {**cfg, "output": {"path": str(out), "format": "json"}}
    assert main([command, write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: $.output: Additional properties are not allowed ('format' was unexpected)\n"
    )
    assert not out.exists()


SNOWFLAKE = {"kind": "snowflake-interval", "parameters": {"grid_size": 8, "alpha": 1}}


@pytest.mark.parametrize("flag", ["nan", "inf", "-inf"])
def test_a_non_finite_tol_flag_is_refused(tmp_path, capsys, no_check_runs, flag):
    # This space fails the ultrametric check at every finite tolerance.
    cfg = {"space": SNOWFLAKE, "checks": [{"name": "ultrametric"}]}
    assert main(["run", write_config(tmp_path, cfg), f"--tol={flag}"]) == 2
    assert capsys.readouterr().err == f"error: --tol: {float(flag)} is not a finite number\n"


@pytest.mark.parametrize("seed, message", [
    (2**32, "$.seed: 4294967296 is greater than the maximum of 4294967295"),
    (-1, "$.seed: -1 is less than the minimum of 0"),
    (5.0, "$.seed: 5.0 is not of type 'integer'"),
    (True, "$.seed: True is not of type 'integer'"),
])
def test_config_seeds_outside_numpys_range_are_refused(
    tmp_path, capsys, no_check_runs, seed, message
):
    cfg = {"space": PADIC, "seed": seed, "checks": [{"name": "flow-laws"}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seed, message", [
    ("-1", "--seed: -1 is less than the minimum of 0"),
    ("4294967296", "--seed: 4294967296 is greater than the maximum of 4294967295"),
])
def test_seed_flags_outside_numpys_range_are_refused(
    tmp_path, capsys, no_check_runs, seed, message
):
    cfg = {"space": PADIC, "checks": [{"name": "flow-laws"}]}
    assert main(["run", write_config(tmp_path, cfg), "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_largest_seed_runs(tmp_path, capsys):
    cfg = {"space": PADIC, "seed": 2**32 - 1, "checks": [{"name": "flow-laws", "triples": 5}]}
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    from_config = json.loads(capsys.readouterr().out)
    assert main(["run", path, "--seed", str(2**32 - 1)]) == 0
    assert json.loads(capsys.readouterr().out) == from_config


def test_integer_literals_of_numbers_read_as_floats(tmp_path, capsys):
    cfg = {"space": PADIC, "checks": [
        {"name": "connectedness", "epsilon": 1},
        {"name": "dense-orbit", "epsilon": 1},
    ]}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [repr(r["epsilon"]) for r in results] == ["1.0", "1.0"]
    cfg = {"space": PADIC, "export": {"metric": "product", "times": [0, 0.5]}}
    assert main(["export", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.startswith("0@0.0,0@0.5,")


TWO_FIXED_POINTS = {"kind": "two-fixed-points", "parameters": {}}
SELF_MAP = "a model with a self-map"
TORUS = "a model with a glued torus"

#: (space, check, what the space lacks): every check with a need, on a
#: model kind without it.
NEED_CASES = [
    (SNOWFLAKE, {"name": "bilipschitz"}, SELF_MAP),
    (SNOWFLAKE, {"name": "connectedness", "epsilon": 0.5}, SELF_MAP),
    (SNOWFLAKE, {"name": "dense-orbit", "epsilon": 0.5}, SELF_MAP),
    (SNOWFLAKE, {"name": "chain-sandwich"}, TORUS),
    (SNOWFLAKE, {"name": "flow-laws"}, TORUS),
    (SNOWFLAKE, {"name": "quotient-metric"}, TORUS),
    (FULL_SHIFT, {"name": "quotient-metric"},
     "an isometric model (padic-cycle or two-fixed-points)"),
    (PADIC, {"name": "measures"}, "a sequence-space model"),
    (SNOWFLAKE, {"name": "measures"}, "a sequence-space model"),
]


def test_every_need_has_a_refusal_case():
    needy = {name for name, entry in cli._CHECKS.items() if entry.need != "none"}
    assert {check["name"] for _, check, _ in NEED_CASES} == needy


@pytest.mark.parametrize("space, check, lacking", NEED_CASES)
def test_a_check_the_model_cannot_serve_is_refused_before_any_check_runs(
    tmp_path, capsys, no_check_runs, space, check, lacking
):
    cfg = {"space": space, "seed": 1, "checks": [{"name": "metric-axioms"}, check]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $.checks[1]: check {check['name']!r} needs {lacking}\n"


@pytest.mark.parametrize("space, weights, message", [
    (FULL_SHIFT, {"0": 0.5, "2": 0.5}, "weight keys must match the alphabet exactly"),
    (FULL_SHIFT, {"0": 0.6, "1": 0.5}, "weights sum to 1.1, expected 1"),
    (TWO_FIXED_POINTS, {"0": 0.25, "1": 0.25}, "weights sum to 0.5, expected 1"),
])
def test_measures_weights_are_refused_before_any_check_runs(
    tmp_path, capsys, no_check_runs, space, weights, message
):
    cfg = {"space": space, "seed": 1, "checks": [
        {"name": "metric-axioms"}, {"name": "measures", "weights": weights},
    ]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: $.checks[1]: {message}\n"


@pytest.mark.parametrize("radius, weights", [
    (1e-160, None),  # r ** 3 underflows: the torus band would divide by 0
    (1e-300, None),
    (1e-50, {"0": 0.999, "1": 0.001}),  # 0.001 ** 334, the ball around 1:1, underflows
])
def test_a_radius_whose_power_or_ball_measure_underflows_is_refused(
    tmp_path, capsys, no_check_runs, radius, weights
):
    check = {"name": "measures", "radii": [0.5, radius], **({"weights": weights} if weights else {})}
    cfg = {"space": FULL_SHIFT, "seed": 1, "checks": [{"name": "metric-axioms"}, check]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: $.checks[1].radii[1]: radius {radius!r} is too small for this model: "
        "its half, a power of it or a ball measure underflows to 0\n"
    )


@pytest.mark.parametrize("space, count", [
    (PADIC | {"parameters": {"prime": 2, "digits": 15}}, "2^15"),
    (PADIC | {"parameters": {"prime": 2**61 - 1, "digits": 1}}, f"{2**61 - 1}^1"),
    (FULL_SHIFT | {"parameters": {"alphabet_size": 3, "ratio": 0.5, "max_period": 10}},
     "3^10"),
    (FULL_SHIFT | {"parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 10**9}},
     f"2^{10**9}"),
    (SNOWFLAKE | {"parameters": {"grid_size": 10**9, "alpha": 0.5}}, str(10**9 + 1)),
])
def test_an_oversized_model_is_refused_before_it_is_built(
    tmp_path, capsys, no_check_runs, space, count
):
    cfg = {"space": space, "seed": 1, "checks": [{"name": "metric-axioms"}]}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        assert main(["run", path]) == 2
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: $.space: a model of {count} points exceeds the limit of 16384\n"
    )
    assert elapsed < 1.0
    assert peak < 8 << 20
