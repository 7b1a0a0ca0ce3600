"""End-to-end runs of the command line driver through its Python entry point."""

import csv
import io
import json

import numpy as np
import pytest

import metric_reference
from cli_reference import (
    check_chain_sandwich_by_pair,
    check_quotient_metric_by_pair,
    csv_text_by_row,
)
from solenoidlab import (
    InvalidInputError, cli, mapping_torus, metric_core, metric_space_from_matrix, models,
)
from solenoidlab.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


FULL_SHIFT = {
    "kind": "full-shift",
    "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 4},
}
PADIC = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 3}}
SNOWFLAKE_SPACE = {"kind": "snowflake-interval", "parameters": {"grid_size": 4, "alpha": 0.5}}


def is_torus_metric(metric):
    return cli._TORUS in cli._NEEDS[cli._EXPORTS[metric].need]


def export_section(metric, times):
    """An ``export`` section: ``times`` goes only to a torus metric, the
    only kind that takes it."""
    return {"metric": metric, "times": times} if is_torus_metric(metric) else {"metric": metric}


def read_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0]
    matrix = np.array([[float(v) for v in row] for row in rows[1:]])
    return labels, matrix


def test_run_all_checks_passes(tmp_path, capsys):
    cfg = {
        "space": FULL_SHIFT,
        "seed": 7,
        "checks": [
            {"name": "metric-axioms"},
            {"name": "ultrametric"},
            {"name": "bilipschitz"},
            {"name": "chain-sandwich", "pairs": 40},
            {"name": "flow-laws", "triples": 60},
            {"name": "connectedness", "epsilon": 0.5},
            {"name": "dense-orbit", "epsilon": 0.5},
            {"name": "measures", "cylinders": 20},
            {"name": "dimension", "scales": [0.5, 0.25, 0.125]},
        ],
    }
    out = tmp_path / "report.json"
    code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["all_passed"]
    assert report["summary"]["checks"] == 9
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["ultrametric"]["status"] == "pass"
    assert by_name["bilipschitz"]["constant"] == 2.0
    assert by_name["connectedness"]["components"] == 1
    assert by_name["dimension"]["counts"] == [4, 16, 16]
    assert by_name["measures"]["invariance_discrepancy"] == 0.0
    assert report["config"]["space"] == FULL_SHIFT


def test_run_reports_are_byte_identical(tmp_path):
    cfg = {
        "space": PADIC,
        "seed": 11,
        "checks": [
            {"name": "quotient-metric", "pairs": 80},
            {"name": "flow-laws", "triples": 50},
        ],
    }
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", path, "--out", str(a)]) == 0
    assert main(["run", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_changes_the_draws(tmp_path):
    cfg = {
        "space": PADIC,
        "checks": [{"name": "quotient-metric", "pairs": 60}],
    }
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", path, "--seed", "1", "--out", str(a)]) == 0
    assert main(["run", path, "--seed", "2", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["run"]["seed"] == 1 and rb["run"]["seed"] == 2
    assert ra["results"][0]["status"] == rb["results"][0]["status"] == "pass"
    assert ra["results"][0]["equality_pairs"] != rb["results"][0]["equality_pairs"]


def test_run_failing_check_exits_one(tmp_path, capsys):
    cfg = {
        "space": {
            "kind": "snowflake-interval",
            "parameters": {"grid_size": 8, "alpha": 1.0},
        },
        "checks": [{"name": "ultrametric"}],
    }
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    result = report["results"][0]
    assert result["status"] == "fail"
    assert result["violations"] > 0
    assert result["witnesses"][0]["kind"] == "ultrametric"
    assert len(result["witnesses"][0]["points"]) == 3


@pytest.mark.parametrize("space, tol", [
    ({"kind": "snowflake-interval", "parameters": {"grid_size": 12, "alpha": 0.5}}, None),
    ({"kind": "snowflake-interval", "parameters": {"grid_size": 6, "alpha": 1.0}}, -0.001),
    (FULL_SHIFT, -0.001),
])
def test_failing_scan_payloads_equal_the_reference_lists(tmp_path, capsys, space, tol):
    cfg = {"space": space, "checks": [{"name": "metric-axioms"}, {"name": "ultrametric"}]}
    argv = ["run", write_config(tmp_path, cfg)]
    if tol is not None:
        argv += ["--tol", str(tol)]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    tol = report["run"]["tolerance"]
    m = models.build_model(models.ModelSpec.from_dict(space)).space
    axioms = metric_reference.basic_violations(m, tol) + metric_reference.triangle_violations(m, tol)
    strong = axioms + metric_reference.ultrametric_violations(m, tol)
    for result, listed in zip(report["results"], (axioms, strong)):
        assert result["violations"] == len(listed)
        assert result["witnesses"] == [
            {"kind": v.kind, "points": [models.point_label(p) for p in v.points], "slack": v.slack}
            for v in listed[:5]
        ]


@pytest.mark.parametrize("value", ["-1e-9", "-1E-3", "-.5e-2", "1e-9", "-0.001"])
def test_a_spaced_tol_value_reads_as_the_attached_one(tmp_path, capsys, monkeypatch, value):
    # argparse takes "-1e-9" for an option name unless it is attached to
    # --tol; both spellings must give the same report, also from sys.argv.
    cfg = {"space": SNOWFLAKE_SPACE, "checks": [{"name": "metric-axioms"}]}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, f"--tol={value}"]) in (0, 1)
    attached = capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["solenoidlab", "run", "--tol", value, path])
    assert main() in (0, 1)
    spaced = capsys.readouterr().out
    assert spaced == attached
    assert json.loads(spaced)["run"]["tolerance"] == float(value)


def test_a_tol_flag_before_another_option_still_lacks_its_value(tmp_path, capsys):
    path = write_config(tmp_path, {"space": SNOWFLAKE_SPACE, "checks": [{"name": "metric-axioms"}]})
    with pytest.raises(SystemExit) as exited:
        main(["run", path, "--tol", "--out", str(tmp_path / "report.json")])
    assert exited.value.code == 2
    assert "argument --tol: expected one argument" in capsys.readouterr().err


def test_unknown_check_is_a_usage_error(tmp_path, capsys):
    cfg = {"space": FULL_SHIFT, "checks": [{"name": "foo"}]}
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "$.checks[0]" in err


def test_schema_violation_names_the_field(tmp_path, capsys):
    cfg = {"space": {"kind": "heptagon", "parameters": {}}, "checks": [{"name": "ultrametric"}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "$.space.kind" in capsys.readouterr().err


def test_missing_seed_for_sampling_checks(tmp_path, capsys):
    cfg = {"space": PADIC, "checks": [{"name": "quotient-metric"}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_measures_needs_no_seed(tmp_path, capsys):
    cfg = {"space": FULL_SHIFT, "checks": [{"name": "measures", "cylinders": 20}]}
    results = []
    for seed in (None, 1, 7):
        seeded = cfg if seed is None else {**cfg, "seed": seed}
        assert main(["run", write_config(tmp_path, seeded)]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1] == results[2]


def test_unknown_parameter_rejected(tmp_path, capsys):
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [{"name": "quotient-metric", "pears": 9}],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "pears" in capsys.readouterr().err


def test_missing_required_parameter(tmp_path, capsys):
    cfg = {"space": FULL_SHIFT, "checks": [{"name": "connectedness"}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_incoherent_model_for_check(tmp_path, capsys):
    cfg = {
        "space": {
            "kind": "snowflake-interval",
            "parameters": {"grid_size": 8, "alpha": 0.5},
        },
        "checks": [{"name": "bilipschitz"}],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "self-map" in capsys.readouterr().err


def test_nan_distances_in_a_model_are_a_space_error(tmp_path, capsys, monkeypatch):
    def nan_interval(grid_size, alpha):
        matrix = np.ones((grid_size, grid_size)) - np.eye(grid_size)
        matrix[0, 1] = matrix[1, 0] = np.nan
        return metric_space_from_matrix(range(grid_size), matrix)

    monkeypatch.setattr(models, "build_snowflake_interval", nan_interval)
    cfg = {
        "space": {
            "kind": "snowflake-interval",
            "parameters": {"grid_size": 3, "alpha": 0.5},
        },
        "checks": [{"name": "metric-axioms"}],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "$.space" in err and "NaN" in err


@pytest.mark.parametrize("space, name, key", [
    (PADIC, "quotient-metric", "pairs"),
    (FULL_SHIFT, "chain-sandwich", "pairs"),
    (FULL_SHIFT, "flow-laws", "triples"),
    (FULL_SHIFT, "measures", "cylinders"),
])
def test_negative_counts_are_rejected(tmp_path, capsys, space, name, key):
    cfg = {"space": space, "seed": 1, "checks": [{"name": name, key: -5}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert f"$.checks[0].{key}: -5 is less than the minimum of 0" in capsys.readouterr().err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_export_base_matrix(tmp_path):
    cfg = {
        "space": {
            "kind": "full-shift",
            "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 2},
        },
        "export": {"metric": "base"},
    }
    out = tmp_path / "m.csv"
    assert main(["export", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    labels, matrix = read_matrix(out)
    assert labels == ["1:0", "2:01", "2:10", "1:1"]
    assert matrix.shape == (4, 4)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    assert matrix[0, 3] == 1.0


def test_export_quotient_matrix_is_a_metric(tmp_path):
    cfg = {
        "space": PADIC,
        "export": {"metric": "quotient", "times": [0.0, 0.5]},
        "output": {"path": str(tmp_path / "q.csv")},
    }
    assert main(["export", write_config(tmp_path, cfg)]) == 0
    labels, m = read_matrix(tmp_path / "q.csv")
    assert m.shape == (16, 16)
    assert labels[0] == "0@0.0"
    assert np.array_equal(m, m.T)
    for k in range(16):
        assert np.all(m <= m[:, k][:, None] + m[k, :][None, :] + 1e-9)


def test_export_adapted_matrix_of_isometry_is_base(tmp_path):
    base_cfg = {"space": PADIC, "export": {"metric": "base"}}
    tilde_cfg = {"space": PADIC, "export": {"metric": "adapted"}}
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["export", write_config(tmp_path, base_cfg, "a.json"), "--out", str(out_a)]) == 0
    assert main(["export", write_config(tmp_path, tilde_cfg, "b.json"), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_export_chain_dominates_representative(tmp_path):
    shift_cfg = {
        "space": {
            "kind": "full-shift",
            "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 2},
        },
        "export": {"metric": "representative", "times": [0.0, 0.25, 0.74, 0.76]},
    }
    chain_cfg = dict(shift_cfg, export={"metric": "chain", "times": [0.0, 0.25, 0.74, 0.76]})
    out_r = tmp_path / "r.csv"
    out_c = tmp_path / "c.csv"
    assert main(["export", write_config(tmp_path, shift_cfg, "r.json"), "--out", str(out_r)]) == 0
    assert main(["export", write_config(tmp_path, chain_cfg, "c.json"), "--out", str(out_c)]) == 0
    _, rep = read_matrix(out_r)
    _, chain = read_matrix(out_c)
    assert rep.shape == chain.shape == (16, 16)
    assert np.all(chain <= rep + 1e-12)
    assert np.any(chain < rep - 1e-9)  # the repair genuinely shortens something


@pytest.mark.parametrize("metric", ["product", "quotient", "representative", "chain"])
@pytest.mark.parametrize("space", [PADIC, FULL_SHIFT, SNOWFLAKE_SPACE])
def test_export_torus_metric_needs_times(tmp_path, capsys, metric, space):
    # The schema asks for the times before the model is built, so even a
    # model that cannot serve the metric is refused for them.
    cfg = {"space": space, "export": {"metric": metric}}
    assert main(["export", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == "error: $.export: 'times' is a required property\n"


@pytest.mark.parametrize("metric", [m for m in cli.METRIC_NAMES if not is_torus_metric(m)])
@pytest.mark.parametrize("space", [PADIC, FULL_SHIFT, SNOWFLAKE_SPACE])
def test_export_times_are_refused_for_a_metric_that_is_not_a_torus_metric(
    tmp_path, capsys, metric, space
):
    cfg = {"space": space, "export": {"metric": metric, "times": [0.0]}}
    assert main(["export", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.export: 'times' is not one of ['metric']\n"


def test_export_times_must_be_unique(tmp_path, capsys):
    shift2 = dict(FULL_SHIFT, parameters=dict(FULL_SHIFT["parameters"], max_period=2))
    cfg = {"space": shift2, "export": {"metric": "chain", "times": [0.0, 0.0]}}
    assert main(["export", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "$.export.times" in err and "non-unique" in err


def test_export_over_the_chain_ceiling_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 8)
    cfg = {"space": FULL_SHIFT, "export": {"metric": "chain", "times": [0.0]}}
    assert main(["export", write_config(tmp_path, cfg)]) == 2
    assert "$.export: chain sample of 16 points exceeds the limit of 8" in (
        capsys.readouterr().err
    )


def test_export_full_precision_round_trip(tmp_path):
    cfg = {
        "space": {
            "kind": "snowflake-interval",
            "parameters": {"grid_size": 4, "alpha": 0.5},
        },
        "export": {"metric": "base"},
    }
    out = tmp_path / "s.csv"
    assert main(["export", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    labels, matrix = read_matrix(out)
    assert labels == ["0.0", "0.25", "0.5", "0.75", "1.0"]
    assert matrix[0, 1] == 0.5
    assert matrix[0, 2] == 0.5 ** 0.5  # repr round-trips exactly


THREE_SYMBOL_SHIFT = {
    "kind": "full-shift",
    "parameters": {"alphabet_size": 3, "ratio": 0.5, "max_period": 3},
}
PADIC_64 = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 6}}
TWO_FIXED_POINTS = {"kind": "two-fixed-points", "parameters": {}}


@pytest.mark.parametrize("space, check, tol", [
    (PADIC_64, {"name": "chain-sandwich", "pairs": 150}, 1e-9),
    (PADIC_64, {"name": "chain-sandwich", "pairs": 60, "times": [0.1, 0.6, 0.1]}, 1e-9),
    (THREE_SYMBOL_SHIFT, {"name": "chain-sandwich", "pairs": 150, "max_bases": 9}, 1e-9),
    (TWO_FIXED_POINTS, {"name": "chain-sandwich", "pairs": 150}, 1e-9),
    (THREE_SYMBOL_SHIFT, {"name": "chain-sandwich", "pairs": 80}, -1e-3),
    (TWO_FIXED_POINTS, {"name": "chain-sandwich", "pairs": 0}, 1e-9),
])
@pytest.mark.parametrize("seed", [1, 7, 401])
def test_chain_sandwich_matches_the_per_pair_loop(space, check, tol, seed):
    model = cli._build({"space": space})
    words = cli._Words(np.random.RandomState((seed, 2)))
    got = cli._check_chain_sandwich(model, check, tol, words)
    want = check_chain_sandwich_by_pair(model, check, tol, np.random.RandomState((seed, 2)))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert (got["status"] == "fail") == (tol < 0)
    if tol < 0:
        assert got["witness"] is not None and got["violations"] > 0


@pytest.mark.parametrize("space, check, tol", [
    (PADIC_64, {"name": "quotient-metric", "pairs": 400}, 1e-9),
    (TWO_FIXED_POINTS, {"name": "quotient-metric", "pairs": 200}, 1e-9),
    (PADIC_64, {"name": "quotient-metric", "pairs": 200}, -1e-3),
    (TWO_FIXED_POINTS, {"name": "quotient-metric", "pairs": 100}, -1e-3),
    (PADIC_64, {"name": "quotient-metric", "pairs": 0}, 1e-9),
])
@pytest.mark.parametrize("seed", [1, 7, 401])
def test_quotient_check_matches_the_per_pair_loop(space, check, tol, seed):
    model = cli._build({"space": space})
    words = cli._Words(np.random.RandomState((seed, 0)))
    got = cli._check_quotient_metric(model, check, tol, words)
    want = check_quotient_metric_by_pair(model, check, tol, np.random.RandomState((seed, 0)))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert (got["status"] == "fail") == (tol < 0)
    if tol < 0:
        assert got["witness"] is not None and got["violations"] > 0


@pytest.mark.parametrize("space, isometric", [
    (PADIC_64, True), (TWO_FIXED_POINTS, True), (THREE_SYMBOL_SHIFT, False),
])
def test_chain_sandwich_holds_the_quotient_below_the_chain(monkeypatch, space, isometric):
    # A quotient metric above every chain distance breaks only the lower
    # bound, which is checked on isometric glue alone.
    monkeypatch.setattr(
        cli, "quotient_distance_pairs", lambda ts, i, r, j, t: np.full(len(i), 2.0)
    )
    model = cli._build({"space": space})
    check = {"name": "chain-sandwich", "pairs": 30}
    got = cli._check_chain_sandwich(model, check, 1e-9, cli._Words(np.random.RandomState(5)))
    assert got["violations"] == (30 if isometric else 0)


def _never(*args):
    raise AssertionError("an earlier check ran before the configs were checked")


def never_run(monkeypatch, name):
    """Make check ``name`` fail the test if it runs."""
    monkeypatch.setitem(cli._CHECKS, name, cli._CHECKS[name]._replace(run=_never))


def test_unknown_parameter_of_a_later_check_is_refused_first(tmp_path, capsys, monkeypatch):
    never_run(monkeypatch, "quotient-metric")
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [
            {"name": "quotient-metric", "pairs": 10},
            {"name": "chain-sandwich", "pears": 3},
        ],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert (
        "$.checks[1]: Additional properties are not allowed ('pears' was unexpected)"
        in capsys.readouterr().err
    )


def test_chain_sample_over_the_ceiling_is_refused_first(tmp_path, capsys, monkeypatch):
    never_run(monkeypatch, "quotient-metric")
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 8)
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [
            {"name": "quotient-metric", "pairs": 10},
            {"name": "chain-sandwich", "pairs": 5},
        ],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "$.checks[1]: chain sample of 32 points exceeds the limit of 8" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("space", [PADIC, PADIC_64, FULL_SHIFT, TWO_FIXED_POINTS])
@pytest.mark.parametrize("max_bases", [1, 3, 5, 16, 100])
@pytest.mark.parametrize("times", [
    [0.0, 0.5, 0.5], [0.0, -0.0, 0.25], [-0.0], [0, 0.75, 0.25, 0.75, -0.0],
])
def test_chain_sample_refusal_counts_the_distinct_sample(monkeypatch, space, max_bases, times):
    model = models.build_model(models.ModelSpec.from_dict(space))
    check = {"name": "chain-sandwich", "max_bases": max_bases, "times": times}
    size = len(mapping_torus.distinct_chain_sample(model.torus, cli._chain_sample(model, check))[0])
    # The refusal counts without building the sample, yet refuses exactly
    # the samples with more distinct points than the limit.
    monkeypatch.setattr(cli, "_chain_sample", _never)
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", size)
    cli._refuse_chain_sample(model, check, "$.checks[0]")
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", size - 1)
    with pytest.raises(InvalidInputError, match=f"chain sample of {size} points exceeds"):
        cli._refuse_chain_sample(model, check, "$.checks[0]")


def test_chain_sample_with_repeated_and_signed_zero_times_is_refused_with_exit_2(
    tmp_path, capsys, monkeypatch
):
    never_run(monkeypatch, "chain-sandwich")
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 15)
    # Eight bases at the two times 0 and 1/2: sixteen distinct points.
    cfg = {"space": PADIC, "seed": 1,
           "checks": [{"name": "chain-sandwich", "times": [0.0, -0.0, 0.5, 0.5, 0]}]}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "$.checks[0]: chain sample of 16 points exceeds the limit of 15" in (
        capsys.readouterr().err
    )


def test_dimension_scales_too_close_for_a_line_fit_are_refused_first(
    tmp_path, capsys, monkeypatch
):
    never_run(monkeypatch, "quotient-metric")
    scales = [0.3, 0.29999999999999993, 0.2999999999999999]
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [
            {"name": "quotient-metric", "pairs": 10},
            {"name": "dimension", "scales": scales},
        ],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert (
        f"$.checks[1]: scales {tuple(scales)} are too close together for a line fit"
        in capsys.readouterr().err
    )


def test_chain_sample_times_are_checked_first(tmp_path, capsys, monkeypatch):
    never_run(monkeypatch, "quotient-metric")
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [
            {"name": "quotient-metric", "pairs": 10},
            {"name": "chain-sandwich", "times": [0.5, 1.0]},
        ],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert (
        "$.checks[1].times[1]: 1.0 is greater than or equal to the maximum of 1"
        in capsys.readouterr().err
    )


def test_a_negative_orbit_budget_is_refused_before_a_long_check(tmp_path, capsys, monkeypatch):
    # The library checks the budget too, but only when dense-orbit runs,
    # after 100,000 flow-law triples.
    never_run(monkeypatch, "flow-laws")
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [
            {"name": "flow-laws", "triples": 100_000},
            {"name": "dense-orbit", "epsilon": 0.5, "max_iter": -3},
        ],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: $.checks[1].max_iter: -3 is less than the minimum of 0\n"
    )


#: (space, metric, refusal): every export metric with a need, on a model
#: kind without it.
EXPORT_NEED_CASES = [
    (SNOWFLAKE_SPACE, "adapted", "'adapted' needs a model with a self-map"),
    (SNOWFLAKE_SPACE, "chain", "'chain' needs a model with a glued torus"),
    (FULL_SHIFT, "quotient",
     "'quotient' needs an isometric model (padic-cycle or two-fixed-points)"),
    (SNOWFLAKE_SPACE, "product", "'product' needs a model with a glued torus"),
    (SNOWFLAKE_SPACE, "quotient", "'quotient' needs a model with a glued torus"),
    (SNOWFLAKE_SPACE, "representative", "'representative' needs a model with a glued torus"),
]


def test_every_export_need_has_a_refusal_case():
    needy = {name for name, row in cli._EXPORTS.items() if row.need != "none"}
    assert {metric for _, metric, _ in EXPORT_NEED_CASES} == needy


@pytest.mark.parametrize("space, metric, message", EXPORT_NEED_CASES)
def test_an_export_the_model_cannot_give_names_the_metric(tmp_path, capsys, space, metric, message):
    cfg = {"space": space, "export": export_section(metric, [0.0])}
    assert main(["export", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $.export.metric: {message}\n"


@pytest.mark.parametrize("metric", cli.METRIC_NAMES)
def test_every_metric_exports_on_a_model_that_serves_it(tmp_path, capsys, metric):
    # The padic cycle has a self-map and an isometric glued torus.
    times = [0.0, 0.5]
    cfg = {"space": PADIC, "export": export_section(metric, times)}
    assert main(["export", write_config(tmp_path, cfg)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    labels = list("01234567")
    if is_torus_metric(metric):
        labels = [f"{x}@{t!r}" for x in labels for t in times]
    assert header.split(",") == labels
    matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert matrix.shape == (len(labels), len(labels))
    assert (np.diag(matrix) == 0.0).all() and (matrix == matrix.T).all()
    assert (matrix[~np.eye(len(labels), dtype=bool)] > 0.0).all()


@pytest.mark.parametrize("metric, binding", [
    ("adapted", "adapted_metric"),
    ("representative", "representative_distance_matrix"),
    ("chain", "ChainMetricTable"),
])
def test_export_rows_call_through_the_module_binding(
    tmp_path, capsys, monkeypatch, metric, binding
):
    # A wrapper installed on cli's binding after import is the one called.
    calls = []
    original = getattr(cli, binding)

    def wrapped(*args):
        calls.append(binding)
        return original(*args)

    monkeypatch.setattr(cli, binding, wrapped)
    cfg = {"space": PADIC, "export": export_section(metric, [0.0, 0.5])}
    assert main(["export", write_config(tmp_path, cfg)]) == 0
    assert calls == [binding]


def test_chain_ceiling_counts_distinct_sample_points(tmp_path, monkeypatch):
    # 8 bases x 2 distinct times = 16 points at a ceiling of 16, although
    # the times list names three.
    monkeypatch.setattr(mapping_torus, "MAX_CHAIN_SAMPLE", 16)
    cfg = {
        "space": PADIC,
        "seed": 1,
        "checks": [{"name": "chain-sandwich", "pairs": 5, "times": [0.0, 0.5, 0.0]}],
    }
    out = tmp_path / "report.json"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["sample_size"] == 16


@pytest.mark.parametrize(
    "block_cells", [metric_core.ROW_BLOCK_CELLS, 3], ids=["whole-block", "one-row"]
)
def test_export_bytes_match_the_csv_writer(tmp_path, monkeypatch, block_cells):
    labels = ["a,b", 'say "hi"', "c"]
    # -0.0 first shows up in a row after 0.0 was rendered: the two are equal
    # as floats, so only a bit-pattern key keeps them apart.
    matrix = np.array([
        [0.0, 1e-05, np.inf],
        [-0.0, np.nan, 1e16],
        [0.1 + 0.2, 5e-324, -0.0],
    ])
    monkeypatch.setattr(cli, "_export_matrix", lambda cfg, model: (labels, matrix))
    monkeypatch.setattr(metric_core, "ROW_BLOCK_CELLS", block_cells)
    out = tmp_path / "m.csv"
    cfg = {"space": PADIC, "export": {"metric": "base"}}
    assert main(["export", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(labels)
    for row in matrix:
        writer.writerow([repr(float(v)) for v in row])
    assert out.read_bytes() == want.getvalue().encode("utf-8")
    assert out.read_text().splitlines()[1:] == [
        "0.0,1e-05,inf", "-0.0,nan,1e+16", "0.30000000000000004,5e-324,-0.0",
    ]


def _special_matrix(rows, cols, seed):
    """Repeats, distinct values and the floats whose ``repr`` is unusual,
    with 0.0 and -0.0 kept out of the first row."""
    rng = np.random.RandomState(seed)
    pool = np.array([
        np.inf, np.nan, 5e-324, 1e16, 0.1 + 0.2, 1e-05, 0.5 ** 0.5, 1.0, 0.25,
    ])
    shape = (rows, cols)
    m = np.where(rng.rand(*shape) < 0.5, rng.choice(pool, shape), rng.rand(*shape))
    if rows > 1:
        m[-1, 0], m[-1, -1] = -0.0, 0.0
        m[rows // 2, cols // 2] = -0.0
    return m


@pytest.mark.parametrize("rows, cols, block_cells", [
    # The library's block size: one block, exactly two, and two plus a row.
    (3, 3, None), (512, 256, None), (513, 256, None),
    # Blocks of one row; of two rows, from a size between two and three rows
    # and from exactly two; of one row, from a size below one row.
    (9, 7, 7), (10, 7, 20), (10, 7, 14), (1, 7, 3),
])
def test_csv_writer_matches_the_row_writer(monkeypatch, rows, cols, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(metric_core, "ROW_BLOCK_CELLS", block_cells)
    labels = [f"p{k}" for k in range(cols)]
    for seed in range(3):
        m = _special_matrix(rows, cols, seed)
        assert cli._csv_text(labels, m) == csv_text_by_row(labels, m)
    distinct = np.random.RandomState(rows).rand(rows, cols)
    assert cli._csv_text(labels, distinct) == csv_text_by_row(labels, distinct)
    repeats = np.full((rows, cols), 0.1 + 0.2)
    assert cli._csv_text(labels, repeats) == csv_text_by_row(labels, repeats)


def refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_measures_with_one_radius_reports_a_null_slope(tmp_path, capsys):
    cfg = {
        "space": FULL_SHIFT,
        "seed": 3,
        "checks": [{"name": "measures", "cylinders": 10, "radii": [0.5, 0.5]}],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    (result,) = report["results"]
    assert result["base_band"]["fitted_exponent"] is None
    assert result["torus_band"]["fitted_exponent"] is None
    assert result["base_band"]["c_low"] > 0


def test_a_small_radius_whose_measures_stay_positive_is_reported(tmp_path, capsys):
    # 1e-100 ** 3 and the measures of its balls, about 2 ** -666 * 2e-100 at
    # the least, are small but positive: the radius is served, not refused.
    cfg = {
        "space": FULL_SHIFT,
        "seed": 3,
        "checks": [{"name": "measures", "cylinders": 10, "radii": [0.5, 1e-100]}],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    (result,) = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)["results"]
    assert 0 < result["torus_band"]["c_low"] <= result["torus_band"]["c_high"]
    assert result["doubling_constant"] > 0
