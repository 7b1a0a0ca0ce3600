"""The package never loads scipy.

Importing scipy takes about half of the command line's start-up, and
``scipy.sparse.csgraph`` alone tens of MiB.  Each case runs in a fresh
interpreter, since this one has loaded scipy through the test references,
and reports the ``scipy`` modules present in ``sys.modules`` after its last
step.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import solenoidlab

SRC = pathlib.Path(solenoidlab.__file__).resolve().parents[1]

SHIFT_SCAN_CHECKS = [
    {"name": "metric-axioms"},
    {"name": "ultrametric"},
    {"name": "bilipschitz"},
    {"name": "connectedness", "epsilon": 0.25},
    {"name": "dense-orbit", "epsilon": 0.25},
    {"name": "dimension", "scales": [0.5, 0.25, 0.125, 0.0625]},
    {"name": "measures", "cylinders": 200},
]

FULL_SHIFT = {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 5}}

MODELS = [
    FULL_SHIFT,
    {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 4}},
    {"kind": "two-fixed-points", "parameters": {}},
    {"kind": "snowflake-interval", "parameters": {"grid_size": 8, "alpha": 0.5}},
]


def scipy_after(tmp_path, code):
    """The sorted ``scipy`` module names loaded once ``code`` has run in a
    fresh interpreter that can import the package under test."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def run_config(checks):
    """Code running ``solenoidlab run`` on the max_period 5 full shift."""
    cfg = {"space": FULL_SHIFT, "seed": 3, "checks": checks}
    return (
        "import json\n"
        "from solenoidlab import cli\n"
        f"json.dump({cfg!r}, open('config.json', 'w'))\n"
        "status = cli.main(['run', 'config.json', '--out', 'report.json'])\n"
        "if status:\n"
        "    raise SystemExit(f'exit {status}')\n"
    )


@pytest.mark.parametrize("code", ["import solenoidlab", "import solenoidlab.cli"])
def test_imports_do_not_load_scipy(tmp_path, code):
    assert scipy_after(tmp_path, code) == []


@pytest.mark.parametrize("raw", MODELS, ids=[m["kind"] for m in MODELS])
def test_model_builds_do_not_load_scipy(tmp_path, raw):
    code = (
        "from solenoidlab.models import ModelSpec, build_model\n"
        f"build_model(ModelSpec.from_dict({raw!r}))\n"
    )
    assert scipy_after(tmp_path, code) == []


def test_shift_scan_checks_do_not_load_scipy(tmp_path):
    assert scipy_after(tmp_path, run_config(SHIFT_SCAN_CHECKS)) == []


def test_shortest_path_solves_do_not_load_scipy(tmp_path):
    # A chain-sandwich run, a chain export and a passing metric-axioms run on
    # a snowflaked interval, which is no ultrametric, so its verdict solves
    # shortest paths: three solves, counted through the package's bindings.
    operations = [
        ("run", {"space": FULL_SHIFT, "seed": 3, "checks": [{"name": "chain-sandwich", "pairs": 10}]}),
        ("export", {"space": FULL_SHIFT, "export": {"metric": "chain", "times": [0.0, 0.5]}}),
        ("run", {
            "space": {"kind": "snowflake-interval", "parameters": {"grid_size": 16, "alpha": 0.5}},
            "checks": [{"name": "metric-axioms"}],
        }),
    ]
    code = (
        "import json\n"
        "from solenoidlab import cli, mapping_torus, metric_core\n"
        "solves = []\n"
        "class Counted(metric_core.ShortestPaths):\n"
        "    def __init__(self, weights):\n"
        "        solves.append(len(weights))\n"
        "        super().__init__(weights)\n"
        "mapping_torus.ShortestPaths = metric_core.ShortestPaths = Counted\n"
        f"for command, cfg in {operations!r}:\n"
        "    json.dump(cfg, open('config.json', 'w'))\n"
        "    status = cli.main([command, 'config.json', '--out', 'out'])\n"
        "    if status:\n"
        "        raise SystemExit(f'{command} exit {status}')\n"
        "if len(solves) != 3:\n"
        "    raise SystemExit(f'solves {solves}')\n"
    )
    assert scipy_after(tmp_path, code) == []
