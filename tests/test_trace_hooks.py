"""The benchmark's span tracer against the package's current names.

``bench/spans.py`` wraps functions under the names the calling modules bind
(``cli.quotient_metric``, ``mapping_torus.iterate``, ...) and reads each
with ``vars(owner)[attr]``, so a renamed or dropped binding would break a
traced benchmark run with a ``KeyError``.  This installs the tracer, runs
one small traced operation of each kind and restores the originals.  The
``cells`` counter reads ``representative_distance_matrix(ts, points)``'s
arguments, so a changed signature of that view, or a chain table that
builds its edges without it, fails here too.  An import that ``src/``
marks ``# unused`` exists only for the tracer, so each must be one it
patches.
"""

import ast
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from solenoidlab import cli, connectedness, mapping_torus, measures, models

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "solenoidlab"
OWNERS = (cli, connectedness, mapping_torus, measures, models,
          measures.WeightVector, measures.CylinderSet)


def _unused_imports() -> set[tuple[str, str]]:
    """(module, name) of each import in the package marked ``# unused``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                found.update(
                    (f"solenoidlab.{path.stem}", alias.asname or alias.name)
                    for alias in node.names if "# unused" in lines[alias.lineno - 1]
                )
    return found


def test_tracer_installs_runs_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patches}
        assert cli.quotient_metric is not mapping_torus.quotient_metric
        tracer.begin_pass()
        space = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 3}}
        configs = [
            ("run", {"space": space, "seed": 1, "checks": [
                {"name": "quotient-metric", "pairs": 20},
                {"name": "chain-sandwich", "pairs": 10},
                {"name": "flow-laws", "triples": 10},
            ]}),
            ("export", {"space": space, "export": {"metric": "quotient", "times": [0.0, 0.5]}}),
            ("export", {"space": space,
                        "export": {"metric": "representative", "times": [0.0, 0.5]}}),
            ("export", {"space": space, "export": {"metric": "chain", "times": [0.0, 0.5]}}),
        ]
        for k, (command, cfg) in enumerate(configs):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(cfg))
            with redirect_stdout(io.StringIO()):
                assert cli.main([command, str(path)]) == 0
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    unused = _unused_imports()
    assert not unused - patched, f"marked unused but not patched: {sorted(unused - patched)}"
    assert len(unused) == 12  # cli's nine, mapping_torus' one and models' two
    (totals,) = tracer.pass_totals()
    assert totals["models.build_calls"] == len(configs)
    # The chain-sandwich table's 32-point sample and the representative and
    # chain exports' 16 points, each counted by the wrapped matrix view.
    assert totals["mapping_torus.rep_matrix_calls"] == 3
    assert totals["mapping_torus.rep_matrix_cells"] == 32 ** 2 + 2 * 16 ** 2
    assert not [k for k, v in totals.items() if k.endswith(".errors") and v]
