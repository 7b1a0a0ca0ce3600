"""Golden reports: a fixed corpus of ``solenoidlab`` CLI operations and what
each one printed, kept in ``tests/fixtures/reports.json``.

Each operation is one in-process ``cli.main`` call.  Its record holds the
exit code, stderr without the ``N checks in X s`` timing line, and stdout:
in full for a run report (or an empty stdout), as sha256 and byte length for
a CSV export.  ``tests/test_golden_reports.py`` reruns every operation and
compares.  A change that alters a report on purpose rewrites the fixture::

    PYTHONPATH=src python tests/golden_reports.py

and names each changed entry in CHANGES.md.

The corpus: the benchmark's workloads (``bench/workloads.py``, loaded from
its file, read-only) at seeds 1 and 7 on both rungs; every check of
``test_config_schema.CHECK_SETUPS`` at ``--tol`` 1e-9, 0 and -1e-9; every
export metric on every model kind, served or refused; the torus exports and
seeded runs of four models whose distances are not powers of 1/2 (the 3-adic
and 5-adic rings, full shifts at ratios 0.3 and 0.7); chain-sandwich runs
whose samples end in a partial block of the chain solve; and the smoke
configs of CI, exit-2 refusals included.

A report shows a chain distance only through the sandwich's verdict, so
``tests/fixtures/chain_distances.json`` also keeps, for each chain-sandwich
operation of the corpus (``chain-*`` and ``smoke-chain-2048``), the sha256
of the distances :meth:`~solenoidlab.mapping_torus.ChainMetricTable.distances_via`
returned for its queried pairs.  The same command rewrites both fixtures.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "fixtures" / "reports.json"
CHAIN_FIXTURE = TESTS / "fixtures" / "chain_distances.json"
WORKLOADS_FILE = TESTS.parent / "bench" / "workloads.py"

#: The one stderr line that holds a timing.
_TIMING = re.compile(r"^\d+ checks in \d+\.\d+s\n", re.M)

_FULL_SHIFT = {"kind": "full-shift",
               "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 4}}
_PADIC = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 3}}
_TWO = {"kind": "two-fixed-points", "parameters": {}}
_FLAKE = {"kind": "snowflake-interval", "parameters": {"grid_size": 8, "alpha": 0.5}}

#: One small model of each kind, for the exports.
_MODELS = {"full-shift": _FULL_SHIFT, "padic-cycle": _PADIC,
           "two-fixed-points": _TWO, "snowflake-interval": _FLAKE}
_METRICS = ("base", "adapted", "product", "quotient", "representative", "chain")
_TORUS_METRICS = ("product", "quotient", "representative", "chain")
_EXPORT_TIMES = [0.0, 0.25, 0.74, 0.76]

#: Models whose level distances are not powers of 1/2, so a kernel or a power
#: that rounds differently shows in their reports; each with the check that
#: joins the chain sandwich and the flow laws in its runs.
_NON_DYADIC = {
    "padic-3-4": ({"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 4}},
                  {"name": "quotient-metric", "pairs": 2000}),
    "padic-5-3": ({"kind": "padic-cycle", "parameters": {"prime": 5, "digits": 3}},
                  {"name": "quotient-metric", "pairs": 2000}),
    "shift-3-0.3-5": ({"kind": "full-shift",
                       "parameters": {"alphabet_size": 3, "ratio": 0.3, "max_period": 5}},
                      {"name": "measures", "cylinders": 500}),
    "shift-2-0.7-8": ({"kind": "full-shift",
                       "parameters": {"alphabet_size": 2, "ratio": 0.7, "max_period": 8}},
                      {"name": "measures", "cylinders": 500}),
}

#: chain-sandwich runs whose distinct samples span several blocks of the
#: chain solve and are not a multiple of its block side, so off-sample queries
#: meet padded blocks: each model with its ``max_bases`` and sample size.
_CHAIN = {
    "padic-3-6": ({"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 6}}, 122),  # 488
    "shift-2-0.5-9": ({"kind": "full-shift",
                       "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 9}},
                      100),  # 344
    "shift-2-0.7-9": ({"kind": "full-shift",
                       "parameters": {"alphabet_size": 2, "ratio": 0.7, "max_period": 9}},
                      100),  # 344
}

#: CI's smoke configs, each with the exit code CI requires.
_SMOKE = {
    "smoke-needs": ("run", {
        "space": {"kind": "snowflake-interval",
                  "parameters": {"grid_size": 2048, "alpha": 0.5}},
        "seed": 1,
        "checks": [{"name": "metric-axioms"}, {"name": "flow-laws"}],
    }),
    "smoke-oversized": ("run", {
        "space": {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 15}},
        "checks": [{"name": "ultrametric"}],
    }),
    "smoke-subnormal": ("run", {
        "space": {"kind": "full-shift",
                  "parameters": {"alphabet_size": 2, "ratio": 1e-310, "max_period": 4}},
        "checks": [{"name": "ultrametric"}],
    }),
    "smoke-underflow": ("run", {
        "space": {"kind": "full-shift",
                  "parameters": {"alphabet_size": 2, "ratio": 1e-200, "max_period": 6}},
        "checks": [{"name": "ultrametric"}],
    }),
    "smoke-tiny": ("run", {
        "space": {"kind": "full-shift",
                  "parameters": {"alphabet_size": 2, "ratio": 0.001, "max_period": 10}},
        "checks": [{"name": "metric-axioms"}, {"name": "ultrametric"}],
    }),
    "smoke-chain-2048": ("run", {
        "space": {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 11}},
        "seed": 1,
        "checks": [{"name": "chain-sandwich", "pairs": 500, "max_bases": 512}],
    }),
    "smoke-no-digits": ("run", {
        "space": {"kind": "padic-cycle", "parameters": {"prime": 10**400, "digits": 0}},
        "checks": [{"name": "ultrametric"}],
    }),
    "smoke-tiny-radius": ("run", {
        "space": _FULL_SHIFT,
        "seed": 1,
        "checks": [{"name": "measures", "radii": [0.5, 1e-160]}],
    }),
    "smoke-tiny-ball": ("run", {
        "space": _FULL_SHIFT,
        "seed": 1,
        "checks": [{"name": "measures", "radii": [0.5, 1e-50],
                    "weights": {"0": 0.999, "1": 0.001}}],
    }),
    "smoke-base-times": ("export", {
        "space": _FULL_SHIFT,
        "export": {"metric": "base", "times": [0.0, 0.5]},
    }),
    "smoke-flake": ("export", {
        "space": {"kind": "snowflake-interval",
                  "parameters": {"grid_size": 3, "alpha": 0.3}},
        "export": {"metric": "base"},
    }),
}


def _workloads():
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def operations() -> dict[str, tuple[str, dict, list[str]]]:
    """Each operation's id and its ``(command, config, extra arguments)``.
    A workload export that does not depend on the seed is listed once."""
    ops: dict[str, tuple[str, dict, list[str]]] = {}
    seen = set()
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for small in (False, True):
            for seed in (1, 7):
                for op in workloads.operations(workload, seed, small=small):
                    key = json.dumps([op.command, op.config], sort_keys=True)
                    if key in seen:
                        continue
                    seen.add(key)
                    rung = "small" if small else "large"
                    ops[f"{workload}-{rung}-seed{seed}-{op.name}"] = (op.command, op.config, [])
    from test_config_schema import CHECK_SETUPS

    for name, (space, required) in CHECK_SETUPS.items():
        cfg = {"space": space, "seed": 1, "checks": [{"name": name, **required}]}
        for tol in ("1e-9", "0", "-1e-9"):
            ops[f"check-{name}-tol{tol}"] = ("run", cfg, [f"--tol={tol}"])
    for kind, space in _MODELS.items():
        for metric in _METRICS:
            export = {"metric": metric}
            if metric in _TORUS_METRICS:
                export["times"] = _EXPORT_TIMES
            ops[f"export-{metric}-{kind}"] = ("export", {"space": space, "export": export}, [])
    for model, (space, check) in _NON_DYADIC.items():
        for metric in _TORUS_METRICS:
            export = {"metric": metric, "times": _EXPORT_TIMES}
            ops[f"non-dyadic-{model}-export-{metric}"] = (
                "export", {"space": space, "export": export}, [])
        checks = [{"name": "chain-sandwich", "pairs": 500, "max_bases": 64},
                  {"name": "flow-laws"}, check]
        for seed in (1, 7):
            cfg = {"space": space, "seed": seed, "checks": checks}
            ops[f"non-dyadic-{model}-seed{seed}"] = ("run", cfg, [])
    for model, (space, max_bases) in _CHAIN.items():
        check = {"name": "chain-sandwich", "pairs": 500, "max_bases": max_bases}
        for seed in (1, 7):
            cfg = {"space": space, "seed": seed, "checks": [check]}
            ops[f"chain-{model}-seed{seed}"] = ("run", cfg, [])
    for name, (command, cfg) in _SMOKE.items():
        ops[name] = (command, cfg, [])
    return ops


def record(command: str, cfg: dict, extra: list[str]) -> dict:
    """What one in-process ``cli.main`` call gives, as the fixture keeps it."""
    from solenoidlab import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *extra])
    entry = {"exit": code, "stderr": _TIMING.sub("", err.getvalue())}
    text = out.getvalue()
    if command == "export" and text:
        data = text.encode("utf-8")
        entry["stdout_sha256"] = hashlib.sha256(data).hexdigest()
        entry["stdout_bytes"] = len(data)
    else:
        entry["stdout"] = text
    return entry


def chain_operations() -> list[str]:
    """The ids of the corpus's chain-sandwich operations."""
    return sorted(op_id for op_id in operations()
                  if op_id.startswith("chain-") or op_id == "smoke-chain-2048")


def chain_digest(command: str, cfg: dict, extra: list[str]) -> str:
    """The sha256 of the float64 bytes of every array ``distances_via``
    returns while the operation runs, in call order."""
    from solenoidlab.mapping_torus import ChainMetricTable

    digest = hashlib.sha256()
    original = ChainMetricTable.distances_via

    def digesting(table, *args):
        out = original(table, *args)
        digest.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
        return out

    ChainMetricTable.distances_via = digesting
    try:
        record(command, cfg, extra)
    finally:
        ChainMetricTable.distances_via = original
    return digest.hexdigest()


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def load_chain_digests() -> dict:
    return json.loads(CHAIN_FIXTURE.read_text(encoding="utf-8"))


def _write(path: Path, fixture: dict) -> None:
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} entries to {path}")


def main() -> int:
    ops = operations()
    _write(FIXTURE, {op_id: record(*op) for op_id, op in ops.items()})
    _write(CHAIN_FIXTURE, {op_id: chain_digest(*ops[op_id]) for op_id in chain_operations()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
