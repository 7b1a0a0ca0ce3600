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
export metric on every model kind, served or refused, and one quotient
export whose pairs round differently in the two orientations; the torus
exports and seeded runs of four models whose distances are not powers of
1/2 (the 3-adic and 5-adic rings, full shifts at ratios 0.3 and 0.7);
representative and chain exports of two such models at times on the caps of
the representative window; quotient exports of the 3^3 ring and the two
fixed points at times on both sides of the seam and 1/2 apart;
chain-sandwich runs whose samples end in a partial block of the chain solve;
seeded sampling runs on the 3^2 ring, whose index draws reject 7 of every 16
words; and eleven claims (``claims/``, read by name in :data:`_SMOKE`; its
``smoke-*`` ids predate the claims), exit-2 refusals included.

A report shows a chain distance only through the sandwich's verdict, so
``tests/fixtures/chain_distances.json`` also keeps, for each chain-sandwich
operation of the corpus (``chain-*``, ``smoke-chain-2048`` and the
``rejection-*`` runs at the default tolerance), the sha256
of the distances :meth:`~solenoidlab.mapping_torus.ChainMetricTable.distances_via`
returned for its queried pairs.  A report shows neither the drawn points nor
a quotient distance but through a verdict, so
``tests/fixtures/draw_digests.json`` keeps, for each run of
``quotient-metric``, ``chain-sandwich`` or ``flow-laws`` in the corpus (once
per config: a tolerance changes no draw), the sha256 of what
``cli.quotient_distance_pairs`` returned to the first two (nothing on
bilipschitz glue or in a refused run) and of what ``cli._draw_flow_triples``
returned to the third.  The ``measures`` check draws nothing: its invariance
discrepancy is 0 for every cylinder.
The same command rewrites all three fixtures.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np

import claims

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "fixtures" / "reports.json"
CHAIN_FIXTURE = TESTS / "fixtures" / "chain_distances.json"
DRAW_FIXTURE = TESTS / "fixtures" / "draw_digests.json"
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

#: Times at which 128 of the 576 cells of the 2^3 ring's quotient export
#: round differently from a to b than from b to a, so the export shows
#: whether each pair a < b is computed from a to b.
_ORIENTED_TIMES = [0.1, 0.2, 0.3]

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

#: Times on the caps of the representative window (3/4 from the seam, 1/2
#: apart) and at both sides of the seam, so an admissibility test that moves
#: a cap by a rounding step shows; and two non-dyadic models exported there.
_CAP_TIMES = [0.0, 0.25, 0.5, 0.75, 0.9999999999999999]
_CAP_MODELS = {
    "padic-3-3": {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 3}},
    "shift-2-0.7-5": {"kind": "full-shift",
                      "parameters": {"alphabet_size": 2, "ratio": 0.7, "max_period": 5}},
}

#: Times next to the seam from both sides and 1/2 apart, where the quotient
#: minimum changes its shift; and two isometric models exported there.
_SEAM_TIMES = [0.0, 0.01, 0.49, 0.5, 0.51, 0.99, 0.9999999999999999]
_SEAM_MODELS = {"padic-3-3": _CAP_MODELS["padic-3-3"], "two-fixed-points": _TWO}

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

#: A ring of 9 points: an index draw masks each 32-bit word to 4 bits and
#: rejects the 7 values past 8, so rejections land all through its runs.
_REJECTION_SPACE = {"kind": "padic-cycle", "parameters": {"prime": 3, "digits": 2}}
_REJECTION_CHECKS = [{"name": "quotient-metric"}, {"name": "flow-laws"},
                     {"name": "chain-sandwich", "pairs": 500}]

#: The claims (``claims/``) kept in the corpus, each under its operation id.
_SMOKE = {
    "smoke-needs": "needs", "smoke-oversized": "oversized", "smoke-subnormal": "subnormal",
    "smoke-underflow": "underflow", "smoke-tiny": "tiny", "smoke-chain-2048": "chain-2048-queries",
    "smoke-no-digits": "no-digits", "smoke-tiny-radius": "tiny-radius",
    "smoke-tiny-ball": "tiny-ball", "smoke-base-times": "base-times", "smoke-flake": "flake",
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
    ops["export-quotient-padic-cycle-oriented"] = (
        "export", {"space": _PADIC, "export": {"metric": "quotient", "times": _ORIENTED_TIMES}}, [])
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
    for model, space in _CAP_MODELS.items():
        for metric in ("representative", "chain"):
            export = {"metric": metric, "times": _CAP_TIMES}
            ops[f"cap-times-{model}-export-{metric}"] = (
                "export", {"space": space, "export": export}, [])
    for model, space in _SEAM_MODELS.items():
        export = {"metric": "quotient", "times": _SEAM_TIMES}
        ops[f"seam-times-{model}-export-quotient"] = (
            "export", {"space": space, "export": export}, [])
    for model, (space, max_bases) in _CHAIN.items():
        check = {"name": "chain-sandwich", "pairs": 500, "max_bases": max_bases}
        for seed in (1, 7):
            cfg = {"space": space, "seed": seed, "checks": [check]}
            ops[f"chain-{model}-seed{seed}"] = ("run", cfg, [])
    for seed in (1, 7):
        cfg = {"space": _REJECTION_SPACE, "seed": seed, "checks": _REJECTION_CHECKS}
        ops[f"rejection-padic-3-2-seed{seed}"] = ("run", cfg, [])
        # Below a negative tolerance the equal pairs fail, so the report
        # names the first drawn pair of each pair check.
        ops[f"rejection-padic-3-2-seed{seed}-tol-1e-9"] = ("run", cfg, ["--tol=-1e-9"])
    all_claims = claims.load()
    for op_id, name in _SMOKE.items():
        ops[op_id] = (all_claims[name]["command"], all_claims[name]["config"], [])
    return ops


def record(command: str, cfg: dict, extra: list[str]) -> dict:
    """What one in-process ``cli.main`` call gives, as the fixture keeps it."""
    code, text, err = claims.run_in_process(command, cfg, extra)
    entry = {"exit": code, "stderr": _TIMING.sub("", err)}
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
                  if op_id.startswith("chain-") or op_id == "smoke-chain-2048"
                  or op_id.startswith("rejection-") and not op_id.endswith("-tol-1e-9"))


def _digests(hooks: dict, command: str, cfg: dict, extra: list[str]) -> dict[str, str]:
    """For each ``label: (owner, name)`` of ``hooks``, the sha256 of the
    bytes of every array ``owner.name`` returns while the operation runs, in
    call order: float64, integers as int64, and each array of a tuple in
    turn."""
    digests = {label: hashlib.sha256() for label in hooks}
    originals = {label: getattr(owner, name) for label, (owner, name) in hooks.items()}

    def digesting(label):
        def call(*args):
            out = originals[label](*args)
            for a in out if isinstance(out, tuple) else (out,):
                a = np.asarray(a)
                digests[label].update(
                    a.astype(np.int64 if a.dtype.kind in "iu" else np.float64).tobytes()
                )
            return out
        return call

    try:
        for label, (owner, name) in hooks.items():
            setattr(owner, name, digesting(label))
        record(command, cfg, extra)
    finally:
        for label, (owner, name) in hooks.items():
            setattr(owner, name, originals[label])
    return {label: digest.hexdigest() for label, digest in digests.items()}


def chain_digest(command: str, cfg: dict, extra: list[str]) -> str:
    """The sha256 of the float64 bytes of every array ``distances_via``
    returns while the operation runs, in call order."""
    from solenoidlab.mapping_torus import ChainMetricTable

    hooks = {"distances_via": (ChainMetricTable, "distances_via")}
    return _digests(hooks, command, cfg, extra)["distances_via"]


#: The checks whose draws or quotient distances the draw digests keep, each
#: with the ``cli`` functions it calls that are hashed.
_DRAW_HOOKS = {
    "quotient-metric": ("quotient_distance_pairs",),
    "chain-sandwich": ("quotient_distance_pairs",),
    "flow-laws": ("_draw_flow_triples",),
}


def _hooked(cfg: dict) -> list[str]:
    """The ``cli`` functions hashed in a run of ``cfg``, in sorted order."""
    checks = [check["name"] for check in cfg.get("checks", ())]
    return sorted({name for check in checks for name in _DRAW_HOOKS.get(check, ())})


def draw_operations() -> list[str]:
    """The ids of the corpus's runs of a check in :data:`_DRAW_HOOKS`, one
    per config: the first id in sorted order."""
    seen, ids = set(), []
    for op_id, (command, cfg, _) in sorted(operations().items()):
        key = json.dumps(cfg, sort_keys=True)
        if command == "run" and _hooked(cfg) and key not in seen:
            seen.add(key)
            ids.append(op_id)
    return ids


def draw_digest(command: str, cfg: dict, extra: list[str]) -> dict[str, str]:
    """The digest of each ``cli`` function of :func:`_hooked` over the run."""
    from solenoidlab import cli

    return _digests({name: (cli, name) for name in _hooked(cfg)}, command, cfg, extra)


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def load_chain_digests() -> dict:
    return json.loads(CHAIN_FIXTURE.read_text(encoding="utf-8"))


def load_draw_digests() -> dict:
    return json.loads(DRAW_FIXTURE.read_text(encoding="utf-8"))


def _write(path: Path, fixture: dict) -> None:
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} entries to {path}")


def main() -> int:
    ops = operations()
    _write(FIXTURE, {op_id: record(*op) for op_id, op in ops.items()})
    _write(CHAIN_FIXTURE, {op_id: chain_digest(*ops[op_id]) for op_id in chain_operations()})
    _write(DRAW_FIXTURE, {op_id: draw_digest(*ops[op_id]) for op_id in draw_operations()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
