"""Config-driven command line: build a model, run checks, export matrices.

``solenoidlab run config.json`` executes the configured checks and writes a
JSON report that is byte-identical across runs for the same config and seed.
``solenoidlab export config.json`` writes one distance matrix as CSV.
``solenoidlab schema`` prints the config schema.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .connectedness import dense_orbit_check, invariant_components
from .dynamics import adapted_metric, estimate_bilipschitz_constant
from .errors import InvalidInputError
# The names marked unused are kept because bench/spans.py wraps cli's
# bindings of them.
from .mapping_torus import (
    ChainMetricTable,
    TorusPoint,
    circle_distance,  # unused
    dist_to_integers,  # unused
    distances_to_integers,
    distinct_chain_sample,
    flow,  # unused
    flow_law_failures,
    product_distance_matrix,
    product_distance_pairs,
    product_metric,  # unused
    project_to_circle,  # unused
    quotient_distance_matrix,
    quotient_distance_pairs,
    quotient_metric,  # unused
    representative_distance,  # unused
    representative_distance_matrix,
    representative_distance_pairs,
    torus_points_close,  # unused
)
from .measures import (
    CylinderSet,
    WeightVector,
    _require_positive,
    ahlfors_check,
    doubling_check,
    shift_invariance_check,
)
from .metric_core import (
    DEFAULT_TOLERANCE,
    WITNESS_LIMIT,
    box_counting_dimension,
    fit_scales,
    verify_metric_axioms,
    verify_ultrametric,
)
from .models import SPACE_SCHEMA, ModelSpec, build_model, point_label, validate
from .shift_space import PeriodicSequence

_COUNT = {"type": "integer", "minimum": 0}
_TIMES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
}
_NUMBERS = {"type": "array", "minItems": 1, "items": {"type": "number"}}
_RESOLUTION = {"type": "number", "exclusiveMinimum": 0}

#: Every check's parameters as JSON Schema: type, range and ``default``.  A
#: ``description`` names a default that depends on the model; a parameter
#: with neither is required.  Ranges that depend on the model are checked by
#: :func:`_refuse_bad_checks`.
CHECK_PARAMETERS = {
    "metric-axioms": {},
    "ultrametric": {},
    "bilipschitz": {},
    "quotient-metric": {"pairs": {**_COUNT, "default": 1000}},
    "chain-sandwich": {
        "pairs": {**_COUNT, "default": 200},
        "times": {**_TIMES, "default": [0.0, 0.25, 0.5, 0.75]},
        "max_bases": {"type": "integer", "minimum": 1, "default": 16},
    },
    "flow-laws": {"triples": {**_COUNT, "default": 1000}},
    "connectedness": {"epsilon": _RESOLUTION},
    "dense-orbit": {
        "epsilon": _RESOLUTION,
        "origin_index": {"type": "integer", "default": 0},
        "max_iter": {**_COUNT, "description": "default: the number of points"},
    },
    "measures": {
        "cylinders": {**_COUNT, "default": 100},
        "radii": {
            **_NUMBERS,
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
            "default": [0.5 ** k for k in range(1, 6)],
        },
        "weights": {
            "type": "object",
            "additionalProperties": {"type": "number"},
            "description": "weight of each symbol; default: uniform",
        },
    },
    "dimension": {
        "scales": {
            "type": "array",
            "minItems": 3,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}

_TORUS = (lambda m: m.torus is not None, "a model with a glued torus")

#: What a check or an export can need from the model: (test, refusal) pairs.
_NEEDS = {
    "none": (),
    "self-map": ((lambda m: m.mapping is not None, "a model with a self-map"),),
    "glued torus": (_TORUS,),
    "isometric glue": (_TORUS, (lambda m: m.torus.lipschitz_constant == 1.0,
                                "an isometric model (padic-cycle or two-fixed-points)")),
    "sequence space": ((lambda m: isinstance(m.space.points[0], PeriodicSequence),
                        "a sequence-space model"), _TORUS),
}

#: What each export metric needs from the model, a key of ``_NEEDS``.
_EXPORT_NEEDS = {
    "base": "none", "adapted": "self-map", "product": "glued torus",
    "quotient": "isometric glue", "representative": "glued torus", "chain": "glued torus",
}

METRIC_NAMES = tuple(_EXPORT_NEEDS)

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "solenoidlab experiment config",
    "type": "object",
    "required": ["space"],
    "additionalProperties": False,
    "properties": {
        "space": SPACE_SCHEMA,
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**32 - 1},  # numpy's seed range
        "tolerance": {"type": "number", "minimum": 0},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {"name": {"enum": list(CHECK_PARAMETERS)}},
                "allOf": [
                    {
                        "if": {"required": ["name"], "properties": {"name": {"const": name}}},
                        "then": {
                            "required": [
                                key for key, sub in params.items()
                                if "default" not in sub and "description" not in sub
                            ],
                            "additionalProperties": False,
                            "properties": {"name": {}, **params},
                        },
                    }
                    for name, params in CHECK_PARAMETERS.items()
                ],
            },
        },
        "export": {
            "type": "object",
            "required": ["metric"],
            "additionalProperties": False,
            "properties": {
                "metric": {"enum": list(METRIC_NAMES)},
                "times": {**_TIMES, "uniqueItems": True},
            },
        },
        "output": {
            "type": "object",
            "required": ["path"],
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
        },
    },
}

class UsageError(Exception):
    """Bad config or bad flags; maps to exit code 2."""


# ============================================================
# Config plumbing
# ============================================================

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_config(path: str) -> dict:
    """The config at ``path``, checked against :data:`CONFIG_SCHEMA`."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        raise UsageError(f"cannot read config: {e}") from None
    except ValueError as e:
        raise UsageError(f"config is not valid JSON: {e}") from None
    validate(CONFIG_SCHEMA, cfg)
    return cfg


def _arg(check: dict, key: str):
    """The check's ``key`` parameter, or its schema default."""
    return check.get(key, CHECK_PARAMETERS[check["name"]][key]["default"])


def _require(model, need: str, where: str) -> None:
    """Refuse, as ``"<where> needs <what>"``, a model without ``need``."""
    for test, text in _NEEDS[need]:
        if not test(model):
            raise UsageError(f"{where} needs {text}")


def _labels(points):
    return [point_label(p) for p in points]


def _scan_payload(report, passed):
    bad = report.axiom_violations + report.ultrametric_violations
    return {
        "status": "pass" if passed else "fail",
        "diameter": report.diameter,
        "violations": report.axiom_violation_count + report.ultrametric_violation_count,
        "witnesses": [
            {"kind": v.kind, "points": _labels(v.points), "slack": v.slack}
            for v in bad[:WITNESS_LIMIT]
        ],
    }


# ============================================================
# Check implementations
# ============================================================

def _check_metric_axioms(model, check, tol, rng):
    report = verify_metric_axioms(model.space, tol)
    return _scan_payload(report, report.is_metric)


def _check_ultrametric(model, check, tol, rng):
    report = verify_ultrametric(model.space, tol)
    return _scan_payload(report, report.is_ultrametric)


def _check_bilipschitz(model, check, tol, rng):
    est = estimate_bilipschitz_constant(model.space, model.mapping)
    return {
        "status": "report",
        "constant": est.constant,
        "upper": est.c_upper,
        "lower": est.c_lower,
        "expanding_pair": _labels(est.expanding_pair) if est.expanding_pair else None,
        "contracting_pair": _labels(est.contracting_pair) if est.contracting_pair else None,
    }


def _pair_witness(bad, ps, qs, **distances):
    """The labels and distances of the first bad pair, or None."""
    if not bad.size:
        return None
    k = bad[0]
    pair = [point_label(ps[k]), point_label(qs[k])]
    return {"pair": pair, **{name: float(d[k]) for name, d in distances.items()}}


def _check_quotient_metric(model, check, tol, rng):
    ts, pairs = model.torus, _arg(check, "pairs")
    # Draw every pair first, in the order the per-pair loop drew them, then
    # answer them in bulk.
    points = ts.base_space.points
    ps, qs = [], []
    for _ in range(pairs):
        ps.append(TorusPoint(points[rng.randint(len(points))], float(rng.rand())))
        qs.append(TorusPoint(points[rng.randint(len(points))], float(rng.rand())))
    d = quotient_distance_pairs(ts, ps, qs)
    rho = product_distance_pairs(ts, ps, qs)
    circle = distances_to_integers(
        np.array([p.time for p in ps]) - np.array([q.time for q in qs])
    )
    # rho <= 1/2 exactly when both the base distance and the time gap are.
    equality = rho <= 0.5
    err = np.abs(d - rho)
    bad = np.flatnonzero(
        (d > rho + tol) | (d < circle - tol) | (equality & (err > tol))
    )
    return {
        "status": "pass" if bad.size == 0 else "fail",
        "pairs": pairs,
        "equality_pairs": int(np.count_nonzero(equality)),
        "max_equality_error": float(err[equality].max(initial=0.0)),
        "violations": int(bad.size),
        "witness": _pair_witness(bad, ps, qs, quotient=d, product=rho),
    }


def _draw_centered_times(rng):
    # representatives must sit within 1/2 of each other and of the seam
    while True:
        r, t = float(rng.rand()), float(rng.rand())
        if abs(r - t) <= 0.5 and (r + t) / 2 <= 0.5:
            return r, t


def _chain_sample(model, check):
    """The chain sample of a ``chain-sandwich`` check."""
    max_bases = _arg(check, "max_bases")
    points = model.torus.base_space.points
    chosen = points[::max(1, math.ceil(len(points) / max_bases))][:max_bases]
    return [TorusPoint(b, float(t)) for b in chosen for t in _arg(check, "times")]


def _check_chain_sandwich(model, check, tol, rng):
    ts, pairs = model.torus, _arg(check, "pairs")
    table = ChainMetricTable(ts, _chain_sample(model, check))
    c = ts.lipschitz_constant
    stretch = max(c, 2.0 * ts.diameter_bound)
    # Draw every pair first, in the order the per-pair loop drew them, then
    # answer them in bulk.
    points = ts.base_space.points
    ps, qs = [], []
    for _ in range(pairs):
        r, t = _draw_centered_times(rng)
        ps.append(TorusPoint(points[rng.randint(len(points))], r))
        qs.append(TorusPoint(points[rng.randint(len(points))], t))
    delta = representative_distance_pairs(ts, ps, qs)
    d0 = table.distances_via(ps, qs)
    rho = product_distance_pairs(ts, ps, qs)
    ok = (
        (np.minimum(rho / c, 0.5) <= d0 + tol)
        & (d0 <= delta + tol)
        & (delta <= rho + tol)
        & (rho <= stretch * d0 + tol)
    )
    if c == 1.0:
        # Isometric glue: the quotient metric is a metric below every
        # representative term, so it is also below the chain distance.
        ok &= quotient_distance_pairs(ts, ps, qs) <= d0 + tol
    bad = np.flatnonzero(~ok)
    return {
        "status": "pass" if bad.size == 0 else "fail",
        "pairs": pairs,
        "sample_size": len(table),
        "violations": int(bad.size),
        "witness": _pair_witness(
            bad, ps, qs, chain=d0, representative=delta, product=rho
        ),
    }


def _check_flow_laws(model, check, tol, rng):
    ts, triples = model.torus, _arg(check, "triples")
    # Draw every triple first, in the order the per-triple loop drew them,
    # then judge them on index arrays.
    n = len(ts.base_space)
    idx = np.empty(triples, dtype=np.intp)
    times, r, s = np.empty(triples), np.empty(triples), np.empty(triples)
    for k in range(triples):
        idx[k] = rng.randint(n)
        times[k] = rng.rand()
        r[k], s[k] = rng.uniform(-2.0, 2.0, size=2)
    bad = np.flatnonzero(flow_law_failures(ts, idx, times, r, s))
    witness = None
    if bad.size:
        k = bad[0]
        p = TorusPoint(ts.base_space.points[idx[k]], float(times[k]))
        witness = {"point": point_label(p), "r": float(r[k]), "s": float(s[k])}
    return {
        "status": "pass" if bad.size == 0 else "fail",
        "triples": triples,
        "violations": int(bad.size),
        "witness": witness,
    }


def _check_connectedness(model, check, tol, rng):
    epsilon = float(check["epsilon"])
    parts = invariant_components(model.space, model.mapping, epsilon)
    return {
        "status": "report",
        "epsilon": epsilon,
        "components": len(parts.blocks),
        "invariant": parts.invariant,
        "witness": _labels(parts.witness[:8]) if parts.witness else None,
    }


def _check_dense_orbit(model, check, tol, rng):
    epsilon = float(check["epsilon"])
    origin_index = _arg(check, "origin_index")
    max_iter = check.get("max_iter", len(model.space))
    origin = model.space.points[origin_index]
    report = dense_orbit_check(model.space, model.mapping, origin, epsilon, max_iter)
    return {
        "status": "report",
        "epsilon": epsilon,
        "origin": point_label(origin),
        "max_iter": max_iter,
        "dense": report.dense,
        "covering_fraction": report.covering_fraction,
    }


def _band_payload(band):
    # Fewer than two distinct radii leave the slope NaN, which is not JSON.
    slope = band.fitted_exponent
    return {
        "c_low": band.c_low,
        "c_high": band.c_high,
        "fitted_exponent": None if math.isnan(slope) else slope,
    }


#: Indices a drawn cylinder may pin.
_CYLINDER_POOL = np.arange(-6, 7)


def _draw_cylinders(alphabet, count, rng):
    """``count`` cylinders, each pinning 1 to 4 distinct indices of
    ``_CYLINDER_POOL`` to uniform symbols.  The indices are a prefix of
    ``rng.permutation``, which is what ``rng.choice(..., replace=False)``
    draws, so the stream is that of the choice call."""
    symbols = alphabet.symbols
    drawn = []
    for _ in range(count):
        size = rng.randint(1, 5)
        idx = _CYLINDER_POOL[rng.permutation(len(_CYLINDER_POOL))[:size]].tolist()
        drawn.append(
            CylinderSet.from_dict(
                alphabet, {j: symbols[rng.randint(len(symbols))] for j in idx}
            )
        )
    return drawn


def _weights(model, check) -> WeightVector:
    """The ``measures`` weights, given or uniform; keys other than the
    alphabet, a sum other than 1 or a weight <= 0 raise InvalidInputError."""
    alphabet = model.space.points[0].alphabet
    if "weights" not in check:
        return WeightVector.uniform(alphabet)
    w = WeightVector.from_dict(alphabet, check["weights"])
    _require_positive(w)
    return w


def _check_measures(model, check, tol, rng):
    ts = model.torus
    cylinders = _arg(check, "cylinders")
    radii = _arg(check, "radii")
    w = _weights(model, check)
    drawn = _draw_cylinders(w.alphabet, cylinders, rng)
    discrepancy = shift_invariance_check(w, drawn) if drawn else 0.0
    base_dim = 2.0 * math.log(len(w.alphabet)) / math.log(1.0 / model.space.power_base)
    bases = ts.base_space.points[:8]
    samples = [TorusPoint(b, 0.25) for b in bases]
    base_band = ahlfors_check(samples, radii, base_dim, ts, w, mode="base")
    torus_band = ahlfors_check(samples, radii, base_dim + 1.0, ts, w, mode="torus")
    doubling = doubling_check(samples, [r / 2 for r in radii], ts, w)
    return {
        "status": "report",
        "cylinders": cylinders,
        "invariance_discrepancy": discrepancy,
        "base_dimension": base_dim,
        "base_band": _band_payload(base_band),
        "torus_dimension": base_dim + 1.0,
        "torus_band": _band_payload(torus_band),
        "doubling_constant": doubling,
    }


def _check_dimension(model, check, tol, rng):
    scales = [float(v) for v in check["scales"]]
    fit = box_counting_dimension(model.space, scales)
    return {
        "status": "report",
        "scales": list(fit.scales),
        "counts": list(fit.counts),
        "slope": fit.slope,
        "r_squared": fit.r_squared,
    }


class _Check(NamedTuple):
    """A check's function, its need and whether it samples (and needs a seed)."""
    run: Callable
    need: str
    samples: bool


_CHECKS = {
    "metric-axioms": _Check(_check_metric_axioms, "none", False),
    "ultrametric": _Check(_check_ultrametric, "none", False),
    "bilipschitz": _Check(_check_bilipschitz, "self-map", False),
    "quotient-metric": _Check(_check_quotient_metric, "isometric glue", True),
    "chain-sandwich": _Check(_check_chain_sandwich, "glued torus", True),
    "flow-laws": _Check(_check_flow_laws, "glued torus", True),
    "connectedness": _Check(_check_connectedness, "self-map", False),
    "dense-orbit": _Check(_check_dense_orbit, "self-map", False),
    "measures": _Check(_check_measures, "sequence space", True),
    "dimension": _Check(_check_dimension, "none", False),
}


# ============================================================
# Subcommands
# ============================================================

def _build(cfg) -> "BuiltModel":
    try:
        return build_model(ModelSpec.from_dict(cfg["space"]))
    except InvalidInputError as e:
        raise UsageError(f"$.space: {e}") from None


def _resolve_seed(cfg, args, checks):
    if args.seed is not None:
        validate(CONFIG_SCHEMA["properties"]["seed"], args.seed, root="--seed")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None and any(_CHECKS[c["name"]].samples for c in checks):
        raise UsageError(
            "a seed is required when checks sample randomly "
            "(set $.seed or pass --seed)"
        )
    return seed


def _refuse_bad_checks(model, checks) -> None:
    """Refuse, before the first check runs, a check the model cannot serve
    and parameters whose range depends on the model: a chain sample over
    the ceiling, bad ``measures`` weights, a ``dense-orbit`` origin that is
    not a point and ``dimension`` scales not below the diameter."""
    for i, check in enumerate(checks):
        name = check["name"]
        _require(model, _CHECKS[name].need, f"$.checks[{i}]: check {name!r}")
        try:
            if name == "chain-sandwich":
                distinct_chain_sample(model.torus, _chain_sample(model, check))
            elif name == "measures":
                _weights(model, check)
            elif name == "dimension":
                fit_scales(model.space, check["scales"])
        except InvalidInputError as e:
            raise UsageError(f"$.checks[{i}]: {e}") from None
        if name == "dense-orbit" and not 0 <= _arg(check, "origin_index") < len(model.space):
            raise UsageError(f"$.checks[{i}].origin_index: out of range")


def _run(cfg, args) -> tuple[str, int]:
    checks = cfg.get("checks")
    if not checks:
        raise UsageError("$.checks: a run needs at least one check")
    out_format = cfg.get("output", {}).get("format", "json")
    if out_format != "json":
        raise UsageError("$.output.format: run reports are JSON")
    model = _build(cfg)
    seed = _resolve_seed(cfg, args, checks)
    if args.tol is not None and not math.isfinite(args.tol):
        raise UsageError(f"--tol: {args.tol} is not a finite number")
    tol = args.tol if args.tol is not None else cfg.get("tolerance", DEFAULT_TOLERANCE)
    _refuse_bad_checks(model, checks)
    results = []
    started = time.perf_counter()
    for i, check in enumerate(checks):
        rng = np.random.RandomState((seed if seed is not None else 0, i))
        try:
            payload = _CHECKS[check["name"]].run(model, check, tol, rng)
        except InvalidInputError as e:
            raise UsageError(f"$.checks[{i}]: {e}") from None
        results.append({"name": check["name"], **payload})
    elapsed = time.perf_counter() - started
    failed = sum(1 for r in results if r["status"] == "fail")
    envelope = {
        "config": cfg,
        "package": {"name": "solenoidlab", "version": __version__},
        "run": {"seed": seed, "tolerance": tol},
        "results": results,
        "summary": {
            "checks": len(results),
            "passed": sum(1 for r in results if r["status"] == "pass"),
            "failed": failed,
            "reported": sum(1 for r in results if r["status"] == "report"),
            "all_passed": failed == 0,
        },
    }
    print(f"{len(results)} checks in {elapsed:.3f}s", file=sys.stderr)
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    return text, (0 if failed == 0 else 1)


def _export_matrix(cfg, model):
    exp = cfg.get("export")
    if not exp:
        raise UsageError("$.export: an export needs a metric name")
    metric = exp["metric"]
    _require(model, _EXPORT_NEEDS[metric], f"$.export.metric: {metric!r}")
    if metric == "base":
        return _labels(model.space.points), model.space.matrix
    if metric == "adapted":
        tilde = adapted_metric(model.space, model.mapping)
        return _labels(tilde.points), tilde.matrix
    ts = model.torus
    times = exp.get("times")
    if not times:
        raise UsageError(f"$.export.times: required for metric {metric!r}")
    sample = [TorusPoint(b, float(t)) for b in ts.base_space.points for t in times]
    labels = _labels(sample)
    if metric == "product":
        matrix = product_distance_matrix(ts, sample)
    elif metric == "quotient":
        matrix = quotient_distance_matrix(ts, sample)
    elif metric == "representative":
        matrix = representative_distance_matrix(ts, sample)
    else:
        matrix = ChainMetricTable(ts, sample).distance_matrix()
    return labels, matrix


def _export(cfg, args) -> str:
    if cfg.get("output", {}).get("format", "csv") != "csv":
        raise UsageError("$.output.format: matrix exports are CSV")
    model = _build(cfg)
    try:
        labels, matrix = _export_matrix(cfg, model)
    except InvalidInputError as e:
        raise UsageError(f"$.export: {e}") from None
    return _csv_text(labels, matrix)


#: Rows are rendered in blocks of at most this many cells, so the
#: temporaries of a block stay the same size however large the matrix.
_CSV_BLOCK_CELLS = 1 << 14


def _csv_text(labels, matrix) -> str:
    """The label header (quoted as the csv module does), then one line of
    ``repr`` floats per matrix row.

    Each distinct float of a block of rows is rendered once, keyed by its
    bit pattern so that ``-0.0`` and ``0.0`` stay apart.  No ``repr`` of a
    float holds a comma, quote or newline, so the rows need no quoting.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    step = max(1, _CSV_BLOCK_CELLS // max(1, matrix.shape[1]))
    for start in range(0, len(matrix), step):
        block = matrix[start:start + step]
        keys, where = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
        rendered = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        for cells in rendered[where.reshape(block.shape)].tolist():
            out.write(",".join(cells))
            out.write("\n")
    return out.getvalue()


def _write(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parser():
    parser = argparse.ArgumentParser(
        prog="solenoidlab",
        description="verification checks for glued finite metric models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the configured checks")
    run.add_argument("config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--tol", type=float, default=None)
    run.add_argument("--out", default=None)
    exp = sub.add_parser("export", help="write one distance matrix as CSV")
    exp.add_argument("config")
    exp.add_argument("--out", default=None)
    sub.add_parser("schema", help="print the config schema")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "schema":
            sys.stdout.write(json.dumps(CONFIG_SCHEMA, sort_keys=True, indent=2) + "\n")
            return 0
        cfg = _load_config(args.config)
        out_path = args.out or cfg.get("output", {}).get("path")
        if args.command == "run":
            text, code = _run(cfg, args)
            _write(text, out_path)
            return code
        text = _export(cfg, args)
        _write(text, out_path)
        return 0
    except (UsageError, InvalidInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
