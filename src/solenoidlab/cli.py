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
    _require_chain_sample_size,
    circle_distance,  # unused
    dist_to_integers,  # unused
    distances_to_integers,
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
    WeightVector,
    _ball_measures,
    ahlfors_check,
    doubling_check,
    shift_invariance_check,  # unused
)
from .metric_core import (
    DEFAULT_TOLERANCE,
    WITNESS_LIMIT,
    box_counting_dimension,
    fit_scales,
    row_blocks,
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
    return check.get(key, _CHECKS[check["name"]].params[key]["default"])


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

def _check_metric_axioms(model, check, tol, words):
    report = verify_metric_axioms(model.space, tol)
    return _scan_payload(report, report.is_metric)


def _check_ultrametric(model, check, tol, words):
    report = verify_ultrametric(model.space, tol)
    return _scan_payload(report, report.is_ultrametric)


def _check_bilipschitz(model, check, tol, words):
    est = estimate_bilipschitz_constant(model.space, model.mapping)
    return {
        "status": "report",
        "constant": est.constant,
        "upper": est.c_upper,
        "lower": est.c_lower,
        "expanding_pair": _labels(est.expanding_pair) if est.expanding_pair else None,
        "contracting_pair": _labels(est.contracting_pair) if est.contracting_pair else None,
    }


def _pair_witness(bad, ts, i, r, j, t, **distances):
    """The labels and distances of the first bad pair, or None."""
    if not bad.size:
        return None
    k, points = bad[0], ts.base_space.points  # float() keeps each time's repr
    pair = _labels([TorusPoint(points[i[k]], float(r[k])), TorusPoint(points[j[k]], float(t[k]))])
    return {"pair": pair, **{name: float(d[k]) for name, d in distances.items()}}


#: How many 32-bit words a :class:`_Words` reads from its generator at once.
_WORD_BUFFER = 1024


def _word_stream(rng, size):
    """The 32-bit output words of ``rng``, in order, as Python ints, read
    ``size`` at a time: at the full 32-bit range ``randint`` masks nothing
    and rejects nothing, so each value is one word."""
    while True:
        yield from rng.randint(0, 2**32, size=size, dtype=np.uint64).tolist()


class _Words:
    """The scalar ``randint(n)``, ``rand()`` and ``uniform(low, high)`` draws
    of a legacy ``np.random.RandomState``, decoded from its word stream
    (:func:`_word_stream`) as the generator decodes them, so a sequence of
    calls gives the same values, bit for bit, as the same calls on the
    generator.  NumPy keeps the legacy stream frozen (NEP 19).

    The generator runs ahead of the draws by up to ``size`` words, so it
    must not be drawn from again: :func:`_run` makes one reader per sampling
    check, and the check draws from it alone.
    """

    __slots__ = ("_next",)

    def __init__(self, rng, size=_WORD_BUFFER):
        self._next = _word_stream(rng, size).__next__

    def randint(self, n):
        """An index below ``n``: the first word whose low bits, masked to
        the bit length of ``n - 1``, are below ``n``.  ``n == 1`` reads no
        word; an ``n`` past ``2**32``, which the generator draws from two
        words, is refused, as is one below 1."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"cannot draw an index below {n} from one word")
        word, mask = self._next, (1 << (n - 1).bit_length()) - 1
        while True:
            value = word() & mask
            if value < n:
                return value

    def rand(self):
        """A double in [0, 1) from the high 27 and 26 bits of two words."""
        word = self._next
        return ((word() >> 5) * 67108864.0 + (word() >> 6)) / 9007199254740992.0

    def uniform(self, low, high):
        """``low + (high - low) * rand()``, as the generator computes it.
        For a width that is a power of two, as of (-2, 2), the product is
        exact, so the sum is the one rounding however the generator's C code
        was compiled."""
        return low + (high - low) * self.rand()


def _check_quotient_metric(model, check, tol, words):
    ts, pairs = model.torus, _arg(check, "pairs")
    # Draw every pair first from the generator's words, the values the
    # per-pair loop drew with its calls, then answer them in bulk.
    n = len(ts.base_space)
    (i, j), (r, t) = np.empty((2, pairs), dtype=np.intp), np.empty((2, pairs))
    for k in range(pairs):
        i[k], r[k] = words.randint(n), words.rand()
        j[k], t[k] = words.randint(n), words.rand()
    d = quotient_distance_pairs(ts, i, r, j, t)
    rho = product_distance_pairs(ts, i, r, j, t)
    circle = distances_to_integers(r - t)
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
        "witness": _pair_witness(bad, ts, i, r, j, t, quotient=d, product=rho),
    }


def _draw_centered_times(words):
    """Two times drawn with ``words.rand()`` (a :class:`_Words`, or in the
    tests' per-pair loop a generator) until they sit within 1/2 of each
    other and their mean within 1/2 of the seam, as representatives must."""
    while True:
        r, t = float(words.rand()), float(words.rand())
        if abs(r - t) <= 0.5 and (r + t) / 2 <= 0.5:
            return r, t


def _chain_bases(model, check) -> range:
    """The indices of the base points of a ``chain-sandwich`` check's sample."""
    n, max_bases = len(model.torus.base_space), _arg(check, "max_bases")
    return range(0, n, max(1, math.ceil(n / max_bases)))[:max_bases]


def _chain_sample(model, check):
    """The chain sample of a ``chain-sandwich`` check: each of its base
    points at each of its times."""
    points = model.torus.base_space.points
    return [TorusPoint(points[b], float(t))
            for b in _chain_bases(model, check) for t in _arg(check, "times")]


def _refuse_chain_sample(model, check, where):
    """Refuse a chain sample over the table's limit without building it: the
    schema has checked the times, so its distinct points are its bases times
    its distinct times, ``0.0`` and ``-0.0`` being one time as in the
    table's keys."""
    _require_chain_sample_size(len(_chain_bases(model, check)) * len(set(_arg(check, "times"))))


def _check_chain_sandwich(model, check, tol, words):
    ts, pairs = model.torus, _arg(check, "pairs")
    table = ChainMetricTable(ts, _chain_sample(model, check))
    c = ts.lipschitz_constant
    stretch = max(c, 2.0 * ts.diameter_bound)
    # Draw every pair first from the generator's words, the values the
    # per-pair loop drew with its calls, then answer them in bulk.
    n = len(ts.base_space)
    (i, j), (r, t) = np.empty((2, pairs), dtype=np.intp), np.empty((2, pairs))
    for k in range(pairs):
        r[k], t[k] = _draw_centered_times(words)
        i[k], j[k] = words.randint(n), words.randint(n)
    delta = representative_distance_pairs(ts, i, r, j, t)
    d0 = table.distances_via(i, r, j, t)
    rho = product_distance_pairs(ts, i, r, j, t)
    ok = (
        (np.minimum(rho / c, 0.5) <= d0 + tol)
        & (d0 <= delta + tol)
        & (delta <= rho + tol)
        & (rho <= stretch * d0 + tol)
    )
    if c == 1.0:
        # Isometric glue: the quotient metric is a metric below every
        # representative term, so it is also below the chain distance.
        ok &= quotient_distance_pairs(ts, i, r, j, t) <= d0 + tol
    bad = np.flatnonzero(~ok)
    return {
        "status": "pass" if bad.size == 0 else "fail",
        "pairs": pairs,
        "sample_size": len(table),
        "violations": int(bad.size),
        "witness": _pair_witness(
            bad, ts, i, r, j, t, chain=d0, representative=delta, product=rho
        ),
    }


def _draw_flow_triples(words, n, triples):
    """``triples`` flow-law triples over ``n`` base points, as arrays: a base
    index, a time in [0, 1) and two flow times r and s in [-2, 2), drawn
    from the generator's words in the order the per-triple loop drew them
    with ``randint(n)``, ``rand()`` and ``uniform(-2.0, 2.0, size=2)``."""
    idx, (times, r, s) = np.empty(triples, dtype=np.intp), np.empty((3, triples))
    for k in range(triples):
        idx[k], times[k] = words.randint(n), words.rand()
        r[k], s[k] = words.uniform(-2.0, 2.0), words.uniform(-2.0, 2.0)
    return idx, times, r, s


def _check_flow_laws(model, check, tol, words):
    ts, triples = model.torus, _arg(check, "triples")
    # Draw every triple first, then judge them on index arrays.
    idx, times, r, s = _draw_flow_triples(words, len(ts.base_space), triples)
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


def _check_connectedness(model, check, tol, words):
    epsilon = float(check["epsilon"])
    parts = invariant_components(model.space, model.mapping, epsilon)
    return {
        "status": "report",
        "epsilon": epsilon,
        "components": len(parts.blocks),
        "invariant": parts.invariant,
        "witness": _labels(parts.witness[:8]) if parts.witness else None,
    }


def _check_dense_orbit(model, check, tol, words):
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
    # A fit of rank below 2 leaves the slope NaN, which is not JSON.
    slope = band.fitted_exponent
    return {
        "c_low": band.c_low,
        "c_high": band.c_high,
        "fitted_exponent": None if math.isnan(slope) else slope,
    }


def _weights(model, check) -> WeightVector:
    """The ``measures`` weights, given or uniform; keys other than the
    alphabet or a sum other than 1 raise InvalidInputError (the schema
    refuses a weight <= 0)."""
    alphabet = model.space.points[0].alphabet
    if "weights" not in check:
        return WeightVector.uniform(alphabet)
    return WeightVector.from_dict(alphabet, check["weights"])


def _measure_family(model, check):
    """The ``measures`` weights, the base space's dimension under them, and
    the ball centers: the first eight base points at time 0.25."""
    w = _weights(model, check)
    base_dim = 2.0 * math.log(len(w.alphabet)) / math.log(1.0 / model.space.power_base)
    samples = [TorusPoint(b, 0.25) for b in model.torus.base_space.points[:8]]
    return w, base_dim, samples


def _check_measures(model, check, tol, words):
    ts = model.torus
    radii = _arg(check, "radii")
    w, base_dim, samples = _measure_family(model, check)
    base_band = ahlfors_check(samples, radii, base_dim, ts, w, mode="base")
    torus_band = ahlfors_check(samples, radii, base_dim + 1.0, ts, w, mode="torus")
    doubling = doubling_check(samples, [r / 2 for r in radii], ts, w)
    return {
        "status": "report",
        "cylinders": _arg(check, "cylinders"),
        # A shifted cylinder pins the same symbols in the same order, so every
        # cylinder's discrepancy is 0.
        "invariance_discrepancy": 0.0,
        "base_dimension": base_dim,
        "base_band": _band_payload(base_band),
        "torus_dimension": base_dim + 1.0,
        "torus_band": _band_payload(torus_band),
        "doubling_constant": doubling,
    }


def _refuse_measures(model, check, where):
    """Refuse weights that do not fit the alphabet, then a radius r too
    small for the model: one whose half, powers ``r ** dim`` or ball measures
    underflow to 0.  The bands divide by the powers and by the measures of
    B(r) and take their logarithms; the doubling constant divides by the
    measure of B(r/2).  A torus ball's measure is below its base ball's, so
    the torus balls of r, r/2 and its double stand for all of them."""
    w, base_dim, samples = _measure_family(model, check)
    for k, r in enumerate(_arg(check, "radii")):
        half = r / 2
        if (
            half == 0.0
            or r ** base_dim == 0.0
            or r ** (base_dim + 1.0) == 0.0
            or not _ball_measures(samples, [r, 2.0 * half, half], model.torus, w, "torus").all()
        ):
            raise UsageError(
                f"{where}.radii[{k}]: radius {r!r} is too small for this model: "
                "its half, a power of it or a ball measure underflows to 0"
            )


def _check_dimension(model, check, tol, words):
    scales = [float(v) for v in check["scales"]]
    fit = box_counting_dimension(model.space, scales)
    return {
        "status": "report",
        "scales": list(fit.scales),
        "counts": list(fit.counts),
        "slope": fit.slope,
        "r_squared": fit.r_squared,
    }


def _refuse_origin(model, check, where):
    if _arg(check, "origin_index") >= len(model.space):
        raise UsageError(f"{where}.origin_index: out of range")


class _Check(NamedTuple):
    """A check: its function ``run(model, check, tol, words)``, its
    parameters as JSON Schema (see ``CONFIG_SCHEMA``), its need (a key of
    ``_NEEDS``), whether it samples and so needs a seed and gets a
    :class:`_Words` as ``words`` (None otherwise), and
    ``refuse(model, check, where)``, which raises for parameters whose
    range depends on the model."""
    run: Callable
    params: dict
    need: str
    samples: bool
    refuse: Callable = lambda model, check, where: None


#: One row per check.  A parameter's ``description`` names a default that
#: depends on the model; a parameter with neither it nor a ``default`` is
#: required.  The refusals call through this module's bindings.
_CHECKS = {
    "metric-axioms": _Check(_check_metric_axioms, {}, "none", False),
    "ultrametric": _Check(_check_ultrametric, {}, "none", False),
    "bilipschitz": _Check(_check_bilipschitz, {}, "self-map", False),
    "quotient-metric": _Check(_check_quotient_metric, {"pairs": {**_COUNT, "default": 1000}},
                              "isometric glue", True),
    "chain-sandwich": _Check(_check_chain_sandwich, {
        "pairs": {**_COUNT, "default": 200},
        "times": {**_TIMES, "default": [0.0, 0.25, 0.5, 0.75]},
        "max_bases": {"type": "integer", "minimum": 1, "default": 16},
    }, "glued torus", True, _refuse_chain_sample),
    "flow-laws": _Check(_check_flow_laws, {"triples": {**_COUNT, "default": 1000}},
                        "glued torus", True),
    "connectedness": _Check(_check_connectedness, {"epsilon": _RESOLUTION}, "self-map", False),
    "dense-orbit": _Check(_check_dense_orbit, {
        "epsilon": _RESOLUTION,
        "origin_index": {"type": "integer", "minimum": 0, "default": 0},
        "max_iter": {**_COUNT, "description": "default: the number of points"},
    }, "self-map", False, _refuse_origin),
    "measures": _Check(_check_measures, {
        "cylinders": {**_COUNT, "default": 100},
        "radii": {
            **_NUMBERS,
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
            "default": [0.5 ** k for k in range(1, 6)],
        },
        "weights": {
            "type": "object",
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
            "description": "weight of each symbol; default: uniform",
        },
    }, "sequence space", False, _refuse_measures),
    "dimension": _Check(_check_dimension, {
        "scales": {"type": "array", "minItems": 3, "items": _RESOLUTION},
    }, "none", False, lambda model, check, where: fit_scales(model.space, check["scales"])),
}


class _Export(NamedTuple):
    """An export metric: its need, a key of ``_NEEDS``, and its matrix.  A
    torus metric (one that needs a torus) gives ``matrix(ts, sample)`` over
    the base points at each of the export's times; any other metric gives
    ``matrix(model)``, a space whose points and matrix are exported."""
    need: str
    matrix: Callable


#: One row per export metric.  The rows call through this module's bindings
#: at call time, so that a wrapper installed on one is used.
_EXPORTS = {
    "base": _Export("none", lambda model: model.space),
    "adapted": _Export("self-map", lambda model: adapted_metric(model.space, model.mapping)),
    "product": _Export("glued torus", lambda ts, s: product_distance_matrix(ts, s)),
    "quotient": _Export("isometric glue", lambda ts, s: quotient_distance_matrix(ts, s)),
    "representative": _Export("glued torus", lambda ts, s: representative_distance_matrix(ts, s)),
    "chain": _Export("glued torus", lambda ts, s: ChainMetricTable(ts, s).distance_matrix()),
}

METRIC_NAMES = tuple(_EXPORTS)

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
                "properties": {"name": {"enum": list(_CHECKS)}},
                "allOf": [
                    {
                        "if": {"required": ["name"], "properties": {"name": {"const": name}}},
                        "then": {
                            "required": [
                                key for key, sub in row.params.items()
                                if "default" not in sub and "description" not in sub
                            ],
                            "additionalProperties": False,
                            "properties": {"name": {}, **row.params},
                        },
                    }
                    for name, row in _CHECKS.items()
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
            # A torus metric is exported over the base points at these times;
            # any other metric takes none.
            "if": {"required": ["metric"], "properties": {"metric": {"enum": [
                name for name, row in _EXPORTS.items() if _TORUS in _NEEDS[row.need]
            ]}}},
            "then": {"required": ["times"]},
            "else": {"propertyNames": {"enum": ["metric"]}},
        },
        "output": {
            "type": "object",
            "required": ["path"],
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
            },
        },
    },
}


# ============================================================
# Subcommands
# ============================================================

def _build(cfg) -> "BuiltModel":
    """The model of ``cfg``, whose ``$.space`` :func:`_load_config` has validated."""
    try:
        return build_model(ModelSpec(**cfg["space"]))
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
    and then parameters whose range depends on the model (the row's
    ``refuse``), check by check."""
    for i, check in enumerate(checks):
        name, where = check["name"], f"$.checks[{i}]"
        row = _CHECKS[name]
        _require(model, row.need, f"{where}: check {name!r}")
        try:
            row.refuse(model, check, where)
        except InvalidInputError as e:
            raise UsageError(f"{where}: {e}") from None


def _run(cfg, args) -> tuple[str, int]:
    checks = cfg.get("checks")
    if not checks:
        raise UsageError("$.checks: a run needs at least one check")
    model = _build(cfg)
    seed = _resolve_seed(cfg, args, checks)
    if args.tol is not None and not math.isfinite(args.tol):
        raise UsageError(f"--tol: {args.tol} is not a finite number")
    tol = args.tol if args.tol is not None else cfg.get("tolerance", DEFAULT_TOLERANCE)
    _refuse_bad_checks(model, checks)
    results = []
    started = time.perf_counter()
    for i, check in enumerate(checks):
        row = _CHECKS[check["name"]]
        # Only a sampling check gets a reader; _resolve_seed has required a seed for it.
        words = _Words(np.random.RandomState((seed, i))) if row.samples else None
        try:
            payload = row.run(model, check, tol, words)
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
    row = _EXPORTS[metric]
    _require(model, row.need, f"$.export.metric: {metric!r}")
    if _TORUS not in _NEEDS[row.need]:
        space = row.matrix(model)
        return _labels(space.points), space.matrix
    ts = model.torus
    sample = [TorusPoint(b, float(t)) for b in ts.base_space.points for t in exp["times"]]
    return _labels(sample), row.matrix(ts, sample)


def _export(cfg, args) -> str:
    model = _build(cfg)
    try:
        labels, matrix = _export_matrix(cfg, model)
    except InvalidInputError as e:
        raise UsageError(f"$.export: {e}") from None
    return _csv_text(labels, matrix)


def _csv_text(labels, matrix) -> str:
    """The label header (quoted as the csv module does), then one line of
    ``repr`` floats per matrix row.

    The rows are rendered in :func:`~solenoidlab.metric_core.row_blocks`,
    so the temporaries of a block stay the same size however large the
    matrix.  Each distinct float of a block is rendered once, keyed by its
    bit pattern so that ``-0.0`` and ``0.0`` stay apart.  No ``repr`` of a
    float holds a comma, quote or newline, so the rows need no quoting.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    for rows in row_blocks(*matrix.shape):
        block = matrix[rows]
        keys, where = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
        rendered = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        for cells in rendered[where.reshape(block.shape)].tolist():
            out.write(",".join(cells))
            out.write("\n")
    return out.getvalue()


def _write(text, path, where):
    """``text`` to ``path``, or to stdout when there is none; a path that
    cannot be written is a usage error named by ``where``."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"{where}: cannot write {path}: {e.strerror or e}") from None


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


def _attach_tol(argv: list[str]) -> list[str]:
    """``argv`` with each ``--tol VALUE`` written ``--tol=VALUE``.

    argparse takes an argument that starts with ``-`` for an option unless it
    reads as a plain negative decimal, so ``--tol -1e-9`` would leave
    ``--tol`` without its value.  Only a value that parses as a float is
    attached: ``--tol`` before an option still lacks one.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--tol":
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"--tol={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_tol(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "schema":
            sys.stdout.write(json.dumps(CONFIG_SCHEMA, sort_keys=True, indent=2) + "\n")
            return 0
        cfg = _load_config(args.config)
        out_path = args.out or cfg.get("output", {}).get("path")
        where = "--out" if args.out else "$.output.path"
        if args.command == "run":
            text, code = _run(cfg, args)
            _write(text, out_path, where)
            return code
        _write(_export(cfg, args), out_path, where)
        return 0
    except (UsageError, InvalidInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
