"""Reference CLI code: the ``quotient-metric`` and ``chain-sandwich`` checks
one pair at a time, the ``flow-laws`` check one triple at a time and the CSV
writer one row at a time.

The command line draws every pair or triple first and answers them in bulk,
and renders CSV rows a block at a time.  These are the loops they replaced,
which draw, query and judge each pair or triple in turn, so tests can hold
the bulk checks to the same payload for the same seed and the writer to the
same bytes.  Their torus distances and canonical points come from
``mapping_torus_reference``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import mapping_torus_reference as ref
from solenoidlab import (
    ChainMetricTable,
    TorusPoint,
    circle_distance,
    dist_to_integers,
    point_label,
    product_metric,
)
from solenoidlab.cli import _arg, _draw_centered_times


def check_quotient_metric_by_pair(model, check, tol, rng):
    ts = model.torus
    pairs = _arg(check, "pairs")
    points = ts.base_space.points
    violations = 0
    witness = None
    equality_pairs = 0
    max_equality_error = 0.0
    for _ in range(pairs):
        p = TorusPoint(points[rng.randint(len(points))], float(rng.rand()))
        q = TorusPoint(points[rng.randint(len(points))], float(rng.rand()))
        d = ref.quotient_metric_by_loop(p, q, ts)
        rho = product_metric(p.base, p.time, q.base, q.time, ts)
        bad = d > rho + tol or d < dist_to_integers(p.time - q.time) - tol
        if ts.base_space.dist(p.base, q.base) <= 0.5 and abs(p.time - q.time) <= 0.5:
            equality_pairs += 1
            err = abs(d - rho)
            max_equality_error = max(max_equality_error, err)
            bad = bad or err > tol
        if bad:
            violations += 1
            if witness is None:
                witness = {
                    "pair": [point_label(p), point_label(q)],
                    "quotient": d,
                    "product": rho,
                }
    return {
        "status": "pass" if violations == 0 else "fail",
        "pairs": pairs,
        "equality_pairs": equality_pairs,
        "max_equality_error": max_equality_error,
        "violations": violations,
        "witness": witness,
    }


def check_chain_sandwich_by_pair(model, check, tol, rng):
    ts = model.torus
    pairs = _arg(check, "pairs")
    times = [float(t) for t in _arg(check, "times")]
    max_bases = _arg(check, "max_bases")
    points = ts.base_space.points
    step = max(1, math.ceil(len(points) / max_bases))
    chosen = points[::step][:max_bases]
    sample = [TorusPoint(b, t) for b in chosen for t in times]
    table = ChainMetricTable(ts, sample)
    c = ts.lipschitz_constant
    stretch = max(c, 2.0 * ts.diameter_bound)
    violations = 0
    witness = None
    for _ in range(pairs):
        r, t = _draw_centered_times(rng)
        p = TorusPoint(points[rng.randint(len(points))], r)
        q = TorusPoint(points[rng.randint(len(points))], t)
        delta = ref.representative_distance_by_loop(p, q, ts)
        rho = product_metric(p.base, p.time, q.base, q.time, ts)
        d0 = ref.distance_via_by_block(table, p, q)
        ok = (
            min(rho / c, 0.5) <= d0 + tol
            and d0 <= delta + tol
            and delta <= rho + tol
            and rho <= stretch * d0 + tol
            and (c != 1.0 or ref.quotient_metric_by_loop(p, q, ts) <= d0 + tol)
        )
        if not ok:
            violations += 1
            if witness is None:
                witness = {
                    "pair": [point_label(p), point_label(q)],
                    "chain": d0,
                    "representative": delta,
                    "product": rho,
                }
    return {
        "status": "pass" if violations == 0 else "fail",
        "pairs": pairs,
        "sample_size": len(table),
        "violations": violations,
        "witness": witness,
    }


def check_flow_laws_by_triple(model, check, tol, rng):
    ts = model.torus
    triples = _arg(check, "triples")
    points = ts.base_space.points

    def flow(p, r):
        return ref.canonicalize_by_steps(p.base, p.time + r, ts)

    violations = 0
    witness = None
    for _ in range(triples):
        p = TorusPoint(points[rng.randint(len(points))], float(rng.rand()))
        r, s = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        lhs = flow(flow(p, s), r)
        rhs = flow(p, r + s)
        moved = flow(p, r).time
        ok = ref.points_close_by_steps(lhs, rhs, ts, 1e-12) and (
            circle_distance(moved, p.time + r) <= 1e-9
        )
        if not ok:
            violations += 1
            if witness is None:
                witness = {"point": point_label(p), "r": r, "s": s}
    return {
        "status": "pass" if violations == 0 else "fail",
        "triples": triples,
        "violations": violations,
        "witness": witness,
    }


#: Rows stop adding rendered floats to an export's cache once it holds this
#: many, and later new values are rendered at each occurrence.
REPR_CACHE_LIMIT = 1 << 14


def csv_text_by_row(labels, matrix) -> str:
    """The label header, then one line of ``repr`` floats per matrix row,
    each distinct float rendered once per export (up to
    :data:`REPR_CACHE_LIMIT` of them), keyed by its bit pattern."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)
    rendered: dict[int, str] = {}
    for row in np.ascontiguousarray(matrix, dtype=np.float64):
        keys = row.view(np.uint64).tolist()
        cells = list(map(rendered.get, keys))
        if None in cells:
            cells = [c or repr(v) for c, v in zip(cells, row.tolist())]
            if len(rendered) < REPR_CACHE_LIMIT:
                rendered.update(zip(keys, cells))
        out.write(",".join(cells))
        out.write("\n")
    return out.getvalue()
