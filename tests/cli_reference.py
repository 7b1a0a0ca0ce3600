"""Reference CLI check: ``chain-sandwich`` one pair at a time.

The command line draws every pair first and answers them in bulk.  This is
the loop it replaced, which draws, queries and judges each pair in turn, so
tests can hold the bulk check to the same payload for the same seed.  Its
chain queries come from ``mapping_torus_reference``.
"""

from __future__ import annotations

import math

import mapping_torus_reference as ref
from solenoidlab import ChainMetricTable, TorusPoint, point_label, product_metric
from solenoidlab.cli import _count, _draw_centered_times, _need_torus, _param


def check_chain_sandwich_by_pair(model, check, index, tol, rng):
    ts = _need_torus(model, "chain-sandwich")
    pairs = _count(check, index, "pairs", 200)
    times = _param(check, index, "times", "floats", default=[0.0, 0.25, 0.5, 0.75])
    max_bases = _param(check, index, "max_bases", "int", default=16)
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
