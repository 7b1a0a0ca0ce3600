"""Reference measures: one scalar product per cylinder or ball, kept as the oracle.

``measures`` holds cylinders as index arrays and multiplies all their
weights in one :func:`~solenoidlab.measures._cylinder_measures` call, and
builds every ball of a family as one more row of those arrays.  This module
keeps the per-cylinder and per-ball loops that call replaced, in the same
order of cylinders, samples and radii and with the same checks per ball, and
the depth rule in its plainest form: count up from 0 until ``ratio ** n <=
radius``.  Property tests hold the library's views to these bit for bit, the
error raised for the first faulty ball included, and then for the first
radius whose ball measure or power underflows to 0.
"""

from __future__ import annotations

import math

import numpy as np

from solenoidlab import (
    CylinderSet,
    InvalidInputError,
    OutOfRegimeError,
    PeriodicSequence,
    RegularityBand,
)


def ball_depth(radius: float, ratio: float) -> int:
    """The smallest ``n >= 0`` with ``ratio ** n <= radius``."""
    n = 0
    while ratio ** n > radius:
        n += 1
    return n


def cylinder_measure(cyl, w) -> float:
    if cyl.alphabet != w.alphabet:
        raise InvalidInputError("cylinder and weights use different alphabets")
    out = 1.0
    for _, sym in cyl.constraints:
        out *= w.of(sym)
    return out


def shift_invariance_check(w, cylinders) -> float:
    worst = 0.0
    for cyl in cylinders:
        worst = max(worst, abs(cylinder_measure(cyl, w) - cylinder_measure(cyl.shifted(1), w)))
    return worst


def base_ball_measure(center, radius, ratio, w) -> float:
    if radius <= 0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    if not 0.0 < ratio < 1.0:
        raise InvalidInputError(f"ratio must lie in (0, 1), got {ratio}")
    return cylinder_measure(CylinderSet.ball(center, ball_depth(radius, ratio)), w)


def shift_ratio(ts) -> float:
    ratio = ts.base_space.power_base
    if ratio is None or not isinstance(ts.base_space.points[0], PeriodicSequence):
        raise InvalidInputError("this measure needs a shift-model base space")
    return ratio


def torus_ball_measure(p, r, ts, w) -> float:
    if not isinstance(p.base, PeriodicSequence):
        raise InvalidInputError("this measure needs a shift-model base point")
    if not 0.0 <= p.time < 1.0:
        raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    if not 0.0 < r <= 0.5:
        raise OutOfRegimeError(f"radius must lie in (0, 1/2], got {r}")
    return base_ball_measure(p.base, r, shift_ratio(ts), w) * min(2.0 * r, 1.0)


def family_ratio(samples, radii, ts, w, mode) -> float:
    if mode not in ("base", "torus"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not samples or not radii:
        raise InvalidInputError("need at least one sample point and one radius")
    if w.minimum() <= 0:
        raise InvalidInputError("weights must all be positive for this check")
    return shift_ratio(ts)


def underflow(r) -> InvalidInputError:
    return InvalidInputError(
        f"radius {r!r} is too small: its ball measure or its power underflows to 0")


def power(r, dim) -> float:
    try:
        rd = r ** dim
    except OverflowError:
        rd = math.inf
    if math.isinf(r) or math.isinf(rd):
        raise InvalidInputError(f"radius {r!r} is too large: it or its power is not finite")
    return rd


def ball_measure(p, r, ratio, ts, w, mode) -> float:
    if mode == "base":
        return base_ball_measure(p.base, r, ratio, w)
    return torus_ball_measure(p, r, ts, w)


def ahlfors_check(samples, radii, expected_dim, ts, w, mode="torus") -> RegularityBand:
    ratio = family_ratio(samples, radii, ts, w, mode)
    balls = [(r, ball_measure(p, r, ratio, ts, w, mode)) for p in samples for r in radii]
    logs_r, logs_v, ratios = [], [], []
    # Every power is taken, and an infinite radius or power refused, before any underflow.
    powers = [power(r, expected_dim) for r, _ in balls]
    for (r, v), rd in zip(balls, powers):
        if v == 0.0 or rd == 0.0:
            raise underflow(r)
    for (r, v), rd in zip(balls, powers):
        ratios.append(v / rd)
        logs_r.append(math.log(r))
        logs_v.append(math.log(v))
    # A fit of rank below 2 (fewer than two distinct radii, or radii too
    # close together) gives no slope.
    slope = math.nan
    if len(set(logs_r)) > 1:
        (a, _), _, rank, _, _ = np.polyfit(np.array(logs_r), np.array(logs_v), 1, full=True)
        if rank == 2:
            slope = float(a)
    return RegularityBand(c_low=min(ratios), c_high=max(ratios), fitted_exponent=slope)


def doubling_check(samples, radii, ts, w, mode="torus") -> float:
    ratio = family_ratio(samples, radii, ts, w, mode)
    balls = [
        (r, ball_measure(p, 2.0 * r, ratio, ts, w, mode), ball_measure(p, r, ratio, ts, w, mode))
        for p in samples for r in radii
    ]
    worst = 0.0
    for r, _, small in balls:
        if small == 0.0:
            raise underflow(r)
    for _, big, small in balls:
        worst = max(worst, big / small)
    return worst
