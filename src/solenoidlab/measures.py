"""Product measures on the shift model and on its glued torus.

Everything here is computed in closed form from cylinder structure; no
sampling is involved.  A ball of radius ``ratio**n`` in the shift metric is
the cylinder fixing the window -n+1 .. n, so its measure is a product of 2n
weights; on the torus the cross-section contributes a factor equal to the
length of the time interval, ``min(2r, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, OutOfRegimeError
from .mapping_torus import TorusPoint, TorusSpace
from .shift_space import Alphabet, PeriodicSequence

_WEIGHT_SUM_TOL = 1.0e-9


@dataclass(frozen=True)
class WeightVector:
    """Per-symbol weights summing to 1, aligned with the alphabet order."""

    alphabet: Alphabet
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.alphabet):
            raise InvalidInputError("one weight per alphabet symbol required")
        if any(v < 0 for v in self.values):
            raise InvalidInputError(f"negative weight in {self.values}")
        total = sum(self.values)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidInputError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "WeightVector":
        return cls(alphabet, (1.0 / len(alphabet),) * len(alphabet))

    @classmethod
    def from_dict(cls, alphabet: Alphabet, weights: Mapping[str, float]) -> "WeightVector":
        if set(weights) != set(alphabet.symbols):
            raise InvalidInputError("weight keys must match the alphabet exactly")
        return cls(alphabet, tuple(float(weights[s]) for s in alphabet.symbols))

    def of(self, symbol: str) -> float:
        return self.values[self.alphabet.index(symbol)]

    def minimum(self) -> float:
        return min(self.values)


@dataclass(frozen=True)
class CylinderSet:
    """Finitely many pinned coordinates, kept sorted by index."""

    alphabet: Alphabet
    constraints: tuple[tuple[int, str], ...]

    @classmethod
    def from_dict(cls, alphabet: Alphabet, constraints: Mapping[int, str]) -> "CylinderSet":
        for sym in constraints.values():
            alphabet.index(sym)
        return cls(alphabet, tuple(sorted((int(j), s) for j, s in constraints.items())))

    @classmethod
    def ball(cls, center: PeriodicSequence, n: int) -> "CylinderSet":
        """The closed ball of radius ``ratio**n`` around ``center``: the
        cylinder pinning indices -n+1 .. n to the center's values."""
        if n < 0:
            raise InvalidInputError(f"ball depth must be nonnegative, got {n}")
        return cls(
            center.alphabet,
            tuple((j, center.value_at(j)) for j in range(-n + 1, n + 1)),
        )

    def shifted(self, k: int) -> "CylinderSet":
        """Pin index j+k wherever this set pins index j."""
        return CylinderSet(self.alphabet, tuple((j + k, s) for j, s in self.constraints))


def cylinder_measure(cyl: CylinderSet, w: WeightVector) -> float:
    """Product of the weights of the pinned symbols (1 for no constraints)."""
    if cyl.alphabet != w.alphabet:
        raise InvalidInputError("cylinder and weights use different alphabets")
    out = 1.0
    for _, sym in cyl.constraints:
        out *= w.of(sym)
    return out


def _cylinder_measures(cylinders: Sequence[CylinderSet], w: WeightVector) -> np.ndarray:
    """:func:`cylinder_measure` of each cylinder, as one array.

    Row ``k`` of a weight table holds the weights of cylinder ``k``'s pinned
    symbols in constraint order, padded with 1.0; multiplying the columns in
    turn gives every product in the scalar function's left-to-right order.
    """
    for cyl in cylinders:
        if cyl.alphabet != w.alphabet:
            raise InvalidInputError("cylinder and weights use different alphabets")
    lengths = np.array([len(cyl.constraints) for cyl in cylinders], dtype=np.intp)
    codes = [w.alphabet.index(s) for cyl in cylinders for _, s in cyl.constraints]
    rows = np.repeat(np.arange(len(cylinders)), lengths)
    cols = np.arange(len(codes)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    table = np.ones((len(cylinders), int(lengths.max(initial=0))))
    table[rows, cols] = np.array(w.values)[codes]
    out = np.ones(len(cylinders))
    for col in table.T:
        out *= col
    return out


def shift_invariance_check(w: WeightVector, cylinders: Iterable[CylinderSet]) -> float:
    """Largest discrepancy between a cylinder's measure and its image under
    one shift step.  The product runs over the same weights either way, in
    the same order, so the exact answer is 0.  A NaN discrepancy is skipped,
    as a running ``max`` would skip it."""
    cylinders = list(cylinders)
    before = _cylinder_measures(cylinders, w)
    after = _cylinder_measures([cyl.shifted(1) for cyl in cylinders], w)
    return float(np.fmax.reduce(np.abs(before - after), initial=0.0))


def _require_positive(w: WeightVector) -> None:
    if w.minimum() <= 0:
        raise InvalidInputError("weights must all be positive for this check")


def _ball_depth(radius: float, ratio: float) -> int:
    # Smallest integer n with ratio**n <= radius; the 1e-9 guard keeps
    # radii that are exact powers of the ratio on the intended depth.
    return max(0, math.ceil(math.log(radius) / math.log(ratio) - 1.0e-9))


def base_ball_measure(
    center: PeriodicSequence, radius: float, ratio: float, w: WeightVector
) -> float:
    """Measure of the closed radius-``radius`` ball in the shift metric."""
    if radius <= 0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    if not 0.0 < ratio < 1.0:
        raise InvalidInputError(f"ratio must lie in (0, 1), got {ratio}")
    return cylinder_measure(CylinderSet.ball(center, _ball_depth(radius, ratio)), w)


def _shift_ratio(ts: TorusSpace) -> float:
    ratio = ts.base_space.power_base
    if ratio is None or not isinstance(ts.base_space.points[0], PeriodicSequence):
        raise InvalidInputError("this measure needs a shift-model base space")
    return ratio


def torus_ball_measure(p: TorusPoint, r: float, ts: TorusSpace, w: WeightVector) -> float:
    """Measure of the radius-``r`` ball around a canonical point of the glued
    shift model: base cylinder measure times the time-interval length.

    Only defined for r in (0, 1/2]; beyond that the time interval wraps into
    itself and the product formula stops being the ball.
    """
    if not isinstance(p.base, PeriodicSequence):
        raise InvalidInputError("this measure needs a shift-model base point")
    if not 0.0 <= p.time < 1.0:
        raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
    if not 0.0 < r <= 0.5:
        raise OutOfRegimeError(f"radius must lie in (0, 1/2], got {r}")
    return base_ball_measure(p.base, r, _shift_ratio(ts), w) * min(2.0 * r, 1.0)


def _family_ratio(
    samples: Sequence[TorusPoint],
    radii: Sequence[float],
    ts: TorusSpace,
    w: WeightVector,
    mode: str,
) -> float:
    """The shift ratio of a ball family's torus, after checking the mode,
    that there is a sample and a radius, and that every weight is positive."""
    if mode not in ("base", "torus"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not samples or not radii:
        raise InvalidInputError("need at least one sample point and one radius")
    _require_positive(w)
    return _shift_ratio(ts)


@dataclass(frozen=True)
class RegularityBand:
    """Envelope of measure(ball)/radius^dim over a family, plus the pooled
    log-log slope.  Banded output: consumers compare the band, nothing is
    pass/fail here."""

    c_low: float
    c_high: float
    fitted_exponent: float


def ahlfors_check(
    samples: Sequence[TorusPoint],
    radii: Sequence[float],
    expected_dim: float,
    ts: TorusSpace,
    w: WeightVector,
    mode: str = "torus",
) -> RegularityBand:
    """Band of ball-measure to radius^expected_dim ratios.

    ``mode="base"`` measures base-space balls around the samples' base
    points; ``mode="torus"`` measures balls in the glued space.
    """
    ratio = _family_ratio(samples, radii, ts, w, mode)
    logs_r = []
    logs_v = []
    ratios = []
    for p in samples:
        for r in radii:
            if mode == "base":
                v = base_ball_measure(p.base, r, ratio, w)
            else:
                v = torus_ball_measure(p, r, ts, w)
            ratios.append(v / r ** expected_dim)
            logs_r.append(math.log(r))
            logs_v.append(math.log(v))
    if len(set(logs_r)) > 1:
        slope = float(np.polyfit(np.array(logs_r), np.array(logs_v), 1)[0])
    else:
        slope = math.nan
    return RegularityBand(
        c_low=min(ratios), c_high=max(ratios), fitted_exponent=slope
    )


def doubling_check(
    samples: Sequence[TorusPoint],
    radii: Sequence[float],
    ts: TorusSpace,
    w: WeightVector,
    mode: str = "torus",
) -> float:
    """Worst ratio measure(B(2r))/measure(B(r)) over the family.

    Needs strictly positive weights; a zero weight makes balls of measure
    zero and the ratio meaningless.
    """
    ratio = _family_ratio(samples, radii, ts, w, mode)
    worst = 0.0
    for p in samples:
        for r in radii:
            if mode == "base":
                big = base_ball_measure(p.base, 2.0 * r, ratio, w)
                small = base_ball_measure(p.base, r, ratio, w)
            else:
                big = torus_ball_measure(p, 2.0 * r, ts, w)
                small = torus_ball_measure(p, r, ts, w)
            worst = max(worst, big / small)
    return worst
