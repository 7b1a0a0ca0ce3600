"""Product measures on the shift model and on its glued torus.

Everything here is computed in closed form from cylinder structure; no
sampling is involved.  A ball of radius ``ratio**n`` in the shift metric is
the cylinder fixing the window -n+1 .. n, so its measure is a product of 2n
weights; on the torus the cross-section contributes a factor equal to the
length of the time interval, ``min(2r, 1)``.

Every measure is a product from one kernel, :func:`_cylinder_measures`, over
cylinders held as :class:`CylinderArrays`: two ``(count, width)`` integer
arrays, each row a cylinder's pinned positions and symbol indices sorted by
position, padded with a symbol slot whose weight is exactly 1.0.  The kernel
multiplies each row's weights left to right from 1.0, a column at a time;
multiplying by the padding's 1.0 is exact, so every product keeps the bits
of the scalar loop in ``tests/measures_reference.py``.  A
:class:`CylinderSet`, a ball or a list of radii (:func:`_ball_measures`) is
converted to those arrays and measured in one kernel call.

:func:`shift_invariance_check` reads 0 by construction, whatever the
cylinders: a shifted cylinder pins the same symbols in the same order, so
both products are the same float operations.  It cannot fail.
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
        if not all(math.isfinite(v) for v in self.values):
            raise InvalidInputError(f"non-finite weight in {self.values}")
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


@dataclass(frozen=True, eq=False)
class CylinderArrays:
    """Cylinders as arrays, one row each: row k pins ``positions[k, j]`` to
    ``alphabet.symbols[symbols[k, j]]``, sorted by position.  A row that pins
    fewer than ``width`` indices ends in padding: symbol index
    ``len(alphabet)``, whose weight is 1.0, at position 0."""

    alphabet: Alphabet
    positions: np.ndarray
    symbols: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)

    def shifted(self, k: int) -> "CylinderArrays":
        """Pin index j+k wherever these cylinders pin index j."""
        return CylinderArrays(self.alphabet, self.positions + k, self.symbols)


def _as_arrays(cylinders: Sequence[CylinderSet], w: WeightVector) -> CylinderArrays:
    """``cylinders`` as :class:`CylinderArrays`, positions as Python ints so any index fits."""
    alphabet = w.alphabet
    if any(cyl.alphabet != alphabet for cyl in cylinders):
        raise InvalidInputError("cylinder and weights use different alphabets")
    width = max((len(cyl.constraints) for cyl in cylinders), default=0)
    positions = np.zeros((len(cylinders), width), dtype=object)
    symbols = np.full((len(cylinders), width), len(alphabet), dtype=np.intp)
    for row, cyl in enumerate(cylinders):
        size = len(cyl.constraints)
        positions[row, :size] = [j for j, _ in cyl.constraints]
        symbols[row, :size] = [alphabet.index(s) for _, s in cyl.constraints]
    return CylinderArrays(alphabet, positions, symbols)


def cylinder_measure(cyl: CylinderSet, w: WeightVector) -> float:
    """Product of the weights of the pinned symbols (1 for no constraints)."""
    return float(_cylinder_measures(_as_arrays([cyl], w), w)[0])


def _cylinder_measures(cylinders: CylinderArrays, w: WeightVector) -> np.ndarray:
    """The measure of each cylinder, as one array: its pinned weights
    multiplied in position order, starting from 1.0."""
    if cylinders.alphabet != w.alphabet:
        raise InvalidInputError("cylinder and weights use different alphabets")
    weights = np.array(w.values + (1.0,))
    products = np.ones(len(cylinders))
    for column in weights[cylinders.symbols].T:
        products *= column
    return products


def shift_invariance_check(
    w: WeightVector, cylinders: CylinderArrays | Iterable[CylinderSet]
) -> float:
    """Largest discrepancy between a cylinder's measure and its image under
    one shift step.  A shifted cylinder pins the same symbols in the same
    order, so the two products are equal and the answer is 0 by
    construction.  A NaN discrepancy is skipped, as a running ``max`` would
    skip it."""
    if not isinstance(cylinders, CylinderArrays):
        cylinders = _as_arrays(list(cylinders), w)
    before = _cylinder_measures(cylinders, w)
    after = _cylinder_measures(cylinders.shifted(1), w)
    return float(np.fmax.reduce(np.abs(before - after), initial=0.0))


def _ball_depth(radius: float, ratio: float) -> int:
    """The smallest ``n >= 0`` with ``ratio ** n <= radius``, in the Python float
    power of the model's distances, counted up from the logarithms' floor;
    0 for a radius of 1 or more, infinity included."""
    if not radius > 0:  # NaN too
        raise InvalidInputError(f"radius must be positive, got {radius}")
    if not 0.0 < ratio < 1.0:
        raise InvalidInputError(f"ratio must lie in (0, 1), got {ratio}")
    if radius >= 1.0:
        return 0
    n = max(0, math.floor(math.log(radius) / math.log(ratio)))
    while ratio ** n > radius:
        n += 1
    return n


def base_ball_measure(
    center: PeriodicSequence, radius: float, ratio: float, w: WeightVector
) -> float:
    """Measure of the closed radius-``radius`` ball in the shift metric."""
    return cylinder_measure(CylinderSet.ball(center, _ball_depth(radius, ratio)), w)


def _shift_ratio(ts: TorusSpace) -> float:
    ratio = ts.base_space.power_base
    if ratio is None or not isinstance(ts.base_space.points[0], PeriodicSequence):
        raise InvalidInputError("this measure needs a shift-model base space")
    return ratio


def _ball_measures(samples, radii, ts: TorusSpace, w: WeightVector, mode: str) -> np.ndarray:
    """Each sample's (rows) :func:`base_ball_measure` of each radius (columns),
    times ``min(2r, 1)`` in torus mode, in one :func:`_cylinder_measures` call.
    The balls are checked sample-major, so the first faulty one raises; then
    each is written as one row of the kernel's arrays, its window -n+1 .. n
    read from its center's cells."""
    for p in samples:
        depths = []  # the same for every sample
        for r in radii:
            if mode == "torus":
                if not isinstance(p.base, PeriodicSequence):
                    raise InvalidInputError("this measure needs a shift-model base point")
                if not 0.0 <= p.time < 1.0:
                    raise InvalidInputError(f"time {p.time} is not canonical (needs [0, 1))")
                if not 0.0 < r <= 0.5:
                    raise OutOfRegimeError(f"radius must lie in (0, 1/2], got {r}")
            depths.append(_ball_depth(r, _shift_ratio(ts)))
            if p.base.alphabet != w.alphabet:
                raise InvalidInputError("cylinder and weights use different alphabets")
    depths = np.array(depths, dtype=np.intp)[:, None]
    slots = np.arange(2 * depths.max(initial=0))
    pinned = slots < 2 * depths
    positions = np.where(pinned, slots - depths + 1, 0)
    symbols = []
    for p in samples:
        cells = np.array([w.alphabet.index(s) for s in p.base.cells])
        symbols.append(np.where(pinned, cells[positions % len(cells)], len(w.alphabet)))
    balls = CylinderArrays(
        w.alphabet, np.tile(positions, (len(samples), 1)), np.concatenate(symbols)
    )
    out = _cylinder_measures(balls, w).reshape(len(samples), len(radii))
    if mode == "torus":
        out *= [min(2.0 * r, 1.0) for r in radii]
    return out


def _check_family(samples, radii, ts: TorusSpace, w: WeightVector, mode: str) -> None:
    """Refuse an unknown mode, an empty family, a weight <= 0 or a non-shift torus."""
    if mode not in ("base", "torus"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not samples or not radii:
        raise InvalidInputError("need at least one sample point and one radius")
    if w.minimum() <= 0:
        raise InvalidInputError("weights must all be positive for this check")
    _shift_ratio(ts)


def _refuse_underflow(radii, *divisors) -> None:
    """Refuse the first radius, in family order, one of whose divisors (its
    ball measure, or a power of it) has underflowed to 0."""
    for r, *values in zip(radii, *divisors):
        if 0.0 in values:
            raise InvalidInputError(
                f"radius {r!r} is too small: its ball measure or its power underflows to 0"
            )


def _power(r: float, dim: float) -> float:
    """``r ** dim``, refusing an infinite radius or one whose power overflows."""
    try:
        power = r ** dim
    except OverflowError:
        power = math.inf
    if math.isinf(r) or math.isinf(power):
        raise InvalidInputError(f"radius {r!r} is too large: it or its power is not finite")
    return power


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
    points; ``mode="torus"`` measures balls in the glued space.  A radius
    whose ball measure or ``r ** expected_dim`` underflows to 0, or whose
    power overflows, or that is infinite, raises InvalidInputError.
    """
    _check_family(samples, radii, ts, w, mode)
    values = _ball_measures(samples, radii, ts, w, mode).ravel().tolist()
    radii = [r for _ in samples for r in radii]
    powers = [_power(r, expected_dim) for r in radii]
    _refuse_underflow(radii, values, powers)
    ratios, logs_r, logs_v = zip(*[
        (v / power, math.log(r), math.log(v)) for v, r, power in zip(values, radii, powers)
    ])
    fit = np.polyfit(logs_r, logs_v, 1, full=True) if len(set(logs_r)) > 1 else None
    slope = float(fit[0][0]) if fit and fit[2] == 2 else math.nan  # rank < 2: no line
    return RegularityBand(c_low=min(ratios), c_high=max(ratios), fitted_exponent=slope)


def doubling_check(
    samples: Sequence[TorusPoint],
    radii: Sequence[float],
    ts: TorusSpace,
    w: WeightVector,
    mode: str = "torus",
) -> float:
    """Worst ratio measure(B(2r))/measure(B(r)) over the family.

    Needs strictly positive weights; a zero weight makes balls of measure
    zero and the ratio meaningless.  A radius whose ball measure underflows
    to 0 raises InvalidInputError.
    """
    _check_family(samples, radii, ts, w, mode)
    # Each radius follows its double: per sample, B(2r) is checked before B(r).
    pairs = [x for r in radii for x in (2.0 * r, r)]
    values = _ball_measures(samples, pairs, ts, w, mode).ravel().tolist()
    _refuse_underflow([r for _ in samples for r in radii], values[1::2])
    return max([0.0] + [big / small for big, small in zip(values[::2], values[1::2])])
