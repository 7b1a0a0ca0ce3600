"""Reference model spaces, built eagerly with their whole N x N tables.

``models.build_padic_cycle`` and ``models.build_full_shift`` give their
spaces in closed form and build the exponent table, a row block at a time,
only when it is read.  This module keeps the eager builds they replaced: the
residue ring's table in a single pass over a full N x N table of index gaps,
and the full shift's from the cell-by-cell depth loop of
``shift_space_reference``, each handed to ``FiniteMetricSpace`` as levels
read off the whole table (``metric_reference.table_levels``).  Property
tests hold the lazy spaces to them byte for byte.

It also keeps the maps tabulated point by point, which the builders
replaced with closed-form index arrays: the full shift's image looked up
after shifting each point, and the residue ring's from ``(x + 1) % p**d``.
"""

from __future__ import annotations

import numpy as np

import metric_reference
import shift_space_reference
from solenoidlab import (
    Alphabet,
    FiniteMetricSpace,
    PeriodicSequence,
    SelfMap,
    enumerate_periodic_points,
    self_map_from_function,
)


def padic_exponents_all_at_once(prime: int, digits: int) -> np.ndarray:
    """The multiplicity of ``prime`` in ``i - j`` for every pair, inf on the
    diagonal."""
    modulus = prime ** digits
    diffs = np.arange(modulus)
    valuation = np.zeros(modulus)
    for e in range(1, digits):
        valuation[diffs % prime ** e == 0] += 1.0
    valuation[0] = np.inf
    gaps = diffs[:, None] - diffs[None, :]
    return valuation[np.abs(gaps, out=gaps)]


def padic_space_eager(prime: int, digits: int) -> FiniteMetricSpace:
    return FiniteMetricSpace(
        points=tuple(range(prime ** digits)),
        power_base=1.0 / prime,
        levels=metric_reference.table_levels(padic_exponents_all_at_once(prime, digits)),
    )


def full_shift_space_eager(alphabet_size: int, ratio: float, max_period: int) -> FiniteMetricSpace:
    alphabet = Alphabet(tuple("0123456789abcdefghijklmnopqrstuvwxyz"[:alphabet_size]))
    points = tuple(enumerate_periodic_points(alphabet, max_period))
    return FiniteMetricSpace(
        points=points,
        power_base=ratio,
        levels=metric_reference.table_levels(
            shift_space_reference.pairwise_depth_matrix(points)
        ),
    )


def two_fixed_points_eager() -> FiniteMetricSpace:
    alphabet = Alphabet(("0", "1"))
    return FiniteMetricSpace(
        points=tuple(PeriodicSequence.from_cells(alphabet, (s,)) for s in "01"),
        power_base=0.5,
        levels=metric_reference.table_levels(np.array([[np.inf, 0.0], [0.0, np.inf]])),
    )


def full_shift_map_by_lookup(alphabet_size: int, max_period: int) -> SelfMap:
    """The shift tabulated point by point: each point is shifted and its
    image looked up among the enumerated points."""
    alphabet = Alphabet(tuple("0123456789abcdefghijklmnopqrstuvwxyz"[:alphabet_size]))
    points = enumerate_periodic_points(alphabet, max_period)
    return self_map_from_function(points, shift_space_reference.shift)


def padic_map_by_steps(prime: int, digits: int) -> SelfMap:
    """The +1 map of Z / prime^digits tabulated point by point."""
    modulus = prime ** digits
    return self_map_from_function(range(modulus), lambda x: (x + 1) % modulus)
