"""Reference model spaces, built eagerly with their whole N x N tables.

``models.build_padic_cycle`` and ``models.build_full_shift`` give their
spaces in closed form and build the exponent table, a row block at a time,
only when it is read.  This module keeps the eager builds they replaced: the
residue ring's table in a single pass over a full N x N table of index gaps,
and the full shift's from the cell-by-cell depth loop of
``shift_space_reference``, each handed to ``FiniteMetricSpace`` as an
explicit exponent table.  Property tests hold the lazy spaces to them byte
for byte.
"""

from __future__ import annotations

import numpy as np

import shift_space_reference
from solenoidlab import (
    Alphabet,
    FiniteMetricSpace,
    PeriodicSequence,
    enumerate_periodic_points,
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
        exponents=padic_exponents_all_at_once(prime, digits),
    )


def full_shift_space_eager(alphabet_size: int, ratio: float, max_period: int) -> FiniteMetricSpace:
    alphabet = Alphabet(tuple("0123456789abcdefghijklmnopqrstuvwxyz"[:alphabet_size]))
    points = tuple(enumerate_periodic_points(alphabet, max_period))
    return FiniteMetricSpace(
        points=points,
        power_base=ratio,
        exponents=shift_space_reference.pairwise_depth_matrix(points),
    )


def two_fixed_points_eager() -> FiniteMetricSpace:
    alphabet = Alphabet(("0", "1"))
    return FiniteMetricSpace(
        points=tuple(PeriodicSequence.from_cells(alphabet, (s,)) for s in "01"),
        power_base=0.5,
        exponents=np.array([[np.inf, 0.0], [0.0, np.inf]]),
    )
