"""Reference exponent table of the residue-ring model, built in one pass.

``models.build_padic_cycle`` fills its exponent table a row block at a time.
This module keeps the single pass it replaced, with a full N x N table of
index gaps, so property tests can hold the blocked table to it byte for
byte.
"""

from __future__ import annotations

import numpy as np


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
