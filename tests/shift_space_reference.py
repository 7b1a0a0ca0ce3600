"""Scalar references for the shift space: the per-pair agreement depth and
shift metric, the shift itself, cylinder balls by membership, the
equicontinuity witness, and the depth table's cell loop.

``shift_space.depth_levels`` reads every pair's agreement depth off packed
cell words, and ``shift_space.shift_image`` gives the shift as an index
array.  This module keeps the point-by-point forms they replaced, so tests
can hold the builds to them.  ``pairwise_depth_matrix`` is the loop that
compares one cell column at a time and overwrites the pairs that differ
there, against which the packed table is held byte for byte.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from solenoidlab import InvalidInputError, PeriodicSequence


def _require_same_alphabet(x: PeriodicSequence, y: PeriodicSequence) -> None:
    if x.alphabet != y.alphabet:
        raise InvalidInputError("sequences use different alphabets")


def agreement_depth(x: PeriodicSequence, y: PeriodicSequence) -> int | float:
    """Largest n >= 0 with ``x_j == y_j`` for every -n+1 <= j <= n.

    Returns ``inf`` exactly when the sequences are equal, which is decidable
    over one combined period.  With f the least j >= 1 where the sequences
    differ and g the least m >= 0 where they differ at index -m, the depth is
    ``min(f - 1, g)``.
    """
    _require_same_alphabet(x, y)
    span = math.lcm(x.period, y.period)
    f = math.inf
    for j in range(1, span + 1):
        if x.value_at(j) != y.value_at(j):
            f = j
            break
    g = math.inf
    for m in range(span):
        if x.value_at(-m) != y.value_at(-m):
            g = m
            break
    return min(f - 1, g)


def shift_metric(x: PeriodicSequence, y: PeriodicSequence, ratio: float) -> float:
    """``ratio ** agreement_depth`` in Python's float power, exactly 0.0 for
    equal sequences."""
    depth = agreement_depth(x, y)
    if math.isinf(depth):
        return 0.0
    return ratio ** depth


def shift(x: PeriodicSequence, k: int = 1) -> PeriodicSequence:
    """The sequence ``j -> x_{j-k}`` (k = 1 is one step of the shift map)."""
    p = x.period
    return PeriodicSequence(
        alphabet=x.alphabet, cells=tuple(x.value_at(i - k) for i in range(p))
    )


def ball_points(
    center: PeriodicSequence, n: int, sample: Iterable[PeriodicSequence]
) -> list[PeriodicSequence]:
    """Members of ``sample`` inside the closed ball of radius ``ratio**n``.

    Membership does not depend on the ratio: it is agreement with the center
    on the window -n+1 .. n, i.e. depth >= n.
    """
    if n < 0:
        raise InvalidInputError(f"ball depth must be nonnegative, got {n}")
    return [y for y in sample if agreement_depth(center, y) >= n]


def equicontinuity_witness(x: PeriodicSequence, n: int) -> tuple[PeriodicSequence, int]:
    """A companion point and shift count showing the shift family is not
    equicontinuous.

    Returns ``(y, k)`` where y equals x except for one altered cell per
    combined period, placed at index n+1, and ``k = -(n+1)``.  Then
    ``shift_metric(x, y, ratio) == ratio**n`` while the k-shifted pair is at
    distance 1: the defect lands at index 0.
    """
    if n < 0:
        raise InvalidInputError(f"depth must be nonnegative, got {n}")
    span = math.lcm(x.period, 2 * n + 4)
    cells = list(x.expand(span))
    j = n + 1
    symbols = x.alphabet.symbols
    cells[j] = symbols[(symbols.index(cells[j]) + 1) % len(symbols)]
    return PeriodicSequence.from_cells(x.alphabet, cells), -(n + 1)


def pairwise_depth_matrix(seqs: Sequence[PeriodicSequence]) -> np.ndarray:
    """Agreement depths ``min(f - 1, g)`` for every pair, ``inf`` on equal
    pairs: ``f`` is the least j >= 1 and ``g`` the least m >= 0 at which
    the pair differs at index j, respectively -m."""
    alphabet = seqs[0].alphabet
    span = math.lcm(*(s.period for s in seqs))
    table = np.array(
        [[alphabet.index(c) for c in s.expand(span)] for s in seqs], dtype=np.int64
    )
    f = np.full((len(seqs), len(seqs)), np.inf)
    for j in range(span, 0, -1):
        col = table[:, j % span]
        neq = col[:, None] != col[None, :]
        f[neq] = j
    g = np.full((len(seqs), len(seqs)), np.inf)
    for m in range(span - 1, -1, -1):
        col = table[:, (-m) % span]
        neq = col[:, None] != col[None, :]
        g[neq] = m
    return np.minimum(f - 1, g)
