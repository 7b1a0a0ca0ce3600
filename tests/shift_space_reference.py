"""Reference depth table: one masked write per cell of the combined period.

``shift_space.pairwise_depth_matrix`` packs each sequence's cells into
integer words and reads the first differing cell off the highest set bit of
an XOR.  This module keeps the loop it replaced, which compares one cell
column at a time and overwrites the pairs that differ there, so property
tests can hold the packed table to it byte for byte.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from solenoidlab import PeriodicSequence


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
