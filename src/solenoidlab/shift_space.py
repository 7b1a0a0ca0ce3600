"""Doubly infinite periodic symbol sequences and the shift metric on them.

A point is a purely periodic two-sided sequence, stored as the cells of one
minimal period with the convention that index 0 holds ``cells[0]``.  Two
sequences are the same point exactly when their canonical forms agree; no
rotation normalisation is applied, so the two phases of ``01`` are distinct
points.

The metric is ``ratio ** depth`` where ``depth`` is the largest n >= 0 such
that the sequences agree on the index window -n+1 .. n (0 for equal points).
The depth is an exact integer, and spaces built from it carry exact
exponents (:func:`depth_levels`, a gather over packed cell words) so
downstream checks can compare exponents instead of floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .metric_core import PowerLevels


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of at least two distinct symbol tokens."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise InvalidInputError("an alphabet needs at least two symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidInputError(f"duplicate symbols in alphabet {self.symbols}")
        if any(not s for s in self.symbols):
            raise InvalidInputError("empty string is not a valid symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise InvalidInputError(
                f"symbol {symbol!r} not in alphabet {self.symbols}"
            ) from None


def _minimal_cells(cells: tuple[str, ...]) -> tuple[str, ...]:
    p = len(cells)
    for q in range(1, p):
        if p % q == 0 and cells == cells[:q] * (p // q):
            return cells[:q]
    return cells


@dataclass(frozen=True)
class PeriodicSequence:
    """One periodic point, always held in canonical (minimal period) form.

    Construct through :meth:`from_cells` or :meth:`from_text`; the raw
    constructor trusts its input.
    """

    alphabet: Alphabet
    cells: tuple[str, ...]

    @classmethod
    def from_cells(cls, alphabet: Alphabet, cells: Sequence[str]) -> "PeriodicSequence":
        cells = tuple(cells)
        if not cells:
            raise InvalidInputError("a periodic sequence needs at least one cell")
        for c in cells:
            alphabet.index(c)
        return cls(alphabet=alphabet, cells=_minimal_cells(cells))

    @property
    def period(self) -> int:
        return len(self.cells)

    def value_at(self, j: int) -> str:
        return self.cells[j % len(self.cells)]

    def expand(self, length: int) -> tuple[str, ...]:
        """Cells at indices 0 .. length-1."""
        reps = -(-length // len(self.cells))
        return (self.cells * reps)[:length]

    def to_text(self) -> str:
        """Serialise as ``p:c0c1...`` (comma-joined for multi-char symbols)."""
        if all(len(s) == 1 for s in self.alphabet.symbols):
            body = "".join(self.cells)
        else:
            body = ",".join(self.cells)
        return f"{len(self.cells)}:{body}"

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "PeriodicSequence":
        head, sep, body = text.partition(":")
        if not sep:
            raise InvalidInputError(f"malformed sequence text {text!r}")
        try:
            p = int(head)
        except ValueError:
            raise InvalidInputError(f"malformed period in {text!r}") from None
        cells = tuple(body.split(",")) if "," in body else tuple(body)
        if len(cells) != p:
            raise InvalidInputError(
                f"declared period {p} but {len(cells)} cells in {text!r}"
            )
        return cls.from_cells(alphabet, cells)


@dataclass(frozen=True)
class ShiftConfig:
    """Alphabet plus the geometric ratio in (0, 1) defining the metric."""

    alphabet: Alphabet
    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise InvalidInputError(f"ratio must lie in (0, 1), got {self.ratio}")


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


def shift_metric(x: PeriodicSequence, y: PeriodicSequence, cfg: ShiftConfig) -> float:
    """``ratio ** agreement_depth``, exactly 0.0 for equal sequences."""
    _require_same_alphabet(x, y)
    if x.alphabet != cfg.alphabet:
        raise InvalidInputError("sequences do not match the config alphabet")
    depth = agreement_depth(x, y)
    if math.isinf(depth):
        return 0.0
    return cfg.ratio ** depth


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


def equicontinuity_witness(
    x: PeriodicSequence, n: int, cfg: ShiftConfig
) -> tuple[PeriodicSequence, int]:
    """A companion point and shift count showing the shift family is not
    equicontinuous.

    Returns ``(y, k)`` where y equals x except for one altered cell per
    combined period, placed at index n+1, and ``k = -(n+1)``.  Then
    ``shift_metric(x, y) == ratio**n`` while the k-shifted pair is at
    distance 1: the defect lands at index 0.
    """
    if n < 0:
        raise InvalidInputError(f"depth must be nonnegative, got {n}")
    if x.alphabet != cfg.alphabet:
        raise InvalidInputError("sequence does not match the config alphabet")
    span = math.lcm(x.period, 2 * n + 4)
    cells = list(x.expand(span))
    j = n + 1
    old = cells[j]
    symbols = cfg.alphabet.symbols
    cells[j] = symbols[(symbols.index(old) + 1) % len(symbols)]
    return PeriodicSequence.from_cells(cfg.alphabet, cells), -(n + 1)


def enumerate_periodic_points(
    alphabet: Alphabet, max_period: int
) -> list[PeriodicSequence]:
    """All canonical sequences of period dividing ``max_period``.

    One point per length-``max_period`` cell string, listed in lexicographic
    order of that string; there are ``len(alphabet) ** max_period`` of them.
    """
    if max_period < 1:
        raise InvalidInputError(f"max period must be at least 1, got {max_period}")
    out = []
    for cells in itertools.product(alphabet.symbols, repeat=max_period):
        out.append(PeriodicSequence.from_cells(alphabet, cells))
    return out


def depth_levels(seqs: Sequence[PeriodicSequence]) -> PowerLevels:
    """Agreement depths of pairs of ``seqs`` as a gather over packed words.

    Read the cells in the interleaved order 1, 0, 2, -1, 3, -2, ...: two
    sequences agree on the window -n+1 .. n exactly when they agree on the
    first 2n cells of that order, so the depth is the position of the first
    differing cell, halved and rounded down.  Over one combined period
    (``span``, the lcm of the periods) that is 2 * span cells per sequence.
    They are packed once, ``52 // bits`` to an int64 word, first cell in the
    highest bits, where ``bits`` holds one symbol index.  The highest set
    bit of the XOR of two words marks their first differing cell;
    ``np.frexp`` reads it exactly, since the words stay below 2**52.

    The levels of index pairs are their depths, with ``span`` for equal
    sequences (exponent ``inf``): each word takes one XOR, one ``frexp`` and
    one table lookup over the pairs, and a later word only lowers depths
    that an earlier one left at ``span``.  Any span works; the cost is
    O(pairs * span / (52 // bits)) in array passes.
    """
    if not seqs:
        raise InvalidInputError("no sequences given")
    alphabet = seqs[0].alphabet
    for s in seqs[1:]:
        if s.alphabet != alphabet:
            raise InvalidInputError("sequences use different alphabets")
    span = math.lcm(*(s.period for s in seqs))
    table = np.array(
        [[alphabet.index(c) for c in s.expand(span)] for s in seqs], dtype=np.int64
    )
    bits = (len(alphabet) - 1).bit_length()
    per_word = 52 // bits
    order = np.empty(2 * span, dtype=np.intp)
    order[0::2] = np.arange(1, span + 1) % span
    order[1::2] = -np.arange(span) % span
    starts = range(0, 2 * span, per_word)
    shifts = bits * np.arange(per_word - 1, -1, -1, dtype=np.int64)
    words = np.empty((len(starts), len(seqs)), dtype=np.int64)
    # depth_at[k][e]: the depth when word k first differs and frexp of the
    # XOR gives exponent e, so its highest set bit is e - 1; e = 0 (equal
    # words) leaves the depth open, at ``span``.
    depth_at = np.empty((len(starts), bits * per_word + 1), dtype=np.intp)
    depth_at[:, 0] = span
    high_cell = (np.arange(bits * per_word) // bits)[::-1]
    for k, start in enumerate(starts):
        cols = order[start : start + per_word]
        words[k] = (table[:, cols] << shifts[: len(cols)]).sum(axis=1)
        depth_at[k, 1:] = (start + high_cell) // 2

    def of(rows, cols):
        level = None
        for word, at in zip(words, depth_at):
            _, e = np.frexp(word[rows] ^ word[cols])
            found = at.take(e)
            level = found if level is None else np.minimum(level, found)
        return level

    return PowerLevels(of, np.append(np.arange(span, dtype=float), np.inf))


def pairwise_depth_matrix(seqs: Sequence[PeriodicSequence]) -> np.ndarray:
    """Agreement depths for every pair, ``inf`` on equal pairs: the
    :func:`depth_levels` gather over all pairs, a block of rows at a time."""
    return depth_levels(seqs).exponent_table(len(seqs))
