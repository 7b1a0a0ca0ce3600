"""Periodic sequences, agreement depth, and the geometric shift metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shift_space_reference
from shift_space_reference import (
    agreement_depth,
    ball_points,
    equicontinuity_witness,
    shift,
    shift_metric,
)
from solenoidlab import (
    Alphabet,
    InvalidInputError,
    PeriodicSequence,
    build_full_shift,
    enumerate_periodic_points,
    pairwise_depth_matrix,
)

BITS = Alphabet(("0", "1"))

ZEROS = PeriodicSequence.from_cells(BITS, "0")
ONES = PeriodicSequence.from_cells(BITS, "1")
PARITY = PeriodicSequence.from_cells(BITS, "01")


def seq(text):
    return PeriodicSequence.from_text(BITS, text)


def test_alphabet_validation():
    with pytest.raises(InvalidInputError):
        Alphabet(("0",))
    with pytest.raises(InvalidInputError):
        Alphabet(("0", "0"))
    with pytest.raises(InvalidInputError):
        Alphabet(("0", ""))
    with pytest.raises(InvalidInputError):
        BITS.index("2")


def test_minimal_period_canonicalization():
    assert PeriodicSequence.from_cells(BITS, "0101") == PARITY
    assert PeriodicSequence.from_cells(BITS, "0101").period == 2
    assert PeriodicSequence.from_cells(BITS, "011011").period == 3
    assert PeriodicSequence.from_cells(BITS, "0110").period == 4
    with pytest.raises(InvalidInputError):
        PeriodicSequence.from_cells(BITS, "")
    with pytest.raises(InvalidInputError):
        PeriodicSequence.from_cells(BITS, "02")


def test_phases_are_distinct_points():
    assert PARITY != shift(PARITY)
    assert shift(PARITY).cells == ("1", "0")


def test_value_at_and_expand():
    assert [PARITY.value_at(j) for j in range(-3, 4)] == list("1010101")
    assert PARITY.expand(5) == ("0", "1", "0", "1", "0")


def test_text_round_trip():
    assert PARITY.to_text() == "2:01"
    assert seq("2:01") == PARITY
    assert seq("4:0101") == PARITY  # canonical form wins
    wide = Alphabet(("aa", "bb"))
    w = PeriodicSequence.from_cells(wide, ("aa", "bb"))
    assert w.to_text() == "2:aa,bb"
    assert PeriodicSequence.from_text(wide, "2:aa,bb") == w
    for bad in ("01", "x:01", "3:01"):
        with pytest.raises(InvalidInputError):
            seq(bad)


def test_agreement_depth_examples():
    assert agreement_depth(PARITY, ZEROS) == 0
    # disagreement first shows up at index 2 and index -1
    defect = seq("3:001")
    assert agreement_depth(ZEROS, defect) == 1
    assert agreement_depth(ZEROS, seq("4:0001")) == 1
    assert math.isinf(agreement_depth(PARITY, seq("4:0101")))


def test_agreement_depth_is_symmetric():
    rng = np.random.RandomState(11)
    pool = enumerate_periodic_points(BITS, 4) + [seq("3:001"), seq("5:00111")]
    for _ in range(200):
        x, y = rng.choice(len(pool), size=2)
        assert agreement_depth(pool[x], pool[y]) == agreement_depth(pool[y], pool[x])


def test_agreement_depth_window_definition():
    """depth >= n must be exactly agreement on the index window -n+1 .. n."""
    rng = np.random.RandomState(12)
    pool = enumerate_periodic_points(BITS, 6)
    for _ in range(300):
        x, y = (pool[i] for i in rng.choice(len(pool), size=2))
        depth = agreement_depth(x, y)
        bound = 20 if math.isinf(depth) else int(depth)
        for n in range(0, min(bound, 8) + 1):
            assert all(
                x.value_at(j) == y.value_at(j) for j in range(-n + 1, n + 1)
            )
        if not math.isinf(depth):
            n = int(depth) + 1
            assert any(
                x.value_at(j) != y.value_at(j) for j in range(-n + 1, n + 1)
            )


def test_shift_metric_values():
    assert shift_metric(PARITY, ZEROS, 0.5) == 1.0
    assert shift_metric(ZEROS, seq("3:001"), 0.5) == 0.5
    assert shift_metric(ZEROS, ZEROS, 0.5) == 0.0
    assert shift_metric(ZEROS, seq("3:001"), 1 / 3) == pytest.approx(1 / 3)



def test_shift_moves_indices():
    rng = np.random.RandomState(13)
    pool = enumerate_periodic_points(BITS, 6)
    for _ in range(100):
        x = pool[rng.randint(len(pool))]
        k = int(rng.randint(-5, 6))
        y = shift(x, k)
        j = int(rng.randint(-10, 11))
        assert y.value_at(j) == x.value_at(j - k)
    assert shift(PARITY, 2) == PARITY
    assert shift(shift(PARITY, 3), -3) == PARITY


def test_ball_points_matches_brute_force():
    sample = enumerate_periodic_points(BITS, 4)
    rng = np.random.RandomState(14)
    for _ in range(50):
        center = sample[rng.randint(len(sample))]
        n = int(rng.randint(0, 4))
        got = ball_points(center, n, sample)
        want = [y for y in sample if shift_metric(center, y, 0.5) <= 0.5 ** n]
        assert got == want
    with pytest.raises(InvalidInputError):
        ball_points(ZEROS, -1, sample)


def test_ball_points_deep_ball_collapses():
    # window -1..2 pins four consecutive cells, so among period-4 points
    # only the center itself stays in the radius-1/4 ball around all-0
    sample = enumerate_periodic_points(BITS, 4)
    assert ball_points(ZEROS, 2, sample) == [ZEROS]


def test_equicontinuity_witness_zeros():
    y, k = equicontinuity_witness(ZEROS, 3)
    assert k == -4
    assert y.period == 10  # lcm(1, 2*3+4)
    assert y.value_at(4) == "1"
    assert shift_metric(ZEROS, y, 0.5) == 0.125
    assert shift_metric(shift(ZEROS, k), shift(y, k), 0.5) == 1.0


def test_equicontinuity_witness_general():
    rng = np.random.RandomState(15)
    pool = enumerate_periodic_points(BITS, 4)
    for _ in range(60):
        x = pool[rng.randint(len(pool))]
        n = int(rng.randint(0, 5))
        y, k = equicontinuity_witness(x, n)
        assert k == -(n + 1)
        assert shift_metric(x, y, 0.5) == 0.5 ** n
        assert shift_metric(shift(x, k), shift(y, k), 0.5) == 1.0


def test_enumerate_periodic_points():
    pts = enumerate_periodic_points(BITS, 4)
    assert len(pts) == 16
    assert len(set(pts)) == 16
    assert pts[0] == ZEROS
    assert pts[-1] == ONES
    assert [p.expand(4) for p in pts] == sorted(p.expand(4) for p in pts)
    with pytest.raises(InvalidInputError):
        enumerate_periodic_points(BITS, 0)


def test_pairwise_depth_matrix_matches_scalar():
    pool = enumerate_periodic_points(BITS, 4) + [seq("3:001"), seq("3:011")]
    table = pairwise_depth_matrix(pool)
    assert table.shape == (18, 18)
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            want = agreement_depth(x, y)
            if math.isinf(want):
                assert math.isinf(table[i, j])
            else:
                assert table[i, j] == want


def test_mixed_alphabets_rejected():
    other = Alphabet(("a", "b"))
    foreign = PeriodicSequence.from_cells(other, ("a",))
    with pytest.raises(InvalidInputError):
        agreement_depth(ZEROS, foreign)
    with pytest.raises(InvalidInputError):
        shift_metric(ZEROS, foreign, 0.5)
    with pytest.raises(InvalidInputError):
        pairwise_depth_matrix([ZEROS, foreign])


SINGLE_CHAR_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


@st.composite
def families(draw):
    """Sequences over 2 to 36 symbols, single- or multi-character, with
    mixed periods.  Some are one-cell mutants of a tiled earlier sequence,
    so pairs agree over long windows and words deep into the packed table
    decide them; duplicates give equal pairs."""
    size = draw(st.integers(2, 36))
    if draw(st.booleans()):
        symbols = tuple(f"s{k}" for k in range(size))
    else:
        symbols = tuple(SINGLE_CHAR_SYMBOLS[:size])
    alphabet = Alphabet(symbols)
    cell = st.integers(0, size - 1).map(lambda k: symbols[k])
    family = []
    for _ in range(draw(st.integers(1, 10))):
        if family and draw(st.booleans()):
            base = draw(st.sampled_from(family))
            cells = list(base.expand(base.period * draw(st.integers(1, 40 // base.period))))
            cells[draw(st.integers(0, len(cells) - 1))] = draw(cell)
        else:
            cells = draw(st.lists(cell, min_size=1, max_size=9))
        family.append(PeriodicSequence.from_cells(alphabet, cells))
    return family


@settings(max_examples=200, deadline=None)
@given(family=families())
def test_pairwise_depth_matrix_equals_the_cell_loop(family):
    table = pairwise_depth_matrix(family)
    want = shift_space_reference.pairwise_depth_matrix(family)
    assert table.dtype == want.dtype
    assert table.tobytes() == want.tobytes()


def test_pairwise_depth_matrix_across_word_boundaries():
    # Binary cells pack 52 to a word; a span of 120 gives five words.  A
    # zero sequence with index j changed first differs at forward cell j
    # (interleaved position 2j - 2) for j <= 60, and at backward cell
    # 120 - j (position 2(120 - j) + 1) above that.
    zeros = ZEROS.expand(120)
    family = [ZEROS]
    for j in (1, 26, 27, 53, 60, 95, 94):
        cells = list(zeros)
        cells[j] = "1"
        family.append(PeriodicSequence.from_cells(BITS, cells))
    table = pairwise_depth_matrix(family)
    assert table[0, 1:].tolist() == [0.0, 25.0, 26.0, 52.0, 59.0, 25.0, 26.0]
    assert table.tobytes() == shift_space_reference.pairwise_depth_matrix(family).tobytes()
    assert pairwise_depth_matrix([PARITY]).tolist() == [[math.inf]]


@pytest.mark.parametrize("ratio, max_period", [(0.1, 5), (1 / 3, 5), (0.3, 9), (0.7, 9)])
def test_full_shift_distances_are_the_shift_metric(ratio, max_period):
    # numpy's array power rounds 0.1 ** 2, (1/3) ** 2, 0.3 ** 4 and 0.7 ** 4
    # differently from Python's, which shift_metric uses; the space's
    # distances must be Python's too.  Depth 4 needs max_period 9.
    space, _, _ = build_full_shift(2, ratio, max_period)
    pts = space.points
    index = np.arange(len(space))
    want = [[shift_metric(x, y, ratio) for y in pts] for x in pts]
    assert space.distances(index[:, None], index).tolist() == want
    assert [space.dist(pts[-1], y) for y in pts] == want[-1]

