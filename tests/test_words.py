"""The sampling checks' word reader against the generator it reads, bit for
bit.

``cli._Words`` decodes a legacy ``RandomState``'s 32-bit words as the
generator's own ``randint(n)``, ``rand()`` and ``uniform(low, high)`` do.
Each test makes the same sequence of draws from the reader and, per call,
from a second generator on the same seed, and compares integers exactly and
floats by their bits.  Buffers of a few words make refills land inside an
index draw's rejection loop and between the two words of a double.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import cli

#: Bounds whose masks reject nothing (powers of 2), almost half (one past
#: them) or a share in between (powers of 3), with 1, which reads no word,
#: 2**31 - 1 and 2**32, the largest one word serves.
BOUNDS = (
    st.sampled_from([1, 2, 2**31 - 1, 2**32])
    | st.integers(1, 31).map(lambda k: 2**k)
    | st.integers(1, 31).map(lambda k: 2**k + 1)
    | st.integers(1, 20).map(lambda k: 3**k)
)

DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("randint"), BOUNDS),
        st.tuples(st.just("rand")),
        # Widths that are powers of 2, where the product is exact (see
        # ``_Words.uniform``).
        st.tuples(st.just("uniform"), st.sampled_from([(-2.0, 2.0), (0.0, 1.0), (-0.5, 7.5)])),
    ),
    max_size=60,
)


def bits(value) -> int:
    """An int as itself, a float as its bit pattern."""
    if isinstance(value, float):
        return int(np.float64(value).view(np.int64))
    return int(value)


def per_call(rng, draw):
    name, *args = draw
    if name == "randint":
        return int(rng.randint(args[0]))
    if name == "rand":
        return float(rng.rand())
    return float(rng.uniform(*args[0]))


def from_words(words, draw):
    name, *args = draw
    if name == "uniform":
        return words.uniform(*args[0])
    return getattr(words, name)(*args)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=DRAWS, size=st.integers(1, 5) | st.just(1024))
def test_the_words_decode_as_the_generator_draws(seed, draws, size):
    words = cli._Words(np.random.RandomState(seed), size)
    rng = np.random.RandomState(seed)
    for draw in draws:
        got, want = from_words(words, draw), per_call(rng, draw)
        assert type(got) is type(want)
        assert bits(got) == bits(want), draw


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20), size=st.integers(1, 3))
def test_two_uniforms_are_one_uniform_call_of_size_two(seed, count, size):
    # flow-laws draws r and s as two uniforms where the per-triple loop made
    # one call of size 2.
    words = cli._Words(np.random.RandomState(seed), size)
    rng = np.random.RandomState(seed)
    for _ in range(count):
        got = np.array([words.uniform(-2.0, 2.0), words.uniform(-2.0, 2.0)])
        assert np.array_equal(got.view(np.int64), rng.uniform(-2.0, 2.0, size=2).view(np.int64))


def test_a_bound_of_one_reads_no_word():
    words = cli._Words(np.random.RandomState(3), 1)
    rng = np.random.RandomState(3)
    assert [words.randint(1) for _ in range(5)] == [0] * 5
    assert words.rand() == rng.rand()


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_a_bound_no_single_word_serves_is_refused(n):
    with pytest.raises(ValueError, match="from one word"):
        cli._Words(np.random.RandomState(0)).randint(n)
