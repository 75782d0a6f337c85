import numpy as np
from hypothesis import example, given, strategies as st

from fedmm import rng


def test_same_labels_same_stream():
    a = rng.substream(42, "x", 1, 2).random(8)
    b = rng.substream(42, "x", 1, 2).random(8)
    assert np.array_equal(a, b)


def test_distinct_labels_distinct_streams():
    a = rng.substream(42, "x", 1).random(8)
    b = rng.substream(42, "x", 2).random(8)
    c = rng.substream(43, "x", 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_seed_for_is_stable_and_64bit(master, label):
    s1 = rng.seed_for(master, label)
    s2 = rng.seed_for(master, label)
    assert s1 == s2
    assert 0 <= s1 < 2**64


def test_normal_shape_and_determinism():
    z1 = rng.normal(rng.stream(5), (3, 4), scale=2.0)
    z2 = rng.normal(rng.stream(5), (3, 4), scale=2.0)
    assert z1.shape == (3, 4)
    assert np.array_equal(z1, z2)


def test_normal_moments():
    z = rng.normal(rng.stream(123), 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # Box-Muller should give roughly symmetric tails
    assert abs((z > 1.96).mean() - 0.025) < 0.002
    assert abs((z < -1.96).mean() - 0.025) < 0.002


def test_normal_odd_count():
    z = rng.normal(rng.stream(9), 7)
    assert z.shape == (7,)


def test_normal_scale_zero():
    z = rng.normal(rng.stream(9), 5, scale=0.0)
    assert np.array_equal(z, np.zeros(5))


@given(
    st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 12)), max_size=4),
    st.integers(0, 3),
)
@example([(2**64 - 1, 1), (0, 1)], 0)
@example([(2**64 - 1, 1), (0, 7), (2**63, 1)], 3)
def test_permutations_equal_repeated_stream_draws(pairs, count):
    got = rng.permutations([seed for seed, _ in pairs], [n for _, n in pairs], count)
    assert len(got) == len(pairs)
    for (seed, n), orders in zip(pairs, got):
        gen = rng.stream(seed)
        want = np.array([gen.permutation(n) for _ in range(count)], dtype=np.int64).reshape(count, n)
        assert orders.dtype == want.dtype
        assert np.array_equal(orders, want)
