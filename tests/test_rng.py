import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfprob.rng import (
    RngSpec,
    _bits,
    _finalize,
    _finalize_int,
    derive_seed,
    gaussian_block,
    uniform_block,
)

SPEC = RngSpec(seed=1)

# regression pin: first draws of seed 1, frozen from this generator's first
# release so silent stream changes cannot slip through
GOLDEN_UNIFORM_SEED1 = (
    0.566561575172281,
    0.7457817572627012,
    0.9710027535867963,
    0.4443592170557722,
)


def test_uniform_is_deterministic_and_pinned():
    u = uniform_block(SPEC, 0, 4)
    np.testing.assert_array_equal(u, uniform_block(SPEC, 0, 4))
    np.testing.assert_allclose(u, GOLDEN_UNIFORM_SEED1, rtol=0, atol=0)


def test_uniform_range_half_open():
    u = uniform_block(RngSpec(seed=99), 0, 100_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_uniform_block_addressing_is_stateless():
    whole = uniform_block(SPEC, 0, 100)
    parts = np.concatenate([uniform_block(SPEC, 0, 37), uniform_block(SPEC, 37, 63)])
    np.testing.assert_array_equal(whole, parts)


def test_gaussian_block_addressing_across_pair_boundaries():
    whole = gaussian_block(SPEC, 0, 101)
    for split in (1, 2, 49, 50, 99):
        parts = np.concatenate([gaussian_block(SPEC, 0, split),
                                gaussian_block(SPEC, split, 101 - split)])
        np.testing.assert_array_equal(whole, parts)


def per_index_gaussians(spec, start, count):
    """Reference: the Box-Muller transform evaluated at every index, each
    index picking its cosine or sine branch by its parity."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    pair = (idx >> np.uint64(1)) << np.uint64(1)
    u1 = ((_bits(spec.seed, pair) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = ((_bits(spec.seed, pair + np.uint64(1)) >> np.uint64(11)).astype(np.float64)
          + 1.0) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    even = (idx & np.uint64(1)) == 0
    return np.where(even, radius * np.cos(angle), radius * np.sin(angle))


@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 50),
       count=st.integers(0, 300), cuts=st.lists(st.integers(0, 300), max_size=4))
@example(seed=0, start=0, count=0, cuts=[])
@example(seed=0, start=1, count=0, cuts=[])
@example(seed=2 ** 64 - 1, start=0, count=1, cuts=[])
@example(seed=2 ** 64 - 1, start=1, count=1, cuts=[])
@example(seed=1, start=2 ** 40, count=7, cuts=[1, 2])
@example(seed=1, start=2 ** 40 + 1, count=8, cuts=[3])
@settings(max_examples=200, deadline=None)
def test_gaussian_block_matches_the_per_index_transform(seed, start, count, cuts):
    spec = RngSpec(seed=seed)
    whole = gaussian_block(spec, start, count)
    assert whole.dtype == np.float64 and whole.shape == (count,)
    assert whole.tobytes() == per_index_gaussians(spec, start, count).tobytes()
    # any chunking of the block concatenates to the whole block
    bounds = [0, *sorted(c % (count + 1) for c in cuts), count]
    parts = [gaussian_block(spec, start + a, b - a) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_same_seed_identical_first_1000():
    a = gaussian_block(RngSpec(seed=123), 0, 1000)
    b = gaussian_block(RngSpec(seed=123), 0, 1000)
    np.testing.assert_array_equal(a, b)


def test_adjacent_seeds_differ_immediately():
    a = gaussian_block(RngSpec(seed=42), 0, 10)
    b = gaussian_block(RngSpec(seed=43), 0, 10)
    assert not np.any(a == b)


def test_gaussian_moments_sanity():
    n = 1_000_000
    draws = gaussian_block(RngSpec(seed=7), 0, n)
    se_mean = 1.0 / np.sqrt(n)
    se_var = np.sqrt(2.0 / n)
    assert abs(draws.mean()) < 5 * se_mean
    assert abs(draws.var() - 1.0) < 5 * se_var


def test_derive_seed_is_deterministic_and_spreads():
    children = {derive_seed(1, i) for i in range(100)}
    assert len(children) == 100
    assert derive_seed(1, 3) == derive_seed(1, 3)
    assert derive_seed(1, 3) != derive_seed(2, 3)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


# regression pin: child seeds as the uint64-array route derived them, the
# wrap at 2**64 - 1 and seeds or indices beyond 64 bits included
GOLDEN_DERIVED_SEEDS = {
    (0, 0): 16294208416658607535,
    (1, 3): 1998239919951679251,
    (12345, 7): 11579847468683371375,
    (-1, 5): 14570741955795171121,
    (2 ** 64 - 1, 2 ** 64 - 1): 5476333178966447588,
    (2 ** 70 + 3, 1): 3466137924951166186,
}


@pytest.mark.parametrize("seed, index", sorted(GOLDEN_DERIVED_SEEDS))
def test_derive_seed_is_pinned(seed, index):
    assert derive_seed(seed, index) == GOLDEN_DERIVED_SEEDS[seed, index]


def uint64_derive_seed(seed, index):
    """Reference: derive_seed evaluated on one-element uint64 arrays, whose
    arithmetic wraps mod 2**64."""
    mask = 2 ** 64 - 1
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        base = _finalize(np.array([seed & mask], dtype=np.uint64))
        child = base ^ ((np.uint64(index & mask) + np.uint64(1)) * golden)
        return int(_finalize(child)[0])


@given(x=st.integers(0, 2 ** 64 - 1))
@example(x=0)
@example(x=2 ** 64 - 1)
@settings(max_examples=300, deadline=None)
def test_integer_mixer_equals_the_array_mixer(x):
    with np.errstate(over="ignore"):
        assert _finalize_int(x) == int(_finalize(np.array([x], dtype=np.uint64))[0])


@given(seed=st.integers(-2 ** 70, 2 ** 70), index=st.integers(0, 2 ** 70))
@example(seed=2 ** 64 - 1, index=2 ** 64 - 1)
@example(seed=0, index=2 ** 64)
@settings(max_examples=300, deadline=None)
def test_derive_seed_equals_the_uint64_route(seed, index):
    assert derive_seed(seed, index) == uint64_derive_seed(seed, index)


def test_derived_streams_do_not_echo_parent():
    parent = gaussian_block(RngSpec(seed=11), 0, 64)
    child = gaussian_block(RngSpec(seed=derive_seed(11, 0)), 0, 64)
    assert not np.any(parent == child)


def test_seed_wraps_to_64_bits():
    assert RngSpec(seed=2**64 + 5).seed == 5
    with pytest.raises(TypeError):
        RngSpec(seed=1.5)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        uniform_block(SPEC, -1, 10)
    with pytest.raises(ValueError):
        gaussian_block(SPEC, 0, -10)
