"""The PRNG contract: known vectors, scalar/block agreement, stream rules."""

import math

import numpy as np
import pytest

from camnet.rng import GAMMA, Rng, derive_seed, mix64


def test_known_splitmix64_vectors():
    # published splitmix64 outputs for seed 0
    r = Rng(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_counter_stream_is_stateless_in_seed():
    # output i of seed s equals output i-1 of seed s + GAMMA
    a = Rng(0)
    a.next_u64()
    b = Rng(GAMMA)
    assert a.next_u64() == b.next_u64()


def test_block_matches_scalar():
    a, b = Rng(123), Rng(123)
    block = b.u64_block(17)
    assert [a.next_u64() for _ in range(17)] == list(int(v) for v in block)
    # and the counters stay in sync afterwards
    assert a.next_u64() == int(b.u64_block(1)[0])


def test_uniform_range_and_determinism():
    r = Rng(9)
    vals = r.uniform_block(1000)
    assert ((vals >= 0.0) & (vals < 1.0)).all()
    assert np.array_equal(vals, Rng(9).uniform_block(1000))
    s = Rng(9)
    assert vals[0] == s.uniform()


def test_normal_block_matches_scalar_pairs():
    r = Rng(5)
    block = r.normal_block(6)
    s = Rng(5)
    scalars = [s.normal() for _ in range(3)]
    # scalar normal() yields z0 of each pair; block interleaves z0, z1
    assert block[0::2] == pytest.approx(scalars, abs=0.0)


def test_normal_block_odd_length_discards_spare():
    # n=3 consumes 2 pairs; the counter must advance by 4 raw outputs
    r = Rng(5)
    r.normal_block(3)
    t = Rng(5)
    t.u64_block(4)
    assert r.next_u64() == t.next_u64()


def test_normal_moments():
    vals = Rng(31).normal_block(20000)
    assert abs(vals.mean()) < 0.03
    assert abs(vals.std() - 1.0) < 0.03


def test_randint_bounds_and_error():
    r = Rng(2)
    draws = [r.randint(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    with pytest.raises(ValueError):
        r.randint(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a = list(items)
    Rng(4).shuffle(a)
    b = list(items)
    Rng(4).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_derive_seed_is_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(7, 0, 1) == derive_seed(7, 0, 1)


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64((1 << 70) + 5) < (1 << 64)


def test_gaussian_tail_is_finite():
    # 1 - a is never 0 because uniform() < 1, so log stays finite
    vals = Rng(77).normal_block(4096)
    assert np.isfinite(vals).all()
    assert math.isfinite(Rng(77).normal())


def test_stream_start_continues_the_stream():
    whole = Rng(31).uniform_block(50)
    for start in (0, 1, 17, 49):
        assert Rng(31, start).uniform_block(50 - start).tobytes() == whole[start:].tobytes()
    r = Rng(31)
    r.uniform_block(17)
    assert Rng(31, 17).next_u64() == r.next_u64()
    with pytest.raises(ValueError):
        Rng(31, -1)
