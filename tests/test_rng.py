"""Derived random streams: reproducible, independent, order-insensitive."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chainviews.rng import derive_rng, derive_rngs, derive_seed_sequence

# integers at SeedSequence's word boundaries (0 coerces to one word, 2**32
# and up to two), any integer (masked to 64 bits, negatives included) and
# any text, non-ASCII included
EDGE_INTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
WORDS = st.one_of(EDGE_INTS, st.integers(-(2**66), 2**66), st.text(max_size=6))
SEEDS = st.one_of(EDGE_INTS, st.integers(-(2**66), 2**66))


def test_same_path_same_stream():
    a = derive_rng(42, "gen", 3, 1, 0).random(8)
    b = derive_rng(42, "gen", 3, 1, 0).random(8)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    paths = [("gen", 0, 0, 0), ("gen", 0, 0, 1), ("gen", 0, 1, 0), ("gen", 1, 0, 0), ("teacher-init", 0)]
    draws = [tuple(derive_rng(9, *p).random(4)) for p in paths]
    assert len(set(draws)) == len(paths)


def test_master_seed_matters():
    a = derive_rng(0, "x").random(4)
    b = derive_rng(1, "x").random(4)
    assert not np.array_equal(a, b)


def test_string_and_int_words_are_distinct():
    # "1" as a string must not collide with the integer 1
    a = derive_rng(5, "stage", 1).random(4)
    b = derive_rng(5, "stage", "1").random(4)
    assert not np.array_equal(a, b)


def test_stream_independent_of_draw_order():
    # consuming one stream never shifts another
    first = derive_rng(3, "a").random(16)
    burn = derive_rng(3, "b")
    burn.random(1000)
    again = derive_rng(3, "a").random(16)
    assert np.array_equal(first, again)


def test_seed_sequence_spawns_deterministically():
    seq_a = derive_seed_sequence(11, "node")
    seq_b = derive_seed_sequence(11, "node")
    assert seq_a.entropy == seq_b.entropy
    assert np.array_equal(seq_a.generate_state(8), seq_b.generate_state(8))


def same_stream(batched, master_seed, path):
    """Whether ``batched`` is ``derive_rng(master_seed, *path)``'s stream:
    the same bit-generator state and the same first draws."""
    oracle = derive_rng(master_seed, *path)
    if batched.bit_generator.state != oracle.bit_generator.state:
        return False
    return all(
        np.array_equal(getattr(batched, method)(5), getattr(oracle, method)(5))
        for method in ("random", "standard_normal")
    )


@given(master_seed=SEEDS, paths=st.lists(st.lists(WORDS, max_size=7), max_size=12))
def test_batched_streams_equal_derive_rng(master_seed, paths):
    # paths of 0 to 7 words coerce to 1 to 15 entropy words, so batches mix
    # word counts below, at and above SeedSequence's pool of four
    generators = derive_rngs(master_seed, paths)
    assert len(generators) == len(paths)
    assert len({id(g) for g in generators}) == len(paths)
    for generator, path in zip(generators, paths):
        assert same_stream(generator, master_seed, path)


def test_batched_streams_edge_batches():
    assert derive_rngs(3, []) == []
    (one,) = derive_rngs(3, [("gen", 4, 1)])
    assert same_stream(one, 3, ("gen", 4, 1))
    mixed = [(), (0,), (2**32,), ("gen", 2**64 - 1, -1), tuple(range(9)), ("é", "日本", 2**40)]
    for generator, path in zip(derive_rngs(2**33, mixed), mixed, strict=True):
        assert same_stream(generator, 2**33, path)
