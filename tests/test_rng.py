"""Stream-derivation tests: determinism, independence, layout stability."""
import numpy as np
import pytest

from enki.rng import ParticleStreams, as_seed_sequence, derive, substream


def test_as_seed_sequence_accepts_int_and_passthrough():
    seq = as_seed_sequence(42)
    assert isinstance(seq, np.random.SeedSequence)
    assert as_seed_sequence(seq) is seq


def test_as_seed_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        as_seed_sequence(-1)
    with pytest.raises(TypeError):
        as_seed_sequence("7")
    for flag in (True, False):  # a bool is an int to Python, not a seed
        with pytest.raises(TypeError):
            as_seed_sequence(flag)


def test_derive_is_deterministic_and_compositional():
    root = as_seed_sequence(9)
    a = derive(root, 1, 2)
    b = derive(derive(root, 1), 2)
    assert a.entropy == b.entropy
    assert a.spawn_key == b.spawn_key == (1, 2)


def test_substream_reproducible_and_distinct():
    root = as_seed_sequence(5)
    x1 = substream(root, 3).standard_normal(8)
    x2 = substream(root, 3).standard_normal(8)
    other = substream(root, 4).standard_normal(8)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, other)


def test_distinct_tags_give_distinct_streams():
    root = as_seed_sequence(0)
    draws = [substream(root, tag).standard_normal(4) for tag in range(9)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_particle_streams_match_explicit_substreams():
    root = as_seed_sequence(11)
    shared = ParticleStreams(root, 1, 7).shared().standard_normal(5)
    assert np.array_equal(shared, substream(root, 1, 7).standard_normal(5))


def test_chunked_draws_match_one_shot():
    # simulators draw a round in chunks; same stream, same bits
    root = as_seed_sequence(2)
    one = substream(root, 1, 0, 4).standard_normal(100)
    gen = substream(root, 1, 0, 4)
    parts = np.concatenate([gen.standard_normal(30), gen.standard_normal(70)])
    assert np.array_equal(one, parts)
    # Lorenz 96 path noise: one (64, n, d) draw per chunk is one (n, d) draw per step
    chunk = substream(root, 1, 5).standard_normal((64, 3, 4))
    gen = substream(root, 1, 5)
    steps = np.stack([gen.standard_normal((3, 4)) for _ in range(64)])
    assert np.array_equal(chunk, steps)
