"""Stream derivation against numpy's own SeedSequence and PCG64.

``metricfl.rng`` reimplements numpy's seeding instead of calling it; these
tests are the oracle.  If a numpy release changes ``SeedSequence`` or
PCG64's seeding, they fail here rather than letting every stream shift.
"""

import numpy as np
import pytest

from metricfl.rng import _CLIENT_ONLY, _ROLE_CODES, RoundStreams, seed_words, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 5, 2**96 + 2**40]
INDICES = [0, 1, 9, 2**32 - 1, 2**32, 2**40 + 3]


def oracle(master_seed, role, client_index=None, round_index=None):
    """The documented key of a stream, seeded by numpy itself."""
    entropy = [master_seed, _ROLE_CODES[role]]
    if client_index is not None and round_index is None:
        entropy[1] |= _CLIENT_ONLY
    entropy += [i for i in (client_index, round_index) if i is not None]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def same_draws(a, b):
    return (
        np.array_equal(a.random(3), b.random(3))
        and np.array_equal(a.standard_normal(5), b.standard_normal(5))
        and np.array_equal(a.permutation(11), b.permutation(11))
    )


@pytest.mark.parametrize("master_seed", SEEDS)
@pytest.mark.parametrize("form", ["role", "client", "round", "client+round"])
def test_substream_matches_numpy_for_every_key_form(master_seed, form):
    for index in INDICES:
        client = index if "client" in form else None
        round_ = (index * 7 + 3) if "round" in form else None
        for role in ("client", "sampling", "hypotheses"):
            mine = substream(master_seed, role, client, round_)
            assert same_draws(mine, oracle(master_seed, role, client, round_))


def test_seed_words_match_generate_state_on_random_keys():
    gen = np.random.default_rng(2024)
    for width in (1, 2, 3, 4, 5, 6, 9):
        keys = gen.integers(0, 2**32, size=(40, width), dtype=np.uint64).astype(np.uint32)
        keys[0] = 0
        keys[1] = 2**32 - 1
        got = seed_words(keys)
        for key, words in zip(keys, got):
            expected = np.random.SeedSequence([int(w) for w in key]).generate_state(4, np.uint64)
            assert np.array_equal(words, expected)


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32 + 11])
def test_round_streams_match_substream_across_blocks(master_seed):
    # 300 clients: a block spans 3 rounds, so rounds 0..7 cross two block edges.
    streams = RoundStreams(master_seed, n_clients=300, n_rounds=8)
    for t in [0, 1, 2, 3, 7, 5, 0]:
        assert same_draws(streams.sampling(t), oracle(master_seed, "sampling", round_index=t))
        positions = [299, 0, 17, 3]
        for position, generator in zip(positions, streams.clients(t, positions)):
            assert same_draws(generator, oracle(master_seed, "client", position, t))


def test_round_streams_reuse_their_generators():
    streams = RoundStreams(3, n_clients=10, n_rounds=5)
    first = streams.clients(0, [1, 2])
    again = streams.clients(1, [4, 5, 6])
    assert all(a is b for a, b in zip(first, again))
    assert streams.sampling(0) is streams.sampling(4)


def test_round_streams_reject_keys_outside_the_table():
    streams = RoundStreams(0, n_clients=4, n_rounds=3)
    with pytest.raises(ValueError, match="round_index"):
        streams.sampling(3)
    with pytest.raises(ValueError, match="client position"):
        streams.clients(0, [4])
    with pytest.raises(ValueError, match="n_clients"):
        RoundStreams(0, n_clients=0, n_rounds=3)


def test_substream_rejects_bad_keys():
    with pytest.raises(ValueError, match="role"):
        substream(0, "nope")
    with pytest.raises(ValueError, match="master_seed"):
        substream(-1, "client")
    with pytest.raises(ValueError, match="client_index"):
        substream(0, "client", client_index=-1)
    with pytest.raises(ValueError, match="round_index"):
        substream(0, "client", round_index=-1)
