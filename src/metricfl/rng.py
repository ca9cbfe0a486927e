"""Deterministic derivation of independent random streams.

Every source of randomness in the simulator is an injected
``numpy.random.Generator``; nothing touches the global numpy state.  Streams
are derived from a single master seed, keyed by a role tag plus optional
client and round indices.  The same key always yields the same stream, so
client work can run in any order (or in parallel) without changing results.

The stream of a key is ``np.random.default_rng(np.random.SeedSequence(key))``,
but it is derived without building either object.  This module reimplements
numpy's documented ``SeedSequence`` algorithm (numpy/random/bit_generator.pyx):
the coercion of each key entry to little-endian uint32 words, the 4-word pool
hash with its mixing loop over the words past the fourth, and
``generate_state(4, np.uint64)``, vectorized over many keys at once.  PCG64's
seeding step is then applied to those words with 128-bit Python integers,
and the result is loaded into a generator through its ``state`` setter.
``substream`` is the single-key case; ``RoundStreams`` hashes the keys of a
run in blocks of rounds and reloads a few reused generators each round.
``tests/test_rng.py`` checks both against numpy's own ``SeedSequence`` and
``PCG64``, so a numpy release that changed the algorithm fails loudly there
instead of silently shifting streams.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Fixed role codes; part of the reproducibility contract, do not renumber.
_ROLE_CODES = {
    "hypotheses": 0,  # initial hypothesis vectors
    "sampling": 1,    # per-round client selection (server)
    "client": 2,      # per-client, per-round local work (shuffle + noise)
    "data": 3,        # synthetic population generation
    "split": 4,       # train/validation split
    "fixture": 5,     # fixture CSV generation
    "verify": 6,      # mechanism diagnostics
}

# Set in the role word of client-only keys, whose entropy would otherwise
# equal the round-only key's [seed, role, index].
_CLIENT_ONLY = 1 << 16

# SeedSequence's pool hash constants (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Client keys hashed per block of rounds; bounds the table's memory.
_BLOCK_KEYS = 512

def _uint32_words(value: int) -> list[int]:
    """numpy's coercion of one key entry: little-endian 32-bit words, [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _key_words(
    master_seed: int,
    role: str,
    client_index: int | None = None,
    round_index: int | None = None,
) -> list[int]:
    """The uint32 words of the key (master_seed, role[, client, round])."""
    if role not in _ROLE_CODES:
        raise ValueError(f"unknown rng role {role!r}")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    entropy = [int(master_seed), _ROLE_CODES[role]]
    if client_index is not None and round_index is None:
        entropy[1] |= _CLIENT_ONLY
    if client_index is not None:
        if client_index < 0:
            raise ValueError("client_index must be nonnegative")
        entropy.append(int(client_index))
    if round_index is not None:
        if round_index < 0:
            raise ValueError("round_index must be nonnegative")
        entropy.append(int(round_index))
    return [word for value in entropy for word in _uint32_words(value)]


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) column of init * mult**j mod 2**32; cached, so read-only."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hash row r of ``values`` with consts[r] and consts[r + 1]; a single
    row of ``values`` is hashed once per pair of constants."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for every key at once.

    ``keys`` is a (K, W) uint32 array, one key's words per row; the result is
    (K, 4) uint64.  Each hash step uses the next power of its constant, so
    the steps that numpy runs one after another are batched where they read
    no word another one writes.
    """
    words = np.asarray(keys, dtype=np.uint32).T
    width, n_keys = words.shape
    extra = max(width - _POOL_SIZE, 0)
    # One hash step per pool word, per ordered pair of pool words, and per
    # pool word for each extra word: 4 * (4 + extra) steps in all.
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    if width < _POOL_SIZE:
        words = np.concatenate([words, np.zeros((_POOL_SIZE - width, n_keys), np.uint32)])
    pool = _hashmix(words[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src][None], consts[at : at + len(dst) + 1])
        pool[dst] = _mix(pool[dst], hashed)
        at += len(dst)
    for src in range(_POOL_SIZE, _POOL_SIZE + extra):
        hashed = _hashmix(words[src][None], consts[at : at + _POOL_SIZE + 1])
        pool = _mix(pool, hashed)
        at += _POOL_SIZE
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    # Little-endian pairs: word 2i is the low half of uint64 i.
    state = state.astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def _pcg64_state(words: Sequence[int]) -> dict:
    """PCG64's state after seeding with ``generate_state(4, np.uint64)`` words."""
    w0, w1, w2, w3 = words
    inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


@lru_cache(maxsize=None)
def _blank_seed() -> np.random.SeedSequence:
    # Built on first use: importing the package must not load numpy.random.
    return np.random.SeedSequence(0)


def _blank_generator() -> np.random.Generator:
    """A generator to load a derived state into; only the first call in a
    process builds a SeedSequence."""
    return np.random.Generator(np.random.PCG64(_blank_seed()))


def _load(generator: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    generator.bit_generator.state = _pcg64_state(words.tolist())
    return generator


def substream(
    master_seed: int,
    role: str,
    client_index: int | None = None,
    round_index: int | None = None,
) -> np.random.Generator:
    """Return the generator keyed by (master_seed, role[, client, round]).

    ``client_index`` is a nonnegative integer position, not an arbitrary
    client label; callers with string ids map them to sorted positions first.
    Within one seed and role the four key forms (none, client only, round
    only, client and round) give distinct streams for indices below 2**32.
    """
    words = np.array([_key_words(master_seed, role, client_index, round_index)], np.uint32)
    return _load(_blank_generator(), seed_words(words)[0])


class RoundStreams:
    """The sampling stream and the client streams of every round of one run.

    Round t's sampling stream is ``substream(seed, "sampling", round_index=t)``
    and client i's is ``substream(seed, "client", i, t)``.  Their keys are
    hashed for all ``n_clients`` positions in blocks of rounds, so the
    memory does not grow with the run's length.  Each call loads its streams
    into generators that the run reuses, so the next call of the same method
    reloads the generators the last one returned.
    """

    def __init__(self, master_seed: int, n_clients: int, n_rounds: int):
        if not 0 < n_clients <= _MASK32 + 1:
            raise ValueError("n_clients must be in [1, 2**32]")
        self._sampling_prefix = _key_words(master_seed, "sampling")
        self._client_prefix = _key_words(master_seed, "client")
        self._n_clients = n_clients
        self._n_rounds = min(n_rounds, _MASK32 + 1)
        self._block = max(1, _BLOCK_KEYS // n_clients)
        self._first = self._last = 0
        self._sampling_words = self._client_words = np.empty((0, 4), np.uint64)
        self._sampler = _blank_generator()
        self._generators: list[np.random.Generator] = []

    def _row(self, round_index: int) -> int:
        """Offset of ``round_index`` in the hashed block, hashing a new block if needed."""
        if not self._first <= round_index < self._last:
            if not 0 <= round_index < self._n_rounds:
                raise ValueError(f"round_index {round_index} outside [0, {self._n_rounds})")
            rounds = np.arange(round_index, min(round_index + self._block, self._n_rounds))
            columns = [np.full(len(rounds), w) for w in self._sampling_prefix] + [rounds]
            self._sampling_words = seed_words(np.stack(columns, axis=1))
            grid_round = np.repeat(rounds, self._n_clients)
            grid_client = np.tile(np.arange(self._n_clients), len(rounds))
            columns = [np.full(len(grid_round), w) for w in self._client_prefix]
            self._client_words = seed_words(np.stack(columns + [grid_client, grid_round], axis=1))
            self._first, self._last = round_index, round_index + len(rounds)
        return round_index - self._first

    def sampling(self, round_index: int) -> np.random.Generator:
        row = self._row(round_index)
        return _load(self._sampler, self._sampling_words[row])

    def clients(self, round_index: int, positions: Sequence[int]) -> list[np.random.Generator]:
        """One stream per client position, in the given order."""
        base = self._row(round_index) * self._n_clients
        while len(self._generators) < len(positions):
            self._generators.append(_blank_generator())
        streams = []
        for generator, position in zip(self._generators, positions):
            if not 0 <= position < self._n_clients:
                raise ValueError(f"client position {position} outside [0, {self._n_clients})")
            streams.append(_load(generator, self._client_words[base + position]))
        return streams
