"""Deterministic derivation of independent random streams.

Every source of randomness in the simulator is an injected
``numpy.random.Generator``; nothing touches the global numpy state.  Streams
are derived from a single master seed through ``substream``, keyed by a role
tag plus optional client and round indices.  The same key always yields the
same stream, so client work can run in any order (or in parallel) without
changing results.
"""

from __future__ import annotations

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
    return np.random.default_rng(np.random.SeedSequence(entropy))
