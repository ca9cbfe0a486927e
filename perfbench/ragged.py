"""Provider/charge table with uneven client sizes for the `ragged` workload.

The schema and the cost tiers are those of ``metricfl.data.write_fixture``:
provider p sits in tier ``p % clusters`` near (-120 + 20c, 30 + 6c) and
charges ``(1 + 9c) + Uniform[0, 2)`` per provider plus ``Uniform[0, 0.1)`` per
row.  Only the row count differs: instead of one row per service, providers
hold 1 to 64 rows along a long tail (the 75 quantiles of a log-normal with
median e^2 rows, 936 rows in all), so most hold a handful and a few hold
dozens.

The seed shuffles which provider gets which size, but the sizes that land in
the training pool and in the validation set stay the same multisets: the run
with sweep seed s holds out the providers that ``metricfl``'s split draws for
s, and those get a fixed, evenly spread third of the sizes.  So the local SGD
and validation work of a run does not depend on the seed, and seed-to-seed
differences in timing are the machine's.

    python3 perfbench/ragged.py --seed 0 --split-seed 0 --out ragged.csv
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

COLUMNS = ["provider_id", "service_id", "longitude", "latitude", "avg_total_payment"]
PROVIDERS = 75
SERVICES = 4
CLUSTERS = 5
MAX_ROWS = 64
SIZES = [
    min(MAX_ROWS, max(1, round(math.exp(2.0 + 1.1 * NormalDist().inv_cdf((i + 0.5) / PROVIDERS)))))
    for i in range(PROVIDERS)
]


# validation_fraction in ragged.yaml; the split holds out ceil(0.3 * 75) providers
VALIDATION = math.ceil(0.3 * PROVIDERS)
# Ranks in SIZES of the sizes the held-out providers get: every third one or so.
VALIDATION_RANKS = [round((j + 0.5) * PROVIDERS / VALIDATION - 0.5) for j in range(VALIDATION)]
SPLIT_ROLE = 4  # metricfl.rng role code of "split"


def held_out(split_seed: int) -> list[int]:
    """Providers metricfl.data.split_population holds out for ``split_seed``.

    Mirrors ``split_population(..., substream(split_seed, "split"))``: the first
    VALIDATION entries of a permutation of the providers, which the ingest
    keeps in provider-id order.
    """
    rng = np.random.default_rng(np.random.SeedSequence([split_seed, SPLIT_ROLE]))
    return sorted(rng.permutation(PROVIDERS)[:VALIDATION].tolist())


def write_ragged_table(path: Path, seed: int, split_seed: int) -> list[int]:
    """Write the table for ``seed`` and a sweep seed of ``split_seed``.

    Returns the row count of each provider.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x72616767]))
    validation = held_out(split_seed)
    training = sorted(set(range(PROVIDERS)) - set(validation))
    val_sizes = [SIZES[r] for r in VALIDATION_RANKS]
    train_sizes = [SIZES[r] for r in range(PROVIDERS) if r not in VALIDATION_RANKS]
    sizes = [0] * PROVIDERS
    for providers, pool in ((validation, val_sizes), (training, train_sizes)):
        for p, i in zip(providers, rng.permutation(len(pool))):
            sizes[p] = pool[i]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for p, rows in enumerate(sizes):
            tier = p % CLUSTERS
            longitude = -120.0 + 20.0 * tier + 1.5 * rng.standard_normal()
            latitude = 30.0 + 6.0 * tier + 1.5 * rng.standard_normal()
            offset = 1.0 + 9.0 * tier + 2.0 * rng.random()
            for i in range(rows):
                payment = offset + 0.1 * rng.random()
                writer.writerow(
                    [f"P{p:04d}", 1 + i % SERVICES, repr(longitude), repr(latitude), repr(payment)]
                )
    return sizes


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--split-seed", type=int, default=0, help="the cell's sweep seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sizes = write_ragged_table(Path(args.out), args.seed, args.split_seed)
    print(f"wrote {sum(sizes)} rows over {len(sizes)} providers ({min(sizes)}..{max(sizes)} each)")
