"""Client populations: synthetic generation, CSV ingestion and splitting.

A population is a list of clients, each holding a small supervised dataset.
Synthetic populations draw from a fixed set of generating linear maps; the
generating cluster of each client is kept as a hidden label for evaluation
only and never crosses into the federation layer.

Tabular ingestion reads provider-level service/charge records.  Features are
divided by fixed constants declared in configuration, never by data-derived
statistics: computing empirical normalizers would require global knowledge
no single client has.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

import numpy as np

from .models import Batch

__all__ = [
    "Client",
    "ClientPopulation",
    "FeatureScaling",
    "generate_synthetic",
    "ingest_csv",
    "split_population",
    "write_fixture",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ["provider_id", "service_id", "longitude", "latitude", "avg_total_payment"]

DEFAULT_THETAS = ((5.0, 6.0), (4.0, -4.5))


@dataclass(frozen=True)
class Client:
    """One participant: an id, its local dataset and (test-only) the index of
    the distribution that generated it."""

    client_id: Hashable
    data: Batch
    true_cluster: int | None = None

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise ValueError(f"client {self.client_id!r} has an empty dataset")


@dataclass
class ClientPopulation:
    clients: list[Client]

    def __len__(self) -> int:
        return len(self.clients)

    def client_ids(self) -> list[Hashable]:
        return [c.client_id for c in self.clients]

    def federation_view(self) -> dict[Hashable, Batch]:
        """What the federation layer is allowed to see: id -> dataset.

        Hidden generator labels are deliberately dropped here.
        """
        return {c.client_id: c.data for c in self.clients}

    def true_clusters(self) -> dict[Hashable, int | None]:
        """Evaluation-only access to the hidden labels."""
        return {c.client_id: c.true_cluster for c in self.clients}


def generate_synthetic(
    n_clients: int = 100,
    samples_per_client: int = 10,
    thetas: tuple = DEFAULT_THETAS,
    *,
    rng: np.random.Generator,
) -> ClientPopulation:
    """Population of linear-regression clients split evenly over ``thetas``.

    Features are i.i.d. standard normal; targets are x @ theta plus additive
    Uniform[0, 1) noise.  Cluster labels are balanced and shuffled by the
    caller's stream.
    """
    if n_clients < 1 or samples_per_client < 1:
        raise ValueError("n_clients and samples_per_client must be >= 1")
    theta_matrix = np.asarray(thetas, dtype=float)
    if theta_matrix.ndim != 2:
        raise ValueError("thetas must be a sequence of equal-length vectors")
    n_groups, dim = theta_matrix.shape

    labels = np.tile(np.arange(n_groups), math.ceil(n_clients / n_groups))[:n_clients]
    labels = labels[rng.permutation(n_clients)]

    clients = []
    for cid in range(n_clients):
        x = rng.standard_normal((samples_per_client, dim))
        u = rng.random(samples_per_client)
        y = x @ theta_matrix[labels[cid]] + u
        clients.append(Client(client_id=cid, data=Batch(x, y), true_cluster=int(labels[cid])))
    return ClientPopulation(clients=clients)


@dataclass(frozen=True)
class FeatureScaling:
    """Fixed divisors bringing features and target into unit range."""

    service_id: float = 1.0
    longitude: float = 1.0
    latitude: float = 1.0
    payment: float = 1.0

    def __post_init__(self) -> None:
        for name in ("service_id", "longitude", "latitude", "payment"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"scaling constant {name} must be positive, got {value!r}")


def ingest_csv(path: str | Path, scaling: FeatureScaling = FeatureScaling()) -> ClientPopulation:
    """Group rows by provider into clients of (service, longitude, latitude)
    features and scaled payment targets.

    The header must match the fixture schema exactly; bad rows are reported
    with their line number.
    """
    path = Path(path)
    rows: dict[str, list[tuple[float, float, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: expected columns {CSV_COLUMNS}, found {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}:{line_no}: expected {len(CSV_COLUMNS)} fields")
            provider = row[0]
            try:
                service = float(row[1])
                longitude = float(row[2])
                latitude = float(row[3])
                payment = float(row[4])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric field") from None
            if not all(map(math.isfinite, (service, longitude, latitude, payment))):
                raise ValueError(f"{path}:{line_no}: non-finite value")
            if payment < 0:
                raise ValueError(f"{path}:{line_no}: negative payment")
            rows.setdefault(provider, []).append((service, longitude, latitude, payment))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    clients = []
    for provider in sorted(rows):
        records = np.asarray(rows[provider], dtype=float)
        features = records[:, :3] / np.array(
            [scaling.service_id, scaling.longitude, scaling.latitude]
        )
        targets = records[:, 3] / scaling.payment
        clients.append(Client(client_id=provider, data=Batch(features, targets)))
    return ClientPopulation(clients=clients)


def validation_size(n_clients: int, validation_fraction: float) -> int:
    """How many of ``n_clients`` clients ``split_population`` holds out."""
    return math.ceil(n_clients * validation_fraction)


def split_population(
    population: ClientPopulation,
    validation_fraction: float,
    rng: np.random.Generator,
) -> tuple[ClientPopulation, ClientPopulation]:
    """Disjoint, exhaustive shuffled split; sizes round toward validation."""
    if not 0 < validation_fraction < 1:
        raise ValueError("validation_fraction must be in (0, 1)")
    n = len(population)
    n_val = validation_size(n, validation_fraction)
    if n_val == 0 or n_val == n:
        raise ValueError(f"fraction {validation_fraction} leaves an empty side for {n} clients")
    order = rng.permutation(n)
    val_clients = [population.clients[i] for i in sorted(order[:n_val])]
    train_clients = [population.clients[i] for i in sorted(order[n_val:])]
    return ClientPopulation(train_clients), ClientPopulation(val_clients)


def write_fixture(
    path: str | Path,
    providers: int,
    services: int,
    clusters: int,
    rng: np.random.Generator,
) -> int:
    """Write a provider/service charge table with latent regional cost tiers.

    Generative model: provider p belongs to tier ``p % clusters``.  Tier c
    providers sit near (longitude, latitude) = (-120 + 20c, 30 + 6c) with
    normal scatter (sd 1.5 degrees).  Each provider charges its own level

        payment = (1 + 9c) + Uniform[0, 2) + Uniform[0, 0.1)

    with the middle term drawn once per provider and the last per row, so
    adjacent tiers differ by 9 in mean payment while providers inside a tier
    keep distinct cost levels.  One row is written per (provider, service)
    pair, and the row count returned; the directory is made once the checks pass.
    """
    if providers < 1 or services < 1 or clusters < 1:
        raise ValueError("providers, services and clusters must be >= 1")
    if clusters > providers:
        raise ValueError("more clusters than providers")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n_rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in range(providers):
            tier = p % clusters
            longitude = -120.0 + 20.0 * tier + 1.5 * rng.standard_normal()
            latitude = 30.0 + 6.0 * tier + 1.5 * rng.standard_normal()
            offset = 1.0 + 9.0 * tier + 2.0 * rng.random()
            for service in range(1, services + 1):
                payment = offset + 0.1 * rng.random()
                writer.writerow(
                    [f"P{p:04d}", service, repr(longitude), repr(latitude), repr(payment)]
                )
                n_rows += 1
    return n_rows
