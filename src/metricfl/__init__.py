"""Personalized federated learning with metric-privacy sanitization.

Clients train the best-fitting of k hypothesis models on local data and
release only a noisy full parameter vector; the noise is Laplace under the
Euclidean metric, calibrated so each release costs a fixed privacy budget
within the ball of the update's own radius.  A simulated server clusters the
sanitized vectors and averages within clusters, while a ledger composes the
per-client leakage over rounds.
"""

from .accounting import PrivacyLedger, heuristic_epsilon, ledger_summary
from .clustering import ClusterAssignment, kmeans_from_hypotheses
from .data import (
    Client,
    ClientPopulation,
    FeatureScaling,
    generate_synthetic,
    ingest_csv,
    split_population,
)
from .federation import (
    FederationConfig,
    HypothesisSet,
    run_experiment,
    run_experiments,
    server_round,
)
from .mechanism import (
    NoiseScale,
    log_density,
    sample_direction,
    sample_radius,
)
from .models import Batch, ModelSpec, gradient, loss, predict
from .rng import substream

__version__ = "0.1.0"
