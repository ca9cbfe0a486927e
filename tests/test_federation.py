"""Round orchestration: client step, aggregation, early stopping, budget cap
and the information boundary."""

import dataclasses
import math

import numpy as np
import pytest

import metricfl.federation as federation
from metricfl.data import generate_synthetic, split_population
from metricfl.federation import (
    ClientStepResult,
    FederationConfig,
    HypothesisSet,
    client_step,
    run_experiment,
    server_round,
)
from metricfl.accounting import LeakageEvent, PrivacyLedger
from metricfl.mechanism import NoiseScale, sample_noise
from metricfl.models import Batch, ModelSpec, gradient, local_update, loss, n_params
from metricfl.rng import substream

LINEAR = ModelSpec("linear", input_dim=2)


def make_config(**overrides):
    base = dict(
        k=2, T=50, U=7, E=1, s=0.1, B_s=10, nu=5.0,
        validation_every=1, validation_patience=6, master_seed=0,
    )
    base.update(overrides)
    return FederationConfig(**base)


def make_dataset(seed=0, m=10, theta=(5.0, 6.0)):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((m, 2))
    y = x @ np.asarray(theta) + gen.random(m)
    return Batch(x, y)


def split_views(seed=0, n_clients=30):
    pop = generate_synthetic(n_clients=n_clients, rng=substream(seed, "data"))
    train, val = split_population(pop, 0.3, substream(seed, "split"))
    return train.federation_view(), val.federation_view()


def round_assignment(ledger, t):
    """Sampled client -> server-side cluster, read from the round-t ledger events."""
    return {cid: event.cluster_id for cid, event, _ in ledger.iter_rows() if event.round == t}


class TestClientStep:
    def test_unsanitized_step_is_exact_sgd(self):
        dataset = make_dataset()
        hyps = HypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        config = make_config(nu=0.0)
        result = client_step(LINEAR, dataset, hyps, config, substream(0, "client", 0, 0))
        received = hyps.vectors[result.chosen]
        expected = received - 0.1 * gradient(LINEAR, received, dataset, "rmse")
        assert result.sanitized == pytest.approx(expected, rel=1e-12)
        assert math.isinf(result.leakage)
        assert math.isinf(result.epsilon)

    def test_leakage_is_dimension_over_multiplier(self):
        dataset = make_dataset()
        hyps = HypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        result = client_step(LINEAR, dataset, hyps, make_config(nu=5.0), substream(0, "client", 0, 0))
        assert result.leakage == 2 / 5.0
        assert result.epsilon * result.radius == pytest.approx(0.4, rel=1e-12)

    def test_argmin_hypothesis_selection(self):
        dataset = make_dataset(theta=(5.0, 6.0))
        good = np.array([5.0, 6.0])
        bad = np.array([-5.0, 0.0])
        hyps = HypothesisSet(np.stack([bad, good]))
        result = client_step(LINEAR, dataset, hyps, make_config(nu=0.0), substream(0, "client", 0, 0))
        assert result.chosen == 1

    def test_selection_tie_breaks_to_lowest_index(self):
        dataset = make_dataset()
        same = np.array([1.0, 1.0])
        hyps = HypothesisSet(np.stack([same, same]))
        result = client_step(LINEAR, dataset, hyps, make_config(nu=0.0), substream(0, "client", 0, 0))
        assert result.chosen == 0

    def test_empty_dataset_rejected(self):
        hyps = HypothesisSet(np.zeros((1, 2)))
        empty = Batch(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            client_step(LINEAR, empty, hyps, make_config(k=1), substream(0, "client", 0, 0))

    def test_zero_norm_update_uses_radius_floor(self):
        # perfect fit: zero residual, zero gradient, zero update
        theta = np.array([5.0, 6.0])
        gen = np.random.default_rng(3)
        x = gen.standard_normal((5, 2))
        dataset = Batch(x, x @ theta)
        hyps = HypothesisSet(theta[None, :].copy())
        result = client_step(LINEAR, dataset, hyps, make_config(k=1, nu=5.0), substream(0, "client", 0, 0))
        assert result.radius == 1e-9
        assert result.leakage == 2 / 5.0


class TestServerRound:
    def test_single_client_single_cluster(self):
        clients = {0: make_dataset()}
        config = make_config(k=1, U=1, nu=5.0)
        hyps = HypothesisSet(np.array([[0.0, 0.0]]))
        ledger = PrivacyLedger()
        new_hyps, _ = server_round(clients, hyps, LINEAR, config, ledger, 0, {0: 0})
        step = client_step(
            LINEAR, clients[0], hyps, config, substream(0, "client", 0, 0)
        )
        assert new_hyps.vectors[0] == pytest.approx(step.sanitized, rel=1e-12)
        assert round_assignment(ledger, 0) == {0: 0}

    def test_identical_vectors_average_to_themselves(self):
        dataset = make_dataset()
        clients = {i: dataset for i in range(4)}
        config = make_config(k=1, U=4, nu=0.0)
        hyps = HypothesisSet(np.array([[1.0, -1.0]]))
        new_hyps, _ = server_round(
            clients, hyps, LINEAR, config, PrivacyLedger(), 0, {i: i for i in range(4)}
        )
        expected = client_step(LINEAR, dataset, hyps, config, substream(0, "client", 0, 0))
        assert new_hyps.vectors[0] == pytest.approx(expected.sanitized, rel=1e-12)

    def test_unsanitized_round_averages_per_cluster(self):
        # two well-separated groups; with nu=0 the new hypotheses must equal
        # the plain means of the recomputed local updates per cluster
        gen = np.random.default_rng(5)
        clients = {}
        for i in range(6):
            theta = (5.0, 6.0) if i < 3 else (4.0, -4.5)
            clients[i] = make_dataset(seed=10 + i, theta=theta)
        config = make_config(k=2, U=6, nu=0.0)
        hyps = HypothesisSet(np.array([[5.0, 6.0], [4.0, -4.5]]))
        ledger = PrivacyLedger()
        new_hyps, _ = server_round(
            clients, hyps, LINEAR, config, ledger, 0, {i: i for i in range(6)}
        )
        assignment = round_assignment(ledger, 0)
        outputs = {
            cid: client_step(LINEAR, clients[cid], hyps, config, substream(0, "client", cid, 0)).sanitized
            for cid in assignment
        }
        for j in range(2):
            members = [cid for cid, c in assignment.items() if c == j]
            assert members
            expected = np.mean([outputs[cid] for cid in members], axis=0)
            assert new_hyps.vectors[j] == pytest.approx(expected, rel=1e-12)

    def test_one_leakage_event_per_sampled_client(self):
        clients, _ = split_views()
        config = make_config(U=5)
        hyps = HypothesisSet(np.zeros((2, 2)))
        ledger = PrivacyLedger()
        indices = {cid: i for i, cid in enumerate(sorted(clients))}
        for t in range(3):
            hyps, _ = server_round(clients, hyps, LINEAR, config, ledger, t, indices)
            sampled = round_assignment(ledger, t)
            assert len(sampled) == 5
            for cid in sampled:
                events = [e for e in ledger.events(cid) if e.round == t]
                assert len(events) == 1

    def test_sampling_without_replacement(self):
        clients, _ = split_views()
        config = make_config(U=7)
        hyps = HypothesisSet(np.zeros((2, 2)))
        indices = {cid: i for i, cid in enumerate(sorted(clients))}
        ledger = PrivacyLedger()
        server_round(clients, hyps, LINEAR, config, ledger, 0, indices)
        assert len(round_assignment(ledger, 0)) == 7
        assert len(ledger) == 7

    def test_released_noise_follows_each_clients_permutations(self):
        # Clients of 1 to 13 rows, one cluster: the new hypothesis is the mean
        # of the releases, and each release is the client's solo update plus
        # the noise drawn from its stream right after its E permutations.
        spec = ModelSpec("mlp", input_dim=2, hidden=(3,))
        clients = {i: make_dataset(seed=20 + i, m=m) for i, m in enumerate([1, 13, 4, 7, 2])}
        config = make_config(k=1, U=3, E=2, B_s=4, nu=5.0)
        hyps = HypothesisSet(np.full((1, n_params(spec)), 0.3))
        ledger = PrivacyLedger()
        indices = {cid: cid for cid in clients}
        new_hyps, _ = server_round(clients, hyps, spec, config, ledger, 0, indices)
        events = {cid: event for cid, event, _ in ledger.iter_rows() if event.round == 0}
        assert len(events) == 3
        releases = []
        for cid in sorted(events):
            rng = substream(0, "client", indices[cid], 0)
            updated = local_update(spec, hyps.vectors[0], clients[cid], 0.1, 2, 4, "rmse", rng)
            assert events[cid].radius == float(np.linalg.norm(updated - hyps.vectors[0]))
            noise = sample_noise(NoiseScale(events[cid].epsilon, n_params(spec)), rng)
            releases.append(updated + noise.components)
        assert np.array_equal(new_hyps.vectors[0], np.mean(releases, axis=0))

    def test_too_few_clients_rejected(self):
        clients = {0: make_dataset()}
        config = make_config(U=2)
        hyps = HypothesisSet(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            server_round(clients, hyps, LINEAR, config, PrivacyLedger(), 0, {0: 0})


class TestInformationHygiene:
    def test_server_round_returns_hypotheses_and_mean_loss_only(self):
        # The server keeps the new hypotheses, one scalar loss and the ledger
        # events; nothing records the cluster a client chose for itself.
        clients, _ = split_views()
        config = make_config(U=5)
        hyps = HypothesisSet(np.zeros((2, 2)))
        indices = {cid: i for i, cid in enumerate(sorted(clients))}
        ledger = PrivacyLedger()
        returned = server_round(clients, hyps, LINEAR, config, ledger, 0, indices)
        assert len(returned) == 2
        new_hyps, mean_train_loss = returned
        assert isinstance(new_hyps, HypothesisSet)
        assert new_hyps.round_index == 1
        assert type(mean_train_loss) is float
        steps = [
            client_step(LINEAR, clients[cid], hyps, config, substream(0, "client", indices[cid], 0))
            for cid in round_assignment(ledger, 0)
        ]
        assert mean_train_loss == pytest.approx(np.mean([s.train_loss for s in steps]), rel=1e-12)
        assert {f.name for f in dataclasses.fields(LeakageEvent)} == {
            "round",
            "epsilon",
            "radius",
            "leakage",
            "cluster_id",
        }

    def test_client_result_has_no_raw_update(self):
        fields = {f.name for f in dataclasses.fields(ClientStepResult)}
        assert "delta" not in fields
        assert fields == {"chosen", "sanitized", "epsilon", "radius", "leakage", "train_loss"}


class TestEarlyStopping:
    def test_validation_loss_is_mean_of_per_client_minimum(self):
        gen = np.random.default_rng(11)
        validation = {f"c{i}": make_dataset(seed=i, m=m) for i, m in enumerate([1, 4, 9, 2])}
        hyps = HypothesisSet(gen.standard_normal((3, 2)))
        per_client = [
            min(loss(LINEAR, vec, validation[cid], "rmse") for vec in hyps.vectors)
            for cid in sorted(validation)
        ]
        got = federation._validation_loss(validation, hyps, LINEAR)
        assert got == pytest.approx(np.mean(per_client), rel=1e-12)

    def test_zero_rounds_returns_initial_hypotheses(self):
        train, val = split_views()
        config = make_config(T=0)
        result = run_experiment(train, val, LINEAR, config)
        assert result.history == []
        assert result.best_round is None
        assert np.array_equal(result.best_hypotheses.vectors, result.final_hypotheses.vectors)

    def test_flat_sequence_stops_after_patience_evaluations(self, monkeypatch):
        train, val = split_views()
        monkeypatch.setattr(federation, "_validation_loss", lambda *a, **k: 1.0)
        config = make_config(T=50, validation_patience=6)
        result = run_experiment(train, val, LINEAR, config)
        # first evaluation sets the best; six more exhaust the patience
        assert len(result.history) == 7
        assert result.best_round == 0

    def test_decreasing_sequence_never_stops(self, monkeypatch):
        train, val = split_views()
        losses = iter(float(x) for x in range(1000, 0, -1))
        monkeypatch.setattr(federation, "_validation_loss", lambda *a, **k: next(losses))
        config = make_config(T=20)
        result = run_experiment(train, val, LINEAR, config)
        assert len(result.history) == 20
        assert result.best_round == 19

    def test_best_hypotheses_come_from_best_round(self, monkeypatch):
        train, val = split_views()
        sequence = iter([5.0, 1.0, 3.0, 4.0, 4.5, 4.6, 4.7, 4.8, 4.9])
        monkeypatch.setattr(federation, "_validation_loss", lambda *a, **k: next(sequence))
        config = make_config(T=9, validation_patience=50)
        result = run_experiment(train, val, LINEAR, config)
        assert result.best_round == 1
        assert result.best_validation_loss == 1.0

    def test_validation_cadence(self, monkeypatch):
        train, val = split_views()
        calls = []
        monkeypatch.setattr(
            federation, "_validation_loss", lambda *a, **k: calls.append(0) or 1.0
        )
        config = make_config(T=10, validation_every=3, validation_patience=100)
        result = run_experiment(train, val, LINEAR, config)
        assert len(calls) == 3  # rounds 2, 5, 8
        evaluated = [m.round for m in result.history if m.validation_loss is not None]
        assert evaluated == [2, 5, 8]


class TestReproducibilityAndReduction:
    def test_identical_master_seed_reproduces_everything(self):
        train, val = split_views()
        config = make_config(T=8)
        a = run_experiment(train, val, LINEAR, config)
        b = run_experiment(train, val, LINEAR, config)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra == rb
        assert np.array_equal(a.best_hypotheses.vectors, b.best_hypotheses.vectors)
        rows_a = list(a.ledger.iter_rows())
        rows_b = list(b.ledger.iter_rows())
        assert rows_a == rows_b

    def test_plain_averaging_reduction(self):
        # nu=0 and k=1: each round's new hypothesis is the mean of the
        # client-updated vectors, recomputed here from scratch.
        train, _ = split_views()
        config = make_config(k=1, nu=0.0, T=3, U=5)
        indices = {cid: i for i, cid in enumerate(sorted(train))}
        hyps = HypothesisSet(np.zeros((1, 2)))
        ledger = PrivacyLedger()
        for t in range(3):
            new_hyps, _ = server_round(train, hyps, LINEAR, config, ledger, t, indices)
            manual = []
            for cid in round_assignment(ledger, t):
                rng = substream(config.master_seed, "client", indices[cid], t)
                manual.append(
                    local_update(LINEAR, hyps.vectors[0], train[cid], 0.1, 1, 10, "rmse", rng)
                )
            assert new_hyps.vectors[0] == pytest.approx(np.mean(manual, axis=0), rel=1e-12)
            hyps = new_hyps


class TestBudgetCap:
    def test_cap_excludes_exhausted_clients(self):
        train, _ = split_views(n_clients=13)  # 9 train clients after the 30% split
        # per-round cost 0.4; cap 0.5 allows exactly one participation
        config = make_config(U=3, nu=5.0, budget_cap=0.5, T=50)
        indices = {cid: i for i, cid in enumerate(sorted(train))}
        hyps = HypothesisSet(np.zeros((2, 2)))
        ledger = PrivacyLedger()
        seen = set()
        for t in range(3):
            hyps, _ = server_round(train, hyps, LINEAR, config, ledger, t, indices)
            sampled = set(round_assignment(ledger, t))
            assert not (sampled & seen), "an exhausted client was resampled"
            seen |= sampled
        # all 9 clients used up: a fourth round cannot field U=3
        with pytest.raises(RuntimeError):
            server_round(train, hyps, LINEAR, config, ledger, 3, indices)

    def test_cap_admits_every_release_it_covers(self):
        # per-release cost 2/20 = 0.1; three releases sum to 0.30000000000000004
        # in floating point but must fit under a cap of 0.3, and a fourth must not
        clients = {i: make_dataset(seed=i) for i in range(3)}
        config = make_config(k=1, U=3, nu=20.0, budget_cap=0.3)
        indices = {i: i for i in range(3)}
        hyps = HypothesisSet(np.zeros((1, 2)))
        ledger = PrivacyLedger()
        for t in range(3):
            hyps, _ = server_round(clients, hyps, LINEAR, config, ledger, t, indices)
        assert all(len(ledger.events(cid)) == 3 for cid in clients)
        with pytest.raises(RuntimeError):
            server_round(clients, hyps, LINEAR, config, ledger, 3, indices)

    def test_exhausted_budget_ends_training(self, monkeypatch):
        # 9 training clients, U=3, one release each: three rounds, then the
        # run stops and returns the best evaluation instead of raising
        train, val = split_views(n_clients=13)
        sequence = iter([3.0, 1.0, 2.0])
        monkeypatch.setattr(federation, "_validation_loss", lambda *a, **k: next(sequence))
        config = make_config(U=3, nu=5.0, budget_cap=0.5, T=50, validation_patience=50)
        result = run_experiment(train, val, LINEAR, config)
        assert [m.round for m in result.history] == [0, 1, 2]
        assert result.best_round == 1
        assert result.best_validation_loss == 1.0
        assert result.best_hypotheses.round_index == 2
        assert result.final_hypotheses.round_index == 3
        assert max(result.ledger.composed_leakage(cid) for cid in train) <= 0.5

    def test_cap_requires_sanitization(self):
        with pytest.raises(ValueError):
            make_config(nu=0.0, budget_cap=1.0)


class TestHypothesisExport:
    def test_flat_text_format(self, tmp_path):
        hyps = HypothesisSet(np.array([[1.5, -2.5], [0.0, 3.25]]), round_index=4)
        path = tmp_path / "hypotheses.txt"
        federation.write_hypotheses(hyps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k=2 n=2"
        assert [float(v) for v in lines[1].split()] == [1.5, -2.5]
        assert [float(v) for v in lines[2].split()] == [0.0, 3.25]
