"""Round orchestration: client step, aggregation, early stopping, budget cap
and the information boundary."""

import collections
import dataclasses
import math

import numpy as np
import pytest

import metricfl.federation as federation
from metricfl.data import generate_synthetic, split_population
from metricfl.experiment import write_hypotheses, write_metrics_csv
from metricfl.federation import (
    FederationConfig,
    HypothesisSet,
    run_experiment,
    run_experiments,
    server_round,
)
from metricfl.accounting import _Columns, PrivacyLedger, ledger_summary, write_ledger_csv
from metricfl.clustering import kmeans_from_hypotheses
from metricfl.models import (
    Batch,
    ClientTable,
    ModelSpec,
    gradient,
    init_params,
    local_updates,
    loss,
    loss_matrix,
    n_params,
)
from metricfl.rng import RoundStreams, substream
from test_mechanism import reference_sanitize
from test_clustering import same_bits
from test_models import table
from test_accounting import ledger_rows

LINEAR = ModelSpec("linear", input_dim=2)
ONE_BLOCK = np.zeros(1, dtype=np.intp)  # one cell reading the one block of its round's table


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


class Run:
    """What ``run_experiment`` builds once per run, for driving ``server_round``
    by hand: the clients' table in sorted id order (so a client's position is
    its index in ``ids``), a ledger over those ids and the stream table."""

    def __init__(self, clients, config, spec=LINEAR):
        self.ids = sorted(clients)
        self.table = table(spec, [clients[cid] for cid in self.ids])
        self.ledger = PrivacyLedger(self.ids)
        self.streams = RoundStreams(config.master_seed, len(self.ids), config.T)
        self.spec = spec
        self.config = config

    def draw(self):
        """The run's one sampling draw of the next round: its eligible pool."""
        pool = federation._eligible(self.ledger, self.spec, self.config)
        return pool, 0, self.streams

    def round(self, hyps, t):
        """The (k, n) hypotheses after round t and the (1,) mean training loss."""
        return server_round(
            self.table, [self.draw()], ONE_BLOCK, hyps, self.spec, [self.config], [self.ledger], t
        )


def client_steps(spec, datasets, hyps, config, rngs, round_index=0):
    """``_client_steps`` for a table of ``datasets``, every client sampled:
    the one cell's row of each stacked field, its leakage as a float."""
    steps = federation._client_steps(
        spec, table(spec, datasets), ONE_BLOCK, hyps, [config], rngs, round_index
    )
    cell = federation._ClientSteps(*(field[0] for field in steps))
    return cell._replace(leakage=float(cell.leakage[0]))


def round_assignment(ledger, t):
    """Sampled client -> server-side cluster, read from the round-t ledger rows."""
    return {row.client: row.cluster for row in ledger_rows(ledger) if row.round == t}


def lowest_loss(spec, hyps, dataset):
    """The row of the (k, n) ``hyps`` a client holding ``dataset`` selects,
    recomputed with ``loss``."""
    return hyps[np.argmin([loss(spec, v, dataset, "rmse") for v in hyps])]


class TestConfig:
    @pytest.mark.parametrize(
        "override", [{"nu": math.inf}, {"nu": math.nan}, {"s": math.inf}, {"s": math.nan}]
    )
    def test_non_finite_step_or_multiplier_rejected(self, override):
        with pytest.raises(ValueError, match=f"{next(iter(override))} must be"):
            make_config(**override)


class TestClientStep:
    def test_unsanitized_step_is_exact_sgd(self):
        dataset = make_dataset()
        hyps = np.array([[1.0, 0.0], [0.0, 1.0]])
        config = make_config(nu=0.0)
        rngs = [substream(0, "client", 0, 0)]
        result = client_steps(LINEAR, [dataset], hyps, config, rngs)
        received = lowest_loss(LINEAR, hyps, dataset)
        expected = received - 0.1 * gradient(LINEAR, received, dataset, "rmse")
        assert result.sanitized[0] == pytest.approx(expected, rel=1e-12)
        assert math.isinf(result.leakage)
        assert math.isinf(result.epsilon[0])

    def test_leakage_is_dimension_over_multiplier(self):
        dataset = make_dataset()
        hyps = np.array([[1.0, 0.0], [0.0, 1.0]])
        config = make_config(nu=5.0)
        rngs = [substream(0, "client", 0, 0)]
        result = client_steps(LINEAR, [dataset], hyps, config, rngs)
        assert result.leakage == 2 / 5.0
        assert result.epsilon[0] * result.radius[0] == pytest.approx(0.4, rel=1e-12)

    def test_argmin_hypothesis_selection(self):
        # At nu = 0 the release is the SGD update of the chosen hypothesis.
        dataset = make_dataset(theta=(5.0, 6.0))
        good = np.array([5.0, 6.0])
        bad = np.array([-5.0, 0.0])
        hyps = np.stack([bad, good])
        config = make_config(nu=0.0)
        rngs = [substream(0, "client", 0, 0)]
        result = client_steps(LINEAR, [dataset], hyps, config, rngs)
        fresh = [substream(0, "client", 0, 0) for _ in range(2)]
        twice = table(LINEAR, [dataset] * 2)
        trained = local_updates(LINEAR, hyps, twice, 0.1, 1, 10, fresh)
        assert np.array_equal(result.sanitized[0], trained[1])
        assert not np.array_equal(result.sanitized[0], trained[0])

    def test_selection_tie_breaks_to_lowest_index(self):
        # theta and -theta fit zero targets equally well; the release is the
        # update of hypothesis 0.
        dataset = Batch(np.random.default_rng(0).standard_normal((10, 2)), np.zeros(10))
        theta = np.array([1.0, 2.0])
        hyps = np.stack([theta, -theta])
        assert loss(LINEAR, theta, dataset, "rmse") == loss(LINEAR, -theta, dataset, "rmse")
        config = make_config(nu=0.0)
        rngs = [substream(0, "client", 0, 0)]
        result = client_steps(LINEAR, [dataset], hyps, config, rngs)
        fresh = [substream(0, "client", 0, 0) for _ in range(2)]
        twice = table(LINEAR, [dataset] * 2)
        trained = local_updates(LINEAR, hyps, twice, 0.1, 1, 10, fresh)
        assert np.array_equal(result.sanitized[0], trained[0])
        assert not np.array_equal(result.sanitized[0], trained[1])

    def test_empty_dataset_rejected(self):
        hyps = np.zeros((1, 2))
        empty = Batch(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            config = make_config(k=1)
            rngs = [substream(0, "client", 0, 0)]
            client_steps(LINEAR, [empty], hyps, config, rngs)

    def test_zero_norm_update_uses_radius_floor(self):
        # perfect fit: zero residual, zero gradient, zero update
        theta = np.array([5.0, 6.0])
        gen = np.random.default_rng(3)
        x = gen.standard_normal((5, 2))
        dataset = Batch(x, x @ theta)
        hyps = theta[None, :].copy()
        config = make_config(k=1, nu=5.0)
        rngs = [substream(0, "client", 0, 0)]
        result = client_steps(LINEAR, [dataset], hyps, config, rngs)
        assert result.radius[0] == 1e-9
        assert result.leakage == 2 / 5.0


class TestServerRound:
    def test_single_client_single_cluster(self):
        clients = {0: make_dataset()}
        config = make_config(k=1, U=1, nu=5.0)
        hyps = np.array([[0.0, 0.0]])
        run = Run(clients, config)
        new_hyps, _ = run.round(hyps, 0)
        rngs = [substream(0, "client", 0, 0)]
        step = client_steps(LINEAR, [clients[0]], hyps, config, rngs)
        assert new_hyps[0] == pytest.approx(step.sanitized[0], rel=1e-12)
        assert round_assignment(run.ledger, 0) == {0: 0}

    def test_identical_vectors_average_to_themselves(self):
        dataset = make_dataset()
        clients = {i: dataset for i in range(4)}
        config = make_config(k=1, U=4, nu=0.0)
        hyps = np.array([[1.0, -1.0]])
        new_hyps, _ = Run(clients, config).round(hyps, 0)
        rngs = [substream(0, "client", 0, 0)]
        expected = client_steps(LINEAR, [dataset], hyps, config, rngs)
        assert new_hyps[0] == pytest.approx(expected.sanitized[0], rel=1e-12)

    def test_unsanitized_round_averages_per_cluster(self):
        # two well-separated groups; with nu=0 the new hypotheses must equal
        # the plain means of the recomputed local updates per cluster
        gen = np.random.default_rng(5)
        clients = {}
        for i in range(6):
            theta = (5.0, 6.0) if i < 3 else (4.0, -4.5)
            clients[i] = make_dataset(seed=10 + i, theta=theta)
        config = make_config(k=2, U=6, nu=0.0)
        hyps = np.array([[5.0, 6.0], [4.0, -4.5]])
        run = Run(clients, config)
        new_hyps, _ = run.round(hyps, 0)
        assignment = round_assignment(run.ledger, 0)
        outputs = {
            cid: client_steps(
                LINEAR, [clients[cid]], hyps, config, [substream(0, "client", cid, 0)]
            ).sanitized[0]
            for cid in assignment
        }
        for j in range(2):
            members = [cid for cid, c in assignment.items() if c == j]
            assert members
            expected = np.mean([outputs[cid] for cid in members], axis=0)
            assert new_hyps[j] == pytest.approx(expected, rel=1e-12)

    def test_one_leakage_event_per_sampled_client(self):
        clients, _ = split_views()
        config = make_config(U=5)
        hyps = np.zeros((2, 2))
        run = Run(clients, config)
        for t in range(3):
            hyps, _ = run.round(hyps, t)
            sampled = round_assignment(run.ledger, t)
            assert len(sampled) == 5
            for cid in sampled:
                events = [r for r in ledger_rows(run.ledger) if (r.client, r.round) == (cid, t)]
                assert len(events) == 1

    def test_sampling_without_replacement(self):
        clients, _ = split_views()
        config = make_config(U=7)
        hyps = np.zeros((2, 2))
        run = Run(clients, config)
        run.round(hyps, 0)
        assert len(round_assignment(run.ledger, 0)) == 7
        assert len(run.ledger) == 7

    def test_released_noise_follows_each_clients_permutations(self):
        # Clients of 1 to 13 rows, one cluster: the new hypothesis is the mean
        # of the releases, and each release is the client's solo update plus
        # the noise drawn from its stream right after its E permutations.
        spec = ModelSpec("mlp", input_dim=2, hidden=(3,))
        clients = {i: make_dataset(seed=20 + i, m=m) for i, m in enumerate([1, 13, 4, 7, 2])}
        config = make_config(k=1, U=3, E=2, B_s=4, nu=5.0)
        hyps = np.full((1, n_params(spec)), 0.3)
        run = Run(clients, config, spec)
        new_hyps, _ = run.round(hyps, 0)
        events = {row.client: row for row in ledger_rows(run.ledger) if row.round == 0}
        assert len(events) == 3
        releases = []
        for cid in sorted(events):
            rng = substream(0, "client", cid, 0)
            data = table(spec, [clients[cid]])
            updated = local_updates(spec, hyps, data, 0.1, 2, 4, [rng])[0]
            assert events[cid].radius == float(np.linalg.norm(updated - hyps[0]))
            releases.append(reference_sanitize(updated, events[cid].epsilon, rng))
        assert np.array_equal(new_hyps[0], np.mean(releases, axis=0))

    @pytest.mark.parametrize("nu", [0.0, 5.0])
    def test_stacked_steps_are_bit_identical_to_solo_steps(self, nu):
        spec = ModelSpec("mlp", input_dim=2, hidden=(3,))
        datasets = [make_dataset(seed=40 + i, m=m) for i, m in enumerate([1, 13, 4, 7, 2, 9])]
        config = make_config(k=3, U=6, E=2, B_s=4, nu=nu)
        hyps = np.random.default_rng(4).standard_normal((3, n_params(spec)))
        rngs = [substream(0, "client", i, 2) for i in range(6)]
        stacked = client_steps(spec, datasets, hyps, config, rngs)
        for i, dataset in enumerate(datasets):
            solo = client_steps(spec, [dataset], hyps, config, [substream(0, "client", i, 2)])
            assert np.array_equal(solo.sanitized[0], stacked.sanitized[i])
            assert solo.epsilon[0] == stacked.epsilon[i]
            assert solo.radius[0] == stacked.radius[i]
            assert solo.leakage == stacked.leakage
            # The stacked training loss sums zero-padded rows: last-ulp only.
            assert solo.train_loss[0] == pytest.approx(stacked.train_loss[i], rel=1e-12)
            received = lowest_loss(spec, hyps, dataset)[None]
            update = local_updates(
                spec, received, table(spec, [dataset]), 0.1, 2, 4, [substream(0, "client", i, 2)]
            )[0]
            assert solo.radius[0] == float(np.linalg.norm(update - received[0]))
            if nu == 0:
                assert np.array_equal(solo.sanitized[0], update)

    def test_a_round_builds_no_seed_sequence(self, monkeypatch):
        train, _ = split_views(n_clients=30)
        config = make_config(U=7, nu=5.0)
        run = Run(train, config)
        hyps = np.zeros((2, 2))
        built = []

        def counting(real):
            def construct(*args, **kwargs):
                built.append(real.__name__)
                return real(*args, **kwargs)
            return construct

        for name in ("SeedSequence", "PCG64", "default_rng"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        for t in range(4):
            hyps, _ = run.round(hyps, t)
        assert len(run.ledger) == 4 * 7
        # Only the first round builds PCG64s, into which later rounds load states.
        assert "SeedSequence" not in built and "default_rng" not in built
        assert built.count("PCG64") == 7

    def test_a_cluster_emptied_by_lloyd_keeps_its_hypothesis(self, monkeypatch):
        # Hypotheses 0, 5 and 10, releases 3.0, 7.4, 1.0 and 9.0: Lloyd's first
        # step puts 3.0 and 7.4 into cluster 1, the second moves them to
        # clusters 0 and 2.  k-means leaves centroid 1 at their mean 5.2, but no
        # release is recorded for cluster 1, so its hypothesis stays 5.0.
        released = np.array([[[3.0], [7.4], [1.0], [9.0]]])
        ones = np.ones((1, 4))
        steps = federation._ClientSteps(released, ones, 0.2 * ones, np.array([[0.2]]), 0 * ones)
        monkeypatch.setattr(federation, "_client_steps", lambda *args: steps)
        spec = ModelSpec("linear", input_dim=1)
        clients = {i: Batch(np.ones((2, 1)), np.ones(2)) for i in range(4)}
        config = make_config(k=3, U=4, nu=5.0)
        hyps = np.array([[0.0], [5.0], [10.0]])
        run = Run(clients, config, spec)
        new_hyps, _ = run.round(hyps, 0)
        kmeans = kmeans_from_hypotheses(list(enumerate(released[0])), hyps)
        assert kmeans.labels.tolist() == [0, 2, 0, 2]
        assert kmeans.centroids[1, 0] == pytest.approx(5.2, rel=1e-12)
        assert new_hyps[1, 0] == 5.0
        assert new_hyps[:, 0] == pytest.approx([2.0, 5.0, 8.2], rel=1e-12)
        assert round_assignment(run.ledger, 0) == {0: 0, 1: 2, 2: 0, 3: 2}
        assert all(row.cluster != 1 for row in ledger_rows(run.ledger))

    def test_too_few_clients_rejected(self):
        clients = {0: make_dataset()}
        config = make_config(U=2)
        hyps = np.zeros((2, 2))
        with pytest.raises(RuntimeError):
            Run(clients, config).round(hyps, 0)


class TestInformationHygiene:
    def test_server_round_returns_hypotheses_and_mean_loss_only(self):
        # The server keeps the new hypotheses, one loss per cell and the ledger
        # rows; nothing records the cluster a client chose for itself.
        clients, _ = split_views()
        config = make_config(U=5)
        hyps = np.zeros((2, 2))
        run = Run(clients, config)
        returned = run.round(hyps, 0)
        assert len(returned) == 2
        new_hyps, mean_train_loss = returned
        assert type(new_hyps) is np.ndarray and new_hyps.shape == hyps.shape
        assert type(mean_train_loss) is np.ndarray and mean_train_loss.shape == (1,)
        assert {f.name for f in dataclasses.fields(HypothesisSet)} == {"vectors"}
        rngs = {cid: substream(0, "client", run.ids.index(cid), 0) for cid in run.ids}
        steps = [
            client_steps(LINEAR, [clients[cid]], hyps, config, [rngs[cid]])
            for cid in round_assignment(run.ledger, 0)
        ]
        solo_mean = np.mean([s.train_loss[0] for s in steps])
        assert mean_train_loss[0] == pytest.approx(solo_mean, rel=1e-12)
        assert set(_Columns._fields) == {
            "round",
            "position",
            "cluster",
            "epsilon",
            "radius",
            "leakage",
            "composed",
        }

    def test_client_result_has_no_raw_update(self):
        # Neither the raw update nor the cluster a client chose leaves the client phase.
        fields = set(federation._ClientSteps._fields)
        assert "delta" not in fields and "chosen" not in fields
        assert fields == {"sanitized", "epsilon", "radius", "leakage", "train_loss"}


class TestDivergence:
    @pytest.mark.parametrize("nu", [0.0, 5.0])
    def test_a_non_finite_update_names_the_round(self, monkeypatch, nu):
        # A NaN update used to be released at radius RADIUS_FLOOR (nu > 0) or
        # as-is (nu = 0); now the round fails before anything is recorded.
        real = federation.local_updates

        def one_nan_row(*args):
            updated = real(*args)
            updated[:, 1] = np.nan
            return updated

        monkeypatch.setattr(federation, "local_updates", one_nan_row)
        clients, _ = split_views()
        run = Run(clients, make_config(U=5, nu=nu))
        with pytest.raises(FloatingPointError, match="round 3: .* diverged"):
            run.round(np.zeros((2, 2)), 3)
        assert len(run.ledger) == 0


class TestRoundPath:
    def test_rows_are_concatenated_once_and_no_event_is_built(self, monkeypatch):
        # After run_experiment's two tables (training, validation), no round
        # builds one; the ledger holds its rows as columns, not as objects.
        built = []
        real = ClientTable.from_batches.__func__

        def from_batches(cls, spec, batches):
            if len(built) == 2:
                raise AssertionError("client rows concatenated after setup")
            built.append(len(batches))
            return real(cls, spec, batches)

        monkeypatch.setattr(ClientTable, "from_batches", classmethod(from_batches))
        train, val = split_views()
        result = run_experiment(train, val, LINEAR, make_config(T=12, validation_patience=12))
        assert len(result.history.train_loss) == 12
        assert built == [len(train), len(val)]
        assert len(result.ledger) == 12 * 7


    @pytest.mark.parametrize("n_cells, n_seeds", [
        pytest.param(1, 1, id="1"), pytest.param(3, 1, id="3"), pytest.param(3, 2, id="3-2seeds"),
    ])
    def test_a_stacked_round_runs_each_shared_step_once(self, monkeypatch, n_cells, n_seeds):
        # The row gather, local SGD, selection, validation and the ledger
        # record run once per round whatever the number of cells and seeds,
        # and k-means once per round for each distinct k; sampling and the
        # client streams run once per round for each seed's group.
        calls = collections.Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [(RoundStreams, "sampling"), (RoundStreams, "clients"),
                            (ClientTable, "take"), (federation, "local_updates"),
                            (federation, "loss_matrix"), (federation, "lloyd"),
                            (federation, "record_rounds"), (federation, "_validation_loss")]:
            count(owner, name)
        views = [split_views(seed) for seed in range(n_seeds)]
        cells = [(1, 0.0), (2, 0.5), (2, 5.0)][:n_cells]
        configs = [make_config(k=k, nu=nu, T=8, validation_patience=8, master_seed=seed)
                   for seed in range(n_seeds) for k, nu in cells]
        results = dict(run_experiments([views[c.master_seed] for c in configs], LINEAR, configs))
        assert sorted(results) == list(range(n_cells * n_seeds))
        assert all(len(result.history.train_loss) == 8 for result in results.values())
        # loss_matrix twice a round: selection and validation.
        assert calls == {"sampling": 8 * n_seeds, "clients": 8 * n_seeds, "take": 8,
                         "local_updates": 8, "loss_matrix": 16,
                         "lloyd": 8 * len({k for k, _ in cells}), "record_rounds": 8,
                         "_validation_loss": 8}

    @staticmethod
    def assert_round_matches_each_cell_alone(cells):
        # Each cell of a shared round gets the bits of its new hypotheses,
        # training loss and ledger alone.
        train, _ = split_views()
        configs = [make_config(k=k, nu=nu) for k, nu in cells]
        gen = np.random.default_rng(8)
        hyps = [gen.standard_normal((c.k, n_params(LINEAR))) for c in configs]

        def one_round(cells):
            # The cells' rows of the stacked result, cut at their cumulative k.
            runs = [Run(train, configs[c]) for c in cells]
            draw = np.arange(len(runs[0].ids)), 0, runs[0].streams
            vectors, losses = server_round(
                runs[0].table, [draw], np.zeros(len(runs), dtype=np.intp),
                np.concatenate([hyps[c] for c in cells]), LINEAR,
                [configs[c] for c in cells], [r.ledger for r in runs], 0,
            )
            ends = np.cumsum([configs[c].k for c in cells])
            return [(vectors[end - configs[c].k:end], loss, ledger_rows(run.ledger))
                    for c, end, loss, run in zip(cells, ends, losses.tolist(), runs)]

        grouped = one_round(range(len(cells)))
        for c in range(len(cells)):
            ((vectors, loss, rows),) = one_round([c])
            assert same_bits(grouped[c][0], vectors)
            assert grouped[c][1:] == (loss, rows)

    def test_a_mixed_k_round_matches_each_cell_alone(self):
        # Cells of k = 1, 2, 3 and one more k = 2 cell, one of them without
        # noise: only the noisy cells' blocks are gathered and released.
        self.assert_round_matches_each_cell_alone([(1, 5.0), (2, 0.5), (3, 5.0), (2, 0.0)])

    def test_an_all_noisy_round_matches_each_cell_alone(self):
        # Every cell releases with noise, each at its own nu: every cell's
        # block is gathered into the one release.
        self.assert_round_matches_each_cell_alone([(1, 5.0), (2, 0.5), (3, 5.0), (2, 2.0)])

    def test_an_all_noisy_round_of_one_k_matches_each_cell_alone(self):
        # Cells that share k select with one argmin over (U, G, k), each
        # offset to its own rows, and release as whole arrays.
        self.assert_round_matches_each_cell_alone([(2, 5.0), (2, 0.5), (2, 2.0)])

    @pytest.mark.parametrize("cells", [[(3, 5.0), (3, 0.5), (3, 2.0)],
                                       [(1, 5.0), (3, 0.5), (2, 2.0)]])
    def test_an_all_noisy_group_matches_each_cell_alone(self, cells, tmp_path):
        # A whole run of a group whose cells all release with noise, at one k
        # and at unequal ones, in lockstep until the last cell stops.
        train, val = split_views()
        configs = [make_config(k=k, nu=nu, T=12, validation_patience=3) for k, nu in cells]
        for c, result in run_experiments([(train, val)] * len(configs), LINEAR, configs):
            solo = run_experiment(train, val, LINEAR, configs[c])
            grouped = artifacts(result, configs[c].k, tmp_path / f"group{c}")
            assert grouped == artifacts(solo, configs[c].k, tmp_path / f"solo{c}")


class TestRowNorms:
    @pytest.mark.parametrize("n", [2, 3, 11, 17, 40])
    def test_bit_equal_to_the_norm_of_each_row(self, n):
        # metrics.csv and the golden digests hold these bits.
        gen = np.random.default_rng(n)
        for _ in range(400):
            rows = gen.standard_normal((int(gen.integers(1, 61)), n))
            rows *= 10.0 ** gen.integers(-150, 150, size=(len(rows), 1))
            expected = np.array([np.linalg.norm(d) for d in rows])
            assert same_bits(federation._row_norms(rows), expected)
            assert same_bits(expected, np.sqrt([d.dot(d) for d in rows]))


def artifacts(result, k, path):
    """The bytes of a result's ledger.csv, metrics.csv and hypothesis files."""
    path.mkdir()
    write_ledger_csv(result.ledger, path / "ledger.csv")
    write_metrics_csv(result.history, ledger_summary(result.ledger), k, path / "metrics.csv")
    write_hypotheses(result.best_hypotheses, path / "hypotheses.txt")
    write_hypotheses(result.final_hypotheses, path / "hypotheses_final.txt")
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestSeedGroups:
    def test_each_cell_matches_its_solo_run(self, tmp_path):
        # Nine cells of one seed, k 1..3 by nu 0/0.5/5, with a patience that
        # stops them in different rounds: each cell is yielded as it stops,
        # and its artifacts are the bytes of its run alone.
        train, val = split_views()
        configs = [
            make_config(k=k, nu=nu, T=30, validation_patience=2)
            for nu in (0.0, 0.5, 5.0) for k in (1, 2, 3)
        ]
        stopped = []
        for c, result in run_experiments([(train, val)] * len(configs), LINEAR, configs):
            stopped.append((len(result.history.train_loss), c))
            grouped = artifacts(result, configs[c].k, tmp_path / f"group{c}")
            solo = run_experiment(train, val, LINEAR, configs[c])
            assert grouped == artifacts(solo, configs[c].k, tmp_path / f"solo{c}")
        assert sorted(c for _, c in stopped) == list(range(9))
        assert stopped == sorted(stopped)
        assert len({rounds for rounds, _ in stopped}) > 2

    def test_cells_that_cannot_share_a_draw_run_as_separate_groups(self, tmp_path, monkeypatch):
        # A group is the cells that share one sampling draw: a different U is
        # a different draw, and so is each nu under a cap, whose pool follows
        # the composed leakage.  The groups of one U share a stacked round,
        # each in the order of its first cell and drawing once per round; the
        # U = 5 cell cannot share the stack and runs in a second pass.  Each
        # cell is yielded under its own index, as its solo run.
        groups, draws = [], collections.Counter()
        real, sampling = federation.server_round, RoundStreams.sampling

        def recording(table, round_draws, blocks, vectors, spec, configs, ledgers, round_index):
            if round_index == 0:
                groups.append([[cell.k for cell, b in zip(configs, blocks) if b == block]
                               for block in range(len(round_draws))])
            return real(table, round_draws, blocks, vectors, spec, configs, ledgers, round_index)

        def counted(streams, round_index):
            draws[streams, round_index] += 1  # the key keeps each stream table alive
            return sampling(streams, round_index)

        monkeypatch.setattr(federation, "server_round", recording)
        monkeypatch.setattr(RoundStreams, "sampling", counted)
        train, val = split_views()
        configs = [
            make_config(T=4, budget_cap=2.0), make_config(T=4, k=3), make_config(T=4, U=5, k=4),
            make_config(T=4, k=1, nu=0.0), make_config(T=4, k=5, nu=2.5, budget_cap=2.0),
            make_config(T=4, k=6, budget_cap=2.0),
        ]
        yielded = dict(run_experiments([(train, val)] * len(configs), LINEAR, configs))
        assert groups == [[[2, 6], [3, 1], [5]], [[4]]]
        # One draw per group and round: four groups of four rounds each.
        assert sorted(draws.values()) == [1] * 16
        assert len({streams for streams, _ in draws}) == 4
        assert sorted(yielded) == list(range(len(configs)))
        for c, config in enumerate(configs):
            solo = run_experiment(train, val, LINEAR, config)
            grouped = artifacts(yielded[c], config.k, tmp_path / f"group{c}")
            assert grouped == artifacts(solo, config.k, tmp_path / f"solo{c}")

    def test_seeds_in_lockstep_match_their_solo_runs(self, tmp_path):
        # Two seeds on populations of their own: every client of seed 0 holds
        # 2 to 7 rows and every client of seed 1 9 to 14, so each round's
        # stack holds clients of both below and above numpy's 8-row pairwise
        # block.  Each cell's artifacts are the bytes of its run alone, its
        # training loss included, whose sums are padded within its own seed.
        def population(seed, sizes):
            gen = np.random.default_rng(seed)
            return {i: make_dataset(seed=int(gen.integers(1 << 30)), m=m,
                                    theta=(5.0, 6.0) if i % 2 else (4.0, -4.5))
                    for i, m in enumerate(sizes)}

        views = [(population(0, [2, 7, 3, 5, 6, 4, 7, 2]), population(10, [3, 5, 6])),
                 (population(1, [9, 14, 11, 10, 12, 9, 13, 14]), population(11, [12, 9, 10]))]
        configs = [make_config(k=k, nu=nu, U=6, T=6, master_seed=seed)
                   for seed in (0, 1) for nu in (0.0, 3.0) for k in (1, 2)]
        yielded = dict(run_experiments([views[c.master_seed] for c in configs], LINEAR,
                                       configs))
        assert sorted(yielded) == list(range(len(configs)))
        for c, config in enumerate(configs):
            solo = run_experiment(*views[config.master_seed], LINEAR, config)
            grouped = artifacts(yielded[c], config.k, tmp_path / f"group{c}")
            assert grouped == artifacts(solo, config.k, tmp_path / f"solo{c}")

    def test_divergence_names_the_first_diverging_cell(self, monkeypatch):
        # Only cells 1 and 2 (k = 2) hold hypothesis 1; a stub turns every
        # update that starts from it into NaNs, so the error names cell 1.
        rng_hyp = substream(0, "hypotheses")
        second = [init_params(LINEAR, rng_hyp) for _ in range(2)][1]
        real = federation.local_updates

        def from_second_diverges(spec, params, *rest):
            updated = real(spec, params, *rest)
            updated[(params == second).all(axis=-1)] = np.nan
            return updated

        monkeypatch.setattr(federation, "local_updates", from_second_diverges)
        train, val = split_views()
        configs = [make_config(k=1), make_config(k=2), make_config(k=2, nu=0.0)]
        with pytest.raises(federation.Diverged, match="round 0: .* diverged") as failure:
            list(run_experiments([(train, val)] * len(configs), LINEAR, configs))
        assert failure.value.config == configs[1]


class TestEarlyStopping:
    def test_validation_loss_is_mean_of_per_client_minimum(self):
        gen = np.random.default_rng(11)
        validation = {f"c{i}": make_dataset(seed=i, m=m) for i, m in enumerate([1, 4, 9, 2])}
        hyps = HypothesisSet(gen.standard_normal((3, 2)))
        per_client = [
            min(loss(LINEAR, vec, validation[cid], "rmse") for vec in hyps.vectors)
            for cid in sorted(validation)
        ]
        (got,) = federation._validation_loss(loss_matrix(
            LINEAR, hyps.vectors, table(LINEAR, [validation[cid] for cid in sorted(validation)])
        ), [0])
        assert got == pytest.approx(np.mean(per_client), rel=1e-12)

    def test_stacked_cells_get_their_solo_bits(self):
        # Columns of cells with k = 1, 3 and 2 over 40 clients (past numpy's
        # 8-element pairwise block): each cell's loss is its solo bits.
        gen = np.random.default_rng(12)
        losses = gen.standard_normal((40, 6)) ** 2 * 10.0 ** gen.integers(-5, 6, size=(40, 6))
        columns = [slice(0, 1), slice(1, 4), slice(4, 6)]
        stacked = federation._validation_loss(losses, [cols.start for cols in columns])
        for got, cols in zip(stacked, columns):
            (solo,) = federation._validation_loss(np.ascontiguousarray(losses[:, cols]), [0])
            assert got == solo == float(np.mean(losses[:, cols].min(axis=1)))

    def test_zero_rounds_returns_initial_hypotheses(self):
        train, val = split_views()
        config = make_config(T=0)
        result = run_experiment(train, val, LINEAR, config)
        assert [column.shape for column in result.history] == [(0,), (0,), (0, config.k)]
        assert result.best_round is None
        assert np.array_equal(result.best_hypotheses.vectors, result.final_hypotheses.vectors)

    def test_flat_sequence_stops_after_patience_evaluations(self, monkeypatch):
        train, val = split_views()
        monkeypatch.setattr(federation, "_validation_loss", lambda *a, **k: np.array([1.0]))
        config = make_config(T=50, validation_patience=6)
        result = run_experiment(train, val, LINEAR, config)
        # first evaluation sets the best; six more exhaust the patience
        assert len(result.history.train_loss) == 7
        assert result.best_round == 0

    def test_decreasing_sequence_never_stops(self, monkeypatch):
        train, val = split_views()
        losses = iter(float(x) for x in range(1000, 0, -1))
        monkeypatch.setattr(federation, "_validation_loss",
                            lambda *a, **k: np.array([next(losses)]))
        config = make_config(T=20)
        result = run_experiment(train, val, LINEAR, config)
        assert len(result.history.train_loss) == 20
        assert result.best_round == 19

    def test_a_large_T_costs_nothing_until_it_is_reached(self):
        # T bounds the rounds, it is not a size: a run that stops early holds
        # and allocates only the rounds it ran.
        train, val = split_views()
        result = run_experiment(train, val, LINEAR, make_config(T=10**12, validation_patience=2))
        rounds = len(result.ledger) // 7
        assert 2 < rounds < 1000
        assert len(result.history.train_loss) == rounds
        assert result.best_round is not None and result.best_round < rounds - 2

    def test_best_hypotheses_come_from_best_round(self, monkeypatch):
        train, val = split_views()
        sequence = iter([5.0, 1.0, 3.0, 4.0, 4.5, 4.6, 4.7, 4.8, 4.9])
        monkeypatch.setattr(federation, "_validation_loss",
                            lambda *a, **k: np.array([next(sequence)]))
        config = make_config(T=9, validation_patience=50)
        result = run_experiment(train, val, LINEAR, config)
        assert result.best_round == 1
        assert result.best_validation_loss == 1.0

    def test_validation_cadence(self, monkeypatch):
        train, val = split_views()
        calls = []
        monkeypatch.setattr(
            federation, "_validation_loss", lambda *a, **k: calls.append(0) or np.array([1.0])
        )
        config = make_config(T=10, validation_every=3, validation_patience=100)
        result = run_experiment(train, val, LINEAR, config)
        assert len(calls) == 3  # rounds 2, 5, 8
        evaluated = np.flatnonzero(~np.isnan(result.history.validation_loss)).tolist()
        assert evaluated == [2, 5, 8]


class TestReproducibilityAndReduction:
    def test_identical_master_seed_reproduces_everything(self):
        train, val = split_views()
        config = make_config(T=8)
        a = run_experiment(train, val, LINEAR, config)
        b = run_experiment(train, val, LINEAR, config)
        assert len(a.history.train_loss) == len(b.history.train_loss)
        for ca, cb in zip(a.history, b.history):
            assert ca.shape == cb.shape
            assert np.array_equal(ca, cb, equal_nan=True)
        assert np.array_equal(a.best_hypotheses.vectors, b.best_hypotheses.vectors)
        rows_a = ledger_rows(a.ledger)
        rows_b = ledger_rows(b.ledger)
        assert rows_a == rows_b

    def test_plain_averaging_reduction(self):
        # nu=0 and k=1: each round's new hypothesis is the mean of the
        # client-updated vectors, recomputed here from scratch.
        train, _ = split_views()
        config = make_config(k=1, nu=0.0, T=3, U=5)
        hyps = np.zeros((1, 2))
        run = Run(train, config)
        for t in range(3):
            new_hyps, _ = run.round(hyps, t)
            manual = []
            for cid in round_assignment(run.ledger, t):
                rng = substream(config.master_seed, "client", run.ids.index(cid), t)
                data = table(LINEAR, [train[cid]])
                manual.append(local_updates(LINEAR, hyps, data, 0.1, 1, 10, [rng])[0])
            assert new_hyps[0] == pytest.approx(np.mean(manual, axis=0), rel=1e-12)
            hyps = new_hyps


class TestBudgetCap:
    def test_cap_excludes_exhausted_clients(self):
        train, _ = split_views(n_clients=13)  # 9 train clients after the 30% split
        # per-round cost 0.4; cap 0.5 allows exactly one participation
        config = make_config(U=3, nu=5.0, budget_cap=0.5, T=50)
        hyps = np.zeros((2, 2))
        run = Run(train, config)
        seen = set()
        for t in range(3):
            hyps, _ = run.round(hyps, t)
            sampled = set(round_assignment(run.ledger, t))
            assert not (sampled & seen), "an exhausted client was resampled"
            seen |= sampled
        # all 9 clients used up: a fourth round cannot field U=3
        with pytest.raises(RuntimeError):
            run.round(hyps, 3)

    def test_cap_admits_every_release_it_covers(self):
        # per-release cost 2/20 = 0.1; three releases sum to 0.30000000000000004
        # in floating point but must fit under a cap of 0.3, and a fourth must not
        clients = {i: make_dataset(seed=i) for i in range(3)}
        config = make_config(k=1, U=3, nu=20.0, budget_cap=0.3)
        hyps = np.zeros((1, 2))
        run = Run(clients, config)
        for t in range(3):
            hyps, _ = run.round(hyps, t)
        rows = ledger_rows(run.ledger)
        assert all(sum(row.client == cid for row in rows) == 3 for cid in clients)
        with pytest.raises(RuntimeError):
            run.round(hyps, 3)

    def test_exhausted_budget_ends_training(self, monkeypatch):
        # 9 training clients, U=3, one release each: three rounds, then the
        # run stops and returns the best evaluation instead of raising
        train, val = split_views(n_clients=13)
        sequence = iter([3.0, 1.0, 2.0])
        monkeypatch.setattr(federation, "_validation_loss",
                            lambda *a, **k: np.array([next(sequence)]))
        config = make_config(U=3, nu=5.0, budget_cap=0.5, T=50, validation_patience=50)
        result = run_experiment(train, val, LINEAR, config)
        assert len(result.history.train_loss) == 3  # rounds 0, 1 and 2
        assert result.best_round == 1
        assert result.best_validation_loss == 1.0
        # The best set is the one after round 1, the final set the one after round 2.
        norms = [[float(np.linalg.norm(v)) for v in hyps.vectors]
                 for hyps in (result.best_hypotheses, result.final_hypotheses)]
        assert norms == result.history.hypothesis_norms[1:3].tolist()
        assert norms[0] != norms[1]
        assert max(result.ledger.composed_leakage(cid) for cid in train) <= 0.5

    def test_cap_requires_sanitization(self):
        with pytest.raises(ValueError):
            make_config(nu=0.0, budget_cap=1.0)


class TestHypothesisExport:
    def test_flat_text_format(self, tmp_path):
        hyps = HypothesisSet(np.array([[1.5, -2.5], [0.0, 3.25]]))
        path = tmp_path / "hypotheses.txt"
        write_hypotheses(hyps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k=2 n=2"
        assert [float(v) for v in lines[1].split()] == [1.5, -2.5]
        assert [float(v) for v in lines[2].split()] == [0.0, 3.25]
