"""Predictors, the RMSE objective, analytic gradients against finite
differences, and local SGD."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_sgd import sgd_reference

from metricfl.mechanism import sanitize_rows
from metricfl.models import (
    Batch,
    ClientTable,
    ModelSpec,
    client_losses,
    gradient,
    init_params,
    local_updates,
    loss,
    loss_matrix,
    n_params,
    pack,
    predict,
    unpack,
)

LINEAR_2D = ModelSpec("linear", input_dim=2)
SMALL_MLP = ModelSpec("mlp", input_dim=3, hidden=(2,))


def table(spec, batches):
    return ClientTable.from_batches(spec, batches)


def finite_difference(spec, params, batch, objective, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        step = np.zeros_like(params)
        step[i] = h
        grad[i] = (
            loss(spec, params + step, batch, objective)
            - loss(spec, params - step, batch, objective)
        ) / (2 * h)
    return grad


def random_instance(gen):
    """One random (spec, params, batch, objective) tuple; the objective is
    always "rmse"."""
    kind = gen.choice(["linear", "mlp"])
    m = int(gen.integers(2, 7))
    if kind == "linear":
        spec = ModelSpec("linear", input_dim=int(gen.integers(1, 5)))
    else:
        dim = int(gen.integers(1, 4))
        hidden = tuple(int(w) for w in gen.integers(1, 4, size=int(gen.integers(1, 3))))
        spec = ModelSpec("mlp", input_dim=dim, hidden=hidden)
    params = gen.standard_normal(n_params(spec))
    batch = Batch(gen.standard_normal((m, spec.input_dim)), gen.standard_normal(m))
    return spec, params, batch, "rmse"


class TestSpecAndPacking:
    def test_parameter_counts(self):
        assert n_params(LINEAR_2D) == 2
        # the 3-input, 2-hidden, 1-output network used for tabular runs
        assert n_params(SMALL_MLP) == 11

    def test_linear_rejects_hidden_layers(self):
        with pytest.raises(ValueError):
            ModelSpec("linear", input_dim=2, hidden=(3,))

    @given(
        input_dim=st.integers(1, 4),
        hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_round_trip(self, input_dim, hidden, seed):
        spec = ModelSpec("mlp", input_dim=input_dim, hidden=tuple(hidden))
        params = np.random.default_rng(seed).standard_normal(n_params(spec))
        assert np.array_equal(pack(spec, unpack(spec, params)), params)

    def test_cached_layout_leaves_equality_hash_and_pickle_alone(self):
        fresh = ModelSpec("mlp", input_dim=3, hidden=(2,))
        used = ModelSpec("mlp", input_dim=3, hidden=(2,))
        before = pickle.dumps(used)
        assert used.layer_sizes == ((2, 3), (1, 2))
        assert n_params(used) == 11
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == before
        restored = pickle.loads(before)
        assert restored == used and n_params(restored) == 11


class TestPredict:
    def test_linear_dot_product(self):
        out = predict(LINEAR_2D, np.array([5.0, 6.0]), np.array([[1.0, 1.0]]))
        assert out == pytest.approx([11.0])

    def test_linear_zero_parameters(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        assert np.array_equal(predict(LINEAR_2D, np.zeros(2), x), np.zeros(4))

    def test_mlp_zero_parameters_give_zero_output(self):
        x = np.random.default_rng(1).standard_normal((5, 3))
        out = predict(SMALL_MLP, np.zeros(11), x)
        assert np.array_equal(out, np.zeros(5))

    def test_parameter_length_checked(self):
        with pytest.raises(ValueError):
            predict(SMALL_MLP, np.zeros(10), np.zeros((1, 3)))


class TestBatch:
    def test_targets_are_one_float_per_feature_row(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, -2.0, 3.0])
        # A column of targets would broadcast the residual to (m, m) in
        # ``loss`` and make ``gradient`` fail; a 0-d target has no length.
        for bad in (y[:, None], y[None, :], np.float64(1.0), y[:2]):
            with pytest.raises(ValueError, match="targets"):
                Batch(x, bad)
        batch = Batch(x, y)
        expected = np.linalg.norm(y) / math.sqrt(3)
        assert loss(LINEAR_2D, np.zeros(2), batch, "rmse") == pytest.approx(expected, rel=1e-15)
        assert gradient(LINEAR_2D, np.zeros(2), batch, "rmse").shape == (2,)
        assert Batch(x, np.array([1, -2, 3])).y.dtype == np.float64


class TestLoss:
    def test_perfect_predictions(self):
        theta = np.array([5.0, 6.0])
        x = np.random.default_rng(2).standard_normal((6, 2))
        batch = Batch(x, x @ theta)
        assert loss(LINEAR_2D, theta, batch, "rmse") == 0.0

    def test_zero_model_loss_is_target_rms(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((10, 2))
        y = x @ np.array([5.0, 6.0]) + gen.random(10)
        batch = Batch(x, y)
        assert loss(LINEAR_2D, np.zeros(2), batch, "rmse") == pytest.approx(
            math.sqrt(np.mean(y**2)), rel=1e-12
        )

    def test_single_sample_absolute_error(self):
        batch = Batch(np.array([[1.0, 0.0]]), np.array([3.0]))
        assert loss(LINEAR_2D, np.zeros(2), batch, "rmse") == pytest.approx(3.0)

    def test_rmse_is_residual_norm_over_sqrt_m(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            spec, params, batch, _ = random_instance(gen)
            residual = batch.y - predict(spec, params, batch.x)
            expected = np.linalg.norm(residual) / math.sqrt(len(batch))
            assert loss(spec, params, batch, "rmse") == pytest.approx(expected, rel=1e-15)
            assert loss(spec, params, batch, "rmse") >= 0.0

    def test_empty_batch_rejected(self):
        empty = Batch(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            loss(LINEAR_2D, np.zeros(2), empty, "rmse")
        with pytest.raises(ValueError):
            gradient(LINEAR_2D, np.zeros(2), empty, "rmse")


def random_batches(gen, spec, sizes):
    return [Batch(gen.standard_normal((m, spec.input_dim)), gen.standard_normal(m)) for m in sizes]


class TestLossMatrix:
    # ``objective`` goes to the reference ``loss`` only; it names the cases.
    CASES = [
        (ModelSpec("linear", input_dim=3), "rmse"),
        (ModelSpec("mlp", input_dim=3, hidden=(2,)), "rmse"),
        (ModelSpec("mlp", input_dim=2, hidden=(4, 3)), "rmse"),
    ]

    @pytest.mark.parametrize("spec,objective", CASES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_loss_entry_by_entry(self, spec, objective, k):
        gen = np.random.default_rng(k + n_params(spec))
        hypotheses = gen.standard_normal((k, n_params(spec)))
        for sizes in ([1], [4], [1, 7, 1, 3], [2, 1, 64, 5, 1]):
            batches = random_batches(gen, spec, sizes)
            matrix = loss_matrix(spec, hypotheses, table(spec, batches))
            assert matrix.shape == (len(batches), k)
            for i, batch in enumerate(batches):
                for j in range(k):
                    expected = loss(spec, hypotheses[j], batch, objective)
                    assert matrix[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec,objective", CASES)
    def test_client_losses_match_loss_per_client(self, spec, objective):
        gen = np.random.default_rng(n_params(spec))
        sizes = [2, 1, 64, 5, 1]
        params = gen.standard_normal((len(sizes), n_params(spec)))
        batches = random_batches(gen, spec, sizes)
        losses = client_losses(spec, params, table(spec, batches))
        assert losses.shape == (len(sizes),)
        for i, batch in enumerate(batches):
            expected = loss(spec, params[i], batch, objective)
            assert losses[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        with pytest.raises(ValueError):
            client_losses(spec, params[:2], table(spec, batches))

    def test_argmin_breaks_ties_to_lowest_index(self):
        spec = SMALL_MLP
        gen = np.random.default_rng(6)
        best = gen.standard_normal(n_params(spec))
        worse = best + 1.0
        hypotheses = np.stack([worse, best, best, worse])
        batch = Batch(gen.standard_normal((5, 3)), gen.standard_normal(5))
        row = loss_matrix(spec, hypotheses, table(spec, [batch]))[0]
        assert row[1] == row[2]
        assert int(np.argmin(row)) == 1

    def test_rejects_empty_batches_and_wrong_width(self):
        hypotheses = np.zeros((2, 11))
        batch = Batch(np.zeros((3, 3)), np.zeros(3))
        empty = Batch(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, table(SMALL_MLP, [batch, empty]))
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, table(SMALL_MLP, []))
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, np.zeros((2, 10)), table(SMALL_MLP, [batch]))
        narrow = Batch(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, table(SMALL_MLP, [narrow]))


class TestGradient:
    def test_linear_gradient_direction_at_zero(self):
        # single sample (x, y): gradient of the rmse objective at 0 is
        # -x * sign(y), proportional to -y x.
        x = np.array([[2.0, -1.0]])
        y = np.array([3.0])
        grad = gradient(LINEAR_2D, np.zeros(2), Batch(x, y), "rmse")
        assert grad == pytest.approx(-x[0] * np.sign(y[0]))

    def test_matches_finite_differences_on_random_instances(self):
        gen = np.random.default_rng(123)
        for _ in range(100):
            spec, params, batch, objective = random_instance(gen)
            analytic = gradient(spec, params, batch, objective)
            numeric = finite_difference(spec, params, batch, objective)
            denominator = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denominator < 1e-4

    def test_feature_width_checked(self):
        wrong = Batch(np.ones((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            gradient(SMALL_MLP, np.zeros(11), wrong, "rmse")
        with pytest.raises(ValueError):
            gradient(ModelSpec("linear", input_dim=3), np.zeros(3), wrong, "rmse")
        with pytest.raises(ValueError):
            local_updates(
                SMALL_MLP, np.zeros((1, 11)), table(SMALL_MLP, [wrong]), 0.1, 1, 2, streams([0])
            )

    def test_only_rmse_is_accepted(self):
        batch = Batch(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="objective"):
            loss(LINEAR_2D, np.zeros(2), batch, "cross_entropy")
        with pytest.raises(ValueError, match="objective"):
            gradient(LINEAR_2D, np.zeros(2), batch, "cross_entropy")

    def test_zero_residual_gives_zero_gradient(self):
        theta = np.array([1.0, 2.0])
        x = np.random.default_rng(5).standard_normal((4, 2))
        batch = Batch(x, x @ theta)
        assert np.array_equal(gradient(LINEAR_2D, theta, batch, "rmse"), np.zeros(2))


class TestLocalUpdate:
    def make_dataset(self, seed=0, m=10):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((m, 2))
        y = x @ np.array([5.0, 6.0]) + gen.random(m)
        return Batch(x, y)

    def test_zero_step_size_is_identity(self):
        dataset = self.make_dataset()
        params = np.array([[1.0, -1.0]])
        out = local_updates(LINEAR_2D, params, table(LINEAR_2D, [dataset]), 0.0, 3, 4, streams([0]))
        assert np.array_equal(out, params)

    def test_input_vector_untouched(self):
        dataset = self.make_dataset()
        params = np.array([[1.0, -1.0]])
        local_updates(LINEAR_2D, params, table(LINEAR_2D, [dataset]), 0.1, 1, 10, streams([0]))
        assert np.array_equal(params, np.array([[1.0, -1.0]]))

    def test_single_full_batch_step(self):
        dataset = self.make_dataset()
        params = np.array([[0.5, 0.5]])
        data = table(LINEAR_2D, [dataset])
        out = local_updates(LINEAR_2D, params, data, 0.1, 1, len(dataset), streams([0]))
        expected = params[0] - 0.1 * gradient(LINEAR_2D, params[0], dataset, "rmse")
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self):
        data = table(LINEAR_2D, [self.make_dataset()])
        runs = [
            local_updates(LINEAR_2D, np.zeros((1, 2)), data, 0.1, 5, 3, streams([77]))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_batch_size_validated(self):
        data = table(LINEAR_2D, [self.make_dataset()])
        with pytest.raises(ValueError):
            local_updates(LINEAR_2D, np.zeros((1, 2)), data, 0.1, 1, 0, streams([0]))

    def test_converges_to_least_squares_solution(self):
        # Repeated full-batch steps must approach the closed-form minimizer
        # of this dataset, which itself sits close to the generating vector.
        dataset = self.make_dataset(seed=8, m=50)
        data = table(LINEAR_2D, [dataset])
        solution, *_ = np.linalg.lstsq(dataset.x, np.asarray(dataset.y, dtype=float), rcond=None)
        params = np.zeros((1, 2))
        gen = np.random.default_rng(0)
        for _ in range(300):
            params = local_updates(LINEAR_2D, params, data, 0.1, 1, len(dataset), [gen])
        assert np.linalg.norm(solution - np.array([5.0, 6.0])) < 0.45
        assert np.linalg.norm(params[0] - np.array([5.0, 6.0])) < 0.5


class TestInitParams:
    def test_linear_init_is_standard_normal_sized(self):
        gen = np.random.default_rng(0)
        draws = np.stack([init_params(LINEAR_2D, gen) for _ in range(2000)])
        assert draws.shape == (2000, 2)
        assert abs(draws.mean()) < 0.05
        assert draws.std() == pytest.approx(1.0, abs=0.05)

    def test_mlp_init_within_fan_in_bounds(self):
        gen = np.random.default_rng(1)
        for _ in range(50):
            layers = unpack(SMALL_MLP, init_params(SMALL_MLP, gen))
            for weight, bias in layers:
                bound = 1.0 / math.sqrt(weight.shape[1])
                assert np.all(np.abs(weight) <= bound)
                assert np.all(np.abs(bias) <= bound)


def random_stack(gen, spec, sizes):
    """Starting vectors, datasets and stream seeds for one stack of clients."""
    params = gen.standard_normal((len(sizes), n_params(spec)))
    datasets = random_batches(gen, spec, sizes)
    seeds = [int(v) for v in gen.integers(0, 2**31, size=len(sizes))]
    return params, datasets, seeds


def streams(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def solo_runs(spec, params, datasets, step, epochs, batch_size, seeds):
    return [
        local_updates(spec, p[None], table(spec, [d]), step, epochs, batch_size, streams([seed]))[0]
        for p, d, seed in zip(params, datasets, seeds)
    ]


STACK_CASES = {
    "linear": ModelSpec("linear", input_dim=3),
    "mlp_rmse": ModelSpec("mlp", input_dim=9, hidden=(4, 2)),
    # the shipped architecture, which both benchmark workloads run
    "mlp_3_2_1": SMALL_MLP,
}

# Integer weights and biases of a linear model and of the 3-2-1 MLP, whose
# outputs on integer rows are computed exactly: (spec, flat vector, outputs).
EXACT_FITS = {
    "linear": (STACK_CASES["linear"], np.array([1.0, -2.0, 3.0]), lambda x: x @ [1, -2, 3]),
    "mlp": (
        SMALL_MLP,
        pack(SMALL_MLP, [([[1, -2, 3], [2, 1, -1]], [1, -1]), ([[2, -3]], [1])]),
        lambda x: np.maximum(x @ [[1, 2], [-2, 1], [3, -1]] + [1, -1], 0) @ [2, -3] + 1,
    ),
}


class TestLocalUpdates:
    @given(
        case=st.sampled_from(sorted(STACK_CASES)),
        batch_size=st.integers(1, 4),
        epochs=st.integers(1, 3),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_loop_and_solo_runs(self, case, batch_size, epochs, fractions, seed):
        spec = STACK_CASES[case]
        largest = 3 * batch_size + 1
        sizes = [1, largest] + [1 + int(f * (largest - 1)) for f in fractions]
        gen = np.random.default_rng(seed)
        params, datasets, seeds = random_stack(gen, spec, sizes)
        data = table(spec, datasets)
        stacked = local_updates(spec, params, data, 0.05, epochs, batch_size, streams(seeds))
        solo = solo_runs(spec, params, datasets, 0.05, epochs, batch_size, seeds)
        for i, (p, d, s) in enumerate(zip(params, datasets, seeds)):
            reference = np.array(
                sgd_reference(spec, p, d.x, d.y, 0.05, epochs, batch_size, np.random.default_rng(s))
            )
            error = np.linalg.norm(stacked[i] - reference)
            assert error <= 1e-12 * max(np.linalg.norm(reference), 1.0)
            assert np.array_equal(stacked[i], solo[i])

    def test_masked_steps_leave_a_client_unchanged(self):
        # One 1-row client next to a 13-row one: with batch_size 4 each epoch
        # has four steps, three of them past the small client's only block.
        spec = STACK_CASES["mlp_rmse"]
        gen = np.random.default_rng(11)
        params, datasets, seeds = random_stack(gen, spec, [1, 13])
        stacked = local_updates(spec, params, table(spec, datasets), 0.05, 2, 4, streams(seeds))
        first = table(spec, datasets[:1])
        alone = local_updates(spec, params[:1], first, 0.05, 2, 4, streams(seeds[:1]))
        assert np.array_equal(stacked[0], alone[0])
        # zero epochs: every step is absent, the vectors come back as given
        assert np.array_equal(
            local_updates(spec, params, table(spec, datasets), 0.05, 0, 4, streams(seeds)), params
        )

    @pytest.mark.parametrize("case", sorted(EXACT_FITS))
    def test_zero_residual_client_stays_put_while_others_move(self, case):
        # Integer rows, weights and biases: every prediction is exact, so the
        # first client's residual is exactly zero in every block and its
        # in-place step is masked out, while the second client's is not.
        spec, theta, outputs = EXACT_FITS[case]
        gen = np.random.default_rng(12)
        x = gen.integers(-3, 4, size=(9, 3))
        fitted = Batch(x, outputs(x))
        noisy = Batch(x, outputs(x) + gen.standard_normal(9))
        assert np.array_equal(predict(spec, theta, fitted.x), fitted.y)
        params = np.stack([theta, theta])
        out = local_updates(spec, params, table(spec, [fitted, noisy]), 0.1, 2, 4, streams([1, 2]))
        assert np.array_equal(out[0], theta)
        assert not np.array_equal(out[1], theta)

    def test_underflowing_residual_norm_takes_no_step(self):
        # A residual of 1e-170 squares to 0.0: the block's residual norm is
        # zero, so no step is taken although the derivative is not zero.
        spec = ModelSpec("linear", input_dim=1)
        tiny = Batch(np.ones((2, 1)), np.full(2, 2e-170))
        moved = Batch(np.ones((2, 1)), np.ones(2))
        params = np.full((2, 1), 1e-170)
        out = local_updates(spec, params, table(spec, [tiny, moved]), 0.1, 1, 2, streams([0, 1]))
        assert out[0, 0] == 1e-170 and out[1, 0] != 1e-170

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_stacked_call_leaves_params_untouched(self, epochs):
        # G = 2 cells of three clients: the steps write through views of a
        # copy, never of ``params``, and the result owns its memory.
        spec = SMALL_MLP
        gen = np.random.default_rng(23)
        _, datasets, seeds = random_stack(gen, spec, [2, 7, 5])
        params = gen.standard_normal((6, n_params(spec))).reshape(2, 3, -1)
        before = params.copy()
        out = local_updates(spec, params, table(spec, datasets), 0.05, epochs, 4, streams(seeds))
        assert params.tobytes() == before.tobytes()
        assert not np.shares_memory(out, params)
        assert np.array_equal(out, params) == (epochs == 0)

    def test_diverging_client_leaves_the_others_untouched(self):
        spec = STACK_CASES["mlp_rmse"]
        gen = np.random.default_rng(13)
        params, datasets, seeds = random_stack(gen, spec, [5, 9, 3])
        params[1] *= 1e150
        datasets[1] = Batch(datasets[1].x * 1e150, datasets[1].y)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = local_updates(spec, params, table(spec, datasets), 0.05, 2, 4, streams(seeds))
            solo = solo_runs(spec, params, datasets, 0.05, 2, 4, seeds)
        assert not np.all(np.isfinite(stacked[1]))
        for i in (0, 2):
            assert np.all(np.isfinite(stacked[i]))
            assert np.array_equal(stacked[i], solo[i])

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_stacked_copies_share_each_clients_stream(self, case):
        # G = 3 cells of four ragged clients, each under its own vectors, on
        # one stream per client: each cell is bit-identical to its own call
        # on fresh streams, and so is its training loss.
        spec = STACK_CASES[case]
        gen = np.random.default_rng(21)
        _, datasets, seeds = random_stack(gen, spec, [1, 13, 4, 7])
        params = gen.standard_normal((12, n_params(spec))).reshape(3, 4, -1)
        data = table(spec, datasets)
        stacked = local_updates(spec, params, data, 0.05, 2, 4, streams(seeds))
        losses = client_losses(spec, stacked, data)
        for g in range(3):
            alone = local_updates(spec, params[g], data, 0.05, 2, 4, streams(seeds))
            assert np.array_equal(stacked[g], alone)
            assert np.array_equal(losses[g], client_losses(spec, alone, data))

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_a_one_cell_stack_matches_the_plain_stack(self, case):
        # A solo run passes its U ragged clients as a (1, U, n) stack: updates
        # and training losses are the (U, n) call's, bit for bit.
        spec = STACK_CASES[case]
        gen = np.random.default_rng(24)
        params, datasets, seeds = random_stack(gen, spec, [1, 13, 4, 7])
        data = table(spec, datasets)
        plain = local_updates(spec, params, data, 0.05, 2, 4, streams(seeds))
        cell = local_updates(spec, params[None], data, 0.05, 2, 4, streams(seeds))
        assert cell.shape == (1, *plain.shape) and cell.tobytes() == plain.tobytes()
        losses = client_losses(spec, cell, data)
        assert losses.shape == (1, 4)
        assert losses.tobytes() == client_losses(spec, plain, data).tobytes()

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_one_cell_view_matches_the_general_path(self, case):
        # A (1, U, n) stack on a one-block table steps as its (U, n) view.
        # The general path gives the same bits: the cell on block 0 of a
        # two-block table, and a (3, U, n) stack on the one-block table.
        spec = STACK_CASES[case]
        gen = np.random.default_rng(25)
        params, datasets, seeds = random_stack(gen, spec, [1, 13, 4, 7])
        others, more, more_seeds = random_stack(gen, spec, [5, 2, 9, 3])
        data = table(spec, datasets)
        two = table(spec, datasets + more).take(np.arange(8).reshape(2, 4))
        one = local_updates(spec, params[None], data, 0.05, 2, 4, streams(seeds))
        block = local_updates(spec, params[None], two, 0.05, 2, 4, streams(seeds + more_seeds),
                              np.array([0]))
        three = local_updates(spec, np.stack([others, params, params]), data, 0.05, 2, 4,
                              streams(seeds))
        assert one.shape == block.shape == (1, 4, n_params(spec))
        assert one.tobytes() == block.tobytes() == three[1:2].tobytes() == three[2:].tobytes()
        assert not np.array_equal(three[0], three[1])

    def test_one_stream_repeated_serves_the_clients_in_order(self):
        # [stream] * m gives m clients one stream: in a one-epoch run, client
        # i shuffles with the draws that follow clients 0..i-1's permutations.
        spec = STACK_CASES["mlp_rmse"]
        gen = np.random.default_rng(22)
        params, datasets, _ = random_stack(gen, spec, [3, 6, 2])
        shared = np.random.default_rng(5)
        stacked = local_updates(spec, params, table(spec, datasets), 0.05, 1, 4, [shared] * 3)
        replay = np.random.default_rng(5)
        for i, (p, d) in enumerate(zip(params, datasets)):
            rngs = [copy.deepcopy(replay)]
            alone = local_updates(spec, p[None], table(spec, [d]), 0.05, 1, 4, rngs)
            assert np.array_equal(stacked[i], alone[0])
            replay.permutation(len(d))

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_each_block_gets_the_bits_of_its_own_table(self, case):
        # A table of three blocks of three clients, the seeds of a stacked
        # round: 1 to 7 rows, 9 to 14 rows (past numpy's 8-element pairwise
        # block) and a 40-row client.  Cells read blocks 2, 0, 0 and 1, and
        # hypotheses blocks 1, 2, 0, 1 and 2; local SGD, the training loss,
        # the release and the loss matrix give each the bits of a call on
        # its block's own table.
        spec = STACK_CASES[case]
        gen = np.random.default_rng(31)
        blocks = [random_batches(gen, spec, sizes)
                  for sizes in ([3, 7, 1], [9, 14, 12], [1, 40, 5])]
        alone = [table(spec, batches) for batches in blocks]
        whole = table(spec, sum(blocks, [])).take(np.arange(9).reshape(3, 3))
        assert whole.n_blocks == 3
        cells = np.array([2, 0, 0, 1])
        params = gen.standard_normal((len(cells), 3, n_params(spec)))
        seeds = gen.integers(0, 2**31, size=(3, 3)).tolist()
        stacked = local_updates(spec, params, whole, 0.05, 2, 4, streams(sum(seeds, [])), cells)
        losses = client_losses(spec, stacked, whole, cells)
        epsilons = gen.uniform(0.5, 2.0, size=losses.shape)
        released = sanitize_rows(stacked, epsilons, streams(sum(seeds, [])), cells)
        for c, b in enumerate(cells.tolist()):
            solo = local_updates(spec, params[c:c + 1], alone[b], 0.05, 2, 4, streams(seeds[b]))
            assert stacked[c].tobytes() == solo[0].tobytes()
            assert losses[c].tobytes() == client_losses(spec, solo, alone[b])[0].tobytes()
            noisy = sanitize_rows(solo[0], epsilons[c], streams(seeds[b]))
            assert released[c].tobytes() == noisy.tobytes()
        hypotheses = gen.standard_normal((5, n_params(spec)))
        owners = np.array([1, 2, 0, 1, 2])
        matrix = loss_matrix(spec, hypotheses, whole, owners)
        assert matrix.shape == (3, 5)
        for j, b in enumerate(owners.tolist()):
            column = loss_matrix(spec, hypotheses[j:j + 1], alone[b])[:, 0]
            assert matrix[:, j].tobytes() == column.tobytes()

    def test_stack_shape_checked(self):
        spec = STACK_CASES["linear"]
        dataset = Batch(np.ones((3, 3)), np.ones(3))
        gen = np.random.default_rng(0)
        # Three vectors on two clients are no (U, n) stack of them.
        pair = table(spec, [dataset, dataset])
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((3, 3)), pair, 0.1, 1, 2, [gen, gen])
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((1, 4)), table(spec, [dataset]), 0.1, 1, 2, [gen])
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((1, 3)), table(spec, [dataset]), 0.1, 1, 2, [gen, gen])
