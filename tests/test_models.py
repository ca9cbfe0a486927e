"""Predictors, the RMSE objective, analytic gradients against finite
differences, and local SGD."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_sgd import sgd_reference

from metricfl.models import (
    Batch,
    ModelSpec,
    client_losses,
    gradient,
    init_params,
    local_update,
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
            matrix = loss_matrix(spec, hypotheses, batches)
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
        losses = client_losses(spec, params, batches)
        assert losses.shape == (len(sizes),)
        for i, batch in enumerate(batches):
            expected = loss(spec, params[i], batch, objective)
            assert losses[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        with pytest.raises(ValueError):
            client_losses(spec, params[:2], batches)

    def test_argmin_breaks_ties_to_lowest_index(self):
        spec = SMALL_MLP
        gen = np.random.default_rng(6)
        best = gen.standard_normal(n_params(spec))
        worse = best + 1.0
        hypotheses = np.stack([worse, best, best, worse])
        batch = Batch(gen.standard_normal((5, 3)), gen.standard_normal(5))
        row = loss_matrix(spec, hypotheses, [batch])[0]
        assert row[1] == row[2]
        assert int(np.argmin(row)) == 1

    def test_rejects_empty_batches_and_wrong_width(self):
        hypotheses = np.zeros((2, 11))
        batch = Batch(np.zeros((3, 3)), np.zeros(3))
        empty = Batch(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, [batch, empty])
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, [])
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, np.zeros((2, 10)), [batch])
        with pytest.raises(ValueError):
            loss_matrix(SMALL_MLP, hypotheses, [Batch(np.zeros((3, 2)), np.zeros(3))])


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
            local_update(SMALL_MLP, np.zeros(11), wrong, 0.1, 1, 2, "rmse", np.random.default_rng(0))

    def test_only_rmse_is_accepted(self):
        batch = Batch(np.ones((3, 2)), np.ones(3))
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError, match="objective"):
            loss(LINEAR_2D, np.zeros(2), batch, "cross_entropy")
        with pytest.raises(ValueError, match="objective"):
            gradient(LINEAR_2D, np.zeros(2), batch, "cross_entropy")
        with pytest.raises(ValueError, match="objective"):
            local_update(LINEAR_2D, np.zeros(2), batch, 0.1, 1, 2, "cross_entropy", gen)

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
        params = np.array([1.0, -1.0])
        out = local_update(LINEAR_2D, params, dataset, 0.0, 3, 4, "rmse", np.random.default_rng(0))
        assert np.array_equal(out, params)

    def test_input_vector_untouched(self):
        dataset = self.make_dataset()
        params = np.array([1.0, -1.0])
        local_update(LINEAR_2D, params, dataset, 0.1, 1, 10, "rmse", np.random.default_rng(0))
        assert np.array_equal(params, np.array([1.0, -1.0]))

    def test_single_full_batch_step(self):
        dataset = self.make_dataset()
        params = np.array([0.5, 0.5])
        out = local_update(
            LINEAR_2D, params, dataset, 0.1, 1, len(dataset), "rmse", np.random.default_rng(0)
        )
        expected = params - 0.1 * gradient(LINEAR_2D, params, dataset, "rmse")
        assert out == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self):
        dataset = self.make_dataset()
        runs = [
            local_update(
                LINEAR_2D, np.zeros(2), dataset, 0.1, 5, 3, "rmse", np.random.default_rng(77)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            local_update(
                LINEAR_2D, np.zeros(2), self.make_dataset(), 0.1, 1, 0, "rmse",
                np.random.default_rng(0),
            )

    def test_converges_to_least_squares_solution(self):
        # Repeated full-batch steps must approach the closed-form minimizer
        # of this dataset, which itself sits close to the generating vector.
        dataset = self.make_dataset(seed=8, m=50)
        solution, *_ = np.linalg.lstsq(dataset.x, np.asarray(dataset.y, dtype=float), rcond=None)
        params = np.zeros(2)
        gen = np.random.default_rng(0)
        for _ in range(300):
            params = local_update(LINEAR_2D, params, dataset, 0.1, 1, len(dataset), "rmse", gen)
        assert np.linalg.norm(solution - np.array([5.0, 6.0])) < 0.45
        assert np.linalg.norm(params - np.array([5.0, 6.0])) < 0.5


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
        local_update(spec, p, d, step, epochs, batch_size, "rmse", np.random.default_rng(seed))
        for p, d, seed in zip(params, datasets, seeds)
    ]


STACK_CASES = {
    "linear": ModelSpec("linear", input_dim=3),
    "mlp_rmse": ModelSpec("mlp", input_dim=9, hidden=(4, 2)),
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
        stacked = local_updates(spec, params, datasets, 0.05, epochs, batch_size, streams(seeds))
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
        stacked = local_updates(spec, params, datasets, 0.05, 2, 4, streams(seeds))
        alone = local_updates(spec, params[:1], datasets[:1], 0.05, 2, 4, streams(seeds[:1]))
        assert np.array_equal(stacked[0], alone[0])
        # zero epochs: every step is absent, the vectors come back as given
        assert np.array_equal(
            local_updates(spec, params, datasets, 0.05, 0, 4, streams(seeds)), params
        )

    def test_zero_residual_client_stays_put_while_others_move(self):
        # Integer rows and coefficients: every prediction is exact, so the
        # first client's residual is exactly zero in every block.
        theta = np.array([1.0, -2.0, 3.0])
        gen = np.random.default_rng(12)
        x = gen.integers(-3, 4, size=(9, 3)).astype(float)
        fitted = Batch(x, x @ theta)
        noisy = Batch(x, x @ theta + gen.standard_normal(9))
        spec = STACK_CASES["linear"]
        params = np.stack([theta, theta])
        out = local_updates(spec, params, [fitted, noisy], 0.1, 2, 4, streams([1, 2]))
        assert np.array_equal(out[0], theta)
        assert not np.array_equal(out[1], theta)

    def test_diverging_client_leaves_the_others_untouched(self):
        spec = STACK_CASES["mlp_rmse"]
        gen = np.random.default_rng(13)
        params, datasets, seeds = random_stack(gen, spec, [5, 9, 3])
        params[1] *= 1e150
        datasets[1] = Batch(datasets[1].x * 1e150, datasets[1].y)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = local_updates(spec, params, datasets, 0.05, 2, 4, streams(seeds))
            solo = solo_runs(spec, params, datasets, 0.05, 2, 4, seeds)
        assert not np.all(np.isfinite(stacked[1]))
        for i in (0, 2):
            assert np.all(np.isfinite(stacked[i]))
            assert np.array_equal(stacked[i], solo[i])

    def test_stack_shape_checked(self):
        spec = STACK_CASES["linear"]
        dataset = Batch(np.ones((3, 3)), np.ones(3))
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((2, 3)), [dataset], 0.1, 1, 2, [gen])
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((1, 4)), [dataset], 0.1, 1, 2, [gen])
        with pytest.raises(ValueError):
            local_updates(spec, np.zeros((1, 3)), [dataset], 0.1, 1, 2, [gen, gen])
