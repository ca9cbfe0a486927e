"""Closed-form values, statistical moments and the privacy-ratio property of
the Euclidean-metric Laplace noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricfl.mechanism import (
    NoiseScale,
    log_density,
    log_normalization_constant,
    sample_direction,
    sample_noise_batch,
    sample_radius,
    sanitize_rows,
)
from metricfl.rng import substream


def rng(seed=0):
    return np.random.default_rng(seed)


class TestNormalizationConstant:
    def test_one_dimensional_matches_classic_laplace(self):
        # K = eps/2 in one dimension
        assert math.exp(log_normalization_constant(NoiseScale(2.0, 1))) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_two_dimensional_matches_planar_case(self):
        assert math.exp(log_normalization_constant(NoiseScale(1.0, 2))) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12
        )

    def test_three_dimensional(self):
        assert math.exp(log_normalization_constant(NoiseScale(1.0, 3))) == pytest.approx(
            1.0 / (8.0 * math.pi), rel=1e-12
        )

    def test_log_form_finite_for_large_dimension(self):
        value = log_normalization_constant(NoiseScale(1.0, 100_000))
        assert math.isfinite(value)

    @pytest.mark.parametrize("epsilon,dimension", [(0.0, 1), (-1.0, 2), (1.0, 0), (1.0, -3)])
    def test_degenerate_parameters_rejected_at_construction(self, epsilon, dimension):
        with pytest.raises(ValueError):
            NoiseScale(epsilon, dimension)

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(ValueError):
            NoiseScale(1.0, 2.5)


class TestDensity:
    def test_density_at_center_equals_constant(self):
        for eps, n in [(0.5, 1), (1.0, 2), (3.0, 4)]:
            scale = NoiseScale(eps, n)
            center = np.zeros(n)
            assert log_density(center, center, scale) == pytest.approx(
                log_normalization_constant(scale), rel=1e-12
            )

    def test_one_dimensional_point_density(self):
        scale = NoiseScale(2.0, 1)
        assert math.exp(log_density(np.array([1.0]), np.array([0.0]), scale)) == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )

    def test_log_and_linear_forms_agree(self):
        # exp(log_density) is the linear density K * exp(-eps * d(point, center)).
        scale = NoiseScale(0.7, 3)
        point = np.array([1.0, -2.0, 0.5])
        center = np.array([0.3, 0.0, -1.0])
        linear = math.exp(log_normalization_constant(scale)) * math.exp(
            -0.7 * float(np.linalg.norm(point - center))
        )
        assert linear == pytest.approx(math.exp(log_density(point, center, scale)), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_density(np.zeros(3), np.zeros(3), NoiseScale(1.0, 2))

    def test_batched_points(self):
        scale = NoiseScale(1.0, 2)
        points = rng().standard_normal((10, 2))
        out = log_density(points, np.zeros(2), scale)
        assert out.shape == (10,)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_radial_integral_is_one(self, n, eps):
        # Reduce the n-dimensional integral to the radius: the density is
        # constant on spheres, whose surface is 2 pi^(n/2) / Gamma(n/2) * r^(n-1).
        from scipy.integrate import quad

        scale = NoiseScale(eps, n)
        log_surface_unit = (
            math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)
        )
        probe = np.zeros(n)

        def radial_pdf(r):
            point = probe.copy()
            point[0] = r
            return math.exp(
                log_density(point, probe, scale) + log_surface_unit + (n - 1) * math.log(r)
            )

        total, _ = quad(radial_pdf, 1e-12, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_privacy_ratio_bounded_by_distance(self, n):
        # log f(x|x1) - log f(x|x2) <= eps * ||x1 - x2|| for any probe x.
        eps = 1.3
        scale = NoiseScale(eps, n)
        gen = rng(n)
        x = gen.standard_normal((10_000, n)) * 3.0
        x1 = gen.standard_normal((10_000, n)) * 2.0
        x2 = gen.standard_normal((10_000, n)) * 2.0
        diff = log_density(x, x1, scale) - log_density(x, x2, scale)
        bound = eps * np.linalg.norm(x1 - x2, axis=-1)
        assert np.all(diff <= bound + 1e-9)


class TestSampling:
    def test_radius_moments_match_gamma_law(self):
        # Shape n, scale 1/eps: mean n/eps and variance n/eps^2, within
        # three standard errors at 1e5 draws.
        n_samples = 100_000
        for eps, n in [(1.0, 2), (2.0, 5)]:
            radii = sample_radius(NoiseScale(eps, n), rng(n), size=n_samples)
            mean, var = radii.mean(), radii.var(ddof=1)
            se_mean = math.sqrt(n / eps**2 / n_samples)
            se_var = math.sqrt((n / eps**2) ** 2 * (2 + 6 / n) / n_samples)
            assert abs(mean - n / eps) < 3 * se_mean
            assert abs(var - n / eps**2) < 3 * se_var

    def test_radius_is_exponential_for_n_1(self):
        radii = sample_radius(NoiseScale(2.0, 1), rng(7), size=100_000)
        assert radii.mean() == pytest.approx(0.5, rel=0.02)
        assert radii.var(ddof=1) == pytest.approx(0.25, rel=0.05)
        # memoryless check on the upper tail
        assert np.mean(radii > 1.0) == pytest.approx(math.exp(-2.0), abs=0.005)

    def test_direction_is_unit_norm(self):
        for n in [1, 2, 7]:
            v = sample_direction(n, rng(n))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_direction_moments(self):
        vs = sample_direction(3, rng(11), size=100_000)
        assert np.all(np.abs(vs.mean(axis=0)) < 0.02)
        second = (vs**2).mean(axis=0)
        assert np.all(np.abs(second - 1 / 3) < 0.05 / 3)

    def test_noise_vector_radius_matches_norm(self):
        # A release of the origin is the noise itself; its norm is the radius
        # drawn first from the same stream.
        for seed in range(20):
            noise = sanitize_rows(np.zeros((1, 4)), np.array([0.8]), [rng(seed)])[0]
            radius = rng(seed).standard_exponential(4).sum() / 0.8
            assert radius == pytest.approx(float(np.linalg.norm(noise)), rel=1e-12)

    @pytest.mark.parametrize(
        "eps,n,expected",
        [(1.0, 2, 3.0), (1.0, 1, 2.0)],
    )
    def test_component_variance(self, eps, n, expected):
        # (n + 1) / eps^2 per component.
        noise = sample_noise_batch(NoiseScale(eps, n), rng(n + 100), size=100_000)
        var = np.var(noise, axis=0, ddof=1).mean()
        assert var == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("n,eps", [(1, 1.0), (2, 1.0), (2, 5.0), (11, 1.0), (40, 0.3)])
    def test_release_sampler_draws_what_the_moment_checks_cover(self, n, eps):
        # c01 checks the moments of sample_noise_batch, while rounds release
        # through sanitize_rows; with one stream for every row they agree bit for bit.
        m = 10_000
        batch = sample_noise_batch(NoiseScale(eps, n), substream(n, "verify"), m)
        stream = substream(n, "verify")
        released = sanitize_rows(np.zeros((m, n)), np.full(m, eps), [stream] * m)
        assert np.array_equal(batch, released)

    def test_mean_vector_is_zero(self):
        n_samples = 100_000
        scale = NoiseScale(1.5, 3)
        noise = sample_noise_batch(scale, rng(42), size=n_samples)
        se = math.sqrt((scale.dimension + 1) / scale.epsilon**2 / n_samples)
        assert np.all(np.abs(noise.mean(axis=0)) < 3 * se)


class TestSanitize:
    def test_vanishing_noise_at_huge_epsilon(self):
        vec = np.array([1.0, -2.0])
        for seed in range(100):
            out = sanitize_rows(vec[None], np.array([1e9]), [rng(seed)])[0]
            assert np.linalg.norm(out - vec) < 1e-6

    def test_sanitize_is_unbiased(self):
        scale = NoiseScale(1.0, 2)
        vec = np.array([3.0, 4.0])
        gen = rng(5)
        noise = sample_noise_batch(scale, gen, size=100_000) + vec
        se = math.sqrt((scale.dimension + 1) / scale.epsilon**2 / 100_000)
        assert np.all(np.abs(noise.mean(axis=0) - vec) < 3 * se)

    def test_displacement_follows_radius_law(self):
        # The displacement of a release should carry the gamma law's first two moments.
        n_samples = 100_000
        eps, n = 2.0, 3
        gen = rng(9)
        displacements = np.linalg.norm(
            sample_noise_batch(NoiseScale(eps, n), gen, size=n_samples), axis=1
        )
        se_mean = math.sqrt(n / eps**2 / n_samples)
        se_var = math.sqrt((n / eps**2) ** 2 * (2 + 6 / n) / n_samples)
        assert abs(displacements.mean() - n / eps) < 3 * se_mean
        assert abs(displacements.var(ddof=1) - n / eps**2) < 3 * se_var

    def test_dimension_mismatch(self):
        # A single vector is not a (U, n) stack; it must be passed as one row.
        with pytest.raises(ValueError, match="need a \\(U, n\\) stack"):
            sanitize_rows(np.zeros(3), np.array([1.0]), [rng()])


class TestDeterminism:
    def test_identical_seeds_give_identical_sequences(self):
        zero, eps = np.zeros((1, 6)), np.array([0.9])
        a = [sanitize_rows(zero, eps, [substream(3, "client", 5, t)]) for t in range(4)]
        b = [sanitize_rows(zero, eps, [substream(3, "client", 5, t)]) for t in range(4)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_streams_differ_across_clients_and_rounds(self):
        zero, eps = np.zeros((1, 6)), np.array([0.9])
        base = sanitize_rows(zero, eps, [substream(3, "client", 5, 0)])
        other_client = sanitize_rows(zero, eps, [substream(3, "client", 6, 0)])
        other_round = sanitize_rows(zero, eps, [substream(3, "client", 5, 1)])
        assert not np.array_equal(base, other_client)
        assert not np.array_equal(base, other_round)

    def test_client_only_and_round_only_keys_differ(self):
        by_client = substream(0, "client", client_index=5).random(4)
        by_round = substream(0, "client", round_index=5).random(4)
        assert not np.array_equal(by_client, by_round)

    def test_existing_key_forms_keep_their_streams(self):
        # Pinned draws: these streams feed every recorded run.
        assert substream(7, "hypotheses").random() == 0.625095466604667
        assert substream(7, "sampling", round_index=3).random() == 0.5167858979187351
        assert substream(0, "client", round_index=5).random() == 0.794837676802343
        assert (
            substream(7, "client", client_index=2, round_index=3).random()
            == 0.38733141924730263
        )


def reference_sanitize(vector, epsilon, gen):
    """Per-client release spelled out: radius from n exponentials, then a
    normalized normal draw, redrawn while its norm is below 1e-300."""
    n = len(vector)
    radius = float(gen.standard_exponential(n).sum() / epsilon)
    v = gen.standard_normal((1, n))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-300):
        v[norms < 1e-300] = gen.standard_normal((1, n))
        norms = np.linalg.norm(v, axis=1)
    return vector + radius * (v / norms[:, None])[0]


class ZeroFirstNormal:
    """A stream whose first normal draw is all zeros, then the wrapped one's."""

    def __init__(self, seed):
        self.gen = rng(seed)
        self.zeroed = False

    def standard_exponential(self, size):
        return self.gen.standard_exponential(size)

    def standard_normal(self, size):
        if not self.zeroed:
            self.zeroed = True
            return np.zeros(size)
        return self.gen.standard_normal(size)


class TestStackedRelease:
    @pytest.mark.parametrize("n", [1, 2, 11, 40, 300])
    def test_rows_are_bit_identical_to_per_client_releases(self, n):
        gen = rng(n)
        vectors = gen.standard_normal((6, n)) * 3.0
        epsilons = gen.uniform(0.05, 20.0, 6)
        stacked = sanitize_rows(vectors, epsilons, [substream(n, "client", i, 0) for i in range(6)])
        for i in range(6):
            expected = reference_sanitize(vectors[i], epsilons[i], substream(n, "client", i, 0))
            assert np.array_equal(stacked[i], expected)
            stream = substream(n, "client", i, 0)
            alone = sanitize_rows(vectors[i, None], epsilons[i, None], [stream])
            assert np.array_equal(stacked[i], alone[0])

    def test_zero_direction_is_redrawn_from_the_rows_own_stream(self):
        vectors = np.arange(12.0).reshape(3, 4)
        epsilons = np.array([0.5, 1.0, 2.0])
        streams = [rng(1), ZeroFirstNormal(2), rng(3)]
        stacked = sanitize_rows(vectors, epsilons, streams)
        assert streams[1].zeroed
        expected = [
            reference_sanitize(vectors[0], 0.5, rng(1)),
            reference_sanitize(vectors[1], 1.0, ZeroFirstNormal(2)),
            reference_sanitize(vectors[2], 2.0, rng(3)),
        ]
        assert np.array_equal(stacked, np.stack(expected))
        assert np.all(np.isfinite(stacked))
        alone = sanitize_rows(vectors[1, None], epsilons[1, None], [ZeroFirstNormal(2)])
        assert np.array_equal(alone[0], stacked[1])

    def test_blocks_share_each_streams_draw(self):
        # Three cells of three rows on three streams, the middle stream's
        # first normals all zero: its direction is redrawn once and serves
        # row 1 of every cell.  Each cell equals its own call on fresh
        # streams, each row its per-client reference.
        def fresh():
            return [substream(7, "client", 0, 0), ZeroFirstNormal(2), substream(7, "client", 2, 0)]

        gen = rng(7)
        vectors = gen.standard_normal((9, 4)).reshape(3, 3, 4)
        epsilons = gen.uniform(0.05, 20.0, 9).reshape(3, 3)
        streams = fresh()
        stacked = sanitize_rows(vectors, epsilons, streams)
        assert streams[1].zeroed
        for g in range(3):
            alone = sanitize_rows(vectors[g], epsilons[g], fresh())
            assert np.array_equal(stacked[g], alone)
            for i, stream in enumerate(fresh()):
                expected = reference_sanitize(vectors[g, i], epsilons[g, i], stream)
                assert np.array_equal(stacked[g, i], expected)

    def test_a_one_cell_stack_matches_the_plain_stack(self):
        def fresh():
            return [substream(10, "client", i, 0) for i in range(4)]

        gen = rng(10)
        vectors = gen.standard_normal((4, 5))
        epsilons = gen.uniform(0.05, 20.0, 4)
        plain = sanitize_rows(vectors, epsilons, fresh())
        cell = sanitize_rows(vectors[None], epsilons[None], fresh())
        assert cell.shape == (1, 4, 5) and cell.tobytes() == plain.tobytes()

    def test_one_stream_repeated_draws_row_after_row(self):
        # [stream] * m is m rows of one stream: all m radii's exponentials,
        # then all m directions' normals, in row order.
        vectors = rng(8).standard_normal((4, 3))
        epsilons = np.array([0.5, 1.0, 2.0, 4.0])
        stacked = sanitize_rows(vectors, epsilons, [rng(9)] * 4)
        replay = rng(9)
        radii = replay.standard_exponential((4, 3)).sum(axis=1) / epsilons
        normals = replay.standard_normal((4, 3))
        directions = normals / np.linalg.norm(normals, axis=1)[:, None]
        assert np.array_equal(stacked, vectors + radii[:, None] * directions)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_degenerate_epsilon(self, bad):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            sanitize_rows(np.zeros((2, 3)), np.array([1.0, bad]), [rng(0), rng(1)])

    def test_rejects_mismatched_stack(self):
        with pytest.raises(ValueError, match="one epsilon and one stream per row"):
            sanitize_rows(np.zeros((2, 3)), np.array([1.0]), [rng(0), rng(1)])


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(min_value=0.1, max_value=10.0),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_triangle_inequality_property(eps, n, seed):
    scale = NoiseScale(eps, n)
    gen = np.random.default_rng(seed)
    x, x1, x2 = gen.standard_normal((3, n)) * 5.0
    diff = log_density(x, x1, scale) - log_density(x, x2, scale)
    assert diff <= eps * np.linalg.norm(x1 - x2) + 1e-9
