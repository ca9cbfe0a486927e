"""Seeded Lloyd clustering against a plain-loop reference and its fixpoint
properties."""

import numpy as np
import pytest

from metricfl.clustering import cluster_means, kmeans_from_hypotheses, lloyd
from oracle_kmeans import lloyd_reference


def make_points(vectors):
    return [(i, np.asarray(v, dtype=float)) for i, v in enumerate(vectors)]


class TestBasics:
    def test_points_on_centroids_converge_immediately(self):
        centroids = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        result = kmeans_from_hypotheses(make_points(centroids), centroids)
        assert result.assignment == {0: 0, 1: 1, 2: 2}
        assert result.n_iterations == 1

    def test_single_cluster_gets_the_mean(self):
        gen = np.random.default_rng(0)
        vectors = gen.standard_normal((6, 3))
        result = kmeans_from_hypotheses(make_points(vectors), np.zeros((1, 3)))
        assert result.assignment == {i: 0 for i in range(6)}
        assert result.centroids[0] == pytest.approx(vectors.mean(axis=0))

    def test_well_separated_six_four_split(self):
        gen = np.random.default_rng(1)
        anchors = np.array([[5.0, 6.0], [4.0, -4.5]])
        vectors = np.vstack(
            [anchors[0] + 0.1 * gen.standard_normal((6, 2)),
             anchors[1] + 0.1 * gen.standard_normal((4, 2))]
        )
        points = make_points(vectors)
        result = kmeans_from_hypotheses(points, anchors)
        expected, _ = lloyd_reference([list(v) for _, v in points], anchors.tolist())
        assert [result.assignment[i] for i in range(10)] == expected
        assert result.assignment == {i: 0 if i < 6 else 1 for i in range(10)}

    def test_empty_cluster_keeps_its_hypothesis(self):
        init = np.array([[0.0, 0.0], [100.0, 100.0]])
        vectors = np.array([[0.1, 0.0], [-0.1, 0.0]])
        result = kmeans_from_hypotheses(make_points(vectors), init)
        assert 1 not in result.assignment.values()
        assert np.array_equal(result.centroids[1], init[1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kmeans_from_hypotheses(make_points(np.zeros((2, 3))), np.zeros((2, 2)))

    def test_no_points_returns_initial_state(self):
        init = np.array([[1.0, 2.0]])
        result = kmeans_from_hypotheses([], init)
        assert result.assignment == {}
        assert np.array_equal(result.centroids, init)

    def test_tie_breaks_to_lowest_index(self):
        init = np.array([[1.0, 0.0], [-1.0, 0.0]])
        # equidistant point: must go to cluster 0, dragging its centroid
        result = kmeans_from_hypotheses(make_points([[0.0, 0.0]]), init)
        assert result.assignment[0] == 0


class TestProperties:
    def random_instance(self, gen):
        n_points = int(gen.integers(1, 9))
        k = int(gen.integers(1, 4))
        dim = int(gen.integers(1, 4))
        points = gen.standard_normal((n_points, dim)) * 2.0
        init = gen.standard_normal((k, dim)) * 2.0
        return points, init

    def test_matches_bruteforce_reference_on_random_instances(self):
        gen = np.random.default_rng(2024)
        for _ in range(50):
            points, init = self.random_instance(gen)
            mine = kmeans_from_hypotheses(make_points(points), init)
            reference, _ = lloyd_reference(points.tolist(), init.tolist())
            assert [mine.assignment[i] for i in range(len(points))] == reference

    def test_fixpoint_assignment_optimality(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            points, init = self.random_instance(gen)
            result = kmeans_from_hypotheses(make_points(points), init)
            for i, point in enumerate(points):
                own = np.linalg.norm(point - result.centroids[result.assignment[i]])
                others = np.linalg.norm(point - result.centroids, axis=1)
                assert own <= others.min() + 1e-9

    def test_within_cluster_scatter_is_nonincreasing_in_iterations(self):
        gen = np.random.default_rng(9)
        points, init = gen.standard_normal((8, 2)), gen.standard_normal((3, 2))
        scatters = []
        for cap in range(1, 8):
            result = kmeans_from_hypotheses(make_points(points), init, max_iters=cap)
            total = sum(
                float(np.sum((points[i] - result.centroids[c]) ** 2))
                for i, c in result.assignment.items()
            )
            scatters.append(total)
        assert all(b <= a + 1e-12 for a, b in zip(scatters, scatters[1:]))

    def test_partition_is_disjoint_and_exhaustive(self):
        gen = np.random.default_rng(10)
        points, init = self.random_instance(gen)
        result = kmeans_from_hypotheses(make_points(points), init)
        assert sorted(result.assignment) == list(range(len(points)))
        assert all(0 <= c < len(init) for c in result.assignment.values())

    def test_labels_follow_the_point_order(self):
        gen = np.random.default_rng(12)
        points, init = self.random_instance(gen)
        ids = [f"c{i}" for i in gen.permutation(len(points))]
        result = kmeans_from_hypotheses(list(zip(ids, points)), init)
        assert result.labels.tolist() == [result.assignment[cid] for cid in ids]
        empty = kmeans_from_hypotheses([], init)
        assert empty.labels.shape == (0,)

    def test_separated_groups_recovered_in_one_assignment(self):
        # Hypotheses at least distance d apart, every point within d/3 of its
        # own hypothesis: the initial assignment is already the true
        # partition, and Lloyd keeps it.
        gen = np.random.default_rng(11)
        d = 6.0
        hypotheses = np.array([[0.0, 0.0], [d, 0.0], [0.0, d]])
        truth = []
        vectors = []
        for i in range(12):
            j = i % 3
            offset = gen.standard_normal(2)
            offset *= (d / 3.0) * gen.random() / np.linalg.norm(offset)
            vectors.append(hypotheses[j] + offset)
            truth.append(j)
        result = kmeans_from_hypotheses(make_points(vectors), hypotheses)
        assert [result.assignment[i] for i in range(12)] == truth
        assert result.n_iterations <= 2


def masked_means(points, labels, fallback):
    """The reference ``cluster_means`` must match bit for bit, whatever its kernel."""
    out = fallback.copy()
    for j in range(len(fallback)):
        if (labels == j).any():
            out[j] = points[labels == j].mean(axis=0)
    return out


def same_bits(a, b):
    """Bitwise equality: tells -0.0 from 0.0 and compares NaNs by payload."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestClusterMeans:
    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_bitwise_equal_to_masked_means(self, n):
        # Rows of widely different magnitude make the summation order show in
        # the last bits; cluster 0 always has at least 9 members, past the
        # 8-row block from which numpy sums one column pairwise.
        gen = np.random.default_rng(n)
        for _ in range(300):
            m = int(gen.integers(9, 120))
            k = int(gen.integers(1, 5))
            points = gen.standard_normal((m, n)) * 10.0 ** gen.integers(-5, 6, size=(m, 1))
            labels = gen.integers(0, k, m)
            labels[:9] = 0
            fallback = gen.standard_normal((k, n))
            assert same_bits(
                cluster_means(points, labels, fallback), masked_means(points, labels, fallback)
            )

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_negative_zero_coordinates(self, n):
        points = np.random.default_rng(3).standard_normal((10, n))
        points[:, 0] = -0.0
        labels = np.array([0, 1] * 5)
        fallback = np.zeros((2, n))
        expected = masked_means(points, labels, fallback)
        assert same_bits(cluster_means(points, labels, fallback), expected)

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_stacked_problems_match_each_alone(self, n):
        # One segment sum over g problems gives each the bits of its own
        # masked means, an empty cluster its own fallback row.
        gen = np.random.default_rng(100 + n)
        for _ in range(100):
            g, m, k = int(gen.integers(1, 5)), int(gen.integers(9, 40)), int(gen.integers(1, 6))
            points = gen.standard_normal((g, m, n)) * 10.0 ** gen.integers(-5, 6, size=(g, m, 1))
            labels = gen.integers(0, k, (g, m))
            labels[:, :9] = 0
            fallback = gen.standard_normal((g, k, n))
            stacked = cluster_means(points, labels, fallback)
            for c in range(g):
                assert same_bits(stacked[c], masked_means(points[c], labels[c], fallback[c]))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_labels_out_of_range_are_rejected(self, bad):
        # A stacked label outside [0, k) would land in a neighbour's cluster.
        labels = np.array([[0, 1], [bad, 0], [1, 1]])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            cluster_means(np.ones((3, 2, 2)), labels, np.zeros((3, 2, 2)))

    def test_empty_cluster_keeps_its_fallback_row(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        fallback = np.array([[9.0, 9.0], [-7.0, 0.5], [8.0, 8.0]])
        means = cluster_means(points, np.array([0, 2]), fallback)
        assert same_bits(means, np.array([[1.0, 2.0], [-7.0, 0.5], [3.0, 4.0]]))


class TestStackedLloyd:
    """``lloyd`` over a stack of problems against each problem's own run."""

    def random_stack(self, gen, g, k):
        # Points near random hypotheses, some far off, so that problems need
        # different numbers of iterations and clusters can empty.
        n, m = int(gen.integers(2, 5)), int(gen.integers(1, 16))
        init = gen.standard_normal((g, k, n)) * 3.0
        spread = gen.uniform(0.1, 4.0)
        points = init[:, gen.integers(0, k, m)] + gen.standard_normal((g, m, n)) * spread
        return points, init

    def assert_each_alone(self, points, init, **caps):
        fit = lloyd(points, init, **caps)
        for c in range(len(points)):
            alone = kmeans_from_hypotheses(list(enumerate(points[c])), init[c], **caps)
            assert np.array_equal(fit.labels[c], alone.labels)
            assert same_bits(fit.centroids[c], alone.centroids)
            assert fit.n_iterations[c] == alone.n_iterations
            # The means the server takes: of the final labels, an empty cluster at its init row.
            assert same_bits(fit.means[c], cluster_means(points[c], alone.labels, init[c]))
        return fit

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_each_problem_stops_where_it_stops_alone(self, k):
        gen = np.random.default_rng(k)
        iterations = set()
        for _ in range(60):
            fit = self.assert_each_alone(*self.random_stack(gen, int(gen.integers(1, 6)), k))
            iterations.update(fit.n_iterations.tolist())
        assert k == 1 or len(iterations) > 2

    @pytest.mark.parametrize("max_iters", [0, 1, 2])
    def test_an_iteration_cap_stops_every_problem_as_alone(self, max_iters):
        gen = np.random.default_rng(50 + max_iters)
        for _ in range(30):
            points, init = self.random_stack(gen, 4, 3)
            fit = self.assert_each_alone(points, init, max_iters=max_iters)
            assert (fit.n_iterations <= max_iters).all()

    def test_a_loose_tolerance_stops_on_movement(self):
        gen = np.random.default_rng(60)
        for _ in range(30):
            self.assert_each_alone(*self.random_stack(gen, 3, 2), tol=0.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_capped_problem_takes_the_means_of_its_final_labels(self, n):
        # Hypotheses 0, 5 and 10, releases 3.0, 7.4, 1.0 and 9.0 (padded with
        # zeros to width n): the one step max_iters allows moves the labels
        # from [1, 1, 0, 2] to [0, 2, 0, 2], so they never repeat, and empties
        # cluster 1.  The means are those of the final labels, the hypothesis
        # for the empty cluster, not the centroids of the last step.
        points = np.zeros((1, 4, n))
        points[0, :, 0] = [3.0, 7.4, 1.0, 9.0]
        init = np.zeros((1, 3, n))
        init[0, :, 0] = [0.0, 5.0, 10.0]
        fit = lloyd(points, init, max_iters=1)
        assert fit.labels.tolist() == [[0, 2, 0, 2]] and fit.n_iterations.tolist() == [1]
        assert same_bits(fit.means, cluster_means(points, fit.labels, init))
        assert fit.means[0, :, 0].tolist() == [2.0, 5.0, 8.2]
        assert fit.centroids[0, :, 0] == pytest.approx([1.0, 5.2, 9.0], rel=1e-12)

    def test_a_cluster_emptied_by_lloyd_keeps_its_hypothesis_in_the_means(self):
        # Hypotheses 0, 5 and 10, releases 3.0, 7.4, 1.0 and 9.0: Lloyd's
        # second step empties cluster 1, whose centroid stays at 5.2; the
        # means keep hypothesis 5.0.  A second problem stops after one step.
        points = np.array([[[3.0], [7.4], [1.0], [9.0]], [[0.1], [5.1], [9.9], [0.2]]])
        init = np.array([[[0.0], [5.0], [10.0]]] * 2)
        fit = self.assert_each_alone(points, init)
        assert fit.labels.tolist() == [[0, 2, 0, 2], [0, 1, 2, 0]]
        assert fit.n_iterations.tolist() == [2, 1]
        assert fit.centroids[0, 1, 0] == pytest.approx(5.2, rel=1e-12)
        assert fit.means[0, :, 0] == pytest.approx([2.0, 5.0, 8.2], rel=1e-12)
        assert fit.means[0, 1, 0] == 5.0
