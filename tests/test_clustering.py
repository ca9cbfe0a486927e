"""Seeded Lloyd clustering against a plain-loop reference and its fixpoint
properties."""

import numpy as np
import pytest

from metricfl.clustering import kmeans_from_hypotheses
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
