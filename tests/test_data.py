"""Population generation, CSV ingestion, splitting and the fixture writer."""

import numpy as np
import pytest

from metricfl.data import (
    CSV_COLUMNS,
    DEFAULT_THETAS,
    Client,
    FeatureScaling,
    generate_synthetic,
    ingest_csv,
    split_population,
    write_fixture,
)
from metricfl.models import Batch
from metricfl.rng import substream


class TestGenerateSynthetic:
    def test_population_shape(self):
        pop = generate_synthetic(rng=substream(0, "data"))
        assert len(pop) == 100
        assert all(len(c.data) == 10 for c in pop.clients)

    def test_labels_are_balanced(self):
        pop = generate_synthetic(rng=substream(1, "data"))
        labels = [c.true_cluster for c in pop.clients]
        assert sorted(set(labels)) == [0, 1]
        assert labels.count(0) == 50

    def test_targets_carry_unit_uniform_noise(self):
        pop = generate_synthetic(rng=substream(2, "data"))
        thetas = np.asarray(DEFAULT_THETAS)
        for client in pop.clients:
            residual = client.data.y - client.data.x @ thetas[client.true_cluster]
            assert np.all(residual >= 0.0)
            assert np.all(residual < 1.0)

    def test_deterministic_under_seed(self):
        a = generate_synthetic(rng=substream(3, "data"))
        b = generate_synthetic(rng=substream(3, "data"))
        for ca, cb in zip(a.clients, b.clients):
            assert ca.true_cluster == cb.true_cluster
            assert np.array_equal(ca.data.x, cb.data.x)
            assert np.array_equal(ca.data.y, cb.data.y)

    def test_pooled_least_squares_recovers_generators(self):
        pop = generate_synthetic(rng=substream(4, "data"))
        thetas = np.asarray(DEFAULT_THETAS)
        for j in range(2):
            xs = np.vstack([c.data.x for c in pop.clients if c.true_cluster == j])
            ys = np.concatenate([c.data.y for c in pop.clients if c.true_cluster == j])
            fitted, *_ = np.linalg.lstsq(xs, ys, rcond=None)
            assert np.linalg.norm(fitted - thetas[j]) < 0.2

    def test_federation_view_hides_labels(self):
        pop = generate_synthetic(rng=substream(5, "data"))
        view = pop.federation_view()
        assert set(view) == set(pop.client_ids())
        assert all(isinstance(v, Batch) for v in view.values())
        # nothing in the exposed mapping carries the generator label
        assert all(not hasattr(v, "true_cluster") for v in view.values())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Client(client_id=0, data=Batch(np.zeros((0, 2)), np.zeros(0)))


class TestSplitPopulation:
    def test_seventy_thirty(self):
        pop = generate_synthetic(rng=substream(6, "data"))
        train, val = split_population(pop, 0.3, substream(6, "split"))
        assert (len(train), len(val)) == (70, 30)

    def test_sizes_round_toward_validation(self):
        pop = generate_synthetic(n_clients=7, rng=substream(7, "data"))
        train, val = split_population(pop, 0.3, substream(7, "split"))
        assert (len(train), len(val)) == (4, 3)

    def test_split_is_deterministic(self):
        pop = generate_synthetic(rng=substream(8, "data"))
        first = split_population(pop, 0.3, substream(8, "split"))
        second = split_population(pop, 0.3, substream(8, "split"))
        assert first[0].client_ids() == second[0].client_ids()
        assert first[1].client_ids() == second[1].client_ids()

    def test_disjoint_and_exhaustive(self):
        pop = generate_synthetic(rng=substream(9, "data"))
        train, val = split_population(pop, 0.3, substream(9, "split"))
        train_ids, val_ids = set(train.client_ids()), set(val.client_ids())
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(pop.client_ids())

    def test_empty_side_rejected(self):
        pop = generate_synthetic(n_clients=2, rng=substream(10, "data"))
        with pytest.raises(ValueError):
            split_population(pop, 0.9, substream(10, "split"))


def write_rows(path, rows, header=CSV_COLUMNS):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestIngestCsv:
    def test_rows_group_by_provider(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(
            path,
            [
                ("a", 1, -100.0, 40.0, 12.0),
                ("b", 1, -90.0, 35.0, 7.0),
                ("a", 2, -100.0, 40.0, 13.0),
            ],
        )
        pop = ingest_csv(path)
        assert pop.client_ids() == ["a", "b"]
        assert len(pop.clients[0].data) == 2
        assert len(pop.clients[1].data) == 1

    def test_unit_scaling_passes_values_through(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [("a", 3, -100.5, 40.25, 12.5)])
        client = ingest_csv(path).clients[0]
        assert client.data.x[0] == pytest.approx([3.0, -100.5, 40.25])
        assert client.data.y[0] == pytest.approx(12.5)

    def test_scaling_is_lossless(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("p", s, -100.0 + s, 40.0 + s, 5.0 * s) for s in range(1, 5)]
        write_rows(path, rows)
        scaling = FeatureScaling(service_id=4.0, longitude=100.0, latitude=10.0, payment=7.0)
        client = ingest_csv(path, scaling).clients[0]
        restored_x = client.data.x * np.array([4.0, 100.0, 10.0])
        restored_y = client.data.y * 7.0
        for i, (_, s, lon, lat, pay) in enumerate(rows):
            assert restored_x[i] == pytest.approx([s, lon, lat], rel=1e-9)
            assert restored_y[i] == pytest.approx(pay, rel=1e-9)

    def test_twenty_row_fixture_has_five_balanced_clients(self, tmp_path):
        path = tmp_path / "fixture.csv"
        write_fixture(path, providers=5, services=4, clusters=2, rng=substream(0, "fixture"))
        pop = ingest_csv(path)
        assert len(pop) == 5
        assert [len(c.data) for c in pop.clients] == [4, 4, 4, 4, 4]

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [("a", 1, -100.0, 40.0, 12.0), ("b", "oops", -90.0, 35.0, 7.0)])
        with pytest.raises(ValueError, match=":3:"):
            ingest_csv(path)

    def test_negative_payment_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [("a", 1, -100.0, 40.0, -1.0)])
        with pytest.raises(ValueError, match=":2:"):
            ingest_csv(path)

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [("a", 1, -100.0, 40.0, 12.0, "x")], header=CSV_COLUMNS + ["extra"])
        with pytest.raises(ValueError, match="expected columns"):
            ingest_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path)


class TestWriteFixture:
    def test_row_count(self, tmp_path):
        path = tmp_path / "f.csv"
        assert write_fixture(path, 5, 4, 2, substream(1, "fixture")) == 20
        assert len(path.read_text().splitlines()) == 21

    def test_identical_bytes_for_identical_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_fixture(a, 8, 3, 2, substream(2, "fixture"))
        write_fixture(b, 8, 3, 2, substream(2, "fixture"))
        assert a.read_bytes() == b.read_bytes()

    def test_two_tier_offsets_differ_by_nine(self, tmp_path):
        path = tmp_path / "f.csv"
        write_fixture(path, 40, 4, 2, substream(3, "fixture"))
        pop = ingest_csv(path)
        tier_means = {0: [], 1: []}
        for i, client in enumerate(pop.clients):
            tier = int(client.client_id[1:]) % 2
            tier_means[tier].append(float(np.mean(client.data.y)))
        gap = np.mean(tier_means[1]) - np.mean(tier_means[0])
        assert gap == pytest.approx(9.0, abs=0.5)

    def test_payments_nonnegative_and_coordinates_finite(self, tmp_path):
        path = tmp_path / "f.csv"
        write_fixture(path, 10, 4, 5, substream(4, "fixture"))
        pop = ingest_csv(path)
        for client in pop.clients:
            assert np.all(np.isfinite(client.data.x))
            assert np.all(client.data.y >= 0)
