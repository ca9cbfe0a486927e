"""Ledger arithmetic: the constant-cost heuristic, additive composition and
the per-cluster summaries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricfl.accounting import (
    RADIUS_FLOOR,
    DegenerateUpdateError,
    LeakageEvent,
    PrivacyLedger,
    heuristic_epsilon,
    ledger_summary,
    write_ledger_csv,
)


class TestHeuristicEpsilon:
    def test_documented_two_dimensional_case(self):
        # n=2, nu=5: each release costs 2/5 = 0.4 whatever the radius.
        eps = heuristic_epsilon(1.0, 2, 5.0)
        assert eps == pytest.approx(0.4)
        assert eps * 1.0 == pytest.approx(0.4)

    def test_documented_eleven_dimensional_case(self):
        eps = heuristic_epsilon(0.5, 11, 1.0)
        assert eps == pytest.approx(22.0)
        assert eps * 0.5 == pytest.approx(11.0)

    @given(
        radius=st.floats(min_value=1e-6, max_value=1e6),
        n=st.integers(min_value=1, max_value=50),
        nu=st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_cost_is_radius_free(self, radius, n, nu):
        eps = heuristic_epsilon(radius, n, nu)
        assert eps * radius == pytest.approx(n / nu, rel=1e-9)

    def test_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateUpdateError):
            heuristic_epsilon(0.0, 2, 5.0)
        # The documented substitute keeps the nominal cost.
        eps = heuristic_epsilon(RADIUS_FLOOR, 2, 5.0)
        assert eps * RADIUS_FLOOR == pytest.approx(0.4, rel=1e-9)

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            heuristic_epsilon(1.0, 2, 0.0)


class TestLeakageEvent:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            LeakageEvent(round=0, epsilon=1.0, radius=2.0, leakage=1.0)

    def test_infinite_epsilon_needs_infinite_leakage(self):
        LeakageEvent(round=0, epsilon=math.inf, radius=0.3, leakage=math.inf)
        with pytest.raises(ValueError):
            LeakageEvent(round=0, epsilon=math.inf, radius=0.3, leakage=1.0)


class TestLedger:
    def record_constant(self, ledger, client, rounds, cluster=None):
        for t in rounds:
            radius = 0.1 + 0.01 * t
            ledger.record_participation(
                client,
                round=t,
                epsilon=heuristic_epsilon(radius, 2, 5.0),
                radius=radius,
                cluster_id=cluster,
                leakage=2 / 5.0,
            )

    def test_six_participations_compose_to_2_4(self):
        ledger = PrivacyLedger()
        self.record_constant(ledger, "c", range(6))
        assert ledger.composed_leakage("c") == pytest.approx(2.4, abs=1e-12)

    def test_empty_ledger_composes_to_zero(self):
        assert PrivacyLedger().composed_leakage("missing") == 0.0

    def test_three_participations(self):
        ledger = PrivacyLedger()
        self.record_constant(ledger, 7, [0, 3, 9])
        assert ledger.composed_leakage(7) == pytest.approx(1.2, abs=1e-12)

    def test_duplicate_round_rejected(self):
        ledger = PrivacyLedger()
        ledger.record_participation(0, round=1, epsilon=1.0, radius=0.5)
        with pytest.raises(ValueError):
            ledger.record_participation(0, round=1, epsilon=2.0, radius=0.25)

    def test_rejected_call_leaves_the_ledger_unchanged(self):
        ledger = PrivacyLedger()
        ledger.record_participation(0, round=1, epsilon=1.0, radius=0.5, cluster_id=0)
        rejected = [
            {"client_id": 0, "round": 1, "epsilon": 2.0, "radius": 0.25},  # duplicate round
            {"client_id": 1, "round": 2, "epsilon": 1.0, "radius": 0.5, "leakage": 0.7},
            {"client_id": 2, "round": -1, "epsilon": 1.0, "radius": 0.5},
            {"client_id": 3, "round": 0, "epsilon": -1.0, "radius": 0.5},
        ]

        def state():
            composed = [ledger.composed_leakage(cid) for cid in range(4)]
            return ledger.clients(), len(ledger), ledger_summary(ledger), composed

        for call in rejected:
            before = state()
            with pytest.raises(ValueError):
                ledger.record_participation(**call, cluster_id=0)
            assert state() == before

    def test_composed_is_monotone_in_rounds(self):
        ledger = PrivacyLedger()
        previous = 0.0
        for t in range(10):
            ledger.record_participation(0, round=t, epsilon=1.0, radius=0.1 * t + 0.01)
            current = ledger.composed_leakage(0)
            assert current >= previous
            previous = current

    @given(st.permutations(list(range(8))))
    @settings(max_examples=50, deadline=None)
    def test_composition_is_order_independent(self, order):
        reference = PrivacyLedger()
        shuffled = PrivacyLedger()
        leakages = [0.1 * (t + 1) for t in range(8)]
        for t in range(8):
            reference.record_participation(0, round=t, epsilon=leakages[t] / 0.5, radius=0.5)
        for t in order:
            shuffled.record_participation(0, round=t, epsilon=leakages[t] / 0.5, radius=0.5)
        assert shuffled.composed_leakage(0) == pytest.approx(
            reference.composed_leakage(0), rel=1e-12
        )


class TestSummary:
    def test_everyone_once_gives_flat_summary(self):
        ledger = PrivacyLedger()
        for cid in range(10):
            ledger.record_participation(
                cid, round=0, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4
            )
        summary = ledger_summary(ledger)
        assert summary.overall.median == pytest.approx(0.4)
        assert summary.overall.maximum == pytest.approx(0.4)

    def test_single_heavy_client(self):
        ledger = PrivacyLedger()
        for t in range(6):
            ledger.record_participation(
                "heavy", round=t, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4
            )
        for cid in range(6):
            ledger.record_participation(
                f"light{cid}", round=6, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4
            )
        summary = ledger_summary(ledger)
        assert summary.overall.maximum == pytest.approx(2.4, abs=1e-12)
        assert summary.overall.median == pytest.approx(0.4)

    def test_per_cluster_maxima_respect_the_partition(self):
        ledger = PrivacyLedger()
        for t in range(3):
            ledger.record_participation(
                "a", round=t, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4
            )
        ledger.record_participation(
            "b", round=0, epsilon=4.0, radius=0.1, cluster_id=1, leakage=0.4
        )
        summary = ledger_summary(ledger)
        assert summary.per_cluster[0].maximum == pytest.approx(1.2, abs=1e-12)
        assert summary.per_cluster[1].maximum == pytest.approx(0.4, abs=1e-12)

    def test_empty_summary(self):
        summary = ledger_summary(PrivacyLedger())
        assert summary.overall is None
        assert summary.per_cluster == {}
        assert summary.max_trajectory == {}

    def test_trajectory_is_nondecreasing_with_plateaus(self):
        # Client "big" of cluster 0 participates in rounds 0, 2, 5; the
        # trajectory must stay flat on rounds where it is not sampled.
        ledger = PrivacyLedger()
        for t in [0, 2, 5]:
            ledger.record_participation(
                "big", round=t, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4
            )
        for t in range(6):
            ledger.record_participation(
                f"small{t}", round=t, epsilon=1.0, radius=0.1, cluster_id=0, leakage=0.1
            )
        trajectory = ledger_summary(ledger).max_trajectory[0]
        assert trajectory == pytest.approx([0.4, 0.4, 0.8, 0.8, 0.8, 1.2])
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))

    def test_trajectory_holds_when_a_client_switches_clusters(self):
        # "mover" releases into cluster 0 at rounds 0-1, then into cluster 1;
        # "stay" releases into cluster 2 at round 0 and then into cluster 1.
        ledger = PrivacyLedger()
        for t, cluster in enumerate([0, 0, 1, 1]):
            ledger.record_participation(
                "mover", round=t, epsilon=4.0, radius=0.1, cluster_id=cluster, leakage=0.4
            )
        for t, cluster in [(0, 2), (3, 1)]:
            ledger.record_participation(
                "stay", round=t, epsilon=4.0, radius=0.1, cluster_id=cluster, leakage=0.4
            )
        summary = ledger_summary(ledger)
        # cluster 0 keeps the 0.8 "mover" held after its last release there
        assert summary.max_trajectory[0] == pytest.approx([0.4, 0.8, 0.8, 0.8])
        assert summary.max_trajectory[1] == pytest.approx([0.0, 0.0, 1.2, 1.6])
        # no client ends in cluster 2, yet its releases are still plotted
        assert summary.max_trajectory[2] == pytest.approx([0.4, 0.4, 0.4, 0.4])
        assert set(summary.per_cluster) == {1}
        assert summary.per_cluster[1].maximum == pytest.approx(1.6)


class TestCsvExport:
    def test_rows_ordered_and_composed(self, tmp_path):
        import csv

        ledger = PrivacyLedger()
        ledger.record_participation(2, round=0, epsilon=4.0, radius=0.1, cluster_id=1, leakage=0.4)
        ledger.record_participation(1, round=0, epsilon=4.0, radius=0.1, cluster_id=0, leakage=0.4)
        ledger.record_participation(2, round=1, epsilon=4.0, radius=0.1, cluster_id=1, leakage=0.4)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["client_id"] for r in rows] == ["1", "2", "2"]
        assert [r["round"] for r in rows] == ["0", "0", "1"]
        assert float(rows[2]["composed_leakage"]) == pytest.approx(0.8, abs=1e-12)
        assert set(rows[0]) == {
            "client_id",
            "cluster_id",
            "round",
            "epsilon",
            "radius",
            "leakage",
            "composed_leakage",
        }
