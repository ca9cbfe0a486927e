"""Ledger arithmetic: the constant-cost heuristic, additive composition and
the per-cluster summaries."""

import collections
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricfl import accounting
from metricfl.accounting import (
    RADIUS_FLOOR,
    PrivacyLedger,
    heuristic_epsilon,
    heuristic_epsilons,
    ledger_summary,
    record_rounds,
    write_ledger_csv,
)


def series(summary, cluster, rounds):
    """A cluster's running-max leakage at rounds 0..rounds-1, as a list."""
    return summary.max_leakage([cluster], range(rounds))[0].tolist()


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
        with pytest.raises(ValueError, match="zero-norm"):
            heuristic_epsilon(0.0, 2, 5.0)
        # The documented substitute keeps the nominal cost.
        eps = heuristic_epsilon(RADIUS_FLOOR, 2, 5.0)
        assert eps * RADIUS_FLOOR == pytest.approx(0.4, rel=1e-9)

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            heuristic_epsilon(1.0, 2, 0.0)


def check_row(round, epsilon, radius, leakage, cluster=0):
    """``_check_events`` on one row."""
    values = (np.array([v], dtype=float) for v in (epsilon, radius, leakage))
    accounting._check_events(round, np.array([cluster]), *values)


Row = collections.namedtuple("Row", "client round cluster epsilon radius leakage composed")


def ledger_rows(ledger):
    """Every row in (round, client id) order, read from the ledger's columns
    with the client's id in place of its position."""
    rows = ledger._columns()
    ids = [ledger._ids[p] for p in rows.position.tolist()]
    return [Row(*row) for row in zip(ids, rows.round.tolist(), *(c.tolist() for c in rows[2:]))]


class TestLeakageEvent:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            check_row(round=0, epsilon=1.0, radius=2.0, leakage=1.0)

    def test_infinite_epsilon_needs_infinite_leakage(self):
        check_row(round=0, epsilon=math.inf, radius=0.3, leakage=math.inf)
        with pytest.raises(ValueError):
            check_row(round=0, epsilon=math.inf, radius=0.3, leakage=1.0)


class TestOneMultiplierPerUpdate:
    def test_each_row_gets_the_bits_of_its_own_multiplier(self):
        gen = np.random.default_rng(3)
        norms, nus = gen.uniform(1e-9, 5.0, 40), gen.choice([0.5, 1.0, 3.0, 5.0], 40)
        per_row = heuristic_epsilons(norms, 11, nus)
        alone = [heuristic_epsilons(norms[i:i + 1], 11, nu)[0] for i, nu in enumerate(nus)]
        assert per_row.tolist() == alone

    def test_any_non_positive_multiplier_is_rejected(self):
        with pytest.raises(ValueError, match="noise_multiplier must be positive"):
            heuristic_epsilons(np.ones(3), 2, np.array([5.0, 0.0, 1.0]))


class TestNonFiniteNorms:
    @pytest.mark.parametrize("norm", [math.nan, math.inf])
    def test_diverged_norm_has_no_epsilon(self, norm):
        with pytest.raises(ValueError, match="finite"):
            heuristic_epsilons(np.array([1.0, norm]), 2, 5.0)


EDGES = [0.0, -0.0, 5e-301, 1e-300, 0.4, 1.0, -1.0, 1e155, 1e308, math.inf, -math.inf, math.nan]
ANY_FLOAT = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))


def isclose_rule(round, epsilon, radius, leakage):
    """Whether a release may record these values, one row at a time with
    ``math.isclose``: the reference for the column check."""
    if round < 0 or radius < 0:
        return False
    if math.isfinite(epsilon):
        expected = epsilon * radius
        return epsilon > 0 and math.isclose(leakage, expected, rel_tol=1e-12, abs_tol=1e-300)
    return math.isinf(leakage)


class TestColumnCheck:
    @given(
        round=st.integers(-1, 3),
        epsilon=ANY_FLOAT,
        radius=ANY_FLOAT,
        leakage=ANY_FLOAT,
        drift=st.sampled_from([None, 0.0, 1e-13, -1e-13, 2e-12, -2e-12, 1e-9]),
    )
    @settings(max_examples=300, deadline=None)
    # An overflowing epsilon * radius, an infinite epsilon at radius 0, a NaN radius.
    @example(round=0, epsilon=1e300, radius=1e10, leakage=1.0, drift=None)
    @example(round=0, epsilon=math.inf, radius=0.0, leakage=math.inf, drift=None)
    @example(round=0, epsilon=math.inf, radius=math.nan, leakage=math.inf, drift=None)
    def test_accepts_exactly_what_the_isclose_rule_accepts(self, round, epsilon, radius, leakage,
                                                           drift):
        if drift is not None:  # a cost at or near epsilon * radius
            with np.errstate(all="ignore"):
                leakage = float(np.float64(epsilon) * radius * (1 + drift))
        try:
            check_row(round, epsilon, radius, leakage)
        except ValueError:
            assert not isclose_rule(round, epsilon, radius, leakage)
        else:
            assert isclose_rule(round, epsilon, radius, leakage)


class TestLedger:
    def record_constant(self, ledger, client, rounds, cluster=0):
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
        ledger.record_participation(0, round=1, epsilon=1.0, radius=0.5, cluster_id=0)
        with pytest.raises(ValueError):
            ledger.record_participation(0, round=1, epsilon=2.0, radius=0.25, cluster_id=0)

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

    def test_rows_recorded_after_a_read_show_up_in_the_next(self):
        ledger = PrivacyLedger()
        self.record_constant(ledger, "a", [0, 1], cluster=0)
        self.record_constant(ledger, "b", [1], cluster=1)
        first = [(row.client, row.round, row.composed) for row in ledger_rows(ledger)]
        assert first == [("a", 0, 0.4), ("a", 1, 0.4 + 0.4), ("b", 1, 0.4)]
        assert ledger_rows(ledger) == ledger_rows(ledger)
        self.record_constant(ledger, "a", [2], cluster=1)
        self.record_constant(ledger, "b", [0], cluster=1)
        rows = [(row.client, row.round, row.composed) for row in ledger_rows(ledger)]
        assert rows == [
            ("a", 0, 0.4),
            ("b", 0, 0.4),
            ("a", 1, 0.4 + 0.4),
            ("b", 1, 0.4 + 0.4),
            ("a", 2, 0.4 + 0.4 + 0.4),
        ]

    @pytest.mark.parametrize("b_first", [True, False])
    def test_rows_sort_by_round_up_to_the_largest_round(self, b_first):
        # Rows read back in (round, id) order at any int64 round, in either
        # recording order: a key of round * len(ids) + rank would wrap here.
        ledger = PrivacyLedger(["a", "b", "c"])
        rows = [("b", 0), ("a", 2**62)]
        for client, t in rows if b_first else rows[::-1]:
            ledger.record_participation(client, round=t, epsilon=2.0, radius=0.5, cluster_id=0)
        assert [(row.client, row.round, row.composed) for row in ledger_rows(ledger)] == [
            ("b", 0, 1.0), ("a", 2**62, 1.0)
        ]

    def test_composed_is_monotone_in_rounds(self):
        ledger = PrivacyLedger()
        previous = 0.0
        for t in range(10):
            ledger.record_participation(0, round=t, epsilon=1.0, radius=0.1 * t + 0.01,
                                        cluster_id=0)
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
            reference.record_participation(0, round=t, epsilon=leakages[t] / 0.5, radius=0.5,
                                           cluster_id=0)
        for t in order:
            shuffled.record_participation(0, round=t, epsilon=leakages[t] / 0.5, radius=0.5,
                                          cluster_id=0)
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
        assert series(summary, 0, 3) == pytest.approx([0.4, 0.8, 1.2], abs=1e-12)
        assert series(summary, 1, 3) == pytest.approx([0.4, 0.4, 0.4], abs=1e-12)

    def test_overall_counts_only_the_clients_with_rows(self):
        # c0, c2 and c4 never release; the rows arrive out of (round, client) order.
        ledger = PrivacyLedger([f"c{i}" for i in range(7)])
        for cid, t, cost in [("c5", 2, 0.4), ("c1", 0, 0.3), ("c5", 0, 0.4), ("c3", 1, 0.25),
                             ("c1", 3, 0.3), ("c6", 2, 0.1)]:
            ledger.record_participation(cid, round=t, epsilon=cost / 0.5, radius=0.5,
                                        cluster_id=t % 2)
        composed = [ledger.composed_leakage(cid) for cid in ["c1", "c3", "c5", "c6"]]
        overall = ledger_summary(ledger).overall
        assert overall.median == statistics.median(composed)
        assert overall.maximum == max(composed)
        assert overall.median > max(ledger.composed_leakage(f"c{i}") for i in [0, 2, 4])

    def test_empty_summary(self):
        summary = ledger_summary(PrivacyLedger())
        assert summary.overall is None
        assert summary.rounds == [] and summary.peaks == {}
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
        trajectory = series(ledger_summary(ledger), 0, 6)
        assert trajectory == pytest.approx([0.4, 0.4, 0.8, 0.8, 0.8, 1.2])
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))

    def test_summary_size_follows_the_rows_not_the_last_round(self):
        # A row at round 2**62: one float per round up to it would be 32 EiB.
        # The summary keeps the two rounds that hold rows.
        ledger = PrivacyLedger()
        for cid, t, cluster in [("a", 3, 1), ("b", 2**62, 0), ("a", 2**62, 0)]:
            ledger.record_participation(cid, round=t, epsilon=4.0, radius=0.1,
                                        cluster_id=cluster, leakage=0.4)
        summary = ledger_summary(ledger)
        assert summary.rounds == [3, 2**62]
        at = [0, 3, 4, 2**62 - 1, 2**62, 2**63 - 1]
        assert summary.max_leakage([0, 1, 2], at).tolist() == [
            [0.0, 0.0, 0.0, 0.0, 0.8, 0.8], [0.0, 0.4, 0.4, 0.4, 0.4, 0.4], [0.0] * 6]

    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 2),
                                   st.floats(0.0, 2.0)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_max_leakage_is_the_running_max_at_every_round(self, rows):
        # Against one float per round, built row by row: the series at every
        # round 0..last + 1, and max_trajectory, which holds it per round.
        ledger, seen = PrivacyLedger(), set()
        for cid, t, cluster, cost in rows:
            if (cid, t) not in seen:
                seen.add((cid, t))
                ledger.record_participation(cid, round=t, epsilon=cost + 1.0, radius=1.0,
                                            cluster_id=cluster)
        last = max(t for _, t in seen)
        dense = {c: [0.0] * (last + 2) for c in range(3)}
        for row in ledger_rows(ledger):
            for t in range(row.round, last + 2):
                dense[row.cluster][t] = max(dense[row.cluster][t], row.composed)
        summary = ledger_summary(ledger)
        got = summary.max_leakage(range(3), range(last + 2)).tolist()
        assert got == [dense[c] for c in range(3)]
        assert summary.max_trajectory == {c: dense[c][:-1] for c in summary.peaks}
        assert sorted(summary.peaks) == sorted({row.cluster for row in ledger_rows(ledger)})

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
        assert series(summary, 0, 4) == pytest.approx([0.4, 0.8, 0.8, 0.8])
        assert series(summary, 1, 4) == pytest.approx([0.0, 0.0, 1.2, 1.6])
        # no client ends in cluster 2, yet its releases are still plotted
        assert series(summary, 2, 4) == pytest.approx([0.4, 0.4, 0.4, 0.4])


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


def round_columns(t, n_clients=8, U=3, seed=0):
    """One round's releases as columns: U ascending positions, radii, the
    heuristic epsilons at n = 2, nu = 5, and cluster labels."""
    gen = np.random.default_rng([seed, t])
    positions = np.sort(gen.choice(n_clients, size=U, replace=False))
    radius = gen.uniform(0.01, 2.0, U)
    return positions, heuristic_epsilons(radius, 2, 5.0), radius, gen.integers(0, 3, U)


def group_of_one(columns):
    """A round's (positions, epsilon, radius, clusters) for ``record_rounds``
    on one ledger: each value column as the group's one row."""
    positions, *values = columns
    return (positions, *([column] for column in values))


def positions_in(ledger, round):
    """The positions that hold a row of ``round``, read from the columns."""
    rows = ledger._columns()
    return set(rows.position[rows.round == round].tolist())


def ledger_state(ledger, tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)
    composed = [ledger.composed_leakage(cid) for cid in ledger.clients()]
    return ledger_rows(ledger), composed, ledger_summary(ledger), path.read_bytes()


class TestColumnarLedger:
    IDS = [f"c{i}" for i in range(8)]

    def test_round_and_one_row_recording_agree(self, tmp_path):
        columnar = PrivacyLedger(self.IDS)
        one_row = PrivacyLedger()
        shuffled = PrivacyLedger()
        events = []
        for t in range(12):
            positions, epsilon, radius, clusters = round_columns(t)
            record_rounds([columnar], t, positions, [epsilon], [radius], [clusters], 0.4)
            for p, e, r, c in zip(positions.tolist(), epsilon.tolist(), radius.tolist(),
                                  clusters.tolist()):
                events.append(dict(client_id=self.IDS[p], round=t, epsilon=e, radius=r,
                                   cluster_id=c, leakage=0.4))
        for event in events:
            one_row.record_participation(**event)
        # The same events out of (round, client) order take the sorting path.
        for i in np.random.default_rng(1).permutation(len(events)).tolist():
            shuffled.record_participation(**events[i])
        expected = ledger_state(columnar, tmp_path)
        assert len(expected[0]) == 36
        assert ledger_state(one_row, tmp_path) == expected
        assert ledger_state(shuffled, tmp_path) == expected

    @pytest.mark.parametrize("descending", [False, True])
    def test_recording_cost_does_not_grow_with_the_ledger(self, descending):
        # Every Python-level and builtin call made while recording one round,
        # on a ledger of 10 rounds and on one of 10,000, their rounds recorded
        # in order or (descending) all out of order.
        history = [round_columns(t) for t in range(7)]

        def calls_to_record(prior_rounds):
            ledger = PrivacyLedger(self.IDS)
            rounds = range(prior_rounds)
            for t in reversed(rounds) if descending else rounds:
                record_rounds([ledger], t, *group_of_one(history[t % 7]), 0.4)
            names = []

            def profile(frame, event, arg):
                if event == "call":
                    names.append(frame.f_code.co_name)
                elif event == "c_call":
                    names.append(getattr(arg, "__name__", "?"))

            columns = group_of_one(round_columns(prior_rounds))
            sys.setprofile(profile)
            try:
                record_rounds([ledger], prior_rounds, *columns, 0.4)
            finally:
                sys.setprofile(None)
            return names

        short, long = calls_to_record(10), calls_to_record(10_000)
        assert short == long
        # No sort and no per-release object built (no __post_init__).
        assert not {"sorted", "sort", "argsort", "lexsort", "__post_init__"} & set(long)

    def test_one_row_recording_checks_its_values_once(self, monkeypatch):
        checks = []
        check = accounting._check_events
        monkeypatch.setattr(accounting, "_check_events", lambda *a: checks.append(check(*a)))
        ledger = PrivacyLedger()
        ledger.record_participation("a", round=0, epsilon=2.0, radius=0.5, cluster_id=1)
        assert len(checks) == 1
        assert ledger_rows(ledger) == [Row("a", 0, 1, 2.0, 0.5, 1.0, 1.0)]

    # A round or cluster no release can have: too large for int64, negative or fractional.
    @pytest.mark.parametrize("round, cluster", [
        (0, 2**63), (0, -2**63), (0, -3), (0, 1.7), (1.5, 0), (2**63, 0), (-1, 0),
    ])
    def test_rows_need_a_nonnegative_integer_round_and_cluster(self, round, cluster):
        one_row = PrivacyLedger()
        one_row.record_participation("a", round=0, epsilon=2.0, radius=0.5, cluster_id=0)
        group = PrivacyLedger(self.IDS)
        with pytest.raises(ValueError):
            one_row.record_participation("b", round=round, epsilon=2.0, radius=0.5,
                                         cluster_id=cluster)
        with pytest.raises(ValueError):
            record_rounds([group], round, [0, 1], [[2.0, 2.0]], [[0.5, 0.5]], [[0, cluster]], 1.0)
        assert (one_row.composed.tolist(), len(one_row), one_row.clients()) == ([1.0], 1, ["a"])
        assert (group.composed.tolist(), len(group)) == ([0.0] * len(self.IDS), 0)

    def test_rejected_round_leaves_the_ledger_unchanged(self, tmp_path):
        ledger = PrivacyLedger(self.IDS)
        for t in range(3):
            record_rounds([ledger], t, *group_of_one(round_columns(t)), 0.4)
        before = ledger_state(ledger, tmp_path)
        positions, epsilon, radius, clusters = round_columns(3)
        wrong_cost = epsilon.copy()
        wrong_cost[-1] *= 2
        repeated = round_columns(2)
        rejected = [
            (3, positions, wrong_cost, radius, clusters),  # one row's cost is not 0.4
            (3, positions[::-1], epsilon, radius, clusters),  # positions descend
            (2, *repeated),  # round 2 again
            (-1, positions, epsilon, radius, clusters),
            (3, positions - positions[0] - 1, epsilon, radius, clusters),  # a negative position
            (3, positions + len(self.IDS) - positions[-1], epsilon, radius, clusters),  # past the end
        ]
        for t, *columns in rejected:
            with pytest.raises(ValueError):
                record_rounds([ledger], t, *group_of_one(columns), 0.4)
            assert ledger_state(ledger, tmp_path) == before
            assert len(ledger) == 9
        # The message names the round, the row and the row's values.
        with pytest.raises(ValueError) as wrong:
            record_rounds([ledger], 3, positions, [wrong_cost], [radius], [clusters], 0.4)
        assert str(wrong.value).startswith("round 3, row 2: ")
        assert f"epsilon {float(wrong_cost[-1])!r}" in str(wrong.value)
        # Nothing a rejected call saw is kept: round 3 still records as on a fresh ledger.
        record_rounds([ledger], 3, positions, [epsilon], [radius], [clusters], 0.4)
        fresh = PrivacyLedger(self.IDS)
        for t in range(4):
            record_rounds([fresh], t, *group_of_one(round_columns(t)), 0.4)
        assert ledger_state(ledger, tmp_path) == ledger_state(fresh, tmp_path)


class TestGroupRecording:
    IDS = [f"c{i}" for i in range(8)]

    def group(self, rounds=3):
        """Three ledgers with ``rounds`` rounds recorded as one group each."""
        ledgers = [PrivacyLedger(self.IDS) for _ in range(3)]
        for t in range(rounds):
            positions, epsilon, radius, clusters = round_columns(t)
            record_rounds(ledgers, t, positions, [epsilon] * 3, [radius] * 3, [clusters] * 3,
                          [[0.4]] * 3)
        return ledgers

    def test_a_group_round_equals_a_round_per_ledger(self, tmp_path):
        ledgers = self.group()
        for ledger in ledgers:
            solo = PrivacyLedger(self.IDS)
            for t in range(3):
                record_rounds([solo], t, *group_of_one(round_columns(t)), 0.4)
            assert ledger_state(ledger, tmp_path) == ledger_state(solo, tmp_path)

    @pytest.mark.parametrize("fault", ["epsilon", "repeat"])
    def test_a_fault_in_the_last_ledger_leaves_every_ledger_unchanged(self, fault):
        # A wrong cost in the last ledger's row, or a client the last ledger
        # alone already holds in round 3, rejects the whole group's round.
        ledgers = self.group()
        positions, epsilon, radius, clusters = round_columns(3)
        epsilons = np.array([epsilon] * 3)
        if fault == "epsilon":
            epsilons[2, -1] *= 2
        else:
            ledgers[2].record_participation(self.IDS[positions[1]], 3, 2.0, 0.2, 0)
        before = [(len(ledger), ledger.composed.tolist(), positions_in(ledger, 3))
                  for ledger in ledgers]
        with pytest.raises(ValueError):
            record_rounds(ledgers, 3, positions, epsilons, [radius] * 3, [clusters] * 3,
                          [[0.4]] * 3)
        after = [(len(ledger), ledger.composed.tolist(), positions_in(ledger, 3))
                 for ledger in ledgers]
        assert after == before

    def test_values_must_be_one_row_per_ledger(self):
        ledgers = self.group(rounds=0)
        positions, epsilon, radius, clusters = round_columns(0)
        with pytest.raises(ValueError, match="one row of values per ledger"):
            record_rounds(ledgers, 0, positions, [epsilon] * 2, [radius] * 2, [clusters] * 2, 0.4)
        assert [len(ledger) for ledger in ledgers] == [0, 0, 0]
