"""Metrics: utilization (Eqs. 20–23), cost (Eq. 1), imbalance, series."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.metrics import (
    MetricsCollector,
    Series,
    average_utilization,
    availability_summary,
    mean_path_length,
    migration_cost,
    replica_group_utilization,
    replica_load_cv,
    replica_load_imbalance,
    replication_cost,
    server_load_imbalance,
)


class TestUtilization:
    def test_replica_group_sequential_fill(self):
        # 3 replicas of capacity 2: 5 served -> summed utilization 2.5.
        assert replica_group_utilization(5.0, 3, 2.0) == pytest.approx(2.5)

    def test_replica_group_saturates_at_count(self):
        assert replica_group_utilization(100.0, 3, 2.0) == 3.0

    def test_replica_group_validation(self):
        with pytest.raises(SimulationError):
            replica_group_utilization(1.0, 0, 2.0)
        with pytest.raises(SimulationError):
            replica_group_utilization(1.0, 1, 0.0)
        with pytest.raises(SimulationError):
            replica_group_utilization(-1.0, 1, 1.0)

    def test_average_is_mean_over_replicas(self):
        served = np.array([[2.0, 0.0], [0.0, 1.0]])
        counts = np.array([[1, 0], [0, 1]])
        caps = np.array([2.0, 2.0])
        # Replica 1 full (1.0), replica 2 half (0.5) -> mean 0.75.
        assert average_utilization(served, counts, caps) == pytest.approx(0.75)

    def test_empty_system_is_zero(self):
        assert average_utilization(np.zeros((2, 2)), np.zeros((2, 2), int), np.ones(2)) == 0.0

    def test_bounded_by_one(self):
        served = np.array([[100.0]])
        counts = np.array([[2]])
        caps = np.array([1.0])
        assert average_utilization(served, counts, caps) <= 1.0

    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            average_utilization(np.zeros((2, 2)), np.zeros((2, 3), int), np.ones(2))
        with pytest.raises(SimulationError):
            average_utilization(np.zeros((2, 2)), np.zeros((2, 2), int), np.ones(3))


class TestCost:
    def test_eq1_formula(self):
        # c = d * f * s / b
        assert replication_cost(6000.0, 0.1, 0.5, 300.0) == pytest.approx(1.0)

    def test_migration_uses_migration_bandwidth(self):
        r = replication_cost(6000.0, 0.1, 0.5, 300.0)
        m = migration_cost(6000.0, 0.1, 0.5, 100.0)
        assert m == pytest.approx(3.0 * r)

    def test_cost_monotone_in_distance(self):
        a = replication_cost(1000.0, 0.1, 0.5, 300.0)
        b = replication_cost(2000.0, 0.1, 0.5, 300.0)
        assert b == pytest.approx(2 * a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replication_cost(-1.0, 0.1, 0.5, 300.0)
        with pytest.raises(ConfigurationError):
            replication_cost(1.0, 0.0, 0.5, 300.0)
        with pytest.raises(ConfigurationError):
            replication_cost(1.0, 0.1, 0.0, 300.0)
        with pytest.raises(ConfigurationError):
            replication_cost(1.0, 0.1, 0.5, 0.0)


class TestImbalance:
    def test_uniform_load_is_zero(self):
        served = np.array([[2.0, 2.0]])
        counts = np.array([[1, 1]])
        assert replica_load_imbalance(served, counts) == 0.0
        assert replica_load_cv(served, counts) == 0.0

    def test_skew_raises_imbalance(self):
        even = replica_load_cv(np.array([[2.0, 2.0]]), np.array([[1, 1]]))
        skew = replica_load_cv(np.array([[4.0, 0.0]]), np.array([[1, 1]]))
        assert skew > even

    def test_multiplicity_spreads_load(self):
        # Two copies on one server serving 4 -> per-copy load 2 each.
        served = np.array([[4.0, 2.0]])
        counts = np.array([[2, 1]])
        assert replica_load_imbalance(served, counts) == 0.0

    def test_cv_is_scale_free(self):
        served = np.array([[4.0, 0.0]])
        counts = np.array([[1, 1]])
        cv1 = replica_load_cv(served, counts)
        cv2 = replica_load_cv(10 * served, counts)
        assert cv1 == pytest.approx(cv2)

    def test_empty_system(self):
        assert replica_load_imbalance(np.zeros((1, 2)), np.zeros((1, 2), int)) == 0.0

    def test_server_variant(self):
        load = np.array([1.0, 3.0, 100.0])
        alive = np.array([True, True, False])
        assert server_load_imbalance(load, alive) == pytest.approx(1.0)

    def test_server_variant_needs_alive_servers(self):
        with pytest.raises(SimulationError):
            server_load_imbalance(np.array([1.0]), np.array([False]))


class TestPathLength:
    def test_mean(self):
        assert mean_path_length(10.0, 4.0) == 2.5

    def test_idle_epoch(self):
        assert mean_path_length(0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            mean_path_length(-1.0, 1.0)


class TestAvailabilitySummary:
    def test_summary_fields(self, cluster, mapper):
        from repro.cluster import ReplicaMap

        rm = ReplicaMap(cluster, 4, 0.5)
        rm.bootstrap([0, 1, 2, 3])
        rm.add(0, 10)
        summary = availability_summary(rm, failure_rate=0.1, rmin=2)
        assert summary.fraction_meeting_floor == 0.25
        assert summary.lost_partitions == 0
        assert 0.9 <= summary.mean_availability <= 1.0
        assert summary.min_availability == pytest.approx(0.9)

    def test_mean_is_a_left_to_right_fold(self, cluster, mapper):
        """Copy counts (2, 3, 1) give 0.99 + 0.999 + 0.9, which a plain
        left-to-right fold sums to 2.889 but an exactly rounded (or, on
        Python >= 3.12, compensated builtin) sum to 2.8890000000000002.
        The mean must be the fold the columnar engine reproduces with
        ``np.add.accumulate``, on every Python version."""
        import math
        from functools import reduce
        from operator import add

        from repro.cluster import ReplicaMap

        rm = ReplicaMap(cluster, 3, 0.5)
        rm.bootstrap([0, 1, 2])
        rm.add(0, 10)
        rm.add(1, 10)
        rm.add(1, 20)
        assert rm.per_partition_counts() == [2, 3, 1]
        values = [0.99, 0.999, 0.9]
        fold = reduce(add, values, 0.0)
        assert fold != math.fsum(values)
        assert fold == float(np.add.accumulate(np.array(values))[-1])
        summary = availability_summary(rm, failure_rate=0.1, rmin=2)
        assert summary.mean_availability == fold / 3


class TestSeries:
    def test_append_and_read(self):
        s = Series("x")
        s.append(1.0)
        s.append(2.0)
        assert len(s) == 2
        assert s.last() == 2.0
        assert s.values == [1.0, 2.0]
        assert list(s.cumulative()) == [1.0, 3.0]

    def test_means(self):
        s = Series("x")
        for v in (1.0, 2.0, 3.0, 4.0):
            s.append(v)
        assert s.mean() == 2.5
        assert s.tail_mean(2) == 3.5
        assert s.mean(1, 3) == 2.5

    def test_non_finite_rejected(self):
        s = Series("x")
        with pytest.raises(SimulationError):
            s.append(float("nan"))
        with pytest.raises(SimulationError):
            s.append(float("inf"))

    def test_empty_guards(self):
        s = Series("x")
        with pytest.raises(SimulationError):
            s.last()
        with pytest.raises(SimulationError):
            s.mean()

    def test_empty_window_mean_raises_even_on_nonempty_series(self):
        s = Series("x")
        for v in (1.0, 2.0, 3.0):
            s.append(v)
        with pytest.raises(SimulationError):
            s.mean(2, 2)  # start == stop -> empty window
        with pytest.raises(SimulationError):
            s.mean(3)  # start past the end

    def test_tail_mean_at_and_below_boundary(self):
        s = Series("x")
        for v in (1.0, 2.0, 3.0, 4.0):
            s.append(v)
        # Exactly the series length, and asking for more than exists
        # (clamps to the whole series) — both are the full mean.
        assert s.tail_mean(4) == 2.5
        assert s.tail_mean(100) == 2.5
        assert s.tail_mean(1) == 4.0
        with pytest.raises(SimulationError):
            s.tail_mean(0)
        with pytest.raises(SimulationError):
            s.tail_mean(-3)

    def test_cumulative_of_empty_series_is_empty_array(self):
        s = Series("x")
        out = s.cumulative()
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)

    def test_append_rejects_every_non_finite(self):
        s = Series("x")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                s.append(bad)
        assert len(s) == 0  # nothing slipped through


class TestCollector:
    def test_consistent_keys_enforced(self):
        c = MetricsCollector()
        c.record_epoch({"a": 1.0, "b": 2.0})
        with pytest.raises(SimulationError):
            c.record_epoch({"a": 1.0})

    def test_series_lookup(self):
        c = MetricsCollector()
        c.record_epoch({"a": 1.0})
        c.record_epoch({"a": 3.0})
        assert c.num_epochs == 2
        assert list(c.array("a")) == [1.0, 3.0]
        assert "a" in c
        with pytest.raises(SimulationError):
            c.series("zzz")

    def test_as_dict(self):
        c = MetricsCollector()
        c.record_epoch({"a": 1.0, "b": 2.0})
        assert c.as_dict() == {"a": [1.0], "b": [2.0]}
