"""Workload substrate: batches, Zipf, patterns, generator, trace."""

import pathlib
import warnings

import numpy as np
import pytest

from repro.config import WorkloadParameters
from repro.errors import WorkloadError
from repro.sim.rng import RngTree
from repro.workload import (
    FlashCrowdPattern,
    HotspotPattern,
    LocationShiftPattern,
    PopularityShiftPattern,
    QueryBatch,
    QueryGenerator,
    UniformPattern,
    WorkloadTrace,
    zipf_weights,
)
from repro.workload.zipf import rotate_ranks


class TestQueryBatch:
    def test_basic_accessors(self):
        batch = QueryBatch(0, np.array([[1, 2], [3, 4]]))
        assert batch.total == 10
        assert batch.num_partitions == 2
        assert batch.num_origins == 2
        assert list(batch.per_partition()) == [3, 7]
        assert list(batch.per_origin()) == [4, 6]

    def test_system_average_query_eq9(self):
        batch = QueryBatch(0, np.array([[2, 4], [0, 0]]))
        assert list(batch.system_average_query()) == [3.0, 0.0]

    def test_counts_are_read_only(self):
        batch = QueryBatch(0, np.array([[1]]))
        with pytest.raises(ValueError):
            batch.counts[0, 0] = 5

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(0, np.array([[-1]]))

    def test_fractional_counts_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(0, np.array([[1.5]]))

    def test_integral_floats_accepted(self):
        batch = QueryBatch(0, np.array([[2.0]]))
        assert batch.total == 2

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 2.0**63, 1e300])
    def test_nonfinite_and_oversized_floats_rejected(self, bad):
        """Regression: ``inf`` used to be cast to -2**63 with only a
        RuntimeWarning; now no cast is attempted and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WorkloadError):
                QueryBatch(0, np.array([[bad, 1.0]]))

    def test_unsigned_counts_beyond_int64_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(0, np.array([[2**64 - 1, 1]], dtype=np.uint64))

    def test_largest_int64_float_accepted(self):
        batch = QueryBatch(0, np.array([[2.0**62, 1.0]]))
        assert batch.total == 2**62 + 1

    def test_negative_epoch_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(-1, np.array([[1]]))

    def test_value_equality(self):
        a = QueryBatch(0, np.array([[1, 2]]))
        b = QueryBatch(0, np.array([[1, 2]]))
        c = QueryBatch(1, np.array([[1, 2]]))
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestZipf:
    def test_uniform_at_zero_exponent(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_normalised_and_decreasing(self):
        w = zipf_weights(64, 0.9)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_larger_exponent_concentrates(self):
        w1 = zipf_weights(64, 0.5)
        w2 = zipf_weights(64, 1.5)
        assert w2[0] > w1[0]

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_weights(10, -1.0)

    def test_rotate_ranks_moves_hot_item(self):
        w = zipf_weights(8, 1.0)
        r = rotate_ranks(w, 3)
        assert r[3] == pytest.approx(w[0])
        assert r.sum() == pytest.approx(1.0)


class TestPatterns:
    def test_uniform_origins(self):
        p = UniformPattern(16, 10, 0.9)
        assert np.allclose(p.origin_weights(0), 0.1)
        assert p.partition_weights(0).sum() == pytest.approx(1.0)

    def test_hotspot_shares(self):
        p = HotspotPattern(16, 10, 0.9, hot_origins=(7, 8, 9), hot_share=0.8)
        w = p.origin_weights(5)
        assert w[[7, 8, 9]].sum() == pytest.approx(0.8)
        assert w.sum() == pytest.approx(1.0)

    def test_flash_crowd_stage_schedule(self):
        p = FlashCrowdPattern(16, 10, 0.9, total_epochs=400)
        assert p.stage_boundaries() == (0, 100, 200, 300)
        assert p.stage_of(0) == 0
        assert p.stage_of(99) == 0
        assert p.stage_of(100) == 1
        assert p.stage_of(399) == 3
        assert p.stage_of(10_000) == 3  # clamped

    def test_flash_crowd_stage_origins(self):
        p = FlashCrowdPattern(16, 10, 0.9, total_epochs=400)
        w1 = p.origin_weights(50)
        assert w1[[7, 8, 9]].sum() == pytest.approx(0.8)  # H, I, J
        w2 = p.origin_weights(150)
        assert w2[[0, 1, 2]].sum() == pytest.approx(0.8)  # A, B, C
        w3 = p.origin_weights(250)
        assert w3[[4, 5, 6]].sum() == pytest.approx(0.8)  # E, F, G
        w4 = p.origin_weights(350)
        assert np.allclose(w4, 0.1)  # uniform last stage

    def test_flash_crowd_needs_enough_epochs(self):
        with pytest.raises(WorkloadError):
            FlashCrowdPattern(16, 10, 0.9, total_epochs=2)

    def test_location_shift_interpolates(self):
        p = LocationShiftPattern(
            16, 10, 0.9, from_origins=(8,), to_origins=(7,), shift_start=10, shift_end=20
        )
        assert p.origin_weights(5)[8] == pytest.approx(0.8)
        assert p.origin_weights(25)[7] == pytest.approx(0.8)
        mid = p.origin_weights(15)
        assert 0.3 < mid[8] < 0.5 and 0.3 < mid[7] < 0.5
        assert mid.sum() == pytest.approx(1.0)

    def test_popularity_shift_rotates_hot_partition(self):
        p = PopularityShiftPattern(16, 10, 1.0, shift_epochs=(50,), rotate_by=5)
        before = p.partition_weights(0)
        after = p.partition_weights(60)
        assert np.argmax(before) == 0
        assert np.argmax(after) == 5

    def test_negative_epoch_rejected(self):
        p = UniformPattern(4, 4, 0.0)
        with pytest.raises(WorkloadError):
            p.origin_weights(-1)
        with pytest.raises(WorkloadError):
            p.partition_weights(-1)


class TestGenerator:
    def _gen(self, lam=300.0):
        params = WorkloadParameters(queries_per_epoch_mean=lam, num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        return QueryGenerator(params, pattern, RngTree(7).stream("wl"))

    def test_epochs_must_be_sequential(self):
        gen = self._gen()
        gen.generate(0)
        with pytest.raises(WorkloadError):
            gen.generate(2)
        with pytest.raises(WorkloadError):
            gen.generate(0)

    def test_shapes_and_determinism(self):
        a = self._gen().generate(0)
        b = self._gen().generate(0)
        assert a == b
        assert a.counts.shape == (16, 10)

    def test_poisson_mean_is_respected(self):
        gen = self._gen(lam=200.0)
        totals = [gen.generate(e).total for e in range(200)]
        assert abs(np.mean(totals) - 200.0) < 10.0

    def test_pattern_mismatch_rejected(self):
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(8, 10, 0.9)
        with pytest.raises(WorkloadError):
            QueryGenerator(params, pattern, RngTree(7).stream("wl"))

    def test_marginals_follow_pattern(self):
        """Hotspot origins must receive ~80 % of queries on average."""
        params = WorkloadParameters(queries_per_epoch_mean=300.0, num_partitions=16)
        pattern = HotspotPattern(16, 10, 0.9, hot_origins=(7, 8, 9))
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        totals = np.zeros(10)
        for e in range(100):
            totals += gen.generate(e).per_origin()
        assert totals[[7, 8, 9]].sum() / totals.sum() == pytest.approx(0.8, abs=0.03)


class TestTrace:
    def _trace(self, epochs=20):
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        return WorkloadTrace.record(gen, epochs)

    def test_replay_matches_recording(self):
        trace = self._trace()
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        for epoch in range(20):
            assert trace.generate(epoch) == gen.generate(epoch)

    def test_out_of_range_epoch_rejected(self):
        trace = self._trace()
        with pytest.raises(WorkloadError):
            trace.generate(20)

    def test_total_queries(self):
        trace = self._trace()
        assert trace.total_queries() == sum(b.total for b in trace.batches())

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert len(loaded) == len(trace)
        for epoch in range(len(trace)):
            assert loaded.generate(epoch) == trace.generate(epoch)

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        """Regression: numpy's savez appended ``.npz`` to any other
        suffix, so ``load`` of the same path failed."""
        trace = self._trace(epochs=5)
        path = tmp_path / "w.trace"
        trace.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.trace"]
        loaded = WorkloadTrace.load(path)
        assert loaded.batches() == trace.batches()
        trace.save(path)  # replacing an existing file leaves no temp behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.trace"]

    def test_loads_a_file_written_before_streaming(self):
        """The ``.npz`` layout is unchanged: a file the eager recorder
        wrote loads, and equals today's draws for the same seed."""
        path = pathlib.Path(__file__).parent / "data" / "workload-trace.npz"
        loaded = WorkloadTrace.load(path)
        params = WorkloadParameters(queries_per_epoch_mean=20.0, num_partitions=6)
        gen = QueryGenerator(params, UniformPattern(6, 3, 0.9), RngTree(11).stream("wl"))
        assert [b.total for b in loaded.batches()] == [17, 15, 19, 32]
        assert loaded.batches() == tuple(gen.generate(epoch) for epoch in range(4))

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(WorkloadError):
            WorkloadTrace.load(path)

    @pytest.mark.parametrize("content", [None, b"", b"not a trace", "npy"])
    def test_load_rejects_missing_and_foreign_files(self, tmp_path, content):
        path = tmp_path / "w.trace"
        if content == "npy":
            with open(path, "wb") as handle:
                np.save(handle, np.zeros((2, 2, 2), dtype=np.int64))
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(WorkloadError):
            WorkloadTrace.load(path)

    def test_misnumbered_batches_rejected(self):
        batch = QueryBatch(5, np.ones((2, 2), dtype=np.int64))
        with pytest.raises(WorkloadError):
            WorkloadTrace([batch])
