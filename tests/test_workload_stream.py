"""Compact query batches and the streaming workload trace.

* A batch keeps only its nonzero cells; every accessor must equal the
  dense numpy formula on the matrix it was built from, bit for bit.
* ``WorkloadTrace.record`` samples on a producer thread; its batches
  must be exactly what an eager loop over an identical generator draws,
  and the thread must never outlive the trace's use or block exit.
"""

from __future__ import annotations

import copy
import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import SimulationConfig, WorkloadParameters
from repro.errors import WorkloadError
from repro.experiments import scenarios, surges
from repro.sim.rng import RngTree
from repro.workload import QueryBatch, QueryGenerator, UniformPattern, WorkloadTrace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _dense_matrices():
    shapes = st.tuples(st.integers(1, 64), st.integers(1, 10))
    cells = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 2**40))
    return shapes.flatmap(lambda shape: arrays(np.int64, shape, elements=cells))


def _assert_matches_dense(batch: QueryBatch, m: np.ndarray) -> None:
    counts = batch.counts
    assert counts.dtype == np.int64 and np.array_equal(counts, m)
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0, 0] = 1
    assert batch.total == int(m.sum())
    for got, want in (
        (batch.per_partition(), m.sum(axis=1)),
        (batch.per_origin(), m.sum(axis=0)),
        (batch.system_average_query(), m.sum(axis=1) / m.shape[1]),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rows, cols = batch.nonzero()
    want_rows, want_cols = np.nonzero(m)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(batch.cell_counts, m[want_rows, want_cols])


class TestCompactBatch:
    @settings(max_examples=80, deadline=None)
    @given(_dense_matrices())
    @example(np.zeros((1, 1), dtype=np.int64))
    @example(np.zeros((64, 10), dtype=np.int64))
    @example(np.eye(1, 10, 7, dtype=np.int64) * 3)
    @example(np.arange(1, 641, dtype=np.int64).reshape(64, 10))
    def test_matches_dense_formulas(self, m):
        _assert_matches_dense(QueryBatch(3, m), m)

    def test_matches_dense_formulas_at_scale(self):
        """One Zipf-2.0 draw at 2·10⁴ partitions x 100 DCs (≈0.07 % nonzero)."""
        params = WorkloadParameters(
            queries_per_epoch_mean=10_000.0, num_partitions=20_000, zipf_exponent=2.0
        )
        pattern = UniformPattern(20_000, 100, 2.0)
        batch = QueryGenerator(params, pattern, RngTree(7).stream("wl")).generate(0)
        m = batch.counts
        assert 0 < batch.cell_counts.shape[0] < m.size // 100
        _assert_matches_dense(batch, m)
        assert QueryBatch(0, m) == batch

    def test_equality_ignores_how_the_batch_was_built(self):
        m = np.array([[0, 2], [3, 0]])
        built = QueryBatch.from_cells(0, (2, 2), np.array([1, 2]), np.array([2, 3]))
        assert built == QueryBatch(0, m) and hash(built) == hash(QueryBatch(0, m))
        assert built != QueryBatch(0, m.T)


def _gen(partitions=16, origins=10, lam=300.0, seed=7, pattern=None):
    params = WorkloadParameters(queries_per_epoch_mean=lam, num_partitions=partitions)
    pattern = pattern or UniformPattern(partitions, origins, 0.9)
    return QueryGenerator(params, pattern, RngTree(seed).stream("wl"))


class _FailingPattern(UniformPattern):
    """Uniform, except that asking for epoch ``fail_at`` raises."""

    def __init__(self, fail_at: int) -> None:
        super().__init__(16, 10, 0.9)
        self.fail_at = fail_at
        self.raised = WorkloadError(f"pattern broke at epoch {fail_at}")

    def origin_weights(self, epoch: int) -> np.ndarray:
        if epoch == self.fail_at:
            raise self.raised
        return super().origin_weights(epoch)


@pytest.fixture
def captured(monkeypatch):
    """Every trace the scenario and surge builders record, each with a
    twin generator holding the same state (and so the same seed and
    stream position) as the one handed to the producer."""
    records: list[tuple[WorkloadTrace, QueryGenerator]] = []

    class Capturing(WorkloadTrace):
        @classmethod
        def record(cls, generator, epochs):
            twin = copy.deepcopy(generator)
            trace = super().record(generator, epochs)
            records.append((trace, twin))
            return trace

    monkeypatch.setattr(scenarios, "WorkloadTrace", Capturing)
    monkeypatch.setattr(surges, "WorkloadTrace", Capturing)
    return records


_SMALL = SimulationConfig(
    seed=1234,
    workload=WorkloadParameters(queries_per_epoch_mean=120.0, num_partitions=64),
)

_BUILDERS = {
    "random": lambda: scenarios.random_query_scenario(_SMALL, epochs=30),
    "flash-crowd": lambda: scenarios.flash_crowd_scenario(_SMALL, epochs=40),
    "failure": lambda: scenarios.failure_recovery_scenario(
        _SMALL, epochs=30, failure_epoch=10, failure_count=3
    ),
    "location-shift": lambda: surges.location_shift_surge(
        _SMALL, epochs=60, shift_start=45, shift_end=50
    ),
    "popularity-shift": lambda: surges.popularity_shift_surge(
        _SMALL, epochs=40, shift_epoch=20, rotate_by=8
    ),
}


class TestStreamingRecord:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_batches_equal_eager_generation(self, name, captured):
        _BUILDERS[name]()
        assert captured
        for trace, twin in captured:
            eager = tuple(twin.generate(epoch) for epoch in range(len(trace)))
            assert trace.batches() == eager

    def test_length_and_shape_are_known_up_front(self):
        trace = WorkloadTrace.record(_gen(partitions=12, origins=5), 50)
        assert len(trace) == 50
        assert (trace.num_partitions, trace.num_origins) == (12, 5)
        trace.close()

    def test_any_epoch_may_be_asked_for_first(self):
        trace = WorkloadTrace.record(_gen(), 20)
        eager = _gen()
        expected = [eager.generate(epoch) for epoch in range(20)]
        assert trace.generate(5) == expected[5]
        assert trace.generate(0) == expected[0]
        assert trace.batches() == tuple(expected)

    def test_producer_error_surfaces_unchanged(self):
        pattern = _FailingPattern(fail_at=7)
        trace = WorkloadTrace.record(_gen(pattern=pattern), 20)
        for epoch in range(7):
            assert trace.generate(epoch).epoch == epoch
        for epoch in (7, 12):
            with pytest.raises(WorkloadError) as info:
                trace.generate(epoch)
            assert info.value is pattern.raised
        with pytest.raises(WorkloadError) as info:
            trace.total_queries()
        assert info.value is pattern.raised

    def test_closed_trace_keeps_sampled_batches(self):
        # Big enough that the producer is still sampling when closed.
        trace = WorkloadTrace.record(_gen(partitions=2000, origins=100, lam=5000.0), 500)
        first = trace.generate(0)
        trace.close()
        assert trace.generate(0) is first
        with pytest.raises(WorkloadError, match="closed"):
            trace.generate(499)


class TestProducerLifecycle:
    def test_thread_ends_once_fully_consumed(self):
        baseline = threading.active_count()
        trace = WorkloadTrace.record(_gen(), 40)
        for epoch in range(len(trace)):
            trace.generate(epoch)
        assert threading.active_count() == baseline

    def test_concurrent_consumers_see_every_batch(self):
        """More consumer threads than cores, each walking the epochs in
        its own order while the producer appends, with thread switches
        forced often: every consumer gets exactly the eager batches."""
        epochs = 60
        eager = _gen()
        expected = [eager.generate(epoch) for epoch in range(epochs)]
        trace = WorkloadTrace.record(_gen(), epochs)
        got: dict[int, list[QueryBatch]] = {}

        def consume(worker: int) -> None:
            seen = {}
            for epoch in np.random.default_rng(worker).permutation(epochs).tolist():
                seen[epoch] = trace.generate(epoch)
            got[worker] = [seen[epoch] for epoch in range(epochs)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [threading.Thread(target=consume, args=(w,)) for w in range(6)]
            for thread in consumers:
                thread.start()
            for thread in consumers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in consumers)
        assert sorted(got) == list(range(6))
        for batches in got.values():
            assert batches == expected

    def test_thread_ends_when_partly_consumed_trace_is_closed(self):
        baseline = threading.active_count()
        trace = WorkloadTrace.record(_gen(partitions=2000, origins=100, lam=5000.0), 500)
        try:
            trace.generate(1)
        finally:
            trace.close()
        assert threading.active_count() == baseline

    def test_exit_is_not_held_up_by_the_producer(self):
        """A process that stops using a long trace after epoch 1 exits
        at once: the producer never keeps the interpreter alive."""
        script = textwrap.dedent(
            """
            from repro.config import WorkloadParameters
            from repro.sim.rng import RngTree
            from repro.workload import QueryGenerator, UniformPattern, WorkloadTrace

            params = WorkloadParameters(
                queries_per_epoch_mean=10_000.0, num_partitions=20_000, zipf_exponent=2.0
            )
            pattern = UniformPattern(20_000, 100, 2.0)
            trace = WorkloadTrace.record(
                QueryGenerator(params, pattern, RngTree(7).stream("wl")), 500
            )
            trace.generate(1)
            print("done", flush=True)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=15,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "done"
