"""The sparse-row contract between serving and the RFH EWMAs.

Serving touches only the partitions that had a query this epoch
(:meth:`QueryBatch.active_rows`): every other row of the epoch's
traffic and served matrices is an exact ``+0.0``, on every serve path.
:class:`RFHPolicy` relies on that to smooth only the rows that ever had
a query; these tests pin both halves — the contract on each serve path,
and the active-row EWMA against the dense formula bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    ClusterParameters,
    RFHParameters,
    SimulationConfig,
    WorkloadParameters,
)
from repro.core import RFHPolicy
from repro.geo.hierarchy import DEFAULT_SITES, GeoHierarchy
from repro.net.builder import build_wan
from repro.sim import Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.sim.reasons import SERVER_FAILURE
from repro.workload import QueryBatch

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships with the image
    given = None  # type: ignore[assignment]

NUM_DCS = 4
NUM_PARTITIONS = 24


def _bits(array: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, so ``-0.0 != +0.0``."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _sparse_batch(rng: np.random.Generator, epoch: int, shape: tuple[int, int]) -> QueryBatch:
    counts = rng.integers(0, 4, size=shape) * (rng.random(shape) < 0.2)
    return QueryBatch(epoch, counts)


# ----------------------------------------------------------------------
# QueryBatch.active_rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_active_rows_are_the_partitions_with_queries(seed) -> None:
    rng = np.random.default_rng(seed)
    batch = _sparse_batch(rng, 0, (30, 5))
    rows = batch.active_rows()
    assert np.array_equal(rows, np.flatnonzero(batch.per_partition()))
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert batch.active_rows() is rows


def test_empty_batch_has_no_active_rows() -> None:
    assert QueryBatch(0, np.zeros((7, 3), dtype=np.int64)).active_rows().shape == (0,)


# ----------------------------------------------------------------------
# Every serve path leaves inactive rows at exactly +0.0
# ----------------------------------------------------------------------
def _world(engine_cls: type[Simulation]) -> Simulation:
    config = SimulationConfig(
        seed=9,
        cluster=ClusterParameters(racks_per_room=1, servers_per_rack=2),
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=NUM_PARTITIONS
        ),
    )
    hierarchy = GeoHierarchy(DEFAULT_SITES[:NUM_DCS])
    names = [site.name for site in hierarchy.sites]
    links = tuple((names[i], names[(i + 1) % NUM_DCS]) for i in range(NUM_DCS))
    sim = engine_cls(
        config, policy="rfh", hierarchy=hierarchy, wan=build_wan(hierarchy, links)
    )
    sim.run(3)  # grow some replicas so queries spread over servers
    return sim


def _cut_wan(sim: Simulation) -> None:
    sim._apply_link_change(sim.clock.epoch, ((0, 1),), down=True, cause="test")


def _lose_a_partition(sim: Simulation) -> None:
    """Fail every server holding partition 0's copies."""
    sids = [sid for sid, _ in sim.replicas.servers_with(0)]
    sim._fail(sids, sim.clock.epoch, cause=SERVER_FAILURE)
    assert not sim.replicas.has_holder(0)


@pytest.mark.parametrize(
    ("engine_cls", "perturb"),
    [
        (ColumnarSimulation, None),
        (Simulation, None),
        (ColumnarSimulation, _cut_wan),
        (Simulation, _cut_wan),
        (ColumnarSimulation, _lose_a_partition),
        (Simulation, _lose_a_partition),
    ],
    ids=["columnar", "scalar", "columnar-degraded", "scalar-degraded",
         "columnar-holderless", "scalar-holderless"],
)
def test_rows_without_queries_are_exact_zeros(engine_cls, perturb) -> None:
    sim = _world(engine_cls)
    if perturb is not None:
        perturb(sim)
    rng = np.random.default_rng(17)
    for epoch in range(sim.clock.epoch, sim.clock.epoch + 4):
        batch = _sparse_batch(rng, epoch, (NUM_PARTITIONS, NUM_DCS))
        if perturb is _lose_a_partition:
            counts = batch.counts.copy()
            counts[0, 1] = 3  # the holderless partition is queried
            batch = QueryBatch(epoch, counts)
        result = sim._serve_epoch(batch)
        idle = np.ones(NUM_PARTITIONS, dtype=bool)
        idle[batch.active_rows()] = False
        assert idle.any() and not idle.all()
        assert not _bits(result.traffic_dc[idle]).any()
        assert not _bits(result.served_server[idle]).any()
        # Every active row carried its queries somewhere.
        assert (result.traffic_dc[~idle].sum(axis=1) > 0).all()


# ----------------------------------------------------------------------
# Active-row EWMA == dense EWMA, bit for bit
# ----------------------------------------------------------------------
def _dense_ewma(old: np.ndarray | None, raw: np.ndarray, alpha: float) -> np.ndarray:
    """The formula the policy must reproduce: ``(1-α)·old + α·raw``,
    zero-padding ``old`` when the server axis grew."""
    if old is None:
        return raw.astype(np.float64, copy=True)
    if raw.shape[1] > old.shape[1]:
        grown = np.zeros_like(raw, dtype=np.float64)
        grown[:, : old.shape[1]] = old
        old = grown
    return (1.0 - alpha) * old + alpha * raw


def _sparse_signal(
    rng: np.random.Generator, rows: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Nonnegative floats on ``rows`` (some exact zeros), +0.0 elsewhere."""
    raw = np.zeros(shape, dtype=np.float64)
    values = rng.exponential(rng.choice([1e-3, 1.0, 1e4]), size=(rows.shape[0], shape[1]))
    values[rng.random(values.shape) < 0.3] = 0.0
    raw[rows] = values
    return raw


def _check_ewma(seed: int, alpha: float, epochs: int, partitions: int) -> None:
    rng = np.random.default_rng(seed)
    policy = RFHPolicy(RFHParameters(alpha=alpha))
    num_dcs = int(rng.integers(1, 5))
    num_servers = int(rng.integers(1, 5))
    traffic_ref = served_ref = None
    for epoch in range(epochs):
        if rng.random() < 0.3:
            num_servers += int(rng.integers(1, 3))  # servers joined
        batch = _sparse_batch(rng, epoch, (partitions, num_dcs))
        rows = batch.active_rows()
        raw_traffic = _sparse_signal(rng, rows, (partitions, num_dcs))
        raw_served = _sparse_signal(rng, rows, (partitions, num_servers))
        smoothed_rows = policy._smoothed_rows(batch)
        traffic = policy._update_traffic(raw_traffic, smoothed_rows)
        served = policy._update_served(raw_served, smoothed_rows)
        traffic_ref = _dense_ewma(traffic_ref, raw_traffic, alpha)
        served_ref = _dense_ewma(served_ref, raw_served, alpha)
        assert np.array_equal(_bits(traffic), _bits(traffic_ref))
        assert np.array_equal(_bits(served), _bits(served_ref))


@pytest.mark.parametrize("seed", range(4))
def test_active_row_ewma_matches_dense(seed) -> None:
    _check_ewma(seed, alpha=RFHParameters().alpha, epochs=12, partitions=40)


if given is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.99),
        epochs=st.integers(1, 10),
        partitions=st.integers(1, 30),
    )
    def test_active_row_ewma_matches_dense_property(seed, alpha, epochs, partitions) -> None:
        _check_ewma(seed, alpha, epochs, partitions)
