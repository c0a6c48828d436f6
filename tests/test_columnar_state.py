"""Columnar engine building blocks against their reference definitions.

* :meth:`SimState.cells` — the incrementally maintained replica-cell
  index — must equal a fresh row-major ``np.nonzero`` scan after any
  sequence of mirror callbacks.
* :class:`RouterTables`, built with array gathers, must equal a
  per-pair build that calls the scalar router and latency model.
* The serve kernel's ``served_server`` must be a contiguous ``(P, S)``
  array, so its reductions add in the scalar engine's order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.geo import build_synthetic_hierarchy
from repro.metrics.latency import LatencyModel
from repro.net import Router, build_default_wan, build_ring_wan
from repro.sim.columnar import ColumnarSimulation, SimState
from repro.sim.columnar.tables import RouterTables


def _assert_cells_match(state: SimState) -> None:
    rows, cols, counts = state.cells()
    want_rows, want_cols = np.nonzero(state.R)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(counts, state.R[want_rows, want_cols])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_index_tracks_random_mutations(seed: int) -> None:
    """Few dirty rows take the splice path, many the full re-scan; both
    must reproduce the dense scan, including rows that empty out and
    columns added by server growth."""
    rng = np.random.default_rng(seed)
    num_partitions, num_servers = 40, 6
    state = SimState(num_partitions, num_servers)
    _assert_cells_match(state)
    for step in range(60):
        burst = 1 if step % 3 else int(rng.integers(1, num_partitions))
        for _ in range(burst):
            state.on_count(
                int(rng.integers(num_partitions)),
                int(rng.integers(state.num_servers + (step == 30))),
                int(rng.integers(0, 3)),
            )
        _assert_cells_match(state)
        assert np.array_equal(state.replica_counts(), state.R.sum(axis=1))


def _reference_tables(router: Router, latency: LatencyModel):
    """The per-pair build: scalar router and latency calls per level."""
    num_dcs = router.num_nodes
    max_len = max(
        len(router.path(o, h)) for o in range(num_dcs) for h in range(num_dcs)
    )
    path = np.zeros((num_dcs, num_dcs, max_len), dtype=np.int64)
    plen = np.zeros((num_dcs, num_dcs), dtype=np.int64)
    km = np.zeros((num_dcs, num_dcs, max_len), dtype=np.float64)
    miss = np.zeros((num_dcs, num_dcs, max_len), dtype=bool)
    for origin in range(num_dcs):
        for holder in range(num_dcs):
            route = router.path(origin, holder)
            plen[origin, holder] = len(route)
            for level, dc in enumerate(route):
                distance = router.distance_km(origin, dc)
                path[origin, holder, level] = dc
                km[origin, holder, level] = distance
                miss[origin, holder, level] = (
                    latency.response_ms(distance, level) > latency.sla_ms
                )
    return path, plen, km, miss


def _wans():
    _, table1 = build_default_wan()
    ring = build_ring_wan(build_synthetic_hierarchy(100))
    u, v, _ = table1.edges()[0]
    return {"table1": table1, "ring100": ring, "table1-cut": table1.without_links([(u, v)])}


@pytest.mark.parametrize("name", ["table1", "ring100", "table1-cut"])
@pytest.mark.parametrize("sla_ms", [300.0, 25.0])
def test_router_tables_match_per_pair_build(name: str, sla_ms: float) -> None:
    router = Router(_wans()[name])
    latency = LatencyModel(sla_ms=sla_ms)
    tables = RouterTables(router, latency)
    want = _reference_tables(router, latency)
    for got, expected in zip((tables.path, tables.plen, tables.km, tables.miss), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert tables.max_len == want[0].shape[2]


def test_served_matrix_is_contiguous() -> None:
    sim = ColumnarSimulation(SimulationConfig(seed=3), policy="rfh")
    sim.run(3)
    served = sim.last_result.served_server
    assert served.flags.c_contiguous
    assert served.shape == (sim.replicas.num_partitions, sim.cluster.num_servers)
