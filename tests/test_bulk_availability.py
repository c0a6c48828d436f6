"""Bulk availability placement vs the per-partition Fig. 2 tree.

With a columnar replica mirror attached, :class:`RFHPolicy` settles the
availability branch in bulk for every held, below-floor partition that
has a fresh (copy-free) datacenter with an eligible server, and hands
every other partition to the tree.  Each case here builds one
observation and decides it twice — once through the tree alone (the
scalar engine's path) and once with the mirror attached — and requires
identical actions and identical ``decisions_evaluated`` counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.core import RFHPolicy
from repro.core.decision import RFHDecision
from repro.geo.hierarchy import DEFAULT_SITES, GeoHierarchy
from repro.net.builder import build_wan
from repro.obs.perf.counters import WorkCounters
from repro.obs.provenance import ProvenanceRecorder
from repro.sim import ServerFailureEvent, Simulation
from repro.sim.columnar import ColumnarSimulation, SimState
from repro.sim.observation import EpochObservation
from repro.staticcheck.sanitizer import DeterminismSanitizer
from repro.workload import QueryBatch

NUM_DCS = 4
NUM_PARTITIONS = 24


def _world(
    engine_cls: type[Simulation] = Simulation,
    sanitizer: DeterminismSanitizer | None = None,
    seed: int = 5,
) -> Simulation:
    """Four datacenters on a ring, two servers each, one copy per partition."""
    config = SimulationConfig(
        seed=seed,
        cluster=ClusterParameters(racks_per_room=1, servers_per_rack=2),
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=NUM_PARTITIONS
        ),
    )
    hierarchy = GeoHierarchy(DEFAULT_SITES[:NUM_DCS])
    names = [site.name for site in hierarchy.sites]
    links = tuple((names[i], names[(i + 1) % NUM_DCS]) for i in range(NUM_DCS))
    return engine_cls(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_wan(hierarchy, links),
        sanitizer=sanitizer,
    )


def _observation(sim: Simulation, traffic: np.ndarray) -> EpochObservation:
    """Epoch-0 observation with the given Eq. 11 traffic matrix."""
    num_servers = sim.cluster.num_servers
    rng = np.random.default_rng(11)
    # Coarse levels so several servers tie on blocking probability.
    blocking = rng.integers(0, 3, size=num_servers) / 4.0
    for server in sim.cluster.servers:
        if not server.alive:
            blocking[server.sid] = 1.0
    return EpochObservation(
        epoch=0,
        queries=QueryBatch(0, np.ones(traffic.shape, dtype=np.int64)),
        traffic_dc=traffic,
        served_server=np.zeros((traffic.shape[0], num_servers)),
        unserved=np.zeros(traffic.shape[0]),
        holder_traffic=np.zeros(traffic.shape[0]),
        blocking_probability=blocking,
        replicas=sim.replicas,
        cluster=sim.cluster,
        router=sim.router,
        rmin=sim.rmin,
        params=sim.config.rfh,
        partition_size_mb=sim.config.workload.partition_size_mb,
    )


def _decide(
    sim: Simulation,
    obs: EpochObservation,
    *,
    columnar: bool,
    provenance: ProvenanceRecorder | None = None,
) -> tuple[list, int]:
    """One fresh policy's actions and ``decisions_evaluated`` count."""
    policy = RFHPolicy(sim.config.rfh)
    work = WorkCounters()
    policy.attach_perf(work=work)
    if columnar:
        state = SimState(sim.replicas.num_partitions, sim.cluster.num_servers)
        state.sync(sim.replicas, sim.cluster.num_servers)
        policy.attach_columnar_state(state)
    if provenance is not None:
        policy.attach_provenance(provenance)
    return policy.decide(obs), work.decisions_evaluated


@pytest.fixture
def tree_visits(monkeypatch) -> list[int]:
    """Partitions the per-partition tree evaluates, in call order."""
    visited: list[int] = []
    original = RFHDecision.decide_partition

    def spy(self, partition, *args, **kwargs):
        visited.append(partition)
        return original(self, partition, *args, **kwargs)

    monkeypatch.setattr(RFHDecision, "decide_partition", spy)
    return visited


def _assert_same(sim: Simulation, traffic: np.ndarray) -> list:
    obs = _observation(sim, traffic)
    tree, tree_work = _decide(sim, obs, columnar=False)
    bulk, bulk_work = _decide(sim, obs, columnar=True)
    assert bulk == tree
    assert bulk_work == tree_work == NUM_PARTITIONS
    return tree


def test_fresh_world_is_settled_in_bulk(tree_visits) -> None:
    sim = _world()
    traffic = np.random.default_rng(3).uniform(0.0, 5.0, (NUM_PARTITIONS, NUM_DCS))
    actions = _assert_same(sim, traffic)
    assert len(actions) == NUM_PARTITIONS
    # The tree ran for every partition once; the bulk path for none.
    assert tree_visits == list(range(NUM_PARTITIONS))


def test_gated_fresh_dcs_fall_back_to_a_second_copy_in_a_held_dc(tree_visits) -> None:
    """Every fresh datacenter of the DC-0 partitions is dead (DC 1) or
    shut by the Eq. 19 storage gate (DCs 2, 3), so the tree must place
    the copy on the other server of the holder's own datacenter."""
    sim = _world()
    cluster = sim.cluster
    for server in cluster.alive_in_dc(1):
        cluster.fail_server(server.sid)
        sim.replicas.drop_server(server.sid)
    phi = sim.config.rfh.phi
    for dc in (2, 3):
        for server in cluster.alive_in_dc(dc):
            server.store(phi * server.storage_capacity_mb)
    held_in_dc0 = [
        p
        for p in range(NUM_PARTITIONS)
        if sim.replicas.has_holder(p) and cluster.dc_of(sim.replicas.holder(p)) == 0
    ]
    assert held_in_dc0
    traffic = np.random.default_rng(4).uniform(0.0, 5.0, (NUM_PARTITIONS, NUM_DCS))
    actions = _assert_same(sim, traffic)
    local = [a for a in actions if a.partition in held_in_dc0]
    assert len(local) == len(held_in_dc0)
    assert all(cluster.dc_of(a.target_sid) == 0 for a in local)
    # Only the tree can place these; the bulk path left them alone.
    tree_visits.clear()
    _decide(sim, _observation(sim, traffic), columnar=True)
    assert set(held_in_dc0) <= set(tree_visits)
    assert len(tree_visits) < NUM_PARTITIONS


def test_lost_partition_is_left_to_restore() -> None:
    sim = _world()
    lost_sid = sim.replicas.holder(0)
    sim.cluster.fail_server(lost_sid)
    lost = sim.replicas.drop_server(lost_sid)
    assert 0 in lost and not sim.replicas.has_holder(0)
    traffic = np.random.default_rng(5).uniform(0.0, 5.0, (NUM_PARTITIONS, NUM_DCS))
    actions = _assert_same(sim, traffic)
    assert not [a for a in actions if a.partition in lost]


def test_tied_traffic_picks_the_lowest_fresh_dc() -> None:
    sim = _world()
    traffic = np.full((NUM_PARTITIONS, NUM_DCS), 2.5)
    actions = _assert_same(sim, traffic)
    for action in actions:
        holder_dc = sim.cluster.dc_of(action.source_sid)
        expected = 1 if holder_dc == 0 else 0
        assert sim.cluster.dc_of(action.target_sid) == expected


def test_provenance_keeps_every_availability_draft() -> None:
    """A recorder disables the bulk path, so each bootstrap partition
    still gets its ``availability-target`` candidates, and the actions
    equal those of the unrecorded bulk run."""
    sim = _world()
    traffic = np.random.default_rng(6).uniform(0.0, 5.0, (NUM_PARTITIONS, NUM_DCS))
    obs = _observation(sim, traffic)
    recorder = ProvenanceRecorder()
    recorded, _ = _decide(sim, obs, columnar=True, provenance=recorder)
    bulk, _ = _decide(sim, obs, columnar=True)
    assert recorded == bulk
    drafted = {
        record.partition
        for record in recorder.records
        if record.branch == "availability"
        and any(
            c.role == "availability-target" and c.verdict == "chosen"
            for c in record.candidates
        )
    }
    assert drafted == set(range(NUM_PARTITIONS))


def test_dead_datacenters_chain_identically_across_engines() -> None:
    """Whole datacenters fail before the first decision: bootstrap then
    runs with fresh DCs that have no eligible server, and the engines
    must still agree epoch for epoch."""
    chains = {}
    for engine_cls in (Simulation, ColumnarSimulation):
        sanitizer = DeterminismSanitizer()
        sim = _world(engine_cls, sanitizer)
        dead = tuple(s.sid for s in sim.cluster.servers if s.dc in (1, 2))
        sim.schedule_event(ServerFailureEvent(epoch=0, sids=dead))
        sim.run(8)
        chains[engine_cls.__name__] = [r.chain for r in sanitizer.trail().records]
    assert len(chains["Simulation"]) == 8
    assert chains["Simulation"] == chains["ColumnarSimulation"]
