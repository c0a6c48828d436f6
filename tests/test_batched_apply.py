"""The columnar engine's batched apply phase vs the per-action path.

:meth:`ColumnarSimulation._apply_actions` settles an all-``Replicate``
list from per-server slot counts and applies it in bulk; everything else
(mixed lists, a degraded WAN, anything the per-action path raises on or
skips as unreachable) takes the inherited per-action path.  Each case
applies one action list to two identical columnar worlds — once through
the override, once through ``Simulation._apply_actions`` — and requires
the same layout, storage and bandwidth accounting, stats, work counts,
events and raised error (type and message; the message names the action
and the partial layout before it shows where it fired).
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
from repro.errors import ActionError
from repro.geo.hierarchy import DEFAULT_SITES, GeoHierarchy
from repro.net.builder import build_wan
from repro.obs.perf.counters import WorkCounters
from repro.obs.trace import RingBufferTracer
from repro.sim import Migrate, Replicate, Simulation, Suicide
from repro.sim.columnar import ColumnarSimulation
from repro.sim.reasons import (
    SERVER_FAILURE,
    SKIP_BANDWIDTH,
    SKIP_NETWORK_PARTITION,
    SKIP_STORAGE_GATE,
)

NUM_DCS = 4
NUM_PARTITIONS = 24
SIZE_MB = 0.5


def _world(bandwidth_mb: float = 300.0) -> ColumnarSimulation:
    """Four datacenters on a ring, two servers each, one copy per partition."""
    config = SimulationConfig(
        seed=5,
        cluster=ClusterParameters(
            racks_per_room=1, servers_per_rack=2, replication_bandwidth_mb=bandwidth_mb
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0,
            num_partitions=NUM_PARTITIONS,
            partition_size_mb=SIZE_MB,
        ),
    )
    hierarchy = GeoHierarchy(DEFAULT_SITES[:NUM_DCS])
    names = [site.name for site in hierarchy.sites]
    links = tuple((names[i], names[(i + 1) % NUM_DCS]) for i in range(NUM_DCS))
    return ColumnarSimulation(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_wan(hierarchy, links),
        tracer=RingBufferTracer(),
        work=WorkCounters(),
        invariants=False,
    )


def _snapshot(sim: ColumnarSimulation) -> dict:
    """Everything the apply phase can change, plus the mirror's view."""
    matrix = Simulation._replica_count_matrix(sim)
    assert np.array_equal(sim._state.R, matrix)
    assert np.array_equal(sim._state.replica_counts(), matrix.sum(axis=1))
    rows, cols, counts = sim._state.cells()
    assert np.array_equal(np.stack(np.nonzero(matrix)), np.stack((rows, cols)))
    assert np.array_equal(matrix[rows, cols], counts)
    return {
        "layout": [sim.replicas.servers_with(p) for p in range(NUM_PARTITIONS)],
        "by_dc": [sim.replicas.replicas_by_dc(p) for p in range(NUM_PARTITIONS)],
        "storage": [s.storage_used_mb for s in sim.cluster.servers],
        "budgets": [s.replication_budget_mb for s in sim.cluster.servers],
        "migration": [s.migration_budget_mb for s in sim.cluster.servers],
        "work": sim.work.totals(),
        "events": [
            (e.epoch, e.kind, e.server, e.partition, e.reason, e.cost, e.policy, e.extra)
            for e in sim.tracer.events()
        ],
    }


def _outcome(sim: ColumnarSimulation, apply, actions: list) -> dict:
    sim.tracer.clear()
    try:
        stats, error = apply(actions, 0), None
    except ActionError as exc:
        stats, error = None, (type(exc), str(exc))
    return {"stats": stats, "error": error, **_snapshot(sim)}


def _compare(prepare, actions_for, *, batched: bool, bandwidth_mb: float = 300.0):
    """Apply one list through both paths on twin worlds; returns the
    batched outcome after asserting it equals the per-action one.

    ``batched`` says whether the override must settle the list in bulk
    (no per-action call) or fall back to the per-action path.
    """
    bulk_world, walk_world = _world(bandwidth_mb), _world(bandwidth_mb)
    for sim in (bulk_world, walk_world):
        prepare(sim)
    calls: list[Replicate] = []
    original = bulk_world._apply_replicate

    def spy(action, stats, epoch):
        calls.append(action)
        return original(action, stats, epoch)

    bulk_world._apply_replicate = spy
    actions = actions_for(bulk_world)
    assert actions == actions_for(walk_world)
    bulk = _outcome(bulk_world, bulk_world._apply_actions, actions)
    walk = _outcome(
        walk_world,
        lambda acts, epoch: Simulation._apply_actions(walk_world, acts, epoch),
        actions,
    )
    assert bulk == walk
    replicates = [a for a in actions if isinstance(a, Replicate)]
    if batched:
        assert calls == []
    else:
        assert calls == replicates[: len(calls)] and (calls or not replicates)
    return bulk


def _fail(sid: int):
    def prepare(sim: ColumnarSimulation) -> None:
        sim._fail([sid], 0, cause=SERVER_FAILURE)

    return prepare


def _noop(sim: ColumnarSimulation) -> None:
    pass


def _spread(sim: ColumnarSimulation) -> list[Replicate]:
    """One copy of every partition on the lowest-sid server of another DC."""
    actions = []
    for partition in range(NUM_PARTITIONS):
        if not sim.replicas.has_holder(partition):
            continue  # lost with a failed server
        holder = sim.replicas.holder(partition)
        dc = (sim.cluster.dc_of(holder) + 1) % NUM_DCS
        target = min(s.sid for s in sim.cluster.alive_in_dc(dc))
        actions.append(Replicate(partition, holder, target, reason="availability"))
    return actions


def _other(sim: ColumnarSimulation, sid: int) -> int:
    """A live server in another datacenter than ``sid``'s."""
    dc = sim.cluster.dc_of(sid)
    return next(s.sid for s in sim.cluster.servers if s.alive and s.dc != dc)


# ----------------------------------------------------------------------
# The batched path itself
# ----------------------------------------------------------------------
def test_uncontended_list_is_admitted_in_bulk() -> None:
    out = _compare(_noop, _spread, batched=True)
    assert out["stats"]["replication_count"] == NUM_PARTITIONS
    assert out["stats"]["skipped_actions"] == 0
    assert out["stats"]["replication_cost"] > 0


def test_duplicate_copies_on_one_server_are_counted_twice() -> None:
    def actions_for(sim):
        holder = sim.replicas.holder(0)
        target = _other(sim, holder)
        return [Replicate(0, holder, target), Replicate(0, holder, target)]

    out = _compare(_noop, actions_for, batched=True)
    assert out["stats"]["replication_count"] == 2


def test_bandwidth_skips_in_action_order() -> None:
    """1 MB per epoch is two 0.5 MB transfers per source."""
    out = _compare(_noop, _spread, batched=True, bandwidth_mb=1.0)
    causes = [e[-1]["cause"] for e in out["events"] if e[1] == "action_skipped"]
    assert causes and set(causes) == {SKIP_BANDWIDTH}


def test_storage_gate_skips_in_action_order() -> None:
    """Each target has room for two more copies under φ, each source
    bandwidth for one transfer."""

    def prepare(sim: ColumnarSimulation) -> None:
        phi = sim.config.rfh.phi
        for server in sim.cluster.servers:
            room = phi * server.storage_capacity_mb - server.storage_used_mb
            server.store(room - 2.5 * SIZE_MB)

    out = _compare(prepare, _spread, batched=True, bandwidth_mb=SIZE_MB)
    causes = [e[-1]["cause"] for e in out["events"] if e[1] == "action_skipped"]
    assert SKIP_STORAGE_GATE in causes and SKIP_BANDWIDTH in causes
    # Skips are interleaved with the admitted copies, not grouped after.
    kinds = [e[1] for e in out["events"]]
    assert kinds.index("action_skipped") < len(kinds) - kinds[::-1].index("replicate") - 1


def test_untraced_apply_counts_skips_without_events() -> None:
    sims = [_world(1.0), _world(1.0)]
    for sim in sims:
        sim.tracer = None
        sim._subscribers = {}
    stats = [
        sims[0]._apply_actions(_spread(sims[0]), 0),
        Simulation._apply_actions(sims[1], _spread(sims[1]), 0),
    ]
    assert stats[0] == stats[1]
    assert stats[0]["skipped_actions"] > 0


# ----------------------------------------------------------------------
# Fallbacks: the per-action path decides, the outcome is identical
# ----------------------------------------------------------------------
def test_dead_source_raises_at_the_same_action() -> None:
    def actions_for(sim):
        dead = next(s.sid for s in sim.cluster.servers if not s.alive)
        return [*_spread(sim)[:3], Replicate(5, dead, _other(sim, dead))]

    out = _compare(_fail(3), actions_for, batched=False)
    assert out["error"][0] is ActionError and "source 3 is down" in out["error"][1]


def test_dead_target_raises_at_the_same_action() -> None:
    def actions_for(sim):
        spread = _spread(sim)
        late = spread[5]
        return [*spread[:3], Replicate(late.partition, late.source_sid, 3), *spread[3:]]

    out = _compare(_fail(3), actions_for, batched=False)
    assert "target 3 is down" in out["error"][1]
    assert out["stats"] is None


def test_source_without_a_copy_raises() -> None:
    def actions_for(sim):
        holder = sim.replicas.holder(2)
        stranger = _other(sim, holder)
        return [*_spread(sim)[:2], Replicate(2, stranger, holder)]

    out = _compare(_noop, actions_for, batched=False)
    assert "holds no copy of partition 2" in out["error"][1]


def test_source_gaining_its_copy_earlier_in_the_list() -> None:
    def actions_for(sim):
        holder = sim.replicas.holder(4)
        relay = _other(sim, holder)
        final = _other(sim, relay)
        return [Replicate(4, holder, relay), Replicate(4, relay, final)]

    out = _compare(_noop, actions_for, batched=False)
    assert out["error"] is None
    assert out["stats"]["replication_count"] == 2


def test_mixed_list_takes_the_per_action_path() -> None:
    def actions_for(sim):
        spread = _spread(sim)
        first = spread[0]
        return [
            *spread[:4],
            Migrate(first.partition, first.target_sid, _other(sim, first.target_sid)),
            Suicide(spread[1].partition, spread[1].target_sid),
            *spread[4:],
        ]

    out = _compare(_noop, actions_for, batched=False)
    assert out["stats"]["migration_count"] == 1
    assert out["stats"]["suicide_count"] == 1


def test_degraded_wan_takes_the_per_action_path() -> None:
    def prepare(sim: ColumnarSimulation) -> None:
        sim._apply_link_change(0, ((0, 1), (2, 3)), down=True, cause="test")

    out = _compare(prepare, _spread, batched=False)
    causes = [e[-1]["cause"] for e in out["events"] if e[1] == "action_skipped"]
    assert SKIP_NETWORK_PARTITION in causes


def test_empty_list() -> None:
    out = _compare(_noop, lambda sim: [], batched=False)
    assert out["stats"] == Simulation._empty_apply_stats()
    assert out["events"] == []


def test_unknown_partition_raises() -> None:
    def actions_for(sim):
        holder = sim.replicas.holder(0)
        return [*_spread(sim)[:2], Replicate(NUM_PARTITIONS, holder, _other(sim, holder))]

    out = _compare(_noop, actions_for, batched=False)
    assert "unknown partition" in out["error"][1]


# ----------------------------------------------------------------------
# The replays the slot counts rest on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("used_fraction", [0.01, 0.3, 0.6999, 0.7])
@pytest.mark.parametrize("size_mb", [0.5, 0.1, 7.3])
def test_storage_slots_replay_gate_then_store(used_fraction, size_mb) -> None:
    sim = _world()
    server = sim.cluster.server(0)
    server.store(used_fraction * server.storage_capacity_mb - server.storage_used_mb)
    phi = RFHParameters().phi
    limit = 10_000
    slots = server.storage_slots(size_mb, phi, limit)
    capped = server.storage_slots(size_mb, phi, 3)
    stepped = 0
    while stepped < limit and server.storage_gate_open(size_mb, phi):
        server.store(size_mb)
        stepped += 1
    assert slots == stepped
    assert capped == min(3, stepped)


@pytest.mark.parametrize("budget_mb", [0.05, 1.0, 15.0, 300.0, 0.3])
def test_replication_slots_replay_consume(budget_mb) -> None:
    sim = _world(bandwidth_mb=budget_mb)
    server = sim.cluster.server(0)
    slots = server.replication_slots(0.1, 10_000)
    twin = _world(bandwidth_mb=budget_mb).cluster.server(0)
    stepped = 0
    while twin.consume_replication_bandwidth(0.1):
        stepped += 1
    assert slots == stepped
    assert server.consume_replication_bandwidth(0.1, slots)
    assert server.replication_budget_mb == twin.replication_budget_mb
    assert not server.consume_replication_bandwidth(0.1, 1)


def test_bulk_store_and_consume_are_all_or_nothing() -> None:
    server = _world(bandwidth_mb=1.0).cluster.server(0)
    assert not server.consume_replication_bandwidth(0.5, 3)
    assert server.replication_budget_mb == 1.0
    used = server.storage_used_mb
    with pytest.raises(Exception, match="exceed capacity"):
        server.store(server.storage_capacity_mb / 2, 3)
    assert server.storage_used_mb == used


def test_add_many_equals_single_adds() -> None:
    bulk, single = _world(), _world()
    pairs = [(a.partition, a.target_sid) for a in _spread(bulk)] * 2
    parts = np.array([p for p, _ in pairs], dtype=np.int64)
    sids = np.array([s for _, s in pairs], dtype=np.int64)
    bulk.replicas.add_many(parts, sids)
    for partition, sid in pairs:
        single.replicas.add(partition, sid)
    assert _snapshot(bulk) == _snapshot(single)
    with pytest.raises(ActionError, match="unknown partition"):
        bulk.replicas.add_many(np.array([NUM_PARTITIONS]), np.array([0]))
