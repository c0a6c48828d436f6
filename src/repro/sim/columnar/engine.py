"""The columnar simulation engine.

:class:`ColumnarSimulation` subclasses the scalar
:class:`~repro.sim.engine.Simulation` and overrides only the hot-path
hooks — serve, blocking, metric-source accessors, lost-partition scan,
the apply phase — with array kernels over a :class:`SimState` mirror of
the replica map.  Everything else (membership, workload, policy
protocol, tracing, sanitizer) is inherited unchanged, which is what
makes the bit-identical contract tractable: the authoritative world
objects are the same, only the arithmetic routes through numpy.

The apply override settles an all-``Replicate`` list from per-server
slot counts — each server's storage-gate and bandwidth float sequences
replayed by :class:`~repro.cluster.server.Server` itself — and applies
the admitted copies through one ``ReplicaMap.add_many``.

Fallbacks: epochs with WAN links down (degraded router) or a holderless
partition delegate to the scalar serve path.  Apply lists with a
``Migrate``/``Suicide``, lists applied on a degraded WAN and lists with
an action the per-action path would raise on or skip as unreachable
take the per-action path.  Chaos scenarios and errors thus remain
exactly reproducible without a second implementation of them.
"""

from __future__ import annotations

from functools import reduce
from operator import add, attrgetter
from typing import TYPE_CHECKING

import numpy as np

from ...core.availability import availability_at_least_one
from ...errors import SimulationError
from ...metrics.availability_metric import AvailabilitySummary
from ...metrics.cost import replication_cost
from ...metrics.imbalance import server_load_imbalance
from ..actions import Action, Replicate
from ..engine import Simulation
from ..reasons import SKIP_BANDWIDTH, SKIP_STORAGE_GATE
from .kernels import SlotCSR, build_slot_csr, erlang_b_vector, serve_columnar
from .state import SimState
from .tables import RouterTables

if TYPE_CHECKING:
    from ...core.traffic import ServiceResult
    from ...workload.query import QueryBatch

__all__ = ["ColumnarSimulation"]

_PARTITION = attrgetter("partition")
_SOURCE = attrgetter("source_sid")
_TARGET = attrgetter("target_sid")
#: Skip codes of :meth:`ColumnarSimulation._replicate_skips` (0 = admitted).
_SKIP_STORAGE = 1
_SKIP_SEND = 2
_SKIP_CAUSES = ("", SKIP_STORAGE_GATE, SKIP_BANDWIDTH)


class ColumnarSimulation(Simulation):
    """Vectorized engine, bit-identical to the scalar reference.

    Accepts exactly the :class:`~repro.sim.engine.Simulation`
    constructor arguments; select it with ``repro run --engine
    columnar`` or :func:`repro.experiments.runner.run_experiment`.
    """

    engine_name = "columnar"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._state = SimState(self.replicas.num_partitions, self.cluster.num_servers)
        self._state.sync(self.replicas, self.cluster.num_servers)
        self.replicas.attach_mirror(self._state)
        # Static per-topology routing/latency tables (chaos link cuts
        # fall back to the scalar path, so the base router suffices).
        self._tables = RouterTables(self._base_router, self.latency)
        self._dc_of_array = np.array(
            [s.dc for s in self.cluster.servers], dtype=np.int64
        )
        self._capacity_cache = Simulation._server_capacity_array(self)
        # Slot CSR and holder→dc gather, rebuilt only when the layout
        # version moves (quiescent epochs reuse them).
        self._csr: SlotCSR | None = None
        self._csr_version = -1
        self._holder_dc_cache = np.zeros(0, dtype=np.int64)
        # Version-keyed record-phase caches (same pure functions of the
        # replica map the scalar engine calls every epoch).
        self._avail_version = -1
        self._avail_cache: AvailabilitySummary | None = None
        self._avail_table = np.zeros(1, dtype=np.float64)  # [r] = 1 - f^r
        self._total_version = -1
        self._total_cache = 0
        self._alive_epoch = -1
        self._alive_cache = np.zeros(0, dtype=bool)
        # Replica-mask cache for the metric kernels: the state's shared
        # row-major cell index (the order boolean masking enumerates)
        # plus the per-cell capacity and float count gathers.
        self._mask_version = -1
        self._mask_shape = (0, 0)
        self._mask_rows = np.zeros(0, dtype=np.int64)
        self._mask_cols = np.zeros(0, dtype=np.int64)
        self._mask_cap = np.zeros(0, dtype=np.float64)
        self._mask_cnt_f = np.zeros(0, dtype=np.float64)
        self._mask_cap_ok = True
        # Reused all-zero scratch for the utilization fill matrix; after
        # every use the touched cells are reset so the buffer re-enters
        # the next epoch exactly as ``np.zeros_like`` would.
        self._fills = np.zeros(0, dtype=np.float64)
        # Eq. 1 replication cost per (source DC, target DC) pair, filled
        # on first use (NaN = not computed yet, inf = unreachable).
        num_dcs = self._tables.num_dcs
        self._pair_costs = np.full((num_dcs, num_dcs), np.nan)
        # Policies that support it (RFH) get the dense mirror for their
        # vectorized decision prefilter; baselines simply lack the hook.
        attach = getattr(self.policy, "attach_columnar_state", None)
        if attach is not None:
            attach(self._state)

    # ------------------------------------------------------------------
    # Server-axis caches
    # ------------------------------------------------------------------
    def _refresh_server_arrays(self) -> None:
        """Grow per-server caches after joins (capacities never change)."""
        num_servers = self.cluster.num_servers
        if self._capacity_cache.shape[0] != num_servers:
            self._capacity_cache = Simulation._server_capacity_array(self)
            self._dc_of_array = np.array(
                [s.dc for s in self.cluster.servers], dtype=np.int64
            )
            self._state.ensure_servers(num_servers)
            self._csr_version = -1  # sentinel sid changed width

    def _server_capacity_array(self) -> np.ndarray:
        self._refresh_server_arrays()
        return self._capacity_cache

    def _replica_count_matrix(self) -> np.ndarray:
        self._refresh_server_arrays()
        return self._state.R

    # ------------------------------------------------------------------
    # Hot-path overrides
    # ------------------------------------------------------------------
    def _restore_lost_partitions(self, epoch: int) -> int:
        if not bool((self._state.holder < 0).any()):
            return 0
        return super()._restore_lost_partitions(epoch)

    def _serve_epoch(self, batch: "QueryBatch") -> "ServiceResult":
        self._refresh_server_arrays()
        if self._down_links:
            # Degraded WAN: unreachable origins take the scalar walk's
            # routing-span branch; delegate the whole epoch.
            return super()._serve_epoch(batch)
        state = self._state
        if state.version != self._csr_version:
            if bool((state.holder < 0).any()):  # pragma: no cover - restores
                return super()._serve_epoch(batch)  # precede serve in step()
            self._csr = build_slot_csr(
                state.cells(),
                state.holder,
                self._dc_of_array,
                self._capacity_cache,
                self._tables.num_dcs,
                state.num_partitions,
                self.cluster.num_servers,
            )
            self._holder_dc_cache = self._dc_of_array[state.holder]
            self._csr_version = state.version
        assert self._csr is not None
        with self.profiler.span("columnar-serve"):
            return serve_columnar(
                batch,
                state.holder,
                self._holder_dc_cache,
                self._csr,
                self._tables,
                self.cluster.num_servers,
                work=self.work,
            )

    def _blocking_probabilities(self, load: np.ndarray) -> np.ndarray:
        self._refresh_server_arrays()
        return erlang_b_vector(
            load,
            self._capacity_cache,
            self.config.cluster.service_slots,
            self._alive_mask_array(),
        )

    # ------------------------------------------------------------------
    # Apply-phase override
    # ------------------------------------------------------------------
    def _apply_actions(self, actions: list[Action], epoch: int) -> dict[str, float]:
        """Apply an all-``Replicate`` list in bulk, order-exact.

        Every copy passes the per-action path's gates in action order:
        reachable, then the target's Eq. 19 storage gate, then the
        source's replication bandwidth.  With one partition size both
        gates are per-server *counts* — a server admits copies until its
        replayed float sequence closes the gate — so the admissions are
        settled from those slot counts (:meth:`_replicate_skips`) and
        applied in one :meth:`ReplicaMap.add_many`.  Mixed lists, a
        degraded WAN and anything the per-action path would raise on or
        skip as unreachable take the inherited path, which then raises
        the same :class:`ActionError` at the same action.
        """
        if self._down_links or not actions:
            return super()._apply_actions(actions, epoch)
        for action in actions:
            if not isinstance(action, Replicate):
                return super()._apply_actions(actions, epoch)
        count = len(actions)
        parts = np.fromiter(map(_PARTITION, actions), dtype=np.int64, count=count)
        srcs = np.fromiter(map(_SOURCE, actions), dtype=np.int64, count=count)
        tgts = np.fromiter(map(_TARGET, actions), dtype=np.int64, count=count)
        costs = self._replicate_costs(parts, srcs, tgts)
        if costs is None:
            return super()._apply_actions(actions, epoch)
        skips = self._replicate_skips(srcs, tgts)
        admitted = skips == 0
        size = self.config.workload.partition_size_mb
        self.replicas.add_many(parts[admitted], tgts[admitted])
        servers = self.cluster.servers
        sent = np.bincount(srcs[admitted], minlength=len(servers))
        for sid in np.flatnonzero(sent).tolist():
            if not servers[sid].consume_replication_bandwidth(size, int(sent[sid])):
                raise SimulationError(f"replication slots of server {sid} overrun")
        stats = self._empty_apply_stats()
        num_admitted = int(np.count_nonzero(admitted))
        stats["replication_count"] = float(num_admitted)
        stats["replication_cost"] = reduce(add, costs[admitted].tolist(), 0.0)
        if self.work is not None:
            self.work.replicate_actions += num_admitted
        subscribed = self._subscribers
        if "replicate" not in subscribed and "action_skipped" not in subscribed:
            stats["skipped_actions"] = float(count - num_admitted)
            return stats
        # Events in action order (``_emit`` drops a kind nobody
        # subscribes to; ``_skip_action`` counts the skips).
        for action, cause, cost in zip(actions, skips.tolist(), costs.tolist()):
            if cause:
                self._skip_action(epoch, "replicate", action, _SKIP_CAUSES[cause], stats)
                continue
            self._emit(
                "replicate",
                epoch,
                server=action.target_sid,
                partition=action.partition,
                reason=action.reason,
                cost=cost,
                source=action.source_sid,
                dc=servers[action.target_sid].dc,
                source_dc=servers[action.source_sid].dc,
            )
        return stats

    def _replicate_costs(
        self, parts: np.ndarray, srcs: np.ndarray, tgts: np.ndarray
    ) -> np.ndarray | None:
        """Per-action Eq. 1 cost, or ``None`` when the per-action path
        would raise or skip an action as unreachable.

        Checked against the state before the first action: replications
        never kill a server or remove a copy, so an action valid then is
        valid when its turn comes (a source that only gains its copy
        earlier in the list is sent to the per-action path).
        """
        self._refresh_server_arrays()
        num_servers = self.cluster.num_servers
        ends = np.concatenate((srcs, tgts))
        if (
            int(parts.min()) < 0
            or int(parts.max()) >= self._state.num_partitions
            or int(ends.min()) < 0
            or int(ends.max()) >= num_servers
        ):
            return None
        if not bool(self._alive_mask_array()[ends].all()):
            return None
        if not bool((self._state.R[parts, srcs] > 0).all()):
            return None
        # Eq. 1 per (source DC, target DC) pair from the scalar formula;
        # ``inf`` marks a pair the per-action path skips as unreachable.
        table = self._pair_costs
        dcs = self._dc_of_array
        src_dc = dcs[srcs]
        dst_dc = dcs[tgts]
        costs = table[src_dc, dst_dc]
        missing = np.isnan(costs)
        if bool(missing.any()):
            pairs = set(zip(src_dc[missing].tolist(), dst_dc[missing].tolist()))
            for s_dc, d_dc in sorted(pairs):
                table[s_dc, d_dc] = (
                    replication_cost(
                        self._transfer_distance_km(s_dc, d_dc),
                        self.config.rfh.failure_rate,
                        self.config.workload.partition_size_mb,
                        self.config.cluster.replication_bandwidth_mb,
                    )
                    if self.router.reachable(s_dc, d_dc)
                    else np.inf
                )
            costs = table[src_dc, dst_dc]
        if bool(np.isinf(costs).any()):
            return None
        return costs

    def _replicate_skips(self, srcs: np.ndarray, tgts: np.ndarray) -> np.ndarray:
        """Per action: 0 when admitted, else the index of its skip cause
        in ``_SKIP_CAUSES`` (storage gate checked before bandwidth).

        Each touched server's slots — copies it can store, transfers it
        can send — are its replayed gate sequence capped at its demand.
        When no server's demand exceeds its slots every action is
        admitted; otherwise only the actions touching a contended server
        are scanned, in action order, against the remaining slots (an
        uncontended server admits whatever reaches it).
        """
        servers = self.cluster.servers
        size = self.config.workload.partition_size_mb
        phi = self.config.rfh.phi
        want_store = np.bincount(tgts, minlength=len(servers))
        want_send = np.bincount(srcs, minlength=len(servers))
        store_slots = want_store.copy()
        send_slots = want_send.copy()
        for sid in np.flatnonzero(want_store).tolist():
            store_slots[sid] = servers[sid].storage_slots(size, phi, int(want_store[sid]))
        for sid in np.flatnonzero(want_send).tolist():
            send_slots[sid] = servers[sid].replication_slots(size, int(want_send[sid]))
        skips = np.zeros(srcs.shape[0], dtype=np.int8)
        store_busy = want_store > store_slots
        send_busy = want_send > send_slots
        if not (bool(store_busy.any()) or bool(send_busy.any())):
            return skips
        scan = np.flatnonzero(store_busy[tgts] | send_busy[srcs])
        store_left = store_slots.tolist()
        send_left = send_slots.tolist()
        for i, target, source in zip(scan.tolist(), tgts[scan].tolist(), srcs[scan].tolist()):
            if not store_left[target]:
                skips[i] = _SKIP_STORAGE
            elif not send_left[source]:
                skips[i] = _SKIP_SEND
            else:
                store_left[target] -= 1
                send_left[source] -= 1
        return skips

    # ------------------------------------------------------------------
    # Record-phase overrides
    # ------------------------------------------------------------------
    def _alive_mask_array(self) -> np.ndarray:
        # Liveness only changes in the membership phase, before any
        # reader runs, so one snapshot per epoch is exact.
        epoch = self.clock.epoch
        if (
            epoch != self._alive_epoch
            or self._alive_cache.shape[0] != self.cluster.num_servers
        ):
            self._alive_cache = super()._alive_mask_array()
            self._alive_epoch = epoch
        return self._alive_cache

    def _alive_server_count(self) -> int:
        return int(np.count_nonzero(self._alive_mask_array()))

    def _total_replicas(self) -> int:
        # The maintained per-partition counts are exact integer row sums
        # of ``R``, so their total is ``R.sum()`` at O(P) instead of O(P·S).
        if self._state.version != self._total_version:
            self._total_cache = int(self._state.replica_counts().sum())
            self._total_version = self._state.version
        return self._total_cache

    def _ensure_mask_cache(self) -> None:
        """Refresh the replica-cell index cache when the layout moved."""
        state = self._state
        if state.version == self._mask_version and state.R.shape == self._mask_shape:
            return
        rows, cols, counts = state.cells()
        self._mask_rows = rows
        self._mask_cols = cols
        self._mask_cap = self._server_capacity_array()[cols]
        self._mask_cnt_f = counts.astype(np.float64)
        self._mask_cap_ok = not bool((self._mask_cap <= 0).any())
        self._mask_version = state.version
        self._mask_shape = state.R.shape

    def _utilization_value(
        self, served_server: np.ndarray, counts: np.ndarray, capacities: np.ndarray
    ) -> float:
        """Eq. 21 via cached replica-cell indices, bit-identical.

        Divide and clamp run on exactly the masked cells (same per-cell
        IEEE-754 ops as the dense formula); every other cell of the
        fill matrix is an exact 0.0 in both versions, so the final
        full-matrix ``sum`` reduces the same values in the same order.
        """
        self._ensure_mask_cache()
        total = self._total_replicas()
        if total == 0:
            return 0.0
        if not self._mask_cap_ok:
            raise SimulationError(
                "replica-holding servers must have positive capacity"
            )
        fills = self._fills
        if fills.shape != served_server.shape:
            fills = np.zeros_like(served_server)
            self._fills = fills
        vals = served_server[self._mask_rows, self._mask_cols] / self._mask_cap
        fills[self._mask_rows, self._mask_cols] = np.minimum(vals, self._mask_cnt_f)
        out = float(fills.sum() / total)
        fills[self._mask_rows, self._mask_cols] = 0.0
        return out

    def _load_cv_value(self, served_server: np.ndarray, counts: np.ndarray) -> float:
        """Normalised Eq. 26 via cached replica-cell indices."""
        self._ensure_mask_cache()
        total = self._total_replicas()
        if total == 0:
            return 0.0
        # Divide by the float64 mirror of the counts: same IEEE-754
        # quotient bits (int64→float64 is exact below 2**53), but the
        # dtype transition is explicit instead of numpy's promotion.
        per_copy = served_server[self._mask_rows, self._mask_cols] / self._mask_cnt_f
        weights = self._mask_cnt_f
        mean = float((per_copy * weights).sum() / total)
        if mean <= 0.0:
            return 0.0
        var = float((weights * (per_copy - mean) ** 2).sum() / total)
        return float(np.sqrt(max(0.0, var)) / mean)

    def _server_imbalance_value(
        self, per_server_load: np.ndarray, alive_mask: np.ndarray
    ) -> float:
        # With every server alive the boolean mask copies the whole
        # array; ``std`` over the original buffer reduces the same
        # values in the same order.
        if self._alive_server_count() == self.cluster.num_servers:
            return float(per_server_load.std())
        return server_load_imbalance(per_server_load, alive_mask)

    def _availability_summary(self) -> AvailabilitySummary:
        """Table-driven Eq. 9 roll-up, bit-identical to the scalar one.

        Per-count availabilities come from a lookup table whose entries
        are computed by the *scalar* :func:`availability_at_least_one`,
        and the mean uses ``np.add.accumulate`` — the same left-to-right
        addition order as the scalar fold from ``0.0`` (``0.0 + a0 ==
        a0`` exactly, so the missing leading zero cannot change a bit).
        """
        state = self._state
        if state.version == self._avail_version and self._avail_cache is not None:
            return self._avail_cache
        counts = state.replica_counts()
        cmax = int(counts.max(initial=0))
        table = self._avail_table
        if cmax >= table.shape[0]:
            failure_rate = self.config.rfh.failure_rate
            vals = table.tolist()
            for r in range(table.shape[0], cmax + 1):
                vals.append(availability_at_least_one(r, failure_rate))
            table = np.array(vals, dtype=np.float64)
            self._avail_table = table
        av = table[counts]
        num = counts.shape[0]
        self._avail_cache = AvailabilitySummary(
            fraction_meeting_floor=int(np.count_nonzero(counts >= self.rmin)) / num,
            mean_availability=float(np.add.accumulate(av)[-1]) / num,
            min_availability=float(av.min()),
            lost_partitions=int(np.count_nonzero(counts == 0)),
        )
        self._avail_version = state.version
        return self._avail_cache
