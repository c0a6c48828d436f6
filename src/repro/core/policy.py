"""The engine-facing RFH algorithm.

:class:`RFHPolicy` owns the smoothing state of Eqs. 10–11 (each virtual
node "periodically calculates its traffic load" against history) and
runs the Fig. 2 decision tree for every partition each epoch.  It is the
``"rfh"`` entry of the four-algorithm comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..config import RFHParameters
from ..sim.actions import Action, Replicate
from ..sim.observation import EpochObservation
from ..sim.reasons import AVAILABILITY
from .decision import (
    SUICIDE_HEADROOM,
    SUICIDE_IDLE_BAR,
    RFHDecision,
)
from .placement import choose_lowest_blocking
from .smoothing import Ewma
from .thresholds import UNSERVED_TOLERANCE
from .traffic import _null_span

if TYPE_CHECKING:
    from ..obs.perf.counters import WorkCounters
    from ..sim.columnar.state import SimState
    from ..workload.query import QueryBatch

__all__ = ["RFHPolicy", "ReplicaAges"]

#: Below-floor partitions per block of the bulk availability placement;
#: bounds its (block × D) temporaries.  A memory knob only — blocks are
#: independent, so the result does not depend on it.
_BULK_BLOCK = 2048


class ReplicaAges:
    """Lazy ``(partition, sid) → age-in-epochs`` view of the birth ledger.

    The decision tree only ever looks up replicas of the partition it is
    evaluating, so resolving ages on demand (instead of materialising a
    dict over every recorded birth each epoch) returns the identical
    values at O(lookups) cost.
    """

    __slots__ = ("_birth", "_epoch")

    def __init__(self, birth: dict[int, dict[int, int]], epoch: int) -> None:
        self._birth = birth
        self._epoch = epoch

    def get(self, key: tuple[int, int], default: int) -> int:
        by_sid = self._birth.get(key[0])
        if by_sid is None:
            return default
        born = by_sid.get(key[1])
        return default if born is None else self._epoch - born


class RFHPolicy:
    """Resilient, Fault-tolerant, High-efficient replication (the paper)."""

    name = "rfh"

    def __init__(self, params: RFHParameters | None = None) -> None:
        self._params = params if params is not None else RFHParameters()
        self._avg_query = Ewma(self._params.alpha)  # Eq. 10, per partition
        self._holder_traffic = Ewma(self._params.alpha)  # Eq. 11 at the holder
        self._unserved = Ewma(self._params.alpha)  # blocked-query signal
        # The two matrix-shaped EWMAs — Eq. 11's (partition, dc) traffic
        # and the per-(partition, server) served signal — are kept by
        # hand: updated in place on the rows that ever had a query (the
        # same per-element multiply/add sequence :class:`Ewma` performs,
        # so values stay bit-identical; see :meth:`_smoothed_rows`)
        # because at scale almost every row is an exact zero.  The
        # server axis can also grow when nodes join mid-run.
        self._traffic: np.ndarray | None = None  # Eq. 11, per (partition, dc)
        self._served: np.ndarray | None = None
        self._ever_active = np.zeros(0, dtype=bool)
        self._active_rows = np.zeros(0, dtype=np.int64)
        # Birth epoch of replicas this policy created, for the suicide
        # warm-up exemption, indexed partition → {sid: epoch} so the age
        # view can be built only for the partitions under evaluation.
        self._birth: dict[int, dict[int, int]] = {}
        self._decision = RFHDecision(self._params)
        # Perf instrumentation (opt-in via attach_perf): a kernel-span
        # factory and the shared work counters.
        self._span = _null_span
        self._work: WorkCounters | None = None
        # Columnar decision prefilter (opt-in via attach_columnar_state):
        # with a dense replica mirror available, partitions that provably
        # take no branch of the Fig. 2 tree are skipped in bulk, and those
        # that provably take the availability Replicate are settled in
        # bulk.  Scalar runs never attach one, so the reference loop
        # stays untouched.
        self._columnar_state: SimState | None = None
        self._provenance_attached = False
        self._arange_servers = np.zeros(0, dtype=np.int64)
        self._server_dc = np.zeros(0, dtype=np.int64)

    @property
    def params(self) -> RFHParameters:
        return self._params

    def attach_perf(self, *, profiler=None, work: "WorkCounters | None" = None) -> None:
        """Opt into perf observability (``repro.obs.perf``).

        ``profiler`` (when it supports spans) times the EWMA-smoothing
        and decision-evaluation kernels; ``work`` counts decisions
        evaluated.  Called by the engine when either is attached.
        """
        if profiler is not None and getattr(profiler, "supports_spans", False):
            self._span = profiler.span
        self._work = work
        self._decision.attach_perf(work=work, span=self._span)

    def attach_provenance(self, recorder) -> None:
        """Opt into decision-provenance recording (``repro.obs.provenance``)."""
        self._decision.attach_provenance(recorder)
        # Drafts open per evaluated partition, so the prefilter must not
        # skip any while a recorder is attached (ledger completeness).
        self._provenance_attached = recorder is not None

    def attach_columnar_state(self, state: "SimState") -> None:
        """Opt into the columnar decision prefilter (``repro.sim.columnar``)."""
        self._columnar_state = state

    def decide(self, obs: EpochObservation) -> list[Action]:
        """Run the decision tree over all partitions for one epoch."""
        with self._span("ewma-smoothing"):
            avg_query = np.asarray(self._avg_query.update(obs.system_average_query()))
            rows = self._smoothed_rows(obs.queries)
            traffic = self._update_traffic(obs.traffic_dc, rows)
            holder_traffic = np.asarray(
                self._holder_traffic.update(obs.holder_traffic)
            )
            unserved = np.asarray(self._unserved.update(obs.unserved))
            served = self._update_served(obs.served_server, rows)
        actions: list[Action] = []
        with self._span("decision-eval"):
            partitions, settled = self._decision_partitions(
                obs, avg_query, traffic, holder_traffic, unserved, served
            )
            age = self._replica_ages(obs.epoch)
            for partition in partitions:
                action = settled.get(partition)
                if action is not None:
                    actions.append(action)
                    continue
                actions.extend(
                    self._decision.decide_partition(
                        partition,
                        obs,
                        float(avg_query[partition]),
                        traffic[partition],
                        float(holder_traffic[partition]),
                        served[partition],
                        float(unserved[partition]),
                        replica_age=age,
                    )
                )
        self._record_births(obs.epoch, actions)
        return actions

    def _decision_partitions(
        self,
        obs: EpochObservation,
        avg_query: np.ndarray,
        traffic: np.ndarray,
        holder_traffic: np.ndarray,
        unserved: np.ndarray,
        served: np.ndarray,
    ) -> "tuple[range | list[int], dict[int, Action]]":
        """Partitions the decision tree must visit this epoch, in order,
        and the actions of those already settled in bulk.

        Without a columnar mirror (or with provenance attached) this is
        every partition and nothing settled — the scalar reference
        behaviour.  With one, a conservative vectorized evaluation of
        the Fig. 2 predicates skips partitions that provably return no
        action: availability floor met, holder neither blocked nor past
        Eq. 12 on both the smoothed and raw signal, and no replica that
        could clear the suicide gates.  Every comparison below is the
        same IEEE-754 operation the scalar tree performs on the same
        float64 values, so a skipped partition is exactly one whose
        evaluation would be a no-op.  Below-floor partitions whose
        availability ``Replicate`` is provable are settled by
        :meth:`_bulk_availability`.  Skipped and settled evaluations are
        re-credited to the ``decisions_evaluated`` work counter in bulk.
        """
        state = self._columnar_state
        num_servers = served.shape[1]
        if (
            state is None
            or self._provenance_attached
            or state.num_servers != num_servers
        ):
            return range(obs.num_partitions), {}
        params = self._params
        tol = np.maximum(UNSERVED_TOLERANCE, 0.5 * avg_query)
        blocked = unserved > tol
        # Eq. 12's zero-demand guard (see thresholds.is_holder_overloaded):
        # q̄ = 0 pins the overload comparison false, element-wise here.
        demand = avg_query > 0.0
        beta_bar = params.beta * avg_query
        raw_holder = obs.holder_traffic
        threshold_hit = (
            demand & (holder_traffic >= beta_bar) & (raw_holder >= beta_bar)
        )
        overload = blocked | threshold_hit
        relaxed_bar = (params.beta * SUICIDE_HEADROOM) * avg_query
        comfortable = (unserved <= SUICIDE_HEADROOM * tol) & ~(
            demand & (holder_traffic >= relaxed_bar)
        )
        # A suicide is only *possible* when some non-holder replica sits
        # under both the Eq. 15 bar and the idle bar (age is checked in
        # the tree itself — ignoring it here only costs an evaluation).
        # The per-server scan runs only on rows that already cleared the
        # comfortable/floor gates — the candidate predicate is pure and
        # elementwise, so restricting its evaluation changes nothing.
        counts = state.replica_counts()
        shrinkable = comfortable & (counts - 1 >= obs.rmin)
        may_shrink = shrinkable
        rows = np.nonzero(shrinkable)[0]
        if rows.shape[0]:
            arange = self._arange_servers
            if arange.shape[0] != num_servers:
                arange = np.arange(num_servers)
                self._arange_servers = arange
            delta_bar = params.delta * avg_query
            served_rows = served[rows]
            candidate_rows = (
                (state.R[rows] > 0)
                & (arange[None, :] != state.holder[rows, None])
                & (served_rows <= delta_bar[rows, None])
                & (served_rows <= SUICIDE_IDLE_BAR)
            ).any(axis=1)
            may_shrink = np.zeros(counts.shape[0], dtype=bool)
            may_shrink[rows] = candidate_rows
        held = state.holder >= 0
        floor_met = counts >= obs.rmin
        skip = held & floor_met & ~overload & ~may_shrink
        below = np.nonzero(held & ~floor_met)[0]
        settled = self._bulk_availability(obs, traffic, below) if below.shape[0] else {}
        if self._work is not None:
            self._work.decisions_evaluated += int(np.count_nonzero(skip)) + len(settled)
        return np.nonzero(~skip)[0].tolist(), settled

    def _bulk_availability(
        self, obs: EpochObservation, traffic: np.ndarray, below: np.ndarray
    ) -> dict[int, Action]:
        """Fig. 2's availability branch for held, below-floor partitions.

        For such a partition the tree sorts datacenters by (has a copy,
        traffic descending, index) and replicates from the holder to the
        lowest-blocking eligible server of the first one that has any.
        When some *fresh* datacenter (no copy) has an eligible server,
        that first one is the first-index argmax of the Eq. 11 traffic
        row over those fresh datacenters — and no server of a fresh
        datacenter holds a copy, so its pick needs no exclusion set and
        is one :func:`choose_lowest_blocking` call per datacenter per
        epoch.  Deciding never mutates state, so the picks hold for
        every partition.  Partitions with no fresh eligible datacenter
        are left out (the tree visits them); the suicide branch is
        unreachable here because ``count - 1 < r_min``.
        """
        state = self._columnar_state
        assert state is not None
        cluster = obs.cluster
        picks = [
            choose_lowest_blocking(
                cluster,
                dc,
                obs.blocking_probability,
                obs.partition_size_mb,
                self._params.phi,
            )
            for dc in range(obs.num_datacenters)
        ]
        pick = np.array([-1 if sid is None else sid for sid in picks], dtype=np.int64)
        closed = pick < 0
        if bool(closed.all()):
            return {}
        if self._server_dc.shape[0] != cluster.num_servers:
            self._server_dc = np.array([s.dc for s in cluster.servers], dtype=np.int64)
        # The below-floor partitions' copies as (row in ``below``, dc)
        # pairs.  Cells are row-major and ``below`` ascends, so
        # ``copy_row`` ascends and each block's copies are one run.
        rows, cols, _ = state.cells()
        slot = np.full(state.num_partitions, -1, dtype=np.int64)
        slot[below] = np.arange(below.shape[0])
        local = slot[rows]
        mine = local >= 0
        copy_row = local[mine]
        copy_dc = self._server_dc[cols[mine]]
        settled: dict[int, Action] = {}
        for start in range(0, below.shape[0], _BULK_BLOCK):
            block = below[start : start + _BULK_BLOCK]
            lo, hi = np.searchsorted(copy_row, (start, start + block.shape[0]))
            rank = traffic[block]
            rank[:, closed] = -np.inf
            rank[copy_row[lo:hi] - start, copy_dc[lo:hi]] = -np.inf
            best = rank.argmax(axis=1)
            ok = rank[np.arange(block.shape[0]), best] > -np.inf
            for partition, source, target in zip(
                block[ok].tolist(),
                state.holder[block[ok]].tolist(),
                pick[best[ok]].tolist(),
            ):
                settled[partition] = Replicate(
                    partition, source, target, reason=AVAILABILITY
                )
        return settled

    def _replica_ages(self, epoch: int) -> ReplicaAges:
        """Age view of policy-placed replicas, resolved on lookup."""
        return ReplicaAges(self._birth, epoch)

    def _record_births(self, epoch: int, actions: list[Action]) -> None:
        """Track creation epochs of replicas this policy just placed."""
        from ..sim.actions import Migrate, Replicate, Suicide

        for action in actions:
            if isinstance(action, Replicate):
                self._birth.setdefault(action.partition, {})[action.target_sid] = epoch
            elif isinstance(action, Migrate):
                by_sid = self._birth.setdefault(action.partition, {})
                by_sid[action.target_sid] = epoch
                by_sid.pop(action.source_sid, None)
            elif isinstance(action, Suicide):
                by_sid = self._birth.get(action.partition)
                if by_sid is not None:
                    by_sid.pop(action.sid, None)

    def _smoothed_rows(self, queries: "QueryBatch") -> np.ndarray:
        """Ascending partitions that have had a query in some epoch so far.

        A row without queries is exactly zero in the raw traffic and
        served matrices (:meth:`QueryBatch.active_rows`), and a row that
        is ``+0.0`` in both the old EWMA and the raw input stays
        ``(1 - α)·0 + α·0 = +0.0``.  So every row outside this set is
        zero in the dense EWMAs too, and updating only these rows leaves
        every element bit-identical.
        """
        ever = self._ever_active
        if ever.shape[0] != queries.num_partitions:
            ever = np.zeros(queries.num_partitions, dtype=bool)
            self._ever_active = ever
        rows = queries.active_rows()
        fresh = rows[~ever[rows]]
        if fresh.shape[0]:
            ever[fresh] = True
            self._active_rows = np.flatnonzero(ever)
        return self._active_rows

    def _update_traffic(self, raw: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """EWMA of the (P, D) traffic matrix (Eq. 11), in place on ``rows``.

        Per element this performs ``(1 - α)·old``, ``α·raw``, then their
        sum — the exact operation sequence :class:`Ewma` runs.  The
        first epoch copies the raw matrix, as :class:`Ewma` does.
        """
        if self._traffic is None:
            self._traffic = raw.astype(np.float64, copy=True)
        else:
            self._smooth_rows(self._traffic, raw, rows)
        return self._traffic

    def _update_served(self, raw: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """EWMA of the (P, S) served matrix, padding on server growth.

        In place on ``rows``, same element sequence as
        :meth:`_update_traffic`.
        """
        if self._served is None:
            self._served = raw.astype(np.float64, copy=True)
            return self._served
        if raw.shape[1] > self._served.shape[1]:
            grown = np.zeros_like(raw, dtype=np.float64)
            grown[:, : self._served.shape[1]] = self._served
            self._served = grown
        self._smooth_rows(self._served, raw, rows)
        return self._served

    def _smooth_rows(self, smoothed: np.ndarray, raw: np.ndarray, rows: np.ndarray) -> None:
        """``smoothed[rows] = (1 - α)·smoothed[rows] + α·raw[rows]``."""
        alpha = self._params.alpha
        block = smoothed[rows]
        np.multiply(block, 1.0 - alpha, out=block)
        block += np.multiply(raw[rows], alpha)
        smoothed[rows] = block
