"""The :class:`ProvenanceRecorder`: decision ledger capture.

The recorder is attached to a policy's decision tree (the RFH tree
opens a :class:`~repro.obs.provenance.records.DecisionDraft` per
partition per epoch and closes it with the emitted actions) and
subscribes to the engine's applied-action and ``action_skipped``
events (:meth:`ProvenanceRecorder.on_event` stamps each action's
applied/skipped fate back onto its decision record).  Baseline
policies that never open drafts still get minimal synthesized records
per applied/skipped action, so the lineage guarantee — every applied
or skipped action has a provenance record — holds for every policy.

Budget: the ledger keeps at most ``budget`` records.  When the cap is
exceeded the *oldest no-op* records (``action == "none"`` and
``fate == "none"``) are dropped first, deterministically, and the count
of drops per epoch is kept in :attr:`ProvenanceRecorder.noop_dropped`
so a reader can tell compaction from absence.  Records that carry an
action are never dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from .artifact import ProvArtifact
from .records import DecisionDraft, DecisionRecord

if TYPE_CHECKING:
    from ..trace import TraceEvent

__all__ = ["DEFAULT_BUDGET", "ProvenanceRecorder"]

#: Default ledger budget (decision records kept before compaction).
DEFAULT_BUDGET = 50_000


def _action_fields(action: object) -> tuple[str, str, int, int]:
    """(kind, reason, target_sid, source_sid) for any shipped action."""
    kind = type(action).__name__.lower()
    reason = str(getattr(action, "reason", ""))
    if kind == "suicide":
        return kind, reason, int(getattr(action, "sid", -1)), -1
    target = int(getattr(action, "target_sid", -1))
    source = int(getattr(action, "source_sid", -1))
    return kind, reason, target, source


class ProvenanceRecorder:
    """Accumulates :class:`DecisionRecord` rows across a run."""

    #: Engine event kinds that carry an action's fate.
    subscribes: tuple[str, ...] = ("replicate", "migrate", "suicide", "action_skipped")

    def __init__(self, budget: int = DEFAULT_BUDGET) -> None:
        if budget < 1:
            raise ValueError(f"provenance budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.meta: dict[str, object] = {}
        self._records: list[DecisionRecord] = []
        self._noop_dropped: dict[int, int] = {}
        # FIFO of record indices awaiting a fate, keyed by (partition,
        # action kind); valid for the current epoch only.
        self._pending: dict[tuple[int, str], list[int]] = {}
        self._pending_epoch = -1

    # ------------------------------------------------------------------
    # Decision-phase API (called by the instrumented decision tree)
    # ------------------------------------------------------------------
    def open(
        self,
        *,
        epoch: int,
        partition: int,
        avg_query: float,
        holder_traffic: float,
        unserved: float,
        mean_traffic: float,
        replica_count: int,
        rmin: int,
        holder_dc: int,
    ) -> DecisionDraft:
        """Start a draft for one partition's evaluation this epoch."""
        self._roll_epoch(epoch)
        return DecisionDraft(
            epoch=int(epoch),
            partition=int(partition),
            avg_query=float(avg_query),
            holder_traffic=float(holder_traffic),
            unserved=float(unserved),
            mean_traffic=float(mean_traffic),
            replica_count=int(replica_count),
            rmin=int(rmin),
            holder_dc=int(holder_dc),
        )

    def close(
        self,
        draft: DecisionDraft,
        actions: Iterable[object],
        *,
        dc_of: Callable[[int], int] | None = None,
    ) -> None:
        """Seal a draft into a record, registering its actions for fate.

        ``dc_of`` (sid -> datacenter index) resolves the target
        datacenter of the decided action when available.
        """
        record = DecisionRecord(
            epoch=draft.epoch,
            partition=draft.partition,
            branch=draft.branch,
            avg_query=draft.avg_query,
            holder_traffic=draft.holder_traffic,
            unserved=draft.unserved,
            mean_traffic=draft.mean_traffic,
            replica_count=draft.replica_count,
            rmin=draft.rmin,
            holder_dc=draft.holder_dc,
            predicates=tuple(draft.predicates),
            candidates=tuple(draft.candidates),
        )
        index = len(self._records)
        for action in actions:
            kind, reason, target_sid, source_sid = _action_fields(action)
            record.action = kind
            record.reason = reason
            record.target_sid = target_sid
            record.source_sid = source_sid
            if dc_of is not None and target_sid >= 0:
                record.target_dc = int(dc_of(target_sid))
            self._pending.setdefault((record.partition, kind), []).append(index)
            break  # grow XOR shrink: at most one action per partition
        self._records.append(record)
        self._compact()

    # ------------------------------------------------------------------
    # Apply-phase events (delivered by the engine)
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        """Stamp an applied or skipped action's fate onto its record.

        Matches the oldest pending record for ``(partition, kind)``; if
        none exists (a policy that does not open drafts) a minimal
        record is synthesized from the event so the ledger still
        mirrors the engine's actions.
        """
        epoch = event.epoch
        self._roll_epoch(epoch)
        extra: dict[str, Any] = event.extra
        if event.kind == "action_skipped":
            kind = str(extra["action"])
            fate, cause, target_dc = "skipped", str(extra["cause"]), -1
        else:
            kind = event.kind
            fate, cause, target_dc = "applied", "", int(extra["dc"])
        partition = -1 if event.partition is None else event.partition
        queue = self._pending.get((partition, kind))
        if queue:
            record = self._records[queue.pop(0)]
            if not queue:
                del self._pending[(partition, kind)]
            record.fate = fate
            record.fate_cause = cause
            if target_dc >= 0:
                record.target_dc = target_dc
            return
        self._records.append(
            DecisionRecord(
                epoch=int(epoch),
                partition=partition,
                branch="",
                action=kind,
                reason=event.reason,
                target_sid=-1 if event.server is None else event.server,
                target_dc=target_dc,
                source_sid=int(extra.get("source", -1)),
                fate=fate,
                fate_cause=cause,
            )
        )
        self._compact()

    # ------------------------------------------------------------------
    def _roll_epoch(self, epoch: int) -> None:
        if epoch != self._pending_epoch:
            # A pending action that never received a fate keeps
            # fate == "none"; the cross-check will surface it.
            self._pending.clear()
            self._pending_epoch = epoch

    def _compact(self) -> None:
        overage = len(self._records) - self.budget
        if overage <= 0:
            return
        kept: list[DecisionRecord] = []
        for rec in self._records:
            if overage > 0 and rec.is_noop:
                self._noop_dropped[rec.epoch] = self._noop_dropped.get(rec.epoch, 0) + 1
                overage -= 1
            else:
                kept.append(rec)
        # Indices in the pending map are invalidated by compaction; remap
        # by identity so in-flight fates still land on the right record.
        if self._pending:
            position = {id(rec): i for i, rec in enumerate(kept)}
            for key, queue in list(self._pending.items()):
                remapped = [
                    position[id(self._records[i])]
                    for i in queue
                    if id(self._records[i]) in position
                ]
                if remapped:
                    self._pending[key] = remapped
                else:
                    del self._pending[key]
        self._records = kept

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[DecisionRecord, ...]:
        return tuple(self._records)

    @property
    def noop_dropped(self) -> dict[int, int]:
        return dict(self._noop_dropped)

    def artifact(self) -> ProvArtifact:
        """Freeze the ledger into a saveable artifact."""
        self._compact()
        return ProvArtifact(
            records=tuple(self._records),
            meta=dict(self.meta),
            budget=self.budget,
            noop_dropped=dict(self._noop_dropped),
        )
