"""One physical storage server.

Each server (Table I / Section III-A) has "a fixed storage capacity, and
... a fixed bandwidth and processing capacity to serve a certain number
of queries in each epoch.  It also has fixed replication and migration
bandwidth capacities.  However, for every server, their capacities are
different from each other."

A :class:`Server` is deliberately dumb: it tracks its own storage and
per-epoch bandwidth budgets and enforces local invariants; everything
about *what* is stored where lives in
:class:`~repro.cluster.replicas.ReplicaMap`.
"""

from __future__ import annotations

from ..errors import CapacityError, SimulationError
from ..geo.labels import GeoLabel

__all__ = ["Server"]


class Server:
    """A physical server with storage and bandwidth accounting.

    Parameters
    ----------
    sid:
        Global server index (stable for the lifetime of the simulation;
        failed servers keep their sid so recovery is an identity event).
    dc:
        Datacenter index the server lives in.
    label:
        Geographic label (``continent-country-datacenter-room-rack-server``).
    storage_capacity_mb:
        Total disk capacity.
    replica_capacity:
        Queries one replica hosted here can serve per epoch (the paper's
        ``C_ikl``; constant across replicas of one server, heterogeneous
        across servers).
    replication_bandwidth_mb / migration_bandwidth_mb:
        Per-epoch outbound budgets for replication and migration traffic.
    service_slots:
        Concurrent service positions, the ``c`` of the M/G/c blocking
        model (Eq. 18).
    """

    __slots__ = (
        "sid",
        "dc",
        "label",
        "storage_capacity_mb",
        "replica_capacity",
        "replication_bandwidth_mb",
        "migration_bandwidth_mb",
        "service_slots",
        "_storage_used_mb",
        "_replication_budget_mb",
        "_migration_budget_mb",
        "_alive",
    )

    def __init__(
        self,
        sid: int,
        dc: int,
        label: GeoLabel,
        storage_capacity_mb: float,
        replica_capacity: float,
        replication_bandwidth_mb: float,
        migration_bandwidth_mb: float,
        service_slots: int,
    ) -> None:
        if storage_capacity_mb <= 0:
            raise CapacityError(f"server {sid}: storage capacity must be > 0")
        if replica_capacity <= 0:
            raise CapacityError(f"server {sid}: replica capacity must be > 0")
        if service_slots < 1:
            raise CapacityError(f"server {sid}: service_slots must be >= 1")
        self.sid = sid
        self.dc = dc
        self.label = label
        self.storage_capacity_mb = float(storage_capacity_mb)
        self.replica_capacity = float(replica_capacity)
        self.replication_bandwidth_mb = float(replication_bandwidth_mb)
        self.migration_bandwidth_mb = float(migration_bandwidth_mb)
        self.service_slots = int(service_slots)
        self._storage_used_mb = 0.0
        self._replication_budget_mb = self.replication_bandwidth_mb
        self._migration_budget_mb = self.migration_bandwidth_mb
        self._alive = True

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the server is currently up."""
        return self._alive

    def fail(self) -> None:
        """Take the server down; its stored data is lost (disk wiped)."""
        self._alive = False
        self._storage_used_mb = 0.0

    def recover(self) -> None:
        """Bring the server back up, empty (replicas must be re-placed)."""
        if self._alive:
            raise SimulationError(f"server {self.sid} is already alive")
        self._alive = True
        self._storage_used_mb = 0.0

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def storage_used_mb(self) -> float:
        """Megabytes currently stored."""
        return self._storage_used_mb

    @property
    def storage_utilization(self) -> float:
        """Fraction of storage in use, the ``S_i`` of Eq. 19."""
        return self._storage_used_mb / self.storage_capacity_mb

    def storage_gate_open(self, extra_mb: float, phi: float) -> bool:
        """Would storing ``extra_mb`` more keep utilisation *below* ``phi``?

        Implements Eq. 19 (``S_i < phi``, default 70 %): a server at or
        above the gate refuses replication and migration requests.
        """
        return (self._storage_used_mb + extra_mb) / self.storage_capacity_mb < phi

    def storage_slots(self, extra_mb: float, phi: float, limit: int) -> int:
        """How many of ``limit`` successive ``extra_mb`` copies would pass
        :meth:`storage_gate_open`, each stored before the next is gated.

        Replays on a local copy the float sequence that alternating
        :meth:`storage_gate_open` and :meth:`store` calls produce (the
        same expressions), so a batch can be sized without mutating the
        server.  The gate only closes as usage grows, so the copies
        admitted are a prefix.
        """
        used = self._storage_used_mb
        capacity = self.storage_capacity_mb
        slots = 0
        while slots < limit and (used + extra_mb) / capacity < phi:
            used += extra_mb
            slots += 1
        return slots

    def store(self, size_mb: float, copies: int = 1) -> None:
        """Account ``copies`` successive writes of ``size_mb`` each.

        The writes are added one at a time (the float sequence of
        ``copies`` single calls) and committed together: when one would
        fail, nothing is stored.

        Raises
        ------
        CapacityError
            If the server is down or a write exceeds raw capacity.
            (The *soft* gate ``phi`` is checked by placement logic; this
            hard check only guards physical capacity.)
        """
        if not self._alive:
            raise CapacityError(f"server {self.sid} is down")
        if size_mb < 0:
            raise CapacityError(f"cannot store a negative size: {size_mb}")
        used = self._storage_used_mb
        for _ in range(copies):
            if used + size_mb > self.storage_capacity_mb + 1e-9:
                raise CapacityError(
                    f"server {self.sid}: storing {size_mb} MB would exceed capacity "
                    f"({used}/{self.storage_capacity_mb} MB used)"
                )
            used += size_mb
        self._storage_used_mb = used

    def release(self, size_mb: float) -> None:
        """Release previously stored data."""
        if size_mb < 0:
            raise CapacityError(f"cannot release a negative size: {size_mb}")
        if size_mb > self._storage_used_mb + 1e-9:
            raise SimulationError(
                f"server {self.sid}: releasing {size_mb} MB but only "
                f"{self._storage_used_mb} MB is stored"
            )
        self._storage_used_mb = max(0.0, self._storage_used_mb - size_mb)

    # ------------------------------------------------------------------
    # Per-epoch bandwidth budgets
    # ------------------------------------------------------------------
    def reset_epoch_budgets(self) -> None:
        """Refill the replication/migration budgets at an epoch boundary."""
        self._replication_budget_mb = self.replication_bandwidth_mb
        self._migration_budget_mb = self.migration_bandwidth_mb

    @property
    def replication_budget_mb(self) -> float:
        """Outbound replication bandwidth left this epoch."""
        return self._replication_budget_mb

    @property
    def migration_budget_mb(self) -> float:
        """Outbound migration bandwidth left this epoch."""
        return self._migration_budget_mb

    def replication_slots(self, size_mb: float, limit: int) -> int:
        """How many of ``limit`` successive ``size_mb`` transfers
        :meth:`consume_replication_bandwidth` would accept.

        Replays the budget's float sequence on a local copy (the same
        expressions); the budget only shrinks, so the transfers accepted
        are a prefix.
        """
        budget = self._replication_budget_mb
        slots = 0
        while slots < limit and not size_mb > budget + 1e-9:
            budget -= size_mb
            slots += 1
        return slots

    def consume_replication_bandwidth(self, size_mb: float, copies: int = 1) -> bool:
        """Try to reserve replication bandwidth for ``copies`` successive
        transfers; False, with nothing reserved, when the budget runs out
        first."""
        budget = self._replication_budget_mb
        for _ in range(copies):
            if size_mb > budget + 1e-9:
                return False
            budget -= size_mb
        self._replication_budget_mb = budget
        return True

    def consume_migration_bandwidth(self, size_mb: float) -> bool:
        """Try to reserve migration bandwidth; False when exhausted."""
        if size_mb > self._migration_budget_mb + 1e-9:
            return False
        self._migration_budget_mb -= size_mb
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "DOWN"
        return f"Server(sid={self.sid}, dc={self.dc}, {state}, label={self.label})"
