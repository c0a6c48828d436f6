"""Dense mirrors of the authoritative scalar state.

:class:`SimState` is the columnar engine's view of the
:class:`~repro.cluster.replicas.ReplicaMap`: a ``(P, S)`` replica-count
matrix plus a partition→holder index, kept in sync through the map's
mutation callbacks (``attach_mirror``) instead of O(P·S) rebuilds, and a
row-major index of the nonzero cells that re-scans only the rows those
callbacks touched.  The
``ReplicaMap`` stays the single source of truth — every mutation still
goes through it, and the sanitizer keeps fingerprinting the map itself —
so the mirror can never *cause* divergence, only go stale (guarded by
the version counter and the equivalence suite).
"""

from __future__ import annotations

import numpy as np

from ...cluster.replicas import ReplicaMap

__all__ = ["SimState"]


class SimState:
    """Columnar replica-layout mirror.

    Attributes
    ----------
    R:
        ``(P, S)`` int64 replica-count matrix (the paper's ``m_ikt``).
        ``S`` grows in place when servers join.
    holder:
        ``(P,)`` int64 primary-holder server id per partition; ``-1``
        marks a partition whose every copy is lost.
    version:
        Monotonic mutation counter; derived caches (slot CSR,
        availability summary) key off it.
    """

    __slots__ = (
        "R",
        "holder",
        "version",
        "_num_partitions",
        "_counts",
        "_dirty",
        "_cells",
        "_row_nnz",
    )

    def __init__(self, num_partitions: int, num_servers: int) -> None:
        self._num_partitions = num_partitions
        self.R = np.zeros((num_partitions, num_servers), dtype=np.int64)
        self.holder = np.full(num_partitions, -1, dtype=np.int64)
        self.version = 0
        # Per-partition copy totals, maintained incrementally by
        # ``on_count`` (integer add/subtract, so always exactly the row
        # sum of ``R``) — callers treat the array as read-only.
        self._counts = np.zeros(num_partitions, dtype=np.int64)
        # Replica-cell index (see ``cells``): rows whose counts changed
        # since the last refresh, the cached (rows, cols, counts) triple
        # (``None`` = rebuild from scratch) and nonzero cells per row.
        self._dirty: set[int] = set()
        self._cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._row_nnz = np.zeros(num_partitions, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_servers(self) -> int:
        return int(self.R.shape[1])

    def replica_counts(self) -> np.ndarray:
        """Per-partition total copies (length P, read-only)."""
        return self._counts

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, counts)`` of every nonzero cell of ``R``.

        Row-major order — exactly ``np.nonzero(R)`` and ``R[rows, cols]``
        — so boolean-mask reductions over the layout see the same values
        in the same order.  Only rows marked dirty by ``on_count`` are
        re-scanned; the clean rows' entries are shifted into place by
        the new per-row offsets.  Callers treat the arrays as read-only.
        """
        cells = self._cells
        dirty = self._dirty
        if cells is not None and not dirty:
            return cells
        if cells is None or 2 * len(dirty) > self._num_partitions:
            rows, cols = np.nonzero(self.R)
            cells = (rows, cols, self.R[rows, cols])
            self._row_nnz = np.bincount(rows, minlength=self._num_partitions)
        else:
            cells = self._merge_dirty_rows(cells)
        dirty.clear()
        self._cells = cells
        return cells

    def _merge_dirty_rows(
        self, cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-scan the dirty rows and splice them into the cached index."""
        old_rows, old_cols, old_counts = cells
        old_nnz = self._row_nnz
        old_start = np.cumsum(old_nnz) - old_nnz
        dirty = np.fromiter(sorted(self._dirty), dtype=np.int64, count=len(self._dirty))
        block = self.R[dirty]
        local, new_cols = np.nonzero(block)
        new_counts = block[local, new_cols]
        new_rows = dirty[local]
        nnz = old_nnz.copy()
        nnz[dirty] = np.bincount(local, minlength=dirty.shape[0])
        start = np.cumsum(nnz) - nnz
        rows = np.empty(int(start[-1] + nnz[-1]), dtype=np.int64)
        cols = np.empty_like(rows)
        counts = np.empty_like(rows)
        # Clean rows keep their cells, shifted by the change in row start.
        is_dirty = np.zeros(self._num_partitions, dtype=bool)
        is_dirty[dirty] = True
        keep = ~is_dirty[old_rows]
        kept_rows = old_rows[keep]
        shift = start - old_start
        dest = np.nonzero(keep)[0] + shift[kept_rows]
        rows[dest] = kept_rows
        cols[dest] = old_cols[keep]
        counts[dest] = old_counts[keep]
        # Re-scanned cells land at their row's new start plus their rank
        # within the row (``np.nonzero`` is row-major, so ranks ascend).
        block_start = np.cumsum(nnz[dirty]) - nnz[dirty]
        dest = start[new_rows] + np.arange(new_rows.shape[0]) - block_start[local]
        rows[dest] = new_rows
        cols[dest] = new_cols
        counts[dest] = new_counts
        self._row_nnz = nnz
        return rows, cols, counts

    # ------------------------------------------------------------------
    # ReplicaMap mirror protocol
    # ------------------------------------------------------------------
    def on_count(self, partition: int, sid: int, count: int) -> None:
        """One (partition, server) count changed on the authoritative map."""
        if sid >= self.R.shape[1]:
            self.ensure_servers(sid + 1)
        self._counts[partition] += count - self.R[partition, sid]
        self.R[partition, sid] = count
        self._dirty.add(partition)
        self.version += 1

    def on_add_many(self, partitions: np.ndarray, sids: np.ndarray) -> None:
        """One copy was added per ``(partitions[k], sids[k])`` pair."""
        if int(sids.max()) >= self.R.shape[1]:
            self.ensure_servers(int(sids.max()) + 1)
        np.add.at(self.R, (partitions, sids), 1)
        np.add.at(self._counts, partitions, 1)
        self._dirty.update(partitions.tolist())
        self.version += 1

    def on_holder(self, partition: int, sid: int | None) -> None:
        """The primary-holder pointer moved (``None`` = all copies lost)."""
        self.holder[partition] = -1 if sid is None else sid
        self.version += 1

    def ensure_servers(self, num_servers: int) -> None:
        """Grow the server axis (joins only ever append columns)."""
        if num_servers <= self.R.shape[1]:
            return
        grown = np.zeros((self._num_partitions, num_servers), dtype=np.int64)
        grown[:, : self.R.shape[1]] = self.R
        self.R = grown
        self.version += 1

    # ------------------------------------------------------------------
    def sync(self, replicas: ReplicaMap, num_servers: int) -> None:
        """Full resync from the authoritative map (attach time)."""
        self.ensure_servers(num_servers)
        self.R[:, :] = 0
        for partition in range(self._num_partitions):
            for sid, count in replicas.servers_with(partition):
                self.R[partition, sid] = count
            self.holder[partition] = (
                replicas.holder(partition) if replicas.has_holder(partition) else -1
            )
        np.sum(self.R, axis=1, out=self._counts)
        self._cells = None
        self.version += 1
