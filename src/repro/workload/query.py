"""The per-epoch query matrix.

All downstream maths (Eqs. 2–13) is expressed over ``q_ijt`` — "the
number of queries for a partition B_i, during a unit time period, from
requester j".  :class:`QueryBatch` is exactly that matrix for one epoch:
``counts[i, j]`` = queries for partition ``i`` raised near datacenter
``j`` ("we regard queries closest to datacenter j as from requester j").

One Poisson(λ) draw spread over P·D cells leaves almost every cell zero
at scale (≈0.07 % nonzero at 2·10⁴ × 100), so a batch stores only its
nonzero cells: their ascending row-major flat indices and int64 counts.
Every reduction is an exact integer accumulation over those cells, and
:attr:`QueryBatch.counts` rebuilds the dense matrix on demand for the
consumers that walk it cell by cell.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

__all__ = ["QueryBatch"]

#: ``float(2**63)`` — the first float that no longer fits in int64.
_INT64_LIMIT = float(2**63)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class QueryBatch:
    """Immutable (partitions x datacenters) query counts for one epoch."""

    __slots__ = ("_epoch", "_shape", "_flat", "_values", "_total", "_active")

    def __init__(self, epoch: int, counts: np.ndarray) -> None:
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise WorkloadError(f"counts must be 2-D, got shape {counts.shape}")
        if counts.size == 0:
            raise WorkloadError("counts must be non-empty")
        if np.any(counts < 0):
            raise WorkloadError("query counts must be non-negative")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts)):
                raise WorkloadError("query counts must be finite")
            if np.any(counts >= _INT64_LIMIT):
                raise WorkloadError("query counts must fit in int64")
            if not np.all(counts == np.floor(counts)):
                raise WorkloadError("query counts must be integral")
        elif counts.dtype.kind == "u" and np.any(counts > np.iinfo(np.int64).max):
            raise WorkloadError("query counts must fit in int64")
        flat = np.flatnonzero(counts)
        values = counts.ravel()[flat].astype(np.int64)
        self._init(epoch, counts.shape, flat, values)

    @classmethod
    def from_cells(
        cls,
        epoch: int,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
    ) -> "QueryBatch":
        """Wrap nonzero cells the caller owns, skipping the dense checks.

        For generators only: ``flat`` must be the ascending row-major
        indices of exactly the nonzero cells of a ``shape`` matrix and
        ``values`` their positive int64 counts, both fresh arrays with no
        other writable references (``np.flatnonzero`` and a gather of a
        fresh draw satisfy this).
        """
        batch = cls.__new__(cls)
        batch._init(epoch, shape, flat, values)
        return batch

    def _init(
        self, epoch: int, shape: tuple[int, int], flat: np.ndarray, values: np.ndarray
    ) -> None:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        self._epoch = epoch
        self._shape = (int(shape[0]), int(shape[1]))
        self._flat = _frozen(flat)
        self._values = _frozen(values)
        self._total = int(values.sum())
        self._active: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch this batch belongs to."""
        return self._epoch

    @property
    def shape(self) -> tuple[int, int]:
        """``(P, D)``: partitions x origin datacenters."""
        return self._shape

    @property
    def counts(self) -> np.ndarray:
        """A fresh read-only dense ``(P, D)`` count matrix (``q_ijt``)."""
        dense = np.zeros(self._shape[0] * self._shape[1], dtype=np.int64)
        dense[self._flat] = self._values
        return _frozen(dense.reshape(self._shape))

    @property
    def cell_counts(self) -> np.ndarray:
        """int64 counts of the nonzero cells in row-major order (read-only),
        aligned with :meth:`nonzero`."""
        return self._values

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the nonzero cells — ``np.nonzero(counts)``."""
        rows, cols = np.divmod(self._flat, self._shape[1])
        return rows, cols

    def active_rows(self) -> np.ndarray:
        """Ascending partitions with at least one query this epoch
        (read-only, computed once).

        Serving touches no other row: every row outside this set is
        exactly zero in the epoch's traffic and served matrices.
        """
        if self._active is None:
            rows = self._flat // self._shape[1]
            # Cells are row-major, so rows are non-decreasing: a row
            # starts where it differs from the cell before it.
            start = np.ones(rows.shape[0], dtype=bool)
            np.not_equal(rows[1:], rows[:-1], out=start[1:])
            self._active = _frozen(rows[start])
        return self._active

    @property
    def num_partitions(self) -> int:
        return self._shape[0]

    @property
    def num_origins(self) -> int:
        return self._shape[1]

    @property
    def total(self) -> int:
        """Total queries this epoch."""
        return self._total

    def per_partition(self) -> np.ndarray:
        """Queries per partition, summed over origins (length P)."""
        out = np.zeros(self._shape[0], dtype=np.int64)
        np.add.at(out, self._flat // self._shape[1], self._values)
        return out

    def per_origin(self) -> np.ndarray:
        """Queries per origin datacenter, summed over partitions (length D)."""
        out = np.zeros(self._shape[1], dtype=np.int64)
        np.add.at(out, self._flat % self._shape[1], self._values)
        return out

    def system_average_query(self) -> np.ndarray:
        """Eq. 9: per-partition average over the N requesters,
        ``q̄_it = Σ_j q_ijt / N``."""
        return self.per_partition() / self._shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryBatch):
            return NotImplemented
        return (
            self._epoch == other._epoch
            and self._shape == other._shape
            and np.array_equal(self._flat, other._flat)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:  # batches are value objects
        return hash((self._epoch, self._shape, self._flat.tobytes(), self._values.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryBatch(epoch={self._epoch}, shape={self._shape}, total={self._total})"
