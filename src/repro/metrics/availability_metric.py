"""System availability against the Eq. 14 floor.

Summarises the replica map into the quantities the resilience
experiments (Fig. 10) track: how many partitions currently satisfy the
minimum replica count, the mean per-partition availability under the
independent-failure model (``1 − f^r``), and how many partitions are in
the lost state (no copy anywhere, awaiting restoration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from ..cluster.replicas import ReplicaMap
from ..core.availability import availability_at_least_one

__all__ = ["AvailabilitySummary", "availability_summary"]


@dataclass(frozen=True)
class AvailabilitySummary:
    """Per-epoch availability roll-up."""

    #: Fraction of partitions with replica count >= r_min.
    fraction_meeting_floor: float
    #: Mean of ``1 − f^r`` over all partitions (lost partitions count 0).
    mean_availability: float
    #: Minimum per-partition availability this epoch.
    min_availability: float
    #: Number of partitions with zero copies.
    lost_partitions: int


def availability_summary(
    replicas: ReplicaMap, failure_rate: float, rmin: int
) -> AvailabilitySummary:
    """Evaluate the summary over the current replica map."""
    counts = replicas.per_partition_counts()
    availabilities = [
        availability_at_least_one(r, failure_rate) if r > 0 else 0.0 for r in counts
    ]
    meeting = sum(1 for r in counts if r >= rmin)
    return AvailabilitySummary(
        fraction_meeting_floor=meeting / len(counts),
        # An explicit left-to-right fold: builtin ``sum`` of floats is
        # compensated since Python 3.12, which the columnar engine's
        # ``np.add.accumulate`` does not reproduce.
        mean_availability=reduce(add, availabilities, 0.0) / len(availabilities),
        min_availability=min(availabilities),
        lost_partitions=sum(1 for r in counts if r == 0),
    )
