"""Response-latency model and SLA attainment.

The paper's introduction motivates everything with Amazon's SLA:
"a Service Level Agreement (SLA) should guarantee a response within
300 ms for 99.9 % of its requests at a peak client load of 500 requests
per second.  Given that the slightest outage will impact customers'
trust ... a system should be built to provide all customers with a good
experience, rather than just the majority."

This module turns the service kernel's per-query WAN distances into that
currency:

* **network time** — round trip over the origin→serving-site distance at
  fibre propagation speed (2/3 c ≈ 200 000 km/s) plus a per-WAN-hop
  forwarding overhead;
* **service time** — a constant per-request processing cost;
* **blocked queries** — an SLA miss by definition (they got no answer
  inside the epoch).

The absolute milliseconds are a model, not a measurement; what the SLA
experiment compares is *relative* attainment across the four placement
algorithms on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LatencyModel", "LatencySummary"]

#: Signal propagation speed in optical fibre, km per millisecond.
FIBRE_KM_PER_MS: float = 200.0


@dataclass(frozen=True)
class LatencySummary:
    """Per-epoch latency roll-up."""

    #: Mean response latency over *served* queries, in milliseconds.
    mean_ms: float
    #: Fraction of all queries answered within the SLA bound
    #: (blocked queries count as misses).
    sla_attainment: float


@dataclass(frozen=True)
class LatencyModel:
    """Distance → response-time conversion.

    Parameters
    ----------
    service_ms:
        Fixed processing time per request at the serving replica.
    hop_overhead_ms:
        Per-WAN-hop forwarding/queueing overhead.
    sla_ms:
        The SLA bound (default: the intro's 300 ms).
    """

    service_ms: float = 5.0
    hop_overhead_ms: float = 2.0
    sla_ms: float = 300.0

    def __post_init__(self) -> None:
        if self.service_ms < 0 or self.hop_overhead_ms < 0:
            raise ConfigurationError("latency components must be >= 0")
        if self.sla_ms <= 0:
            raise ConfigurationError("sla_ms must be > 0")

    # ------------------------------------------------------------------
    def response_ms(self, distance_km: float, hops: float) -> float:
        """Round-trip response time for one query."""
        if distance_km < 0 or hops < 0:
            raise ConfigurationError("distance and hops must be >= 0")
        return (
            2.0 * distance_km / FIBRE_KM_PER_MS
            + hops * self.hop_overhead_ms
            + self.service_ms
        )

    def response_ms_array(self, distance_km: np.ndarray, hops: np.ndarray) -> np.ndarray:
        """:meth:`response_ms` lane by lane over broadcast arrays.

        Each lane performs the identical IEEE-754 operations in the
        identical order as the scalar method, so results agree bit for
        bit (integer ``hops`` convert to float64 exactly, as in Python).
        """
        if bool((distance_km < 0).any()) or bool((hops < 0).any()):
            raise ConfigurationError("distance and hops must be >= 0")
        return (
            2.0 * distance_km / FIBRE_KM_PER_MS
            + hops * self.hop_overhead_ms
            + self.service_ms
        )

    def summarize_epoch(
        self,
        distance_sum_km: float,
        hop_sum: float,
        sla_miss: float,
        total_queries: float,
    ) -> LatencySummary:
        """Aggregate one epoch's kernel accumulators.

        The service kernel applies :meth:`response_ms` per absorbed flow
        (see ``serve_epoch(..., latency=...)``), so ``sla_miss`` is
        exact; the mean latency is exact too because the model is affine
        in distance and hops.
        """
        if total_queries <= 0:
            return LatencySummary(mean_ms=0.0, sla_attainment=1.0)
        mean_ms = self.response_ms(
            distance_sum_km / total_queries, hop_sum / total_queries
        )
        return LatencySummary(
            mean_ms=mean_ms,
            sla_attainment=max(0.0, 1.0 - sla_miss / total_queries),
        )
