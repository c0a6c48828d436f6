"""Static per-topology lookup tables for the columnar serve kernel.

The WAN never changes during a run (chaos link cuts swap in a *different*
router, on which the columnar engine falls back to the scalar path), so
every routing quantity the overflow walk needs is a pure function of the
``(origin, holder_dc)`` pair and the path level.  :class:`RouterTables`
materialises them once per router:

* ``path[o, h, l]`` — datacenter at level ``l`` of the route ``o → h``;
* ``plen[o, h]`` — node count of the route (``hops + 1``);
* ``km[o, h, l]`` — ``router.distance_km(o, path[o, h, l])``;
* ``miss[o, h, l]`` — whether a query absorbed there violates the SLA.

The tables are built with array operations: routes by walking the
router's predecessor matrix back from every destination at once,
distances by gathering from its distance matrix (the very float64
values ``router.distance_km`` returns), and SLA flags through
:meth:`LatencyModel.response_ms_array`, which evaluates the scalar
latency formula lane by lane in the same operation order — so the
kernel reads back exactly the values the scalar walk computes per
query, and table lookups cannot introduce rounding differences.
"""

from __future__ import annotations

import numpy as np

from ...errors import TopologyError
from ...metrics.latency import LatencyModel
from ...net.routing import Router

__all__ = ["RouterTables"]


class RouterTables:
    """Dense route/distance/SLA tables for one (router, latency model)."""

    __slots__ = (
        "path",
        "plen",
        "km",
        "miss",
        "num_dcs",
        "max_len",
        "origin_start",
        "level0_stats_free",
        "path_rows",
        "km_rows",
        "miss_rows",
        "rows3",
    )

    def __init__(self, router: Router, latency: LatencyModel) -> None:
        num_dcs = router.num_nodes
        dist = router.distance_matrix_km()
        if not bool(np.isfinite(dist).all()):
            raise TopologyError("route tables need a connected WAN")
        prev = router.predecessor_matrix()
        origin = np.arange(num_dcs)[:, None]
        # Walk every route backwards at once: ``back[k][o, h]`` is the
        # k-th node from the holder end (held in place once at origin).
        node = np.broadcast_to(np.arange(num_dcs)[None, :], (num_dcs, num_dcs))
        back = [node]
        plen = np.ones((num_dcs, num_dcs), dtype=np.int64)
        for _ in range(num_dcs - 1):
            walking = node != origin
            if not bool(walking.any()):
                break
            node = np.where(walking, prev[origin, node], node)
            back.append(node)
            plen += walking
        max_len = len(back)
        level = np.arange(max_len)
        on_route = level[None, None, :] < plen[:, :, None]
        # path[o, h, l] = back[plen - 1 - l][o, h] along the route, 0 past it.
        hops_back = np.where(on_route, plen[:, :, None] - 1 - level, 0)
        path = np.take_along_axis(
            np.stack(back, axis=-1), hops_back, axis=-1
        )
        path = np.where(on_route, path, 0)
        km = np.where(on_route, dist[origin[:, :, None], path], 0.0)
        miss = on_route & (
            latency.response_ms_array(km, np.broadcast_to(level, km.shape))
            > latency.sla_ms
        )
        self.num_dcs = num_dcs
        self.max_len = max_len
        self.path = path
        self.plen = plen
        self.km = km
        self.miss = miss
        for table in (self.path, self.plen, self.km, self.miss):
            table.setflags(write=False)
        # Kernel fast-path facts, proven against the built tables: every
        # route starts at its origin (level-0 group keys are therefore
        # unique per flow), and level-0 absorption charges zero distance
        # and no SLA miss (so those accumulator adds are exact no-ops).
        self.origin_start = bool(
            (self.path[:, :, 0] == np.arange(num_dcs)[:, None]).all()
        )
        self.level0_stats_free = bool(
            (self.km[:, :, 0] == 0.0).all()  # repro: noqa[REP004]
        ) and not bool(self.miss[:, :, 0].any())
        # Python-list mirrors for the kernel's tail walk; the lists hold
        # the same float64/bool/int objects the arrays do, so reads are
        # value-identical.  ``rows3[o][h]`` bundles one route's three
        # per-level rows so the walk fetches them with a single lookup.
        self.path_rows: list[list[list[int]]] = self.path.tolist()
        self.km_rows: list[list[list[float]]] = self.km.tolist()
        self.miss_rows: list[list[list[bool]]] = self.miss.tolist()
        self.rows3: list[list[tuple[list[int], list[float], list[bool]]]] = [
            [
                (self.path_rows[o][h], self.km_rows[o][h], self.miss_rows[o][h])
                for h in range(num_dcs)
            ]
            for o in range(num_dcs)
        ]
