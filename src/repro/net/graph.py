"""Validated, immutable WAN graph over datacenter indices.

A sorted adjacency map that enforces the invariants routing relies on:

* nodes are exactly ``0..n-1`` (datacenter indices);
* every edge carries a strictly positive ``distance_km`` weight;
* the graph is connected (every requester can reach every holder).

The wrapper is immutable after construction — topology changes in the
paper happen at the *server* level (join/failure/recovery), never at the
WAN level, so a frozen graph lets the router cache all-pairs paths once.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import TopologyError

__all__ = ["WanGraph"]


class WanGraph:
    """An immutable weighted graph over datacenter indices.

    Parameters
    ----------
    num_nodes:
        Number of datacenters; node ids are ``0..num_nodes-1``.
    edges:
        Iterable of ``(u, v, distance_km)`` triples.
    allow_disconnected:
        Skip the connectivity check.  Only degraded views built by
        :meth:`without_links` (chaos WAN partitions) may be
        disconnected; a *physical* topology must stay connected.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        *,
        allow_disconnected: bool = False,
    ) -> None:
        if num_nodes < 1:
            raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
        adjacency: dict[int, dict[int, float]] = {n: {} for n in range(num_nodes)}
        for u, v, dist in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TopologyError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            if dist <= 0:
                raise TopologyError(f"edge ({u}, {v}) must have positive distance, got {dist}")
            if v in adjacency[u]:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            adjacency[u][v] = adjacency[v][u] = float(dist)
        self._adjacency = {
            n: dict(sorted(links.items())) for n, links in adjacency.items()
        }
        self._num_nodes = num_nodes
        if num_nodes > 1 and not allow_disconnected:
            components = self._components()
            if len(components) > 1:
                raise TopologyError(
                    f"WAN graph is disconnected: components {components}"
                )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of datacenters."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of WAN links."""
        return sum(len(links) for links in self._adjacency.values()) // 2

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbour datacenters of ``node``."""
        self._check_node(node)
        return tuple(self._adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True when a direct WAN link connects ``u`` and ``v``."""
        return v in self._adjacency.get(u, {})

    def edge_distance_km(self, u: int, v: int) -> float:
        """Distance of the direct link ``u``–``v``.

        Raises :class:`TopologyError` when no such link exists.
        """
        if not self.has_edge(u, v):
            raise TopologyError(f"no WAN link between {u} and {v}")
        return self._adjacency[u][v]

    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """All edges as sorted ``(u, v, distance_km)`` triples with u < v."""
        return tuple(
            (u, v, dist)
            for u, links in self._adjacency.items()
            for v, dist in links.items()
            if u < v
        )

    def without_links(self, links: Iterable[tuple[int, int]]) -> "WanGraph":
        """A degraded copy with the given links removed.

        The result may be disconnected — that is the point: a WAN
        partition isolates datacenters without touching their servers.
        Raises :class:`TopologyError` when a named link does not exist
        in *this* graph (cut sets are always expressed against the
        physical topology).
        """
        cut = set()
        for u, v in links:
            a, b = (u, v) if u < v else (v, u)
            if not self.has_edge(a, b):
                raise TopologyError(f"cannot cut non-existent WAN link ({u}, {v})")
            cut.add((a, b))
        kept = [e for e in self.edges() if (e[0], e[1]) not in cut]
        return WanGraph(self._num_nodes, kept, allow_disconnected=True)

    # ------------------------------------------------------------------
    def _components(self) -> list[list[int]]:
        """Connected components by breadth-first search, each sorted,
        listed in order of their least node."""
        seen: set[int] = set()
        components = []
        for start in range(self._num_nodes):
            if start in seen:
                continue
            seen.add(start)
            component = [start]
            for node in component:  # grows while it is walked: a BFS queue
                fresh = [peer for peer in self._adjacency[node] if peer not in seen]
                seen.update(fresh)
                component.extend(fresh)
            components.append(sorted(component))
        return components

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(f"datacenter index out of range: {node}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WanGraph(nodes={self._num_nodes}, edges={self.num_edges})"
