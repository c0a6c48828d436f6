"""WAN substrate: distances, graph validation, routing, hub structure."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.geo import build_default_hierarchy
from repro.net import Router, WanGraph, build_default_wan, build_wan, great_circle_km
from repro.net.builder import DEFAULT_LINKS
from repro.net.coordinates import INTRA_DATACENTER_KM, site_distance_km


class TestGreatCircle:
    def test_zero_for_same_point(self):
        assert great_circle_km(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_symmetry(self):
        d1 = great_circle_km(39.0, -77.0, 35.7, 139.7)
        d2 = great_circle_km(35.7, 139.7, 39.0, -77.0)
        assert d1 == pytest.approx(d2)

    def test_known_distance_beijing_tokyo(self):
        # Beijing <-> Tokyo is roughly 2,100 km.
        d = great_circle_km(39.90, 116.40, 35.68, 139.69)
        assert 1900 < d < 2300

    def test_antipodal_is_half_circumference(self):
        d = great_circle_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(np.pi * 6371.0, rel=1e-6)

    def test_intra_datacenter_distance(self):
        h = build_default_hierarchy()
        assert site_distance_km(h.site(0), h.site(0)) == INTRA_DATACENTER_KM

    def test_site_distance_positive_across_sites(self):
        h = build_default_hierarchy()
        assert site_distance_km(h.site(0), h.site(9)) > 1000


class TestWanGraph:
    def test_default_wan_shape(self):
        _, wan = build_default_wan()
        assert wan.num_nodes == 10
        assert wan.num_edges == len(DEFAULT_LINKS)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 0, 1.0)])

    def test_rejects_unknown_node(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 5, 1.0)])

    def test_rejects_non_positive_distance(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError):
            WanGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_edge_distance_lookup(self):
        wan = WanGraph(3, [(0, 1, 5.0), (1, 2, 7.0)])
        assert wan.edge_distance_km(0, 1) == 5.0
        assert wan.edge_distance_km(1, 0) == 5.0
        with pytest.raises(TopologyError):
            wan.edge_distance_km(0, 2)

    def test_neighbors_sorted(self):
        wan = WanGraph(4, [(0, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
        assert wan.neighbors(0) == (1, 3)

    def test_edges_normalised(self):
        wan = WanGraph(3, [(2, 0, 4.0), (1, 0, 3.0)])
        assert wan.edges() == ((0, 1, 3.0), (0, 2, 4.0))


class TestRouter:
    def test_path_endpoints_inclusive(self, router):
        path = router.path(7, 0)
        assert path[0] == 7 and path[-1] == 0

    def test_self_path_is_singleton(self, router):
        assert router.path(3, 3) == (3,)
        assert router.hop_count(3, 3) == 0
        assert router.distance_km(3, 3) == 0.0

    def test_paths_are_shortest(self, router, wan):
        """Every reported distance equals the sum of edge weights along
        the reported path, and no single edge shortcut beats it."""
        for s in range(10):
            for d in range(10):
                path = router.path(s, d)
                total = sum(
                    wan.edge_distance_km(path[i], path[i + 1])
                    for i in range(len(path) - 1)
                )
                assert total == pytest.approx(router.distance_km(s, d))
                if wan.has_edge(s, d):
                    assert router.distance_km(s, d) <= wan.edge_distance_km(s, d) + 1e-9

    def test_next_hop_consistent_with_path(self, router):
        for s in range(10):
            for d in range(10):
                if s == d:
                    assert router.next_hop(s, d) == s
                else:
                    assert router.next_hop(s, d) == router.path(s, d)[1]

    def test_asia_to_a_transits_hubs(self, router, hierarchy):
        """The Fig. 1 situation: queries from H/I/J to A pass through the
        Canadian corridor (E, D) — the structural traffic hubs."""
        for origin_name in ("H", "I", "J"):
            origin = hierarchy.by_name(origin_name).index
            path = router.path(origin, hierarchy.by_name("A").index)
            names = {hierarchy.site(dc).name for dc in path[1:-1]}
            assert {"E", "D"} & names, f"{origin_name}->A transit was {names}"

    def test_transit_counts_identify_hubs(self, router, hierarchy):
        counts = router.transit_counts()
        by_name = {hierarchy.site(i).name: int(counts[i]) for i in range(10)}
        top3 = sorted(by_name, key=by_name.get, reverse=True)[:3]
        # D, E and F carry the bulk of trans-continental forwarding.
        assert set(top3) <= {"A", "D", "E", "F", "I"}
        assert by_name["E"] > 0 and by_name["D"] > 0 and by_name["F"] > 0
        # Leaf sites forward nothing.
        assert by_name["B"] == 0 and by_name["G"] == 0 and by_name["J"] == 0

    def test_wan_neighbors(self, router, hierarchy):
        a = hierarchy.by_name("A").index
        neigh = {hierarchy.site(i).name for i in router.wan_neighbors(a)}
        assert neigh == {"B", "C", "D", "F"}

    def test_distance_matrix_symmetric(self, router):
        m = router.distance_matrix_km()
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0)

    def test_invalid_endpoints_raise(self, router):
        with pytest.raises(TopologyError):
            router.path(0, 10)
        with pytest.raises(TopologyError):
            router.distance_km(-1, 0)

    def test_routing_is_deterministic(self, hierarchy):
        wan = build_wan(hierarchy)
        r1, r2 = Router(wan), Router(wan)
        for s in range(10):
            for d in range(10):
                assert r1.path(s, d) == r2.path(s, d)


class TestBuilder:
    def test_link_to_unknown_site_rejected(self, hierarchy):
        with pytest.raises(TopologyError):
            build_wan(hierarchy, (("A", "Z"),))

    def test_self_link_rejected(self, hierarchy):
        with pytest.raises(TopologyError):
            build_wan(hierarchy, (("A", "A"),))

    def test_edge_weights_are_geo_distances(self, hierarchy):
        wan = build_wan(hierarchy)
        a, b = hierarchy.by_name("A"), hierarchy.by_name("B")
        assert wan.edge_distance_km(a.index, b.index) == pytest.approx(
            site_distance_km(a, b)
        )
