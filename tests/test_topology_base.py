"""Unit tests for the core Topology model."""

import pytest

from repro.errors import TopologyError
from repro.topology.base import Topology, TopologyBuilder
from repro.types import ComponentKind


def tiny_topo():
    #      spine0
    #     /      \
    #  leaf0    leaf1
    #   |  \      |
    #  h0  h1    h2
    return Topology(
        names=["spine0", "leaf0", "leaf1", "h0", "h1", "h2"],
        roles=["spine", "leaf", "leaf", "host", "host", "host"],
        links=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)],
    )


class TestConstruction:
    def test_basic_counts(self):
        topo = tiny_topo()
        assert topo.n_nodes == 6
        assert topo.n_links == 5
        assert topo.n_components == 11
        assert topo.hosts == (3, 4, 5)
        assert topo.racks == (1, 2)
        assert topo.cores == (0,)

    def test_rejects_mismatched_names_roles(self):
        with pytest.raises(TopologyError):
            Topology(["a"], ["host", "tor"], [])

    def test_rejects_unknown_role(self):
        with pytest.raises(TopologyError):
            Topology(["a"], ["router"], [])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Topology(["a", "b"], ["tor", "tor"], [(0, 0)])

    def test_rejects_duplicate_link(self):
        with pytest.raises(TopologyError):
            Topology(["a", "b"], ["tor", "tor"], [(0, 1), (1, 0)])

    def test_rejects_dangling_link(self):
        with pytest.raises(TopologyError):
            Topology(["a", "b"], ["tor", "tor"], [(0, 5)])

    def test_host_must_have_one_rack(self):
        with pytest.raises(TopologyError):
            Topology(
                ["t0", "t1", "h"],
                ["tor", "tor", "host"],
                [(0, 2), (1, 2)],
            )


class TestLinks:
    def test_link_id_is_order_insensitive(self):
        topo = tiny_topo()
        assert topo.link_id(0, 1) == topo.link_id(1, 0)

    def test_link_id_missing_raises(self):
        topo = tiny_topo()
        with pytest.raises(TopologyError):
            topo.link_id(3, 5)

    def test_endpoints_roundtrip(self):
        topo = tiny_topo()
        for lid in range(topo.n_links):
            u, v = topo.endpoints(lid)
            assert topo.link_id(u, v) == lid

    def test_device_links(self):
        topo = tiny_topo()
        leaf0_links = set(topo.device_links(1))
        assert leaf0_links == {
            topo.link_id(0, 1), topo.link_id(1, 3), topo.link_id(1, 4)
        }

    def test_switch_switch_links(self):
        topo = tiny_topo()
        fabric = set(topo.switch_switch_links())
        assert fabric == {topo.link_id(0, 1), topo.link_id(0, 2)}


class TestComponents:
    def test_component_kinds(self):
        topo = tiny_topo()
        assert topo.component_kind(0) is ComponentKind.LINK
        assert topo.component_kind(topo.device_component(0)) is ComponentKind.DEVICE
        with pytest.raises(TopologyError):
            topo.component_kind(topo.n_components)

    def test_component_names(self):
        topo = tiny_topo()
        assert topo.component_name(topo.link_id(0, 1)) == "spine0<->leaf0"
        assert topo.component_name(topo.device_component(0)) == "spine0"

    def test_path_components_excludes_hosts(self):
        topo = tiny_topo()
        comps = topo.path_components((3, 1, 0, 2, 5))
        # 4 links + devices leaf0, spine0, leaf1 (hosts excluded)
        assert len(comps) == 7
        assert topo.device_component(3) not in comps
        assert topo.device_component(1) in comps

    def test_path_components_without_devices(self):
        topo = tiny_topo()
        comps = topo.path_components((3, 1, 4), include_devices=False)
        assert comps == tuple(
            sorted((topo.link_id(3, 1), topo.link_id(1, 4)))
        )

    def test_bounce_path_collapses(self):
        topo = tiny_topo()
        one_way = topo.path_components((3, 1, 0))
        bounce = topo.path_components((3, 1, 0, 1, 3))
        assert one_way == bounce

    @pytest.mark.parametrize("include_devices", [False, True])
    @pytest.mark.parametrize(
        "path", [(0, 40), (0, -1), (40,), (-1,)],
        ids=["past-end", "negative", "single-past-end", "single-negative"],
    )
    def test_out_of_range_node_rejected(self, path, include_devices):
        # fat_tree(4) has 36 nodes: node 40 once packed into an alias of
        # a real link key instead of failing.
        from repro.topology import fat_tree

        topo = fat_tree(4)
        assert topo.n_nodes == 36
        with pytest.raises(TopologyError, match="out of range"):
            topo.path_components(path, include_devices)
        with pytest.raises(TopologyError, match="out of range"):
            topo.paths_components([(topo.hosts[0],), path], include_devices)
        assert topo.path_components((topo.hosts[0],), include_devices) == ()


class TestDerived:
    def test_rack_of(self):
        topo = tiny_topo()
        assert topo.rack_of(3) == 1
        assert topo.rack_of(5) == 2
        with pytest.raises(TopologyError):
            topo.rack_of(0)

    def test_hosts_in_rack(self):
        topo = tiny_topo()
        assert topo.hosts_in_rack(1) == (3, 4)

    def test_without_links(self):
        topo = tiny_topo()
        smaller = topo.without_links([topo.link_id(0, 2)])
        assert smaller.n_links == 4
        assert not smaller.has_link(0, 2)
        assert smaller.n_nodes == topo.n_nodes

    def test_is_connected(self):
        topo = tiny_topo()
        assert topo.is_connected()
        # Cutting leaf1's uplink isolates the {leaf1, h2} component.
        cut = topo.without_links([topo.link_id(0, 2)])
        assert not cut.is_connected()

    def test_to_networkx(self):
        graph = tiny_topo().to_networkx()
        assert graph.number_of_nodes() == 6
        assert graph.number_of_edges() == 5
        assert graph.nodes[0]["role"] == "spine"


class TestBuilder:
    def test_builds_equivalent_topology(self):
        builder = TopologyBuilder()
        a = builder.add_node("a", "tor")
        b = builder.add_node("b", "tor")
        h = builder.add_node("h", "host")
        builder.add_link(a, b)
        builder.add_link(a, h)
        topo = builder.build()
        assert topo.n_links == 2
        assert builder.node("b") == b

    def test_duplicate_name_rejected(self):
        builder = TopologyBuilder()
        builder.add_node("x", "tor")
        with pytest.raises(TopologyError):
            builder.add_node("x", "host")
