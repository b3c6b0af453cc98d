"""Tests for traffic matrices, flow sizes, and probe plans."""

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.routing import EcmpRouting, PathSpace
from repro.traffic import (
    PROBE_PACKETS,
    SkewedTraffic,
    UniformTraffic,
    a1_probe_batch,
    generate_passive_flow_batch,
    pareto_flow_packets,
)


def _member_paths(space, sid):
    """Node paths of every member of an interned path set."""
    return tuple(space.path_nodes(int(p)) for p in space.set_path_ids(sid))


class TestUniformTraffic:
    def test_no_self_flows(self, small_fat_tree, rng):
        matrix = UniformTraffic(small_fat_tree)
        src, dst = matrix.sample_pair_arrays(500, rng)
        assert len(src) == len(dst) == 500
        assert not np.any(src == dst)
        assert np.isin(src, small_fat_tree.hosts).all()
        assert np.isin(dst, small_fat_tree.hosts).all()

    def test_spread_over_hosts(self, small_fat_tree, rng):
        matrix = UniformTraffic(small_fat_tree)
        src, _ = matrix.sample_pair_arrays(3000, rng)
        assert len(set(src.tolist())) == len(small_fat_tree.hosts)


class TestSkewedTraffic:
    def test_concentrates_on_hot_racks(self, small_fat_tree, rng):
        matrix = SkewedTraffic(
            small_fat_tree, rng,
            hot_rack_fraction=0.25, hot_traffic_fraction=0.5,
        )
        hot_hosts = []
        for rack in matrix.hot_racks:
            hot_hosts.extend(small_fat_tree.hosts_in_rack(rack))
        src, dst = matrix.sample_pair_arrays(4000, rng)
        hot_flows = np.isin(src, hot_hosts) & np.isin(dst, hot_hosts)
        # ~50% fully-hot flows plus uniform flows that land there anyway.
        assert hot_flows.mean() > 0.4

    def test_no_self_flows(self, small_fat_tree, rng):
        matrix = SkewedTraffic(small_fat_tree, rng)
        src, dst = matrix.sample_pair_arrays(1000, rng)
        assert not np.any(src == dst)

    def test_invalid_fractions(self, small_fat_tree, rng):
        with pytest.raises(TrafficError):
            SkewedTraffic(small_fat_tree, rng, hot_rack_fraction=0.0)
        with pytest.raises(TrafficError):
            SkewedTraffic(small_fat_tree, rng, hot_traffic_fraction=1.5)


class TestParetoSizes:
    def test_mean_in_ballpark(self, rng):
        packets = pareto_flow_packets(rng, 60_000, mean_bytes=200_000.0)
        mean_bytes = packets.mean() * 1500
        # Heavy tail + clipping: allow a wide band around 200 KB.
        assert 60_000 < mean_bytes < 500_000

    def test_minimum_one_packet(self, rng):
        packets = pareto_flow_packets(rng, 1000, mean_bytes=500.0)
        assert packets.min() >= 1

    def test_clipping(self, rng):
        packets = pareto_flow_packets(rng, 5000, max_packets=50)
        assert packets.max() <= 50

    def test_invalid_shape(self, rng):
        with pytest.raises(TrafficError):
            pareto_flow_packets(rng, 10, shape=1.0)


class TestPassiveFlows:
    def test_generate_passive_flow_batch(self, small_fat_tree, ft_routing, rng):
        matrix = UniformTraffic(small_fat_tree)
        space = PathSpace(small_fat_tree, ft_routing)
        batch = generate_passive_flow_batch(ft_routing, matrix, 200, rng, space)
        assert len(batch) == 200
        assert batch.space is space
        assert not batch.is_probe.any()
        assert batch.packets.min() >= 1
        for src, dst, sid in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.path_set.tolist()
        ):
            assert src != dst
            assert _member_paths(space, sid) == ft_routing.host_paths(src, dst)

    def test_no_flows(self, small_fat_tree, ft_routing, rng):
        matrix = UniformTraffic(small_fat_tree)
        space = PathSpace(small_fat_tree, ft_routing)
        empty = generate_passive_flow_batch(ft_routing, matrix, 0, rng, space)
        assert len(empty) == 0
        with pytest.raises(TrafficError):
            generate_passive_flow_batch(ft_routing, matrix, -1, rng, space)


class TestProbePlan:
    def test_probes_are_pinned_and_marked(self, small_fat_tree, ft_routing, rng):
        space = PathSpace(small_fat_tree, ft_routing)
        batch = a1_probe_batch(small_fat_tree, ft_routing, 100, rng, space)
        assert len(batch) == 100
        assert batch.is_probe.all()
        assert (batch.packets == PROBE_PACKETS).all()
        assert np.isin(batch.src, small_fat_tree.hosts).all()
        assert np.isin(batch.dst, small_fat_tree.cores).all()
        for src, dst, sid in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.path_set.tolist()
        ):
            (path,) = _member_paths(space, sid)
            assert path in ft_routing.probe_paths(src, dst)

    def test_full_plan_covers_fabric(self, small_fat_tree, ft_routing, rng):
        topo = small_fat_tree
        space = PathSpace(topo, ft_routing)
        n_pairs = len(topo.hosts) * len(topo.cores)
        batch = a1_probe_batch(topo, ft_routing, n_pairs * 4, rng, space)
        covered = set()
        for sid in np.unique(batch.path_set).tolist():
            for path in _member_paths(space, sid):
                covered.update(
                    topo.link_id(u, v) for u, v in zip(path, path[1:])
                )
        assert set(topo.switch_switch_links()) <= covered

    def test_rotation_through_ecmp_choices(self, rng):
        # A fat-tree has a single path from a host to a given core, so
        # use a Clos where two aggs reach the same core group: the plan
        # must rotate between the two distinct up-paths.
        from repro.topology import three_tier_clos

        topo = three_tier_clos(
            pods=2, tors_per_pod=2, aggs_per_pod=4,
            core_groups=2, cores_per_group=1, hosts_per_tor=2,
        )
        routing = EcmpRouting(topo)
        space = PathSpace(topo, routing)
        host = topo.hosts[0]
        core = topo.cores[0]
        assert len(routing.probe_paths(host, core)) >= 2
        batch = a1_probe_batch(
            topo, routing, len(topo.hosts) * len(topo.cores) * 2, rng, space,
        )
        mine = (batch.src == host) & (batch.dst == core)
        pinned = {
            _member_paths(space, sid)[0]
            for sid in batch.path_set[mine].tolist()
        }
        assert len(pinned) >= 2  # rotated through distinct up-paths

    def test_invalid_args(self, small_fat_tree, ft_routing, rng):
        space = PathSpace(small_fat_tree, ft_routing)
        with pytest.raises(TrafficError):
            a1_probe_batch(small_fat_tree, ft_routing, -1, rng, space)
