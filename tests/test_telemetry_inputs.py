"""Tests for A1/A2/P/INT observation construction."""

import dataclasses

import numpy as np
import pytest

from oracles.telemetry import (
    FlowRecord,
    batch_observations,
    build_observations,
    records_of,
)
from repro.errors import (
    ExperimentError,
    RoutingError,
    TelemetryError,
    TopologyError,
)
from repro.eval.dataset import trace_to_dict
from repro.eval.scenarios import Trace
from repro.routing import EcmpRouting
from repro.simulation.failures import PER_FLOW, NoFailure
from repro.telemetry import (
    FlowReport,
    InMemoryTransport,
    TelemetryAgent,
    TelemetryConfig,
    batch_from_reports,
    build_observation_batch,
)
from repro.types import TelemetryKind


@pytest.fixture()
def sample_records(small_fat_tree, ft_routing):
    topo = small_fat_tree
    h0, h1 = topo.hosts[0], topo.hosts[-1]
    passive_path = ft_routing.host_paths(h0, h1)[0]
    probe_path = ft_routing.probe_paths(h0, topo.cores[0])[0]
    return [
        # A probe with one retransmission.
        FlowRecord(src=h0, dst=topo.cores[0], packets_sent=40, bad_packets=1,
                   path=probe_path, is_probe=True),
        # A flagged passive flow.
        FlowRecord(src=h0, dst=h1, packets_sent=200, bad_packets=3,
                   path=passive_path, rtt_ms=0.4),
        # A clean passive flow with a high RTT.
        FlowRecord(src=h0, dst=h1, packets_sent=100, bad_packets=0,
                   path=passive_path, rtt_ms=25.0),
    ]


class TestKindSelection:
    def test_a1_only_keeps_probes(self, sample_records, small_fat_tree, ft_routing):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("A1"),
        )
        assert len(obs) == 1
        assert obs[0].exact_path
        assert obs[0].kind is TelemetryKind.A1

    def test_a2_keeps_flagged_passive_with_exact_path(
        self, sample_records, small_fat_tree, ft_routing
    ):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("A2"),
        )
        assert len(obs) == 1
        assert obs[0].exact_path
        assert obs[0].bad_packets == 3

    def test_p_keeps_all_passive_with_pathsets(
        self, sample_records, small_fat_tree, ft_routing
    ):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("P"),
        )
        assert len(obs) == 2
        for o in obs:
            assert len(o.path_set) == 4  # cross-pod ECMP fan-out in k=4

    def test_int_reveals_exact_paths_for_everything(
        self, sample_records, small_fat_tree, ft_routing
    ):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("INT"),
        )
        assert len(obs) == 3
        assert all(o.exact_path for o in obs)

    def test_a2_plus_p_deduplicates_flagged(
        self, sample_records, small_fat_tree, ft_routing
    ):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("A2+P"),
        )
        # probe excluded; flagged flow appears once (exact); clean flow
        # appears once (path set).
        assert len(obs) == 2
        exact = [o for o in obs if o.exact_path]
        assert len(exact) == 1
        assert exact[0].bad_packets == 3


class TestAnalysisModes:
    def test_per_flow_transform(self, sample_records, small_fat_tree, ft_routing):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("INT", analysis=PER_FLOW),
        )
        by_bad = sorted((o.bad_packets, o.packets_sent) for o in obs)
        # All flows become (bit, 1); only the 25 ms flow is bad.
        assert by_bad == [(0, 1), (0, 1), (1, 1)]

    def test_custom_rtt_threshold(self, sample_records, small_fat_tree, ft_routing):
        obs = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec(
                "INT", analysis=PER_FLOW, rtt_threshold_ms=30.0
            ),
        )
        assert all(o.bad_packets == 0 for o in obs)


class TestDevicesAndSampling:
    def test_include_devices_toggle(self, sample_records, small_fat_tree, ft_routing):
        with_dev = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("INT", include_devices=True),
        )
        without = build_observations(
            sample_records, small_fat_tree, ft_routing,
            TelemetryConfig.from_spec("INT", include_devices=False),
        )
        n_links = small_fat_tree.n_links
        assert any(c >= n_links for o in with_dev for p in o.path_set for c in p)
        assert all(c < n_links for o in without for p in o.path_set for c in p)

    def test_passive_sampling(self, small_fat_tree, ft_routing):
        topo = small_fat_tree
        h0, h1 = topo.hosts[0], topo.hosts[-1]
        path = ft_routing.host_paths(h0, h1)[0]
        records = [
            FlowRecord(src=h0, dst=h1, packets_sent=10, bad_packets=0,
                       path=path)
            for _ in range(1000)
        ]
        obs = build_observations(
            records, topo, ft_routing,
            TelemetryConfig.from_spec("P", passive_sampling=0.1),
            np.random.default_rng(0),
        )
        assert 40 < len(obs) < 250


class TestConfig:
    def test_spec_parsing(self):
        config = TelemetryConfig.from_spec("A1+A2+P")
        assert config.kinds == frozenset(
            {TelemetryKind.A1, TelemetryKind.A2, TelemetryKind.PASSIVE}
        )
        assert config.spec == "A1+A2+P"

    def test_bad_spec(self):
        with pytest.raises(TelemetryError):
            TelemetryConfig.from_spec("A3")
        with pytest.raises(TelemetryError):
            TelemetryConfig(kinds=frozenset())

    def test_bad_analysis(self):
        with pytest.raises(TelemetryError):
            TelemetryConfig.from_spec("P", analysis="per_byte")


def report_observations(reports, routing, spec):
    """Wire reports through the one pipeline, as object observations."""
    batch = batch_from_reports(reports, routing.path_space())
    return batch_observations(
        build_observation_batch(batch, TelemetryConfig.from_spec(spec))
    )


class TestFromReports:
    def test_pathless_reports_fall_back_to_pathsets(
        self, small_fat_tree, ft_routing
    ):
        topo = small_fat_tree
        h0, h1 = topo.hosts[0], topo.hosts[-1]
        reports = [
            FlowReport(src=h0, dst=h1, packets_sent=50, retransmissions=1,
                       rtt_us=300, path=None),
        ]
        obs = report_observations(reports, ft_routing, "P")
        assert len(obs) == 1
        assert not obs[0].exact_path
        # A2 needs a traced path, which this report lacks.
        assert report_observations(reports, ft_routing, "A2") == []

    def test_traced_report_used_exactly(self, small_fat_tree, ft_routing):
        topo = small_fat_tree
        h0, h1 = topo.hosts[0], topo.hosts[-1]
        path = ft_routing.host_paths(h0, h1)[0]
        reports = [
            FlowReport(src=h0, dst=h1, packets_sent=50, retransmissions=2,
                       rtt_us=300, path=path),
        ]
        obs = report_observations(reports, ft_routing, "INT")
        assert len(obs) == 1
        assert obs[0].path_set == (topo.path_components(path),)

    def test_pathless_rows_mark_unknown_paths(self, small_fat_tree, ft_routing):
        topo = small_fat_tree
        h0, h1 = topo.hosts[0], topo.hosts[-1]
        path = ft_routing.host_paths(h0, h1)[0]
        probe_path = ft_routing.probe_paths(h0, topo.cores[0])[0]
        batch = batch_from_reports(
            [
                FlowReport(src=h0, dst=h1, packets_sent=50, retransmissions=0,
                           rtt_us=1500, path=None),
                FlowReport(src=h0, dst=h1, packets_sent=50, retransmissions=3,
                           rtt_us=300, path=path),
                FlowReport(src=h0, dst=topo.cores[0], packets_sent=20,
                           retransmissions=0, rtt_us=300, is_probe=True),
                FlowReport(src=h0, dst=topo.cores[0], packets_sent=20,
                           retransmissions=0, rtt_us=300, is_probe=True,
                           path=probe_path),
            ],
            ft_routing.path_space(),
        )
        space = batch.space
        assert batch.chosen_path[0] == -1 and batch.chosen_path[2] == -1
        assert space.path_nodes(int(batch.chosen_path[1])) == path
        assert space.path_nodes(int(batch.chosen_path[3])) == probe_path
        # Both passive rows carry their pair's ECMP set; a pathless
        # probe has none.
        assert batch.path_set[0] == batch.path_set[1] == space.pair_set(h0, h1)
        assert batch.path_set[2] == -1
        assert batch.path_set[3] == space.intern_set((probe_path,))
        assert batch.bad.tolist() == [0, 3, 0, 0]
        assert batch.rtt_ms.tolist() == [1.5, 0.3, 0.3, 0.3]
        # The agent and the dataset serializer need every row's path:
        # a pathless row must not resolve to some other interned path.
        with pytest.raises(TelemetryError, match="flow 0 has no known path"):
            TelemetryAgent(InMemoryTransport()).observe(batch)
        trace = Trace(
            topology=topo, routing=ft_routing,
            injection=NoFailure().inject(topo, np.random.default_rng(0)),
            batch=batch,
        )
        with pytest.raises(ExperimentError, match="flow 0 has no known path"):
            trace_to_dict(trace)
        assert records_of(batch.slice(1, 2))[0].path == path


class TestReportBoundary:
    """Wire reports are outside input: a malformed one raises a
    ReproError before anything lands in the shared path space."""

    @pytest.mark.parametrize("endpoints", ["same", "switch", "out_of_range"])
    def test_passive_report_needs_two_distinct_hosts(
        self, small_fat_tree, endpoints
    ):
        topo = small_fat_tree
        h0 = topo.hosts[0]
        dst = {
            "same": h0, "switch": topo.cores[0], "out_of_range": topo.n_nodes,
        }[endpoints]
        space = EcmpRouting(topo).path_space()
        report = FlowReport(src=h0, dst=dst, packets_sent=5,
                            retransmissions=0, rtt_us=10)
        with pytest.raises(RoutingError, match="two distinct hosts"):
            batch_from_reports([report], space)
        assert space.n_paths == space.n_sets == 0

    def test_probe_endpoints_are_not_host_pairs(self, small_fat_tree):
        topo = small_fat_tree
        routing = EcmpRouting(topo)
        h0 = topo.hosts[0]
        path = routing.probe_paths(h0, topo.cores[0])[0]
        report = FlowReport(src=h0, dst=topo.cores[0], packets_sent=5,
                            retransmissions=0, rtt_us=10, is_probe=True,
                            path=path)
        batch = batch_from_reports([report], routing.path_space())
        assert batch.chosen_path.tolist() == [0]

    @pytest.mark.parametrize("hop", ["not_a_link", "no_such_node"])
    def test_traced_path_must_walk_over_links(self, small_fat_tree, hop):
        topo = small_fat_tree
        routing = EcmpRouting(topo)
        h0, h1 = topo.hosts[0], topo.hosts[-1]
        path = routing.host_paths(h0, h1)[0]
        bad_node = h1 if hop == "not_a_link" else topo.n_nodes + 3
        broken = (path[0], bad_node) + path[2:]
        good = FlowReport(src=h0, dst=h1, packets_sent=5, retransmissions=0,
                          rtt_us=10, path=path)
        space = routing.path_space()
        with pytest.raises(TopologyError):
            batch_from_reports(
                [good, dataclasses.replace(good, path=broken)], space
            )
        assert space.n_paths == space.n_sets == 0
