"""Agent -> transport -> collector pipeline tests (incl. UDP loopback)."""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting
from repro.simulation import LinkFlap, SilentLinkDrops
from repro.telemetry import (
    Collector,
    FlowReport,
    InMemoryTransport,
    TelemetryAgent,
    UdpCollectorServer,
    UdpTransport,
    encode_message,
)
from repro.topology import fat_tree

FABRIC = fat_tree(4)
ROUTING = EcmpRouting(FABRIC)
COLUMNS = (
    "src", "dst", "packets", "bad", "rtt_ms", "is_probe", "path_set",
    "chosen_path",
)


def make_batch(n):
    """``n`` simulated fat_tree(4) flows: passive flows, then one A1
    probe per seven flows."""
    n_probes = max(1, n // 7)
    return make_trace(
        FABRIC, ROUTING, SilentLinkDrops(n_failures=1), seed=n,
        n_passive=n - n_probes, n_probes=n_probes,
    ).batch


class TestAgent:
    def test_exports_everything_in_batches(self):
        transport = InMemoryTransport()
        agent = TelemetryAgent(transport, batch_size=10)
        agent.observe(make_batch(25))
        agent.flush()
        assert agent.exported_reports == 25
        assert agent.exported_messages == 3
        collector = Collector()
        for message in transport.drain():
            collector.ingest(message)
        assert collector.pending_reports == 25

    def test_sampling_drops_passive_keeps_probes(self):
        transport = InMemoryTransport()
        agent = TelemetryAgent(transport, sampling_rate=0.2, seed=3)
        batch = make_batch(700)
        n_probes = int(batch.is_probe.sum())
        agent.observe(batch)
        agent.flush()
        collector = Collector()
        for message in transport.drain():
            collector.ingest(message)
        reports = collector.drain()
        probes = [r for r in reports if r.is_probe]
        assert len(probes) == n_probes
        passive = len(reports) - len(probes)
        assert passive < (700 - n_probes) * 0.4
        assert agent.sampled_out == 700 - len(reports)

    def test_reveal_paths_flag(self):
        transport = InMemoryTransport()
        agent = TelemetryAgent(transport, reveal_paths=False)
        agent.observe(make_batch(10))
        agent.flush()
        collector = Collector()
        for message in transport.drain():
            collector.ingest(message)
        reports = collector.drain()
        assert {r.is_probe for r in reports} == {False, True}
        for report in reports:
            if report.is_probe:
                assert report.path is not None  # probes always traced
            else:
                assert report.path is None

    @pytest.mark.parametrize(
        "reveal_paths, sampling_rate, reports, messages, sampled_out, digest",
        [
            (True, 1.0, 5500, 212, 0, "224d2899540b2fedcc26d14c7fb6603a"
             "41e979a35417b889ac9eec19c25218ef"),
            (False, 1.0, 5500, 212, 0, "2576456ba8b0b581f6af5b7fe5ed6329"
             "4ef680298d31edbb48abaa190ccf446d"),
            (False, 0.3, 2040, 79, 3460, "85343110e0b8583de95b34509c0a43a6"
             "8b77b4b4e3ee218b70933c41f2b3a71e"),
            (True, 0.5, 3057, 118, 2443, "6fef65f7d2d14f6eeb54dd5b4e07074c"
             "fdc1e4c7a946d5c188a30bad0b65b8f2"),
        ],
    )
    def test_wire_bytes_are_pinned(
        self, demo_trace, reveal_paths, sampling_rate, reports, messages,
        sampled_out, digest,
    ):
        """The exported messages of the demo trace: any change to the
        sampling stream, the row order, the message split or the path
        reveal rule changes these bytes.  (The trace's RTTs are all 0;
        the next tests pin the sampling rule and the RTT rounding.)"""
        transport = InMemoryTransport()
        agent = TelemetryAgent(
            transport, reveal_paths=reveal_paths,
            sampling_rate=sampling_rate, seed=7,
        )
        agent.observe(demo_trace.batch)
        agent.flush()
        assert (
            agent.exported_reports, agent.exported_messages, agent.sampled_out
        ) == (reports, messages, sampled_out)
        wire = b"".join(transport.messages)
        assert hashlib.sha256(wire).hexdigest() == digest

    def test_sampling_draws_one_uniform_per_passive_row(self):
        """The agent draws one uniform array over the passive rows; the
        rows it keeps are the ones one scalar draw per passive row, in
        row order, keeps (the same PCG64 stream), with probes
        interleaved and drawing nothing."""
        batch = make_batch(400)
        order = np.random.default_rng(1).permutation(len(batch))
        batch = dataclasses.replace(batch, **{
            name: getattr(batch, name)[order] for name in COLUMNS
        })
        assert batch.is_probe[: len(batch) // 2].any()
        agent = TelemetryAgent(
            InMemoryTransport(), sampling_rate=0.4, seed=5, batch_size=1000
        )
        agent.observe(batch)
        rng = np.random.default_rng(5)
        want = [
            row for row, probe in enumerate(batch.is_probe.tolist())
            if probe or rng.random() < 0.4
        ]
        got = agent._pending
        assert [(r.src, r.dst, r.packets_sent) for r in got] == [
            (int(batch.src[i]), int(batch.dst[i]), int(batch.packets[i]))
            for i in want
        ]
        assert agent.sampled_out == len(batch) - len(want)

    def test_rtt_rounds_to_whole_microseconds_and_clamps(self):
        batch = make_trace(
            FABRIC, ROUTING, LinkFlap(n_links=2), seed=4,
            n_passive=300, n_probes=0,
        ).batch
        rtt_ms = batch.rtt_ms.copy()
        assert np.unique(rtt_ms).size > 100
        rtt_ms[:4] = [0.0005, 0.0015, 0.0025, 1e10]
        batch = dataclasses.replace(batch, rtt_ms=rtt_ms)
        agent = TelemetryAgent(InMemoryTransport(), batch_size=1000)
        agent.observe(batch)
        got = [r.rtt_us for r in agent._pending]
        assert got[:4] == [0, 2, 2, 2**32 - 1]
        assert got == [
            min(2**32 - 1, int(round(ms * 1000.0))) for ms in rtt_ms.tolist()
        ]

    def test_slices_export_like_the_whole_batch(self):
        """Observing a batch in slices sends the bytes one call sends:
        pending reports and the sampling stream carry over."""
        batch = make_batch(300)
        wires = []
        for cuts in ([0, 300], [0, 7, 100, 101, 300]):
            transport = InMemoryTransport()
            agent = TelemetryAgent(transport, sampling_rate=0.5, seed=2)
            for start, stop in zip(cuts, cuts[1:]):
                agent.observe(batch.slice(start, stop))
            agent.flush()
            wires.append(b"".join(transport.messages))
        assert wires[0] == wires[1]

    def test_invalid_config(self):
        with pytest.raises(TelemetryError):
            TelemetryAgent(InMemoryTransport(), sampling_rate=0.0)
        with pytest.raises(TelemetryError):
            TelemetryAgent(InMemoryTransport(), batch_size=0)


class TestCollector:
    def test_rejects_garbage_and_survives(self):
        collector = Collector()
        assert collector.ingest(b"not a message") == 0
        assert collector.messages_rejected == 1
        good = encode_message(
            [FlowReport(src=1, dst=2, packets_sent=3, retransmissions=0,
                        rtt_us=5)]
        )
        assert collector.ingest(good) == 1
        assert collector.messages_ingested == 1

    def test_drain_clears(self):
        collector = Collector()
        good = encode_message(
            [FlowReport(src=1, dst=2, packets_sent=3, retransmissions=0,
                        rtt_us=5)]
        )
        collector.ingest(good)
        assert len(collector.drain()) == 1
        assert collector.pending_reports == 0


class TestUdpLoopback:
    def test_end_to_end_over_udp(self):
        collector = Collector()
        with UdpCollectorServer(collector) as server:
            host, port = server.address
            transport = UdpTransport(host, port)
            agent = TelemetryAgent(transport, reveal_paths=True)
            agent.observe(make_batch(120))
            agent.flush()
            transport.close()
            deadline = time.time() + 5.0
            while collector.pending_reports < 120 and time.time() < deadline:
                time.sleep(0.01)
        assert collector.pending_reports == 120
        reports = collector.drain()
        assert all(r.path is not None for r in reports)

    def test_server_restart_guard(self):
        collector = Collector()
        server = UdpCollectorServer(collector)
        server.start()
        with pytest.raises(TelemetryError):
            server.start()
        server.stop()
