"""Fig. 7 / Appendix A - agent and collector scaling.

The paper measures agent CPU vs data rate and a collector handling 8K
agent connections/sec.  Here we benchmark the same pipeline stages:
record encode, agent aggregation+export, collector ingest, and the UDP
loopback path; throughput must comfortably exceed the report rates the
simulated traces produce.  The agent observes real simulated flow
batches of a fat_tree(4) fabric.
"""

import time

import pytest

from repro import EcmpRouting, SilentLinkDrops, fat_tree, make_trace
from repro.telemetry import (
    Collector,
    FlowReport,
    InMemoryTransport,
    TelemetryAgent,
    UdpCollectorServer,
    UdpTransport,
    decode_message,
    encode_message,
)


def _reports(n):
    return [
        FlowReport(src=i, dst=i + 1, packets_sent=100, retransmissions=1,
                   rtt_us=300, path=(i, 7, 8, i + 1))
        for i in range(n)
    ]


def _batch(n):
    """``n`` simulated fat_tree(4) flows: passive flows, then one A1
    probe per ten flows."""
    topo = fat_tree(4)
    n_probes = n // 10
    return make_trace(
        topo, EcmpRouting(topo), SilentLinkDrops(n_failures=1), seed=7,
        n_passive=n - n_probes, n_probes=n_probes,
    ).batch


def test_codec_encode_throughput(benchmark):
    batch = _reports(25)
    result = benchmark(encode_message, batch)
    assert decode_message(result) == batch


def test_codec_decode_throughput(benchmark):
    message = encode_message(_reports(25))
    decoded = benchmark(decode_message, message)
    assert len(decoded) == 25


def test_agent_export_throughput(benchmark):
    batch = _batch(2000)

    def run():
        transport = InMemoryTransport()
        agent = TelemetryAgent(transport, reveal_paths=True)
        agent.observe(batch)
        agent.flush()
        return agent.exported_reports

    exported = benchmark(run)
    assert exported == 2000


def test_collector_ingest_throughput(benchmark):
    messages = [encode_message(_reports(25)) for _ in range(80)]

    def run():
        collector = Collector()
        for message in messages:
            collector.ingest(message)
        return collector.pending_reports

    ingested = benchmark(run)
    assert ingested == 80 * 25


def test_udp_loopback_rate(benchmark, show):
    """Messages/sec over the real UDP loopback path (paper: the
    multicore collector handles 8K connections/sec)."""

    batch = _batch(10_000)

    def run():
        collector = Collector()
        with UdpCollectorServer(collector) as server:
            transport = UdpTransport(*server.address)
            agent = TelemetryAgent(transport, reveal_paths=True)
            # 10,000 flows export as 385 messages of up to 26 reports.
            agent.observe(batch)
            agent.flush()
            transport.close()
            deadline = time.time() + 10.0
            while (collector.messages_ingested < agent.exported_messages
                   and time.time() < deadline):
                time.sleep(0.005)
        return collector.messages_ingested

    ingested = benchmark.pedantic(run, rounds=1, iterations=1)
    # UDP may drop a few datagrams under burst; most must arrive.
    assert ingested > 300
