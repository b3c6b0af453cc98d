"""Fig. 7 / Appendix A - agent and collector scaling.

The paper measures agent CPU vs data rate and a collector handling 8K
agent connections/sec.  Here we benchmark the same pipeline stages:
record encode, agent aggregation+export, collector ingest, and the UDP
loopback path; throughput must comfortably exceed the report rates the
simulated traces produce.
"""

import time

import pytest

from repro.telemetry import (
    Collector,
    InMemoryTransport,
    TelemetryAgent,
    UdpCollectorServer,
    UdpTransport,
    decode_message,
    encode_message,
)
from repro.telemetry.records import FlowReport
from repro.types import FlowRecord


def _reports(n):
    return [
        FlowReport(src=i, dst=i + 1, packets_sent=100, retransmissions=1,
                   rtt_us=300, path=(i, 7, 8, i + 1))
        for i in range(n)
    ]


def _records(n):
    return [
        FlowRecord(src=i, dst=i + 1, packets_sent=100, bad_packets=0,
                   path=(i, 7, 8, i + 1), rtt_ms=0.3)
        for i in range(n)
    ]


def test_codec_encode_throughput(benchmark):
    batch = _reports(25)
    result = benchmark(encode_message, batch)
    assert decode_message(result) == batch


def test_codec_decode_throughput(benchmark):
    message = encode_message(_reports(25))
    decoded = benchmark(decode_message, message)
    assert len(decoded) == 25


def test_agent_export_throughput(benchmark):
    records = _records(2000)

    def run():
        transport = InMemoryTransport()
        agent = TelemetryAgent(transport, reveal_paths=True)
        agent.observe(records)
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

    def run():
        collector = Collector()
        with UdpCollectorServer(collector) as server:
            transport = UdpTransport(*server.address)
            agent = TelemetryAgent(transport, reveal_paths=True)
            # 10,000 records export as 385 messages of up to 26 records.
            agent.observe(_records(10_000))
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
