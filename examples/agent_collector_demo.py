#!/usr/bin/env python
"""End-to-end telemetry pipeline over real UDP loopback sockets.

Reproduces the paper's section-5 system path: simulate a monitoring
interval, run an end-host agent that encodes 52-byte IPFIX-like flow
reports and exports them as UDP datagrams, receive them in a threaded
collector, rebuild the inference input from the *wire* reports, and
localize - exactly what Flock's production deployment would do, minus
PF_RING.

Run:  python examples/agent_collector_demo.py
"""

import time

import numpy as np

from repro import (
    DEFAULT_PER_PACKET,
    Collector,
    EcmpRouting,
    FlockInference,
    InferenceProblem,
    SilentLinkDrops,
    TelemetryAgent,
    TelemetryConfig,
    evaluate_prediction,
    fat_tree,
    make_trace,
)
from repro.telemetry import (
    UdpCollectorServer,
    UdpTransport,
    batch_from_reports,
    build_observation_batch,
)

#: How long the collector may ingest nothing before the demo stops
#: waiting for the agent's remaining reports.
STALL_SECONDS = 0.5


def main():
    topo = fat_tree(4)
    routing = EcmpRouting(topo)
    trace = make_trace(
        topo, routing,
        SilentLinkDrops(n_failures=2, min_rate=5e-3, max_rate=1e-2),
        seed=3, n_passive=5000, n_probes=500,
    )
    print(f"simulated {len(trace.records)} flow records; ground truth:",
          sorted(topo.component_name(c)
                 for c in trace.ground_truth.failed_links))

    collector = Collector()
    with UdpCollectorServer(collector) as server:
        host, port = server.address
        print(f"collector listening on udp://{host}:{port}")
        transport = UdpTransport(host, port)
        agent = TelemetryAgent(transport, reveal_paths=True)
        t0 = time.perf_counter()
        agent.observe(trace.records)
        agent.flush()
        transport.close()
        # UDP may drop datagrams even on loopback: stop waiting once the
        # collector has ingested nothing new for STALL_SECONDS.
        seen, last_growth = -1, time.perf_counter()
        while collector.pending_reports < agent.exported_reports:
            now = time.perf_counter()
            if collector.pending_reports > seen:
                seen, last_growth = collector.pending_reports, now
            elif now - last_growth > STALL_SECONDS:
                break
            time.sleep(0.005)
        elapsed = time.perf_counter() - t0
        print(f"agent exported {agent.exported_reports} reports in "
              f"{agent.exported_messages} messages; collector ingested "
              f"{collector.pending_reports} in {elapsed*1e3:.0f} ms "
              f"({collector.pending_reports/elapsed:,.0f} reports/s)")
        lost = agent.exported_reports - collector.pending_reports
        if lost:
            print(f"{lost} report(s) lost in transit (UDP datagrams dropped)")

    # The drained reports become a flow batch, then take the same
    # path as every simulated trace.
    batch = batch_from_reports(collector.drain(), routing.path_space())
    observations = build_observation_batch(
        batch, TelemetryConfig.from_spec("INT"), np.random.default_rng(0)
    )
    problem = InferenceProblem.from_batch(
        observations, topo.n_components, topo.n_links
    )
    prediction = FlockInference(DEFAULT_PER_PACKET).localize(problem)
    print("localized:",
          sorted(topo.component_name(c) for c in prediction.components))
    metrics = evaluate_prediction(prediction, trace.ground_truth, topo)
    print(f"precision={metrics.precision:.2f} recall={metrics.recall:.2f}")


if __name__ == "__main__":
    main()
