#!/usr/bin/env python
"""Quickstart: localize silent packet drops in a simulated datacenter.

Builds a k=4 fat-tree, silently fails two fabric links, monitors ~4000
application flows plus active probes, and runs Flock's greedy+JLE MLE
inference on the combined A1+A2+P telemetry.

Run:  python examples/quickstart.py
"""

from repro import (
    DEFAULT_PER_PACKET,
    EcmpRouting,
    FlockInference,
    SilentLinkDrops,
    TelemetryConfig,
    build_problem,
    evaluate_prediction,
    fat_tree,
    make_trace,
)


def main():
    # 1. A datacenter fabric and its ECMP routing.
    topo = fat_tree(4)
    routing = EcmpRouting(topo)
    print(f"fabric: {topo}")

    # 2. Inject a gray failure: two links silently dropping 0.4%-1% of
    #    packets, invisible to switch counters.
    scenario = SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2)
    trace = make_trace(
        topo, routing, scenario, seed=7, n_passive=4000, n_probes=600
    )
    truth = trace.ground_truth
    print("ground truth:",
          sorted(topo.component_name(c) for c in truth.failed_links))

    # 3. Telemetry: active probes (A1), traced flagged flows (A2), and
    #    passive flow reports with ECMP path uncertainty (P).
    telemetry = TelemetryConfig.from_spec("A1+A2+P")
    problem = build_problem(trace, telemetry)
    print(problem.describe())

    # 4. Inference.
    prediction = FlockInference(DEFAULT_PER_PACKET).localize(problem)
    print("predicted:",
          sorted(topo.component_name(c) for c in prediction.components))
    print(f"hypotheses scanned: {prediction.hypotheses_scanned}")

    # 5. Score it.
    metrics = evaluate_prediction(prediction, truth, topo)
    print(f"precision={metrics.precision:.2f} recall={metrics.recall:.2f}")


if __name__ == "__main__":
    main()
