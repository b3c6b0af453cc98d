#!/usr/bin/env python
"""Walk through a silent device-failure incident (paper section 7.2).

A line-card-style fault elevates the drop rate on most of one switch's
links.  Flock models devices as first-class components with a stricter
(5x on log-scale) prior, so it reports the *device* when the evidence
spans its links - instead of a pile of per-link alerts.

Run:  python examples/device_failure_incident.py
"""

from repro import (
    DEFAULT_PER_PACKET,
    EcmpRouting,
    FlockInference,
    SilentDeviceFailure,
    TelemetryConfig,
    build_problem,
    evaluate_prediction,
    three_tier_clos,
)
from repro.eval.scenarios import make_trace


def main():
    topo = three_tier_clos(
        pods=4, tors_per_pod=4, aggs_per_pod=2,
        core_groups=2, cores_per_group=2, hosts_per_tor=3,
    )
    routing = EcmpRouting(topo)

    scenario = SilentDeviceFailure(
        n_devices=1, min_link_fraction=0.75, max_link_fraction=1.0,
        min_rate=4e-3, max_rate=1e-2,
    )
    trace = make_trace(
        topo, routing, scenario, seed=13, n_passive=8000, n_probes=1200
    )
    truth = trace.ground_truth
    device = next(iter(truth.failed_devices))
    node = topo.component_device(device)
    print(f"incident: device {topo.name(node)} silently dropping packets on "
          f"{len(truth.drop_rates)}/{len(topo.device_links(node))} links")

    problem = build_problem(trace, TelemetryConfig.from_spec("INT"))
    prediction = FlockInference(DEFAULT_PER_PACKET).localize(problem)

    print("\nFlock's report:")
    for comp in sorted(prediction.components):
        kind = "DEVICE" if topo.is_device_component(comp) else "link"
        print(f"  [{kind}] {topo.component_name(comp)} "
              f"(log-gain {prediction.scores[comp]:.1f})")

    metrics = evaluate_prediction(prediction, truth, topo)
    print(f"\nprecision={metrics.precision:.2f} recall={metrics.recall:.2f}")
    if device in prediction.components:
        print("the faulty device itself was identified - one alert, "
              "not a flood of per-link pages")


if __name__ == "__main__":
    main()
