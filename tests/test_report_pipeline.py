"""Collector wire reports go through the one telemetry pipeline.

Reports -> ``batch_from_reports`` -> ``build_observation_batch`` ->
``InferenceProblem.from_batch`` must equal, bit for bit, the literal
per-report loop of the paper's input rules (``oracles.telemetry``)
followed by ``from_observations``: same problem, same Flock
prediction.  And a trace's reports, with every path revealed and
nothing sampled, must give exactly the observation columns of the
trace's own batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.telemetry import build_observations
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_FLOW, DEFAULT_PER_PACKET
from repro.core.problem import InferenceProblem
from repro.eval.experiments import standard_topology
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting
from repro.simulation.failures import (
    PER_FLOW,
    PER_PACKET,
    make_scenario,
    scenario_names,
)
from repro.simulation.latency import RTT_BAD_THRESHOLD_MS
from repro.telemetry import (
    Collector,
    FlowReport,
    InMemoryTransport,
    TelemetryAgent,
    TelemetryConfig,
    batch_from_reports,
    build_observation_batch,
)
from repro.topology import fat_tree
from test_columnar_equivalence import _assert_problems_identical

SPECS = ("A1", "A2", "P", "INT", "A1+A2+P", "A2+P", "INT+P", "A1+P")

TOPO = fat_tree(4)
ROUTING = EcmpRouting(TOPO)
HOSTS = tuple(TOPO.hosts)
CORES = tuple(TOPO.cores)
THRESHOLD_US = int(RTT_BAD_THRESHOLD_MS * 1000)


@st.composite
def reports(draw):
    """One wire report: probe or passive, traced or pathless, flagged
    or clean, its RTT below, at or above the per-flow threshold."""
    if draw(st.booleans()):
        src, dst = draw(st.sampled_from(HOSTS)), draw(st.sampled_from(CORES))
        paths = ROUTING.probe_paths(src, dst)
        is_probe = True
    else:
        src, dst = draw(
            st.lists(st.sampled_from(HOSTS), min_size=2, max_size=2, unique=True)
        )
        paths = ROUTING.host_paths(src, dst)
        is_probe = False
    path = draw(st.sampled_from(paths)) if draw(st.booleans()) else None
    sent = draw(st.integers(min_value=1, max_value=60))
    retx = (
        draw(st.integers(min_value=1, max_value=min(sent, 6)))
        if draw(st.booleans()) else 0
    )
    rtt_us = draw(st.one_of(
        st.integers(min_value=0, max_value=2 * THRESHOLD_US),
        st.sampled_from((THRESHOLD_US - 1, THRESHOLD_US, THRESHOLD_US + 1)),
    ))
    return FlowReport(
        src=src, dst=dst, packets_sent=sent, retransmissions=retx,
        rtt_us=rtt_us, is_probe=is_probe, path=path,
    )


@settings(max_examples=40, deadline=None)
@given(
    report_list=st.lists(reports(), max_size=40),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_report_batch_matches_the_per_report_oracle(report_list, seed):
    # One space for every build of the example, as a collector keeps
    # one per fabric.
    space = EcmpRouting(TOPO).path_space()
    for spec in SPECS:
        for analysis, params in (
            (PER_PACKET, DEFAULT_PER_PACKET), (PER_FLOW, DEFAULT_PER_FLOW),
        ):
            for sampling in (1.0, 0.5):
                config = TelemetryConfig.from_spec(
                    spec, analysis=analysis, passive_sampling=sampling
                )
                batch = batch_from_reports(report_list, space)
                col = InferenceProblem.from_batch(
                    build_observation_batch(
                        batch, config, np.random.default_rng(seed)
                    ),
                    TOPO.n_components, TOPO.n_links,
                )
                obj = InferenceProblem.from_observations(
                    build_observations(
                        report_list, TOPO, ROUTING, config,
                        np.random.default_rng(seed),
                    ),
                    TOPO.n_components, TOPO.n_links,
                )
                _assert_problems_identical(col, obj)
                flock = FlockInference(params)
                pred_col, pred_obj = flock.localize(col), flock.localize(obj)
                assert pred_col.components == pred_obj.components
                assert pred_col.scores == pred_obj.scores
                assert pred_col.log_likelihood == pred_obj.log_likelihood


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_revealed_reports_give_the_traces_own_observations(
    tiny_world, scenario_name
):
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario(scenario_name), seed=31,
        n_passive=1_200, n_probes=200,
    )
    transport = InMemoryTransport()
    agent = TelemetryAgent(transport, reveal_paths=True)
    agent.observe(trace.batch)
    agent.flush()
    collector = Collector()
    for message in transport.drain():
        collector.ingest(message)
    wire = batch_from_reports(collector.drain(), trace.batch.space)
    assert len(wire) == len(trace.batch)
    for spec in SPECS:
        config = TelemetryConfig.from_spec(spec, analysis=PER_PACKET)
        ours = build_observation_batch(wire, config, np.random.default_rng(3))
        theirs = build_observation_batch(
            trace.batch, config, np.random.default_rng(3)
        )
        for column in ("path_set", "bad", "sent", "kind"):
            assert np.array_equal(
                getattr(ours, column), getattr(theirs, column)
            ), (spec, column)
