"""Trace-construction benchmark: simulate -> telemetry -> problem.

Times the struct-of-arrays pipeline (SpecBatch -> FlowBatch ->
ObservationBatch -> ``InferenceProblem.from_batch``) at the ci preset,
one fresh trace per round over a warm shared PathSpace.  Its
bit-identity with the object pipeline oracle is swept in
``tests/test_columnar_equivalence.py``.

``benchmarks/run_benchmarks.py`` measures the same workload standalone
(``trace_build_columnar``) into ``BENCH_<label>.json``.
"""

import numpy as np
import pytest

from repro.core.problem import InferenceProblem
from repro.eval.experiments import standard_topology
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting
from repro.simulation import SilentLinkDrops
from repro.telemetry.inputs import TelemetryConfig, build_observation_batch

N_PASSIVE = 20_000
N_PROBES = 2_000


@pytest.fixture(scope="module")
def world():
    topo = standard_topology("ci")
    routing = EcmpRouting(topo)
    telemetry = TelemetryConfig.from_spec("A1+A2+P")
    scenario = SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2)
    # Warm the shared PathSpace: experiments amortize interning across
    # their whole trace batch, so steady state is what we measure.
    make_trace(topo, routing, scenario, seed=1,
               n_passive=N_PASSIVE, n_probes=N_PROBES)
    return topo, routing, telemetry, scenario


def _columnar(topo, routing, telemetry, scenario, seed):
    trace = make_trace(topo, routing, scenario, seed=seed,
                       n_passive=N_PASSIVE, n_probes=N_PROBES)
    batch = build_observation_batch(
        trace.batch, telemetry, np.random.default_rng(5)
    )
    return InferenceProblem.from_batch(batch, topo.n_components, topo.n_links)


def test_trace_build_columnar(benchmark, world):
    problem = benchmark(_columnar, *world, 7)
    assert problem.total_flows == N_PASSIVE + N_PROBES
