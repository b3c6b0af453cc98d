"""Trace generation: topology + traffic + failure scenario -> telemetry.

A :class:`Trace` bundles everything one experiment repetition needs:
the topology and routing, the injected ground truth, and the simulated
flows that telemetry inputs are derived from.  Simulation is columnar
end to end (:class:`~repro.types.FlowBatch`); ``trace.records``
materializes the object view lazily for the consumers that iterate
records (the agent/collector path, dataset serialization).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..routing.ecmp import EcmpRouting
from ..simulation.failures import FailureScenario, Injection
from ..simulation.flowsim import simulate_traffic
from ..topology.base import Topology
from ..traffic.matrix import SKEWED, UNIFORM, make_matrix
from ..types import FlowBatch, FlowRecord, GroundTruth


class Trace:
    """One simulated monitoring interval.

    Its flows are the columnar ``batch`` (:class:`~repro.types.FlowBatch`),
    whether the simulator produced it or a dataset load rebuilt it.
    ``records`` is the object view of the same flows, materialized on
    first access and cached, so consumers that iterate records (the
    agent/collector path, dataset serialization) pay the per-record
    cost only when they do.
    """

    def __init__(
        self,
        topology: Topology,
        routing: EcmpRouting,
        injection: Injection,
        batch: FlowBatch,
        seed: int = 0,
        meta: Optional[Dict] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self.injection = injection
        self.batch = batch
        self.seed = seed
        self.meta = {} if meta is None else meta
        self._records: Optional[List[FlowRecord]] = None

    @property
    def records(self) -> List[FlowRecord]:
        """Object view of the trace's flows (lazy, cached)."""
        if self._records is None:
            self._records = self.batch.records()
        return self._records

    @property
    def n_flows(self) -> int:
        return len(self.batch)

    @property
    def ground_truth(self) -> GroundTruth:
        return self.injection.ground_truth

    @property
    def analysis(self) -> str:
        return self.injection.analysis


def make_trace(
    topology: Topology,
    routing: EcmpRouting,
    scenario: FailureScenario,
    seed: int,
    n_passive: int = 2000,
    n_probes: int = 500,
    traffic: str = UNIFORM,
    rng_mode: str = "vectorized",
) -> Trace:
    """Inject a scenario, generate traffic and probes, and simulate.

    ``traffic`` alternates between the paper's two patterns; section 6.3
    runs half of all traces with each.  The whole build is columnar:
    flows never exist as per-record Python objects, and path ids come
    from the routing's shared :class:`~repro.routing.paths.PathSpace`,
    so interning work amortizes across every trace of the batch.
    """
    # The one-value keyword stays because benchmarks/e2e passes it.
    if rng_mode != "vectorized":
        raise ValueError(f"rng_mode must be 'vectorized', got {rng_mode!r}")
    rng = np.random.default_rng(seed)
    injection = scenario.inject(topology, rng)
    # The matrix draws from the stream only when passive flows need it.
    matrix = make_matrix(topology, traffic, rng) if n_passive > 0 else None
    batch = simulate_traffic(routing, matrix, injection, rng, n_passive, n_probes)
    return Trace(
        topology=topology,
        routing=routing,
        injection=injection,
        batch=batch,
        seed=seed,
        meta={
            "traffic": traffic,
            "n_passive": n_passive,
            "n_probes": n_probes,
            "scenario": type(scenario).__name__,
        },
    )


def make_trace_batch(
    topology: Topology,
    routing: EcmpRouting,
    scenarios: List[FailureScenario],
    base_seed: int,
    alternate_traffic: bool = True,
    **kwargs,
) -> List[Trace]:
    """One trace per scenario, alternating uniform/skewed traffic.

    Mirrors section 6.3: "half the traces used uniform random traffic
    and the other half used a skewed traffic pattern".
    """
    traces = []
    for i, scenario in enumerate(scenarios):
        pattern = UNIFORM
        if alternate_traffic and i % 2 == 1:
            pattern = SKEWED
        traces.append(
            make_trace(
                topology,
                routing,
                scenario,
                seed=base_seed + i,
                traffic=pattern,
                **kwargs,
            )
        )
    return traces
