"""Chunked scenario replay: a long trace as a stream of timestamped
:class:`~repro.types.FlowBatch` chunks.

The batch pipeline builds one monitoring interval and localizes once;
the stream driver emits the same columnar flows as a sequence of
chunks, the unit the sliding-window monitor folds in.  The columnar
RNG-stream discipline continues: one ``default_rng(seed)`` drives the
injection schedule, the traffic matrix, and every chunk's flow
generation and simulation in a fixed order, so a stream is fully
reproducible from ``(topology, scenario, seed, shape)``.

Mid-stream changes come from two places:

* the scenario's :meth:`~repro.simulation.failures.FailureScenario
  .inject_schedule` (e.g. the gray-drift scenario's per-chunk drop-rate
  plans), and
* the driver-level ``onset_chunk``/``clear_chunk`` window, which
  replaces the injection with its *healthy twin* (failed links' rates
  zeroed, ground truth emptied, same analysis mode) outside the
  incident - so detection latency and hypothesis churn are measurable
  against a known onset.

Arrival times are a deterministic per-chunk ramp (no extra RNG draws):
chunk ``i`` spans ``[i * chunk_seconds, (i+1) * chunk_seconds)`` with
flows spread uniformly across it in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..errors import SimulationError
from ..routing.ecmp import EcmpRouting
from ..topology.base import Topology
from ..traffic.matrix import UNIFORM, make_matrix
from ..types import FlowBatch, GroundTruth
from .failures import FailureScenario, Injection
from .flowsim import simulate_traffic


@dataclass(frozen=True)
class StreamChunk:
    """One cycle's worth of simulated flows.

    ``batch`` carries a ``t_start`` column; ``injection`` is the fault
    state that was live while the chunk's flows ran (the per-cycle
    ground truth incident reports compare against).
    """

    index: int
    t_start: float
    t_end: float
    batch: FlowBatch
    injection: Injection


def healthy_twin(injection: Injection) -> Injection:
    """The no-incident version of an injection.

    Failed/flapped links' drop rates go to zero and the ground truth
    empties, but the latency model and analysis mode stay, so telemetry
    is homogeneous across a window that straddles the incident onset.
    """
    affected = set(injection.ground_truth.drop_rates) | set(
        injection.flapped_links
    )
    plan = injection.plan.with_rates({link: 0.0 for link in affected})
    return Injection(
        ground_truth=GroundTruth(),
        plan=plan,
        flapped_links=frozenset(),
        latency_model=injection.latency_model,
        analysis=injection.analysis,
    )


def replay_stream(
    topology: Topology,
    routing: EcmpRouting,
    scenario: FailureScenario,
    seed: int,
    n_chunks: int,
    flows_per_chunk: int = 500,
    probes_per_chunk: int = 100,
    chunk_seconds: float = 1.0,
    traffic: str = UNIFORM,
    onset_chunk: int = 0,
    clear_chunk: Optional[int] = None,
) -> Iterator[StreamChunk]:
    """Generate a scenario replay as a lazy stream of chunks.

    The incident is live for chunks ``[onset_chunk, clear_chunk)``
    (``clear_chunk=None`` keeps it live to the end); outside that
    window each chunk simulates under the injection's healthy twin.
    """
    if n_chunks < 1:
        raise SimulationError("a stream needs at least one chunk")
    if not 0 <= onset_chunk <= n_chunks:
        raise SimulationError("onset_chunk must be within the stream")
    if clear_chunk is not None and clear_chunk < onset_chunk:
        raise SimulationError("clear_chunk cannot precede onset_chunk")
    if chunk_seconds <= 0:
        raise SimulationError("chunk_seconds must be positive")

    rng = np.random.default_rng(seed)
    schedule: List[Injection] = scenario.inject_schedule(
        topology, rng, n_chunks
    )
    matrix = make_matrix(topology, traffic, rng)

    for i in range(n_chunks):
        injection = schedule[i]
        live = i >= onset_chunk and (clear_chunk is None or i < clear_chunk)
        if not live:
            injection = healthy_twin(injection)
        batch = simulate_traffic(
            routing, matrix, injection, rng, flows_per_chunk, probes_per_chunk
        )
        t0 = i * chunk_seconds
        n = len(batch)
        t_start = t0 + (
            np.arange(n, dtype=np.float64) / max(1, n)
        ) * chunk_seconds
        yield StreamChunk(
            index=i,
            t_start=t0,
            t_end=t0 + chunk_seconds,
            batch=batch.with_t_start(t_start),
            injection=injection,
        )
