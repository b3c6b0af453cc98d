"""The plain layout of an observation batch, and object-view readers.

:meth:`repro.core.problem.InferenceProblem.from_batch` keeps factored
pair sets factored.  :func:`uncompressed_from_batch` expands every set
to full per-pair projections instead - each observation a plain
component set, as
:meth:`~repro.core.problem.InferenceProblem.from_observations` builds
it - so tests can require every kernel, view and prediction to agree
bitwise across the two layouts of the same rows.
:func:`object_problem` builds a trace's problem through the object
telemetry pipeline (:mod:`oracles.telemetry`) end to end.
"""

from __future__ import annotations

from typing import FrozenSet, List

import numpy as np

from repro.core.problem import InferenceProblem
from repro.eval.harness import effective_telemetry
from repro.telemetry.inputs import ObservationBatch, TelemetryConfig

from .telemetry import batch_observations, build_observations


def uncompressed_from_batch(
    batch: ObservationBatch, n_components: int, n_links: int
) -> InferenceProblem:
    """The batch's rows as plain sets of full projections."""
    return InferenceProblem.from_observations(
        batch_observations(batch), n_components, n_links
    )


def object_problem(trace, telemetry: TelemetryConfig) -> InferenceProblem:
    """A trace's problem through the object pipeline: its records,
    object observations, then ``from_observations`` - with the
    effective telemetry and sampling seed ``build_problem`` uses."""
    observations = build_observations(
        trace.records, trace.topology, trace.routing,
        effective_telemetry(trace, telemetry),
        np.random.default_rng(trace.seed + 0x5EED),
    )
    topo = trace.topology
    return InferenceProblem.from_observations(
        observations, topo.n_components, topo.n_links
    )


def path_component_sets(problem: InferenceProblem) -> List[FrozenSet[int]]:
    """Per full path (object-view ids), its frozen component set."""
    return [frozenset(comps) for comps in problem.path_table]


def n_paths(problem: InferenceProblem) -> int:
    """Number of full component paths (object-view ids)."""
    return len(problem.path_table)
