"""Scheme-running harness: telemetry -> problem -> localize -> metrics.

A :class:`SchemeSetup` pairs a localizer with the telemetry input it
consumes (the paper annotates every scheme this way: "Flock (A1+A2+P)",
"NetBouncer (INT)", "007 (A2)", ...).  Setups are usually constructed
by name through the scheme registry (:func:`repro.eval.schemes.make_setup`),
and whole evaluation grids by declarative experiment specs
(:mod:`repro.eval.spec`); this module is the execution substrate both
sit on.  The harness builds the inference problem for each trace, runs
localization, times it, and scores the prediction.

Execution architecture
----------------------

:func:`evaluate` and :func:`evaluate_many` are thin front-ends over the
runner subsystem in :mod:`repro.eval.runner`:

* The grid of (scheme, trace) work is partitioned into per-*trace*
  units so schemes sharing a telemetry spec build their observations
  once per trace through a :class:`~repro.eval.runner.ProblemCache`.
* A :class:`~repro.eval.runner.RunnerConfig` sets the worker count:
  one runs the grid serially, more run it on a process pool;
  ``evaluate_many(..., jobs=N)`` is shorthand for the same.  Results
  are streamed into per-scheme accumulators as units complete, then
  frozen into :class:`EvalSummary` objects.
* All randomness derives from each trace's seed, so serial and pooled
  runs produce bit-identical metrics for fixed seeds.
* Batches can additionally be distributed across OS processes or
  machines as fleet work units (:mod:`repro.eval.fleet`), with only
  wire-format results (:mod:`repro.eval.serialize`) crossing back;
  collected summaries stay bit-identical to serial ones.

The timing split matters for the runtime figures (Fig. 4c/4d):
``build_seconds`` is problem construction (telemetry -> observations ->
:class:`InferenceProblem`) and ``inference_seconds`` is localization
proper; :class:`EvalSummary` reports the mean of each separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.problem import InferenceProblem
from ..simulation.failures import PER_FLOW, Injection
from ..telemetry.inputs import TelemetryConfig, build_observation_batch
from ..types import Prediction
from .metrics import AggregateMetrics, TraceMetrics, aggregate, evaluate_prediction
from .scenarios import Trace


@dataclass(frozen=True)
class SchemeSetup:
    """A named localizer plus the telemetry it ingests."""

    name: str
    localizer: object
    telemetry: TelemetryConfig

    def labeled(self) -> str:
        return f"{self.name} ({self.telemetry.spec})"


@dataclass
class TraceResult:
    """Outcome of one scheme on one trace.

    ``problem`` is ``None`` for results produced on the process pool
    or decoded from the wire format
    (:mod:`repro.eval.serialize`) - shipping the built problem over
    IPC or between machines is not worth it; rebuild with
    :func:`build_problem` if you need it.
    """

    prediction: Prediction
    metrics: TraceMetrics
    build_seconds: float
    inference_seconds: float
    problem: Optional[InferenceProblem]


@dataclass
class EvalSummary:
    """Aggregated outcome of one scheme over many traces.

    Serializable via :func:`repro.eval.serialize.eval_summary_to_wire`;
    a summary collected from fleet work units (:mod:`repro.eval.fleet`)
    is bit-identical in metrics to one computed by a serial run.
    """

    setup_label: str
    per_trace: List[TraceResult]
    accuracy: AggregateMetrics
    mean_inference_seconds: float
    mean_build_seconds: float = 0.0

    @property
    def fscore(self) -> float:
        return self.accuracy.fscore


def effective_telemetry(
    trace: Union[Trace, Injection], telemetry: TelemetryConfig
) -> TelemetryConfig:
    """The telemetry config a trace (or a stream chunk's injection) is
    actually built with.

    The telemetry analysis mode follows the scenario: a
    per-flow-analysis trace (link flap) overrides the config's mode,
    exactly as the paper switches analyses per failure type.  Problem
    caching keys on this, not the raw config.
    """
    if trace.analysis == PER_FLOW and telemetry.analysis != PER_FLOW:
        return replace(telemetry, analysis=PER_FLOW)
    return telemetry


def build_problem(trace: Trace, telemetry: TelemetryConfig) -> InferenceProblem:
    """Build a scheme's inference problem for a trace.

    The trace's :class:`~repro.types.FlowBatch` goes through the
    struct-of-arrays pipeline: vectorized masking, then ``np.unique``
    grouping, with path lookups memoized in the batch's shared
    :class:`~repro.routing.paths.PathSpace`.
    """
    config = effective_telemetry(trace, telemetry)
    rng = np.random.default_rng(trace.seed + 0x5EED)
    obs = build_observation_batch(trace.batch, config, rng)
    return InferenceProblem.from_batch(
        obs,
        n_components=trace.topology.n_components,
        n_links=trace.topology.n_links,
    )


def timed_build(
    trace: Trace, telemetry: TelemetryConfig
) -> Tuple[InferenceProblem, float]:
    """Build a problem and measure construction time."""
    t0 = time.perf_counter()
    problem = build_problem(trace, telemetry)
    return problem, time.perf_counter() - t0


def score_problem(
    setup: SchemeSetup,
    trace: Trace,
    problem: InferenceProblem,
    build_seconds: float,
) -> TraceResult:
    """Localize on an already-built problem and score the prediction."""
    t0 = time.perf_counter()
    prediction = setup.localizer.localize(problem)
    inference_seconds = time.perf_counter() - t0
    metrics = evaluate_prediction(prediction, trace.ground_truth, trace.topology)
    return TraceResult(
        prediction=prediction,
        metrics=metrics,
        build_seconds=build_seconds,
        inference_seconds=inference_seconds,
        problem=problem,
    )


def run_on_trace(setup: SchemeSetup, trace: Trace) -> TraceResult:
    """Run one scheme on one trace and score it."""
    problem, build_seconds = timed_build(trace, setup.telemetry)
    return score_problem(setup, trace, problem, build_seconds)


def summarize(setup: SchemeSetup, results: Sequence[TraceResult]) -> EvalSummary:
    """Freeze a scheme's per-trace results into an EvalSummary."""
    acc = aggregate([r.metrics for r in results])
    n = len(results)
    return EvalSummary(
        setup_label=setup.labeled(),
        per_trace=list(results),
        accuracy=acc,
        mean_inference_seconds=(
            sum(r.inference_seconds for r in results) / n if n else 0.0
        ),
        mean_build_seconds=(
            sum(r.build_seconds for r in results) / n if n else 0.0
        ),
    )


def evaluate(
    setup: SchemeSetup,
    traces: Sequence[Trace],
    runner: Optional["RunnerConfig"] = None,
) -> EvalSummary:
    """Run one scheme over a batch of traces and aggregate."""
    from .runner import run_grid

    return run_grid([setup], traces, runner)[setup.labeled()]


def evaluate_many(
    setups: Sequence[SchemeSetup],
    traces: Sequence[Trace],
    runner: Optional["RunnerConfig"] = None,
    *,
    jobs: Optional[int] = None,
) -> Dict[str, EvalSummary]:
    """Evaluate several schemes on the same traces (the paper's tables).

    ``runner`` gives full control over execution; ``jobs`` is a
    convenience (``jobs=4`` means a 4-worker process pool).
    Raises :class:`~repro.errors.ExperimentError` when two setups share
    a label, since their results would silently overwrite each other.
    """
    from .runner import RunnerConfig, run_grid

    config = RunnerConfig.resolve(runner, jobs)
    return run_grid(setups, traces, config)
