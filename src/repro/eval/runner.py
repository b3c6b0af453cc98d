"""Parallel experiment execution: the process pool, problem cache, streaming.

The harness used to run every (scheme, trace) pair strictly serially
and rebuild the telemetry observations for each scheme even when two
schemes consume the same input (the Fig. 2 grid evaluates eight schemes
over five distinct telemetry specs, so three of every eight problem
builds were redundant).  This module factors experiment execution into
three pieces:

* **Work units** - one unit per *trace*, covering every scheme on that
  trace (:func:`_run_trace_unit`).  Grouping by trace keeps the problem
  cache effective however traces are spread over workers: all schemes
  that share a telemetry spec hit the same cached problem.
* **One pool** - :attr:`RunnerConfig.jobs` is the only parallelism
  setting.  ``jobs == 1`` runs a plain loop; ``jobs > 1`` runs the
  units on a :class:`~concurrent.futures.ProcessPoolExecutor`.  A
  failure in any unit propagates out of :func:`run_grid` as the
  original exception; remaining units are cancelled rather than left
  to hang.
* **Streaming aggregation** - completed units feed per-scheme
  :class:`_SummaryAccumulator` objects as they arrive, so metric sums
  are folded in completion order while per-trace results stay in trace
  order.  Serial and pooled paths therefore produce bit-identical
  :class:`~repro.eval.harness.EvalSummary` metrics for fixed seeds.

Determinism: every work unit derives its randomness from the trace's
own seed (see :func:`~repro.eval.harness.build_problem`), so results do
not depend on the number of jobs or on completion order.
"""

from __future__ import annotations

import copy
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace as dataclass_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError


# ----------------------------------------------------------------------
# Process-pool world shipping
# ----------------------------------------------------------------------
#
# A columnar trace's batch carries the routing-global PathSpace, whose
# interned state grows with the whole experiment - pickling it with
# every task made per-task IPC volume proportional to total interned
# state.  Instead, each worker receives the shared (topology, routing)
# "worlds" once through the pool initializer (the routing object owns
# the PathSpace), and tasks ship *detached* trace clones that reference
# a world by index.

_WORKER_WORLDS: Optional[List[Tuple[object, object]]] = None


def _init_worker_worlds(worlds: List[Tuple[object, object]]) -> None:
    global _WORKER_WORLDS
    _WORKER_WORLDS = worlds


def detach_traces(traces: Sequence) -> Tuple[List[Tuple[object, object]], List]:
    """(worlds, per-trace payloads) for process-pool submission.

    A trace whose batch shares its routing's PathSpace is cloned with
    the topology/routing/space stripped and a world index attached; any
    other trace (a hand-built batch over a private space) ships
    unchanged.  Materialized record caches are dropped
    from clones - workers re-derive them from the batch if needed.
    """
    worlds: List[Tuple[object, object]] = []
    world_ids: Dict[int, int] = {}
    payloads: List = []
    for trace in traces:
        batch = trace.batch
        space = trace.routing._path_space
        if batch.space is not space:
            payloads.append(trace)
            continue
        key = id(trace.routing)
        idx = world_ids.get(key)
        if idx is None:
            idx = len(worlds)
            world_ids[key] = idx
            worlds.append((trace.topology, trace.routing))
        clone = copy.copy(trace)
        clone.topology = None
        clone.routing = None
        clone.batch = dataclass_replace(batch, space=None)
        clone._detached_world = idx
        payloads.append(clone)
    return worlds, payloads


def attach_trace(trace, worlds: Optional[List[Tuple[object, object]]] = None):
    """Re-attach a detached trace to its worker-resident world.

    No-op for traces that were never detached.  ``worlds`` defaults to
    the pool-initializer state.
    """
    idx = getattr(trace, "_detached_world", None)
    if idx is None:
        return trace
    if worlds is None:
        worlds = _WORKER_WORLDS
    if worlds is None:
        raise ExperimentError(
            "detached trace received outside an initialized worker"
        )
    topology, routing = worlds[idx]
    trace.topology = topology
    trace.routing = routing
    trace.batch = dataclass_replace(trace.batch, space=routing.path_space())
    trace._detached_world = None
    return trace


class GridHook:
    """The unit-boundary protocol behind ``RunnerConfig.shard``.

    A grid hook decides which trace indices of each :func:`run_grid`
    call actually execute, and carries results across the process (or
    machine) boundary in wire form.  Two sides share the protocol:

    * **Record side** (``is_replay = False``): :meth:`plan_call` peeks
      the index range the *next* grid call would execute without
      opening it - :func:`~repro.eval.spec.run_spec` consults it before
      generating a point's traces, so a worker whose hook covers none
      of a call's traces skips that point's trace generation entirely.
      :meth:`select_call` then opens the call record and returns the
      indices to execute; :meth:`record` captures each executed trace
      unit's per-setup results in wire form.
    * **Replay side** (``is_replay = True``): :meth:`replay_call`
      returns previously recorded ``(trace_idx, [TraceResult])`` units
      for the next call; nothing executes.

    Concrete hooks live in :mod:`repro.eval.units` (the fleet's
    work-unit recorder and replayer).
    """

    is_replay = False

    def plan_call(self, labels: Sequence[str], n_traces: int) -> range:
        raise NotImplementedError

    def select_call(self, labels: Sequence[str], n_traces: int) -> range:
        raise NotImplementedError

    def record(self, trace_idx: int, results: Sequence) -> None:
        raise NotImplementedError

    def replay_call(self, labels: Sequence[str], n_traces: int):
        raise NotImplementedError


@dataclass(frozen=True)
class RunnerConfig:
    """How to execute an evaluation grid.

    ``jobs`` is the worker count: 1 runs the grid serially, more runs
    it on a process pool of that many workers.  ``cache`` disables the
    per-trace problem cache, which only exists so benchmarks can
    measure the legacy rebuild-per-scheme behaviour.

    ``shard`` selects distributed execution via a :class:`GridHook`: a
    record-side hook (the fleet's
    :class:`~repro.eval.units.SingleUnitRecorder`) restricts
    :func:`run_grid` to its trace-index range and captures each
    executed unit's results in wire form, while the replay-side
    :class:`~repro.eval.units.UnitReplayer` skips execution entirely
    and folds previously recorded results through the same streaming
    accumulators.  ``None`` (the default) runs everything locally.
    """

    jobs: int = 1
    cache: bool = True
    shard: Optional[object] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")

    @staticmethod
    def resolve(
        runner: Optional["RunnerConfig"] = None,
        jobs: Optional[int] = None,
    ) -> "RunnerConfig":
        """Normalize the (runner | jobs) calling conventions: an
        explicit ``runner`` wins, then ``jobs`` (the CLI's ``--jobs``),
        then the serial default."""
        if runner is not None:
            return runner
        return RunnerConfig() if jobs is None else RunnerConfig(jobs=jobs)


@dataclass
class RunnerStats:
    """Observability counters filled in by :func:`run_grid`."""

    traces_run: int = 0
    problems_built: int = 0
    cache_hits: int = 0

    def merge(self, built: int, hits: int) -> None:
        self.traces_run += 1
        self.problems_built += built
        self.cache_hits += hits


class ProblemCache:
    """Memoizes built inference problems within one trace's work unit.

    Keyed by the *effective* telemetry config (after the per-flow
    analysis override), so e.g. ``Flock (A2)`` and ``007 (A2)`` share
    one build.  Distinct specs still share work: a trace's batch
    carries a shared :class:`~repro.routing.paths.PathSpace` whose
    memoized component projections serve every build of the trace
    (and every trace of the batch).  Records the original build time with each entry so cache
    hits still report the cost of constructing their problem.
    """

    def __init__(self) -> None:
        self._entries: Dict[object, Tuple[object, float]] = {}
        self.hits = 0

    def get(self, trace, telemetry):
        """Return (problem, build_seconds) for a trace + telemetry spec."""
        from .harness import effective_telemetry, timed_build

        key = effective_telemetry(trace, telemetry)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        entry = timed_build(trace, telemetry)
        self._entries[key] = entry
        return entry

    @property
    def builds(self) -> int:
        return len(self._entries)


def _run_trace_unit(setups, trace, use_cache: bool, keep_problems: bool = True):
    """Run every scheme on one trace; the unit of parallel work.

    Returns (per-setup TraceResults, problems built, cache hits).
    ``keep_problems=False`` drops each result's ``problem`` before it
    crosses a process boundary: the parent only needs predictions and
    metrics, and pickling every problem's arrays back over IPC can
    rival the inference work itself.
    """
    from .harness import score_problem, timed_build

    trace = attach_trace(trace)
    cache = ProblemCache()
    results = []
    for setup in setups:
        if use_cache:
            problem, build_seconds = cache.get(trace, setup.telemetry)
        else:
            problem, build_seconds = timed_build(trace, setup.telemetry)
        result = score_problem(setup, trace, problem, build_seconds)
        if not keep_problems:
            result.problem = None
        results.append(result)
    built = cache.builds if use_cache else len(setups)
    return results, built, cache.hits


class _SummaryAccumulator:
    """Streams one scheme's TraceResults into an EvalSummary.

    Units complete out of order on the pool; results are
    slotted by trace index so ``per_trace`` and the aggregated metrics
    match the serial path exactly.
    """

    def __init__(self, setup, n_traces: int):
        self._setup = setup
        self._slots: List[Optional[object]] = [None] * n_traces

    def add(self, trace_idx: int, result) -> None:
        self._slots[trace_idx] = result

    def finish(self):
        from .harness import summarize

        results = [r for r in self._slots if r is not None]
        return summarize(self._setup, results)


def _make_pool(
    config: RunnerConfig, worlds: List[Tuple[object, object]]
) -> ProcessPoolExecutor:
    # Shared worlds (topology + routing + its PathSpace) ship once per
    # worker via the initializer instead of once per task.
    return ProcessPoolExecutor(
        max_workers=config.jobs,
        initializer=_init_worker_worlds,
        initargs=(worlds,),
    )


def run_grid(
    setups: Sequence,
    traces: Sequence,
    config: Optional[RunnerConfig] = None,
    stats: Optional[RunnerStats] = None,
) -> Dict[str, object]:
    """Evaluate a scheme x trace grid, serially or on the process pool.

    Returns ``{setup.labeled(): EvalSummary}`` in setup order.  Raises
    :class:`ExperimentError` when two setups share a label (their
    summaries would silently overwrite each other).

    Parallelism is across *traces* (the work unit that keeps the
    problem cache effective), so a single-trace grid always runs
    serially: pool overhead would dominate, and per-scheme timing
    experiments (fig4d) stay undistorted by worker contention.

    When ``config.shard`` is set, the grid either executes only the
    hook's contiguous index range (recording wire-format results for a
    later collect) or replays recorded results without executing at
    all; see :mod:`repro.eval.units`.  Replay builds no problems and
    runs no traces, so ``stats`` counters stay untouched on that path.
    """
    config = config or RunnerConfig()
    labels = [setup.labeled() for setup in setups]
    duplicates = sorted({l for l in labels if labels.count(l) > 1})
    if duplicates:
        raise ExperimentError(
            f"duplicate scheme labels in evaluation grid: {duplicates}; "
            "give setups distinct names"
        )
    accumulators = [
        _SummaryAccumulator(setup, len(traces)) for setup in setups
    ]

    def finish() -> Dict[str, object]:
        return {
            label: acc.finish() for label, acc in zip(labels, accumulators)
        }

    shard = config.shard
    if shard is not None and shard.is_replay:
        # Collect path: fold previously recorded wire results through the
        # same accumulators that serial execution streams into.  Trace
        # generation already happened in the caller; nothing runs here.
        for idx, results in shard.replay_call(labels, len(traces)):
            for acc, result in zip(accumulators, results):
                acc.add(idx, result)
        return finish()

    if shard is not None:
        indices = list(shard.select_call(labels, len(traces)))
    else:
        indices = list(range(len(traces)))

    def fold(trace_idx: int, outcome) -> None:
        results, built, hits = outcome
        if shard is not None:
            shard.record(trace_idx, results)
        for acc, result in zip(accumulators, results):
            acc.add(trace_idx, result)
        if stats is not None:
            stats.merge(built, hits)

    if config.jobs == 1 or len(indices) <= 1:
        for idx in indices:
            fold(idx, _run_trace_unit(setups, traces[idx], config.cache))
    else:
        worlds, payloads = detach_traces(traces)
        with _make_pool(config, worlds) as pool:
            pending: Dict[object, int] = {}
            try:
                for idx in indices:
                    future = pool.submit(
                        _run_trace_unit, setups, payloads[idx], config.cache,
                        keep_problems=False,
                    )
                    pending[future] = idx
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        idx = pending.pop(future)
                        # .result() re-raises a worker's exception here
                        # instead of letting the grid hang half-finished.
                        fold(idx, future.result())
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
    return finish()
