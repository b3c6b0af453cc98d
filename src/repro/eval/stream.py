"""Streaming localization monitor: ingest -> update -> localize cycles.

The :class:`StreamMonitor` is the online counterpart of the batch
harness (:mod:`repro.eval.harness`): it folds each simulated
:class:`~repro.simulation.stream.StreamChunk` into a sliding
:class:`~repro.core.window.WindowedProblem`, re-localizes, and emits a
:class:`CycleReport` per cycle with the incident-facing quantities -
was the live fault detected, how much did the hypothesis churn, how
long did the cycle take.

Warm starts: for Flock (greedy) and Gibbs the monitor carries the
previous cycle's :class:`~repro.core.flock_fast.VectorJleState` across
cycles and rebases it with the window's flow deltas
(:meth:`VectorJleState.rebase`), so steady-state re-localization skips
the full Δ initialization.  The first cycle is always cold; schemes
without JLE state (Sherlock, NetBouncer, 007) localize cold every
cycle on the incrementally-maintained window.  Warm and cold searches
agree at convergence; the Gibbs warm chain starts from the carried
hypothesis and is therefore a different chain than a cold run (see
:meth:`repro.core.gibbs.GibbsInference.localize`).

Detection latency is derived by :func:`incident_latencies`: an incident
is a maximal run of cycles whose live injection has non-empty ground
truth, and its latency is the time from incident onset to the first
cycle whose prediction names at least one truly-failed component.

Graceful degradation: a monitor built with ``cycle_budget`` (seconds,
per cycle) sheds accuracy instead of falling behind the stream.  After
ingest it checks the budget and walks a ladder - full localization
when there is time; a warm-started greedy pass in place of a Gibbs
chain when past half the budget; carrying the previous hypothesis
outright (skipping localization, window and warm state still
maintained) when the budget is spent.  :meth:`StreamMonitor.pump`
applies the same idea to backlog: when more chunks arrive than fit the
window, the oldest are shed, the middles are folded into the window
without localizing (coalesced), and only the newest chunk gets a full
cycle.  Every :class:`CycleReport` carries ``degraded`` /
``degrade_reason`` / ``shed_chunks`` / ``coalesced_chunks`` so an
operator can see exactly which cycles ran in reduced-fidelity mode.

Checkpointing: a monitor built with ``checkpoint_path`` snapshots its
resumable state every ``checkpoint_every`` cycles through the codec in
:mod:`repro.eval.serialize` (atomic write, checksummed).  A checkpoint
carries the retained window chunks, the warm JLE/contrib state, and
the cycle cursor; :meth:`StreamMonitor.from_checkpoint` rebuilds a
monitor mid-incident that produces bit-identical :class:`CycleReport`s
(timings aside) from the resume point.  Restoring replays
``build_observation_batch`` over every previously-ingested chunk -
:class:`~repro.routing.paths.PathSpace` interning is stateful and
order-dependent, so the replay must reproduce the original gsid
numbering - and cross-checks each retained chunk's regenerated arrays
against the checkpointed ones, failing loudly on any stream drift.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from ..core.flock import FlockInference
from ..core.flock_fast import DeltaContrib, VectorJleState
from ..core.gibbs import GibbsInference
from ..core.window import WindowedProblem
from ..errors import CheckpointError, ExperimentError
from ..simulation.stream import StreamChunk
from ..telemetry.inputs import build_observation_batch
from ..topology.base import Topology
from ..types import Prediction
from .harness import SchemeSetup, effective_telemetry
from .schemes import make_setup
from .serialize import (
    encode_stream_checkpoint,
    ndarray_from_wire,
    ndarray_to_wire,
    prediction_from_wire,
    prediction_to_wire,
)


@dataclass(frozen=True)
class CycleReport:
    """One monitor cycle's outcome."""

    cycle: int
    t_start: float
    t_end: float
    raw_flows: int
    grouped_flows: int
    prediction: Prediction
    truth: frozenset
    detected: bool
    churn: int
    build_seconds: float
    localize_seconds: float
    #: True when this cycle ran in any reduced-fidelity mode (budget
    #: ladder fired, or backlog was shed/coalesced on the way here).
    degraded: bool = False
    #: Which budget rung fired: ``None`` (full localization),
    #: ``"greedy"`` (warm greedy in place of a Gibbs chain), or
    #: ``"carried"`` (previous hypothesis reused, localization skipped).
    degrade_reason: Optional[str] = None
    #: Backlogged chunks dropped outright before this cycle.
    shed_chunks: int = 0
    #: Backlogged chunks folded into the window without localizing.
    coalesced_chunks: int = 0
    #: The monitor's per-cycle budget (``None`` when unbudgeted).
    budget_seconds: Optional[float] = None


def incident_latencies(reports: List[CycleReport]) -> List[Dict[str, object]]:
    """Detection latency per incident.

    Incidents are maximal runs of cycles with non-empty ground truth;
    ``latency_cycles``/``latency_seconds`` measure onset to the first
    detecting cycle (``None`` when the incident was never detected).
    """
    incidents: List[Dict[str, object]] = []
    onset: Optional[int] = None
    detected_at: Optional[int] = None
    # Key by cycle number, not list position: a resumed monitor's report
    # list starts mid-stream, so ``reports[i].cycle == i`` does not hold.
    by_cycle = {report.cycle: report for report in reports}

    def close(end: int) -> None:
        start = onset
        latency = None if detected_at is None else detected_at - start
        seconds = (
            None if detected_at is None
            else by_cycle[detected_at].t_end - by_cycle[start].t_start
        )
        incidents.append({
            "onset_cycle": start,
            "clear_cycle": end,
            "detected_cycle": detected_at,
            "latency_cycles": latency,
            "latency_seconds": seconds,
        })

    for report in reports:
        if report.truth:
            if onset is None:
                onset = report.cycle
                detected_at = None
            if detected_at is None and report.detected:
                detected_at = report.cycle
        elif onset is not None:
            close(report.cycle)
            onset = None
    if onset is not None:
        close(reports[-1].cycle + 1)
    return incidents


class StreamMonitor:
    """Drive ingest -> window update -> localize over a chunk stream."""

    def __init__(
        self,
        topology: Topology,
        scheme: str = "flock",
        window: int = 4,
        warm: bool = True,
        seed: int = 0,
        setup: Optional[SchemeSetup] = None,
        cycle_budget: Optional[float] = None,
        clock=time.perf_counter,
        checkpoint_every: int = 1,
        checkpoint_path: Optional[str] = None,
        checkpoint_meta: Optional[Dict] = None,
    ) -> None:
        if cycle_budget is not None:
            try:
                finite = math.isfinite(cycle_budget)
            except TypeError:
                finite = False
            if not finite or cycle_budget <= 0:
                raise ExperimentError(
                    "cycle_budget must be a positive finite number of "
                    f"seconds, got {cycle_budget!r}"
                )
        if isinstance(checkpoint_every, bool) or not isinstance(
            checkpoint_every, int
        ) or checkpoint_every < 1:
            raise ExperimentError(
                "checkpoint_every must be a positive integer number of "
                f"cycles, got {checkpoint_every!r}"
            )
        self.topology = topology
        self.scheme = scheme
        self._scheme_registered = setup is None
        self.setup = setup if setup is not None else make_setup(scheme)
        self.window = window
        self.seed = seed
        self.cycle_budget = cycle_budget
        self.clock = clock
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.checkpoint_meta: Dict = dict(checkpoint_meta or {})
        localizer = self.setup.localizer
        self.warm = warm and isinstance(
            localizer, (FlockInference, GibbsInference)
        )
        self.windowed = WindowedProblem(
            n_components=topology.n_components,
            n_links=topology.n_links,
            window=window,
        )
        self._state: Optional[VectorJleState] = None
        # Per retained chunk, the DeltaContrib its rows were priced at
        # when appended (None for chunks folded in cold) - replayed to
        # rebase when the chunk expires and the hypothesis held still.
        self._contribs: Deque[Optional[DeltaContrib]] = deque()
        self._prev_components: frozenset = frozenset()
        self._prev_prediction: Optional[Prediction] = None
        #: Running count of degraded cycles (for run summaries).
        self.degraded_cycles = 0
        #: Cycles emitted so far (drives the checkpoint cadence).
        self.cycles = 0
        #: Next chunk index to process; a resumed run feeds the monitor
        #: only chunks with ``index >= cursor``.
        self.cursor = 0
        # Every chunk index ever folded into the window, in ingest
        # order.  Checkpointed so a resume can replay the interning
        # sequence; shed chunks never appear here.
        self._ingested: List[int] = []

    def _ingest(self, chunk: StreamChunk):
        """Fold one chunk into the window (and warm state), no localize.

        Returns ``(obs, problem, state, build_seconds)`` where ``state``
        is the rebased :class:`VectorJleState` (``None`` for cold
        schemes).  Window bookkeeping and warm-state maintenance happen
        here unconditionally - degraded cycles skip *localization*,
        never state upkeep, so the next full cycle starts from a
        correct window.
        """
        config = effective_telemetry(chunk.injection, self.setup.telemetry)
        rng = np.random.default_rng(self.seed + 0x5EED + chunk.index)
        t0 = self.clock()
        obs = build_observation_batch(chunk.batch, config, rng)
        update = self.windowed.append(obs)
        problem = update.problem
        state: Optional[VectorJleState] = None
        if self.warm:
            localizer = self.setup.localizer
            expired_contrib = (
                self._contribs.popleft()
                if len(self._contribs) >= self.window else None
            )
            if self._state is None:
                state = VectorJleState(problem, localizer.params)
            else:
                state = VectorJleState.rebase(
                    problem,
                    self._state,
                    update.removed_flows,
                    update.removed_weights,
                    update.added_flows,
                    update.added_weights,
                    removed_contrib=expired_contrib,
                )
            self._contribs.append(state.added_contrib)
            self._state = state
        self._ingested.append(int(chunk.index))
        self.cursor = max(self.cursor, int(chunk.index) + 1)
        build_seconds = self.clock() - t0
        return obs, problem, state, build_seconds

    def _localize(self, problem, state, elapsed: float):
        """Budget ladder: pick a localization mode for this cycle.

        Returns ``(prediction, degrade_reason)``.  ``None`` reason is a
        full localization; ``"greedy"`` swapped a Gibbs chain for a
        warm greedy pass (past half budget); ``"carried"`` reused the
        previous hypothesis outright (budget spent).
        """
        localizer = self.setup.localizer
        budget = self.cycle_budget
        if (
            budget is not None
            and elapsed >= budget
            and self._prev_prediction is not None
        ):
            return self._prev_prediction, "carried"
        if (
            budget is not None
            and elapsed >= 0.5 * budget
            and state is not None
            and isinstance(localizer, GibbsInference)
        ):
            fallback = FlockInference(localizer.params)
            return fallback.localize(problem, warm_state=state), "greedy"
        if state is not None:
            if isinstance(localizer, GibbsInference):
                return localizer.localize(problem, initial_state=state), None
            return localizer.localize(problem, warm_state=state), None
        return localizer.localize(problem), None

    def _cycle(
        self, chunk: StreamChunk, shed: int, coalesced: int, start: float
    ) -> CycleReport:
        obs, problem, state, build_seconds = self._ingest(chunk)
        t0 = self.clock()
        prediction, degrade_reason = self._localize(
            problem, state, elapsed=t0 - start
        )
        localize_seconds = self.clock() - t0

        degraded = degrade_reason is not None or shed > 0 or coalesced > 0
        if degraded:
            self.degraded_cycles += 1
        truth = frozenset(chunk.injection.ground_truth.failed_components)
        report = CycleReport(
            cycle=chunk.index,
            t_start=chunk.t_start,
            t_end=chunk.t_end,
            raw_flows=len(obs),
            grouped_flows=problem.n_flows,
            prediction=prediction,
            truth=truth,
            detected=bool(prediction.components & truth),
            churn=len(prediction.components ^ self._prev_components),
            build_seconds=build_seconds,
            localize_seconds=localize_seconds,
            degraded=degraded,
            degrade_reason=degrade_reason,
            shed_chunks=shed,
            coalesced_chunks=coalesced,
            budget_seconds=self.cycle_budget,
        )
        self._prev_components = prediction.components
        self._prev_prediction = prediction
        self.cycles += 1
        return report

    def _autosave(self) -> None:
        if (
            self.checkpoint_path is not None
            and self.cycles % self.checkpoint_every == 0
        ):
            self.save_checkpoint(self.checkpoint_path)

    def step(self, chunk: StreamChunk) -> CycleReport:
        """Fold one chunk in and re-localize (budget ladder applies)."""
        report = self._cycle(chunk, shed=0, coalesced=0, start=self.clock())
        self._autosave()
        return report

    def pump(self, chunks: Iterable[StreamChunk]) -> CycleReport:
        """Drain a backlog of chunks as one degraded cycle.

        When ingest falls behind (a burst, or a slow previous cycle),
        more than one chunk is waiting.  Folding each through a full
        cycle would fall further behind, so: chunks beyond the window
        are shed outright (they would leave the window before ever
        being localized against), intermediate chunks are folded into
        the window without localizing (coalesced), and only the newest
        chunk gets a localization - itself subject to the budget
        ladder.  The returned report is the newest chunk's, carrying
        the shed/coalesced counts.
        """
        backlog = list(chunks)
        if not backlog:
            raise ExperimentError("pump needs at least one chunk")
        start = self.clock()
        shed = max(0, len(backlog) - self.window)
        backlog = backlog[shed:]
        for chunk in backlog[:-1]:
            self._ingest(chunk)
        report = self._cycle(
            backlog[-1], shed=shed, coalesced=len(backlog) - 1, start=start
        )
        self._autosave()
        return report

    def run(
        self,
        chunks: Iterable[StreamChunk],
        arrivals: Optional[Iterable[int]] = None,
    ) -> List[CycleReport]:
        """Run the full ingest -> update -> localize loop.

        ``arrivals`` optionally groups the chunk sequence into per-cycle
        delivery counts (e.g. from
        :meth:`repro.eval.chaos.ChaosPolicy.arrival_bursts`): each
        group of more than one chunk goes through :meth:`pump` as a
        burst.  Must sum to the number of chunks.
        """
        if arrivals is None:
            return [self.step(chunk) for chunk in chunks]
        stream = list(chunks)
        schedule = [int(n) for n in arrivals]
        if any(n < 1 for n in schedule) or sum(schedule) != len(stream):
            raise ExperimentError(
                f"arrival schedule {schedule} does not cover "
                f"{len(stream)} chunk(s)"
            )
        reports: List[CycleReport] = []
        cursor = 0
        for count in schedule:
            reports.append(self.pump(stream[cursor:cursor + count]))
            cursor += count
        return reports

    # -- checkpoint / resume ------------------------------------------

    def checkpoint_payload(self) -> Dict:
        """The monitor's resumable state as a wire-codec payload.

        Everything :meth:`from_checkpoint` needs that it cannot
        recompute from the regenerated stream: the monitor config, the
        ingest history and cursor, the retained chunks' observation
        arrays (stored for cross-validation against the replay), the
        warm JLE state's non-recomputable facts (hypothesis, Δ, ll,
        flips - bit-exact via the ndarray wire), the per-chunk contrib
        cache, and the previous cycle's prediction (the churn baseline
        and the ``"carried"`` budget rung).
        """
        if not self._scheme_registered:
            raise CheckpointError(
                "cannot checkpoint a monitor built from a custom "
                "SchemeSetup; construct it with a registry scheme name "
                "so a resume can rebuild the same setup"
            )
        retained = self.windowed.retained_chunk_observations() \
            if self._ingested else []
        indices = self._ingested[len(self._ingested) - len(retained):]
        state = self._state
        return {
            "config": {
                "scheme": self.scheme,
                "window": self.window,
                "seed": int(self.seed),
                "warm": bool(self.warm),
                "cycle_budget": self.cycle_budget,
                "n_components": int(self.topology.n_components),
                "n_links": int(self.topology.n_links),
            },
            "meta": dict(self.checkpoint_meta),
            "cursor": int(self.cursor),
            "cycles": int(self.cycles),
            "degraded_cycles": int(self.degraded_cycles),
            "ingested": list(self._ingested),
            "chunks": [
                {
                    "i": int(index),
                    "ps": ndarray_to_wire(obs.path_set),
                    "bad": ndarray_to_wire(obs.bad),
                    "sent": ndarray_to_wire(obs.sent),
                    "kind": ndarray_to_wire(obs.kind),
                }
                for index, obs in zip(indices, retained)
            ],
            "state": None if state is None else {
                "h": sorted(int(c) for c in state.hypothesis),
                "d": ndarray_to_wire(state.delta),
                "ll": float(state.ll),
                "f": int(state.flips),
            },
            "contribs": [
                None if contrib is None else {
                    "d": ndarray_to_wire(contrib.delta),
                    "ll": float(contrib.ll),
                    "h": sorted(int(c) for c in contrib.hypothesis),
                }
                for contrib in self._contribs
            ],
            "prev_components": sorted(
                int(c) for c in self._prev_components
            ),
            "prev_prediction": (
                None if self._prev_prediction is None
                else prediction_to_wire(self._prev_prediction)
            ),
        }

    def save_checkpoint(self, path: str) -> None:
        """Write a checkpoint atomically (write-then-rename).

        A crash mid-write leaves either the previous checkpoint or a
        stray ``.tmp`` file - never a torn document; the checksum in
        the document guards everything after the rename.
        """
        text = encode_stream_checkpoint(self.checkpoint_payload())
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def from_checkpoint(
        cls,
        payload: Dict,
        topology: Topology,
        chunks: Iterable[StreamChunk],
        clock=time.perf_counter,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> "StreamMonitor":
        """Rebuild a monitor from a decoded checkpoint payload.

        ``chunks`` is the regenerated stream (same scenario, seed, and
        sizing as the checkpointed run - the caller rebuilds it, e.g.
        via :func:`repro.simulation.stream.replay_stream`).  The
        restore replays ``build_observation_batch`` for every
        previously-ingested chunk, in order, against the fresh
        topology's PathSpace: interning is stateful, so the replay is
        what reproduces the checkpointed gsid numbering.  Each retained
        chunk's regenerated arrays are compared against the
        checkpointed ones and any mismatch raises
        :class:`~repro.errors.CheckpointError` - a resume against a
        drifted stream must fail loudly, not localize garbage.  So does
        a warm state whose ``"k"`` tag names a Δ layout other than the
        per-flow ``"numpy"`` one, and a config whose ``"compressed"``
        flag is anything but ``true`` (older checkouts wrote both; they
        are no longer written).

        After the replay the warm state, contrib cache, and cycle
        counters are restored verbatim; feeding the returned monitor
        the chunks with ``index >= monitor.cursor`` produces cycle
        reports bit-identical (timings aside) to the uninterrupted run.
        """
        for key in (
            "config", "meta", "cursor", "cycles", "degraded_cycles",
            "ingested", "chunks", "state", "contribs",
            "prev_components", "prev_prediction",
        ):
            if key not in payload:
                raise CheckpointError(
                    f"checkpoint payload is missing {key!r}"
                )
        state_wire = payload["state"]
        layout = "numpy" if state_wire is None else state_wire.get("k", "numpy")
        if layout != "numpy":
            # Older checkouts tagged the Δ layout; only per-flow pricing
            # (tagged "numpy") survives, and a Δ priced over another
            # layout differs from it in the last bits.
            raise CheckpointError(
                f"checkpoint warm state was priced with the {layout!r} "
                "kernel layout; this checkout prices per flow only "
                "(\"numpy\") - restart the stream cold"
            )
        config = payload["config"]
        if config.get("compressed", True) is not True:
            # Older checkouts could window uncompressed problems; this
            # one cannot build that configuration, so a resume refuses
            # it rather than silently continuing another one.
            raise CheckpointError(
                "checkpoint was taken with an uncompressed window "
                f"(\"compressed\": {config['compressed']!r}); this checkout "
                "windows compressed problems only - restart the stream "
                "cold"
            )
        if (
            int(config["n_components"]) != topology.n_components
            or int(config["n_links"]) != topology.n_links
        ):
            raise CheckpointError(
                f"checkpoint was taken on a fabric with "
                f"{config['n_components']} component(s) / "
                f"{config['n_links']} link(s); this topology has "
                f"{topology.n_components} / {topology.n_links} - "
                "resume with the same preset"
            )
        monitor = cls(
            topology,
            scheme=config["scheme"],
            window=int(config["window"]),
            warm=bool(config["warm"]),
            seed=int(config["seed"]),
            cycle_budget=config["cycle_budget"],
            clock=clock,
            checkpoint_every=1 if checkpoint_every is None else checkpoint_every,
            checkpoint_path=checkpoint_path,
            checkpoint_meta=payload["meta"],
        )

        by_index = {int(chunk.index): chunk for chunk in chunks}
        stored = {int(entry["i"]): entry for entry in payload["chunks"]}
        for index in payload["ingested"]:
            index = int(index)
            chunk = by_index.get(index)
            if chunk is None:
                raise CheckpointError(
                    f"checkpoint ingested chunk {index} but the "
                    "regenerated stream has no such chunk - resume "
                    "with the checkpointed scenario, seed, and sizing"
                )
            config_t = effective_telemetry(
                chunk.injection, monitor.setup.telemetry
            )
            rng = np.random.default_rng(monitor.seed + 0x5EED + index)
            obs = build_observation_batch(chunk.batch, config_t, rng)
            entry = stored.get(index)
            if entry is not None:
                for key, regenerated in (
                    ("ps", obs.path_set), ("bad", obs.bad),
                    ("sent", obs.sent), ("kind", obs.kind),
                ):
                    want = ndarray_from_wire(entry[key])
                    if want.shape != regenerated.shape or not np.array_equal(
                        want, regenerated
                    ):
                        raise CheckpointError(
                            f"regenerated chunk {index} diverges from "
                            f"the checkpointed observations ({key}) - "
                            "the stream parameters differ from the "
                            "checkpointed run"
                        )
            monitor.windowed.append(obs)
        monitor._ingested = [int(i) for i in payload["ingested"]]
        retained_now = monitor._ingested[
            len(monitor._ingested) - monitor.windowed.n_chunks:
        ] if monitor._ingested else []
        if sorted(stored) != sorted(retained_now):
            raise CheckpointError(
                "checkpointed window chunks do not match the replayed "
                "ingest history - the checkpoint is internally "
                "inconsistent"
            )

        if state_wire is not None:
            if not monitor.warm:
                raise CheckpointError(
                    "checkpoint carries warm JLE state but the restored "
                    "scheme does not warm-start"
                )
            localizer = monitor.setup.localizer
            monitor._state = VectorJleState.restore(
                monitor.windowed.problem,
                localizer.params,
                hypothesis=state_wire["h"],
                delta=ndarray_from_wire(state_wire["d"]),
                ll=float(state_wire["ll"]),
                flips=int(state_wire["f"]),
            )
        monitor._contribs = deque(
            None if contrib is None else DeltaContrib(
                delta=ndarray_from_wire(contrib["d"]),
                ll=float(contrib["ll"]),
                hypothesis=frozenset(int(c) for c in contrib["h"]),
            )
            for contrib in payload["contribs"]
        )
        monitor._prev_components = frozenset(
            int(c) for c in payload["prev_components"]
        )
        monitor._prev_prediction = (
            None if payload["prev_prediction"] is None
            else prediction_from_wire(payload["prev_prediction"])
        )
        monitor.degraded_cycles = int(payload["degraded_cycles"])
        monitor.cycles = int(payload["cycles"])
        monitor.cursor = int(payload["cursor"])
        return monitor
