"""Fleet evaluation: broker-driven workers and the result collector.

The one distribution policy over :mod:`repro.eval.units`.  One
submitter decomposes an experiment into work units and loads them into
a SQLite :class:`~repro.eval.broker.Broker`; any number of workers -
started at any time, on any machine sharing the broker file - pull
units, execute them through the ordinary :func:`~repro.eval.spec.run_spec`
machinery, and write wire-codec results back; the collector
reassembles the full :class:`~repro.eval.spec.ExperimentResult`,
bit-identical to a serial ``repro-flock run`` for the same spec.

Flow::

    submit(path, "fig2", preset="tiny")        # units -> broker
    work(path)  x N processes                  # lease, run, complete
    result = collect(path)                     # fold + replay

A *static shard* is the same flow over a slice: ``submit(path_i, ...,
shard=(i, n))`` enqueues only the ``i``-th of ``n`` balanced contiguous
ranges of the experiment's units into its own broker file, merged into
one unit per grid call so the worker's process pool spreads each
call's traces; one worker drains it, and ``collect(path_0, ...,
path_n-1)`` folds every file's units together (``repro-flock run EXP
--shards N --shard-index I --out sI.db`` is sugar for submit + work).

Fault tolerance comes from the broker's lease lifecycle: a worker that
dies mid-unit simply stops renewing its claim, the lease expires, and
the unit is re-leased to whoever claims next; determinism (all
randomness flows from per-trace seeds) makes the re-run's results
identical to what the dead worker would have produced.  Workers with
nothing claimable but leases still outstanding sleep until the next
lease expiry, so a fleet of N workers survives any N-1 of them
crashing.  A unit that keeps *failing* (the experiment itself raises)
moves to ``failed`` after the broker's ``max_attempts`` - the last
traceback is stored on the unit row (``fleet status --detail``) - and
:func:`collect` refuses to produce a result until someone intervenes.

Hardening (exercised by :mod:`repro.eval.chaos`):

* **Heartbeats**: while a unit executes, a background ticker renews
  the lease every ``heartbeat_seconds`` (default: a third of the
  lease), so a unit legitimately running many multiples of
  ``lease_seconds`` is never re-leased out from under a live worker
  and never double-counted.  A worker that truly dies stops
  heartbeating and the ordinary expiry path takes over.
* **Backoff**: every broker operation goes through a
  :class:`~repro.retry.RetryPolicy` (exponential backoff + jitter), so
  transient ``database is locked`` contention costs milliseconds, not
  a dead worker.
* **Checksums**: the worker checksums each result payload before it
  crosses the wire; :func:`collect` audits stored payloads and
  re-queues corrupted units instead of folding garbage.

Cost model: every worker (and the collector) re-runs the spec builder
and pays trace generation per *point* it touches (amortized across
that worker's units via ``run_spec``'s ``point_cache``); only problem
building and inference are divided.  Prefer ``unit_traces`` well above
1 unless retries are the dominant concern.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ExperimentError, FleetError
from ..retry import DEFAULT_BROKER_RETRY, RetryPolicy
from .broker import (
    EXPERIMENT_META_KEYS,
    SHARD_META_KEY,
    Broker,
    ExperimentRow,
    FleetCounts,
    LeasedUnit,
    _validate_budgets,
    plan_fingerprint,
)
from .runner import RunnerConfig
from .serialize import encode_unit_payload
from .spec import (
    ExperimentResult,
    build_experiment_spec,
    get_experiment,
    run_spec,
    shardable_experiment_names,
)
from .units import (
    SingleUnitRecorder,
    UnitReplayer,
    WorkUnit,
    assemble_calls,
    plan_calls,
    plan_units,
)


@dataclass(frozen=True)
class SubmitReport:
    """What a submission loaded into the broker."""

    path: Path
    experiment: str
    preset: str
    n_calls: int
    n_units: int
    name: str = ""  #: experiment name inside the broker (default: registry name)
    priority: int = 0
    resumed: bool = False  #: an interrupted submission was picked back up
    n_enqueued: int = 0  #: units inserted by *this* call (< n_units on resume)


@dataclass(frozen=True)
class WorkerReport:
    """One worker run's tally."""

    worker: str
    completed: int
    failed: int
    stale: int  #: completions discarded because the lease had expired
    renewed: int = 0  #: successful mid-unit heartbeat lease renewals
    io_retries: int = 0  #: transient broker faults absorbed by backoff


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


#: Units longer than this fraction of the lease get their lease renewed
#: by the heartbeat ticker (``heartbeat_seconds=None`` resolves to
#: ``lease_seconds * HEARTBEAT_FRACTION``).
HEARTBEAT_FRACTION = 1.0 / 3.0


class _HeartbeatTicker:
    """Renew one unit's lease from a background thread while it runs.

    The ticker opens its own broker connection (SQLite connections are
    per-thread) and renews every ``interval`` seconds until stopped.  A
    renewal that comes back ``None`` means the lease was lost (expired
    and reaped, or re-leased) - the ticker stops; the worker's eventual
    ``complete`` will be discarded as stale, which is the correct
    outcome.  Renewal errors are swallowed: a transient broker fault
    must not kill the unit mid-flight, and if renewal keeps failing the
    lease simply expires and the ordinary crash path takes over.
    """

    def __init__(
        self,
        broker_path,
        unit_id: int,
        worker: str,
        interval: float,
        clock: Callable[[], float] = time.time,
        retry: RetryPolicy = DEFAULT_BROKER_RETRY,
    ) -> None:
        self._broker_path = broker_path
        self._unit_id = unit_id
        self._worker = worker
        self._interval = interval
        self._clock = clock
        self._retry = retry
        self._stop = threading.Event()
        self.lost = False
        self.renewals = 0
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{unit_id}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        try:
            broker = Broker.open(self._broker_path)
        except Exception:  # noqa: BLE001 - see class docstring
            return
        try:
            rng = self._retry.make_rng()
            while not self._stop.wait(self._interval):
                try:
                    expiry = self._retry.call(
                        broker.renew, self._unit_id, self._worker,
                        now=self._clock(), rng=rng,
                    )
                except Exception:  # noqa: BLE001 - keep the unit alive
                    continue
                if expiry is None:
                    self.lost = True
                    return
                self.renewals += 1
        finally:
            broker.close()

    def stop(self) -> int:
        """Stop the ticker and return how many renewals it made."""
        self._stop.set()
        self._thread.join(timeout=30.0)
        return self.renewals


def _format_unit_error(exc: BaseException, limit: int = 8000) -> str:
    """The traceback a failed unit stores for ``fleet status --detail``."""
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip()
    if len(text) > limit:
        text = "...\n" + text[-limit:]
    return text


#: Units inserted per journaled enqueue transaction.  Small enough that
#: a killed submitter redoes at most one batch; large enough that the
#: per-transaction overhead is noise.
SUBMIT_BATCH = 64


def _shard_range(n_units: int, index: int, count: int) -> Tuple[int, int]:
    """Balanced contiguous ``[start, stop)`` range ``index`` of ``count``
    over ``n_units``: the first ``n_units % count`` ranges take one
    extra unit."""
    if count < 1:
        raise ExperimentError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ExperimentError(
            f"shard index must be in [0, {count}), got {index}"
        )
    base, extra = divmod(n_units, count)
    start = index * base + min(index, extra)
    return start, start + base + (1 if index < extra else 0)


def _merge_per_call(units: List[WorkUnit]) -> List[WorkUnit]:
    """Merge each run of adjacent units of one grid call into one unit,
    so the worker's process pool runs the call's traces together."""
    merged: List[WorkUnit] = []
    for unit in units:
        last = merged[-1] if merged else None
        if (
            last is not None and last.call_index == unit.call_index
            and last.stop == unit.start
        ):
            merged[-1] = WorkUnit(
                last.call_index, last.start, unit.stop,
                seeds=last.seeds + unit.seeds,
            )
        else:
            merged.append(unit)
    return merged


def submit(
    broker_path,
    experiment: str,
    preset: str = "ci",
    seed: Optional[int] = None,
    scheme: Optional[str] = None,
    overrides: Optional[Dict[str, object]] = None,
    unit_traces: int = 1,
    lease_seconds: float = 60.0,
    max_attempts: int = 3,
    name: Optional[str] = None,
    priority: int = 0,
    if_exists: str = "fail",
    on_batch: Optional[Callable[[int, int], None]] = None,
    batch_size: int = SUBMIT_BATCH,
    shard: Optional[Tuple[int, int]] = None,
) -> SubmitReport:
    """Decompose an experiment into work units and enqueue them.

    The spec is built once here to compute the :class:`CallPlan`
    sequence (the schema workers validate against); nothing is
    evaluated.  Fails on experiments registered ``shardable=False``:
    distributing an experiment requires its grid-call sequence to be a
    pure function of its spec.

    ``shard=(index, count)`` enqueues only range ``index`` of ``count``
    balanced contiguous ranges over the experiment's flat unit list
    (the stored call plan stays the full plan), so ``count`` broker
    files - one per shard - together hold every unit exactly once and
    :func:`collect` folds them as one experiment.  The experiment meta
    records ``shard`` as ``[index, count]``, so that :func:`collect`
    can name a missing shard; an unsharded submission's meta and plan
    fingerprint do not carry it.  The slice is
    balanced in ``unit_traces`` units, then each grid call's part of it
    is enqueued as one unit, so the shard's worker runs a call's traces
    through its process pool (``--jobs``) rather than
    one trace at a time.  A shard whose range holds no unit is
    refused.

    The broker file is created if absent and extended otherwise: one
    broker holds any number of experiments, each named (``name``,
    default: the registry name) and scheduled by ``priority`` (higher
    drains first).  Submission is **journaled and crash-safe**: the
    experiment row is written first in ``'enqueueing'`` state with the
    plan fingerprint, units land in batches of ``batch_size``, and the
    row only flips ``'ready'`` (claimable) once every planned unit is
    in.  A submitter killed mid-enqueue therefore strands nothing.

    ``if_exists`` governs a re-run against a broker that already holds
    this experiment name:

    * ``'fail'`` (default): raise - a re-run never silently
      double-enqueues.
    * ``'resume'``: if the stored plan fingerprint matches this
      submission exactly, pick up where the dead submitter stopped
      (verifying the already-inserted prefix) and finish the journal;
      a fingerprint mismatch - different grid, seed, decomposition -
      still fails loudly.  Resuming an already-``'ready'`` experiment
      is a no-op.

    ``on_batch(batch_index, inserted_so_far)`` is a fault-injection
    seam called after each batch commits (chaos kills submitters
    there).
    """
    if if_exists not in ("fail", "resume"):
        raise ExperimentError(
            f"if_exists must be 'fail' or 'resume', got {if_exists!r}"
        )
    if batch_size < 1:
        raise ExperimentError(f"batch_size must be >= 1, got {batch_size}")
    _validate_budgets(lease_seconds, max_attempts)
    entry = get_experiment(experiment)
    if not entry.shardable:
        raise ExperimentError(
            f"experiment {experiment!r} cannot be "
            f"{'fleet-evaluated' if shard is None else 'sharded'}; "
            f"shardable experiments: {', '.join(shardable_experiment_names())}"
        )
    overrides = dict(overrides or {})
    spec = build_experiment_spec(
        experiment, preset=preset, seed=seed, scheme=scheme,
        overrides=overrides,
    )
    plan, units = plan_units(spec, unit_traces=unit_traces)
    if not units:
        raise ExperimentError(
            f"experiment {experiment!r} at preset {preset!r} produced no "
            "work units (no scheme point evaluates any trace)"
        )
    if shard is not None:
        start, stop = _shard_range(len(units), *shard)
        if start == stop:
            raise ExperimentError(
                f"shard {shard[0]} of {shard[1]} covers no work units: "
                f"{experiment!r} at preset {preset!r} has {len(units)} "
                f"unit(s); use at most {len(units)} shard(s)"
            )
        units = _merge_per_call(units[start:stop])
    meta = {
        "experiment": experiment,
        "preset": preset,
        "seed": seed,
        "scheme": scheme,
        "overrides": overrides,
    }
    if shard is not None:
        meta[SHARD_META_KEY] = list(shard)
    exp_name = name if name is not None else experiment
    fingerprint = plan_fingerprint(meta, plan, units)
    path = Path(broker_path)
    broker = (
        Broker.open(path) if path.exists() else Broker.create_empty(path)
    )
    with broker:
        row = broker.experiment(exp_name)
        resumed = False
        start = 0
        if row is None:
            experiment_id = broker.begin_experiment(
                exp_name, meta, plan, n_units=len(units), priority=priority,
                lease_seconds=lease_seconds, max_attempts=max_attempts,
                plan_hash=fingerprint,
            )
        else:
            if if_exists == "fail":
                raise FleetError(
                    f"experiment {exp_name!r} already exists in {path} "
                    f"(state: {row.state}); pass --if-exists resume to "
                    "continue an interrupted submission, or submit under "
                    "a different --name"
                )
            if row.plan_hash != fingerprint:
                raise FleetError(
                    f"refusing to resume experiment {exp_name!r} in {path}: "
                    "this submission's plan fingerprint "
                    f"({fingerprint}) differs from the journaled one "
                    f"({row.plan_hash}) - same name, different "
                    "grid/seed/decomposition; submit under a different "
                    "--name or to a fresh broker"
                )
            resumed = True
            experiment_id = row.id
            if row.state == "ready":
                return SubmitReport(
                    path=path, experiment=experiment, preset=preset,
                    n_calls=len(plan), n_units=len(units), name=exp_name,
                    priority=row.priority, resumed=True, n_enqueued=0,
                )
            existing = broker.enqueued_units(experiment_id)
            start = len(existing)
            if existing != list(units[:start]):
                raise FleetError(
                    f"refusing to resume experiment {exp_name!r} in {path}: "
                    f"the {start} already-enqueued unit(s) do not match "
                    "this submission's decomposition despite a matching "
                    "fingerprint - the broker file is damaged; submit to "
                    "a fresh broker"
                )
        enqueued = 0
        for batch_index, offset in enumerate(range(start, len(units), batch_size)):
            batch = units[offset:offset + batch_size]
            broker.enqueue_units(experiment_id, batch, start_index=offset)
            enqueued += len(batch)
            if on_batch is not None:
                on_batch(batch_index, offset + len(batch))
        broker.finish_enqueue(experiment_id)
    return SubmitReport(
        path=path, experiment=experiment, preset=preset,
        n_calls=len(plan), n_units=len(units), name=exp_name,
        priority=priority, resumed=resumed, n_enqueued=enqueued,
    )


def _spec_from_meta(meta: Dict[str, object]):
    return build_experiment_spec(
        str(meta["experiment"]),
        preset=str(meta.get("preset") or "ci"),
        seed=meta.get("seed"),
        scheme=meta.get("scheme"),
        overrides=meta.get("overrides") or {},
    )


class _ExperimentContext:
    """One experiment's validated spec + plan + point cache, per worker.

    Built lazily on the worker's first claim from that experiment (and
    eagerly for all experiments already ``'ready'`` at startup, so a
    stale checkout fails before any lease is burned).  The point cache
    amortizes trace generation across the units this worker runs for
    the experiment.
    """

    def __init__(self, row: ExperimentRow, submitted_plan) -> None:
        self.row = row
        self.spec = _spec_from_meta(row.meta)
        live_plan = plan_calls(self.spec)
        if live_plan != submitted_plan:
            raise ExperimentError(
                f"this checkout's grid plan for {row.meta['experiment']!r} "
                f"({len(live_plan)} call(s)) does not match the broker's "
                f"submitted plan ({len(submitted_plan)} call(s)); worker "
                "and submitter must run matching checkouts"
            )
        self.plan = submitted_plan
        self.point_cache: Dict = {}


def work(
    broker_path,
    worker_id: Optional[str] = None,
    runner: Optional[RunnerConfig] = None,
    max_units: Optional[int] = None,
    wait: bool = True,
    experiment: Optional[str] = None,
    on_claim: Optional[Callable[[LeasedUnit], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.time,
    heartbeat_seconds: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    fault_hook: Optional[Callable[[str], None]] = None,
    on_executed: Optional[Callable[[LeasedUnit], None]] = None,
    transform_wire: Optional[Callable[[LeasedUnit, str], str]] = None,
) -> WorkerReport:
    """Drain work units from a broker until none are claimable.

    The worker builds each experiment's spec from its broker journal
    row, validates its live grid plan against the submitted one (a
    stale checkout fails here, before any result is written), then
    loops: claim, execute through :func:`run_spec` under a
    :class:`SingleUnitRecorder`, store the wire payload.  Built
    ``(topology, routing, traces)`` triples are cached across units,
    per experiment.

    A multi-experiment broker is drained by experiment priority
    (descending) then FIFO; ``experiment`` restricts this worker to one
    experiment by name.  Experiments submitted *after* the worker
    started are picked up as their units are claimed.

    With ``wait=True`` (default) a worker that finds nothing pending
    while other leases are outstanding sleeps until the earliest lease
    expiry and retries - this is what lets a surviving worker pick up a
    crashed peer's unit.  ``max_units`` bounds how many units this call
    processes (testing / incremental draining).

    Robustness knobs: ``heartbeat_seconds`` paces the mid-unit lease
    renewal ticker (``None`` = a third of the broker's lease, ``<= 0``
    disables); ``retry`` is the backoff policy wrapped around every
    broker operation; ``clock``/``sleep`` are injectable for
    deterministic (chaos) tests.

    Fault-injection seams, in loop order: ``on_claim(leased)`` runs
    after each claim, before execution (simulated crash-at-claim /
    stall); ``on_executed(leased)`` runs after execution and after the
    heartbeat ticker stopped, before completion (simulated mid-unit
    crash / pre-completion stall); ``transform_wire(leased, text)``
    may damage the serialized payload after its checksum was taken
    (simulated wire corruption).  An exception from a seam propagates
    out of ``work`` with the lease still held - exactly what a real
    crash leaves behind.
    """
    worker = worker_id or default_worker_id()
    if runner is not None and runner.shard is not None:
        raise ExperimentError("fleet work cannot nest inside another shard")
    base = runner or RunnerConfig()
    policy = retry or DEFAULT_BROKER_RETRY
    retry_rng = policy.make_rng()
    completed = failed = stale = renewed = io_retries = 0

    def _count_retry(attempt: int, exc: BaseException) -> None:
        nonlocal io_retries
        io_retries += 1

    def _io(fn, *args, **kwargs):
        return policy.call(
            fn, *args, sleep=sleep, rng=retry_rng, on_retry=_count_retry,
            **kwargs,
        )

    with Broker.open(broker_path, fault_hook=fault_hook) as broker:
        if experiment is not None:
            broker.resolve_experiment(experiment)  # fail fast on a typo

        # Validate every already-ready experiment's plan up front, so a
        # stale checkout dies before burning any unit's attempt budget.
        contexts: Dict[int, _ExperimentContext] = {}
        for row in broker.experiments():
            if not row.ready:
                continue
            if experiment is not None and row.name != experiment:
                continue
            contexts[row.id] = _ExperimentContext(row, broker.plan(row.name))

        def _context(leased: LeasedUnit) -> _ExperimentContext:
            ctx = contexts.get(leased.experiment_id)
            if ctx is None:  # experiment submitted after startup
                row = broker.resolve_experiment(leased.experiment)
                ctx = _ExperimentContext(row, broker.plan(row.name))
                contexts[row.id] = ctx
            return ctx

        while max_units is None or completed + failed < max_units:
            leased = _io(broker.claim, worker, now=clock(), experiment=experiment)
            if leased is None:
                counts = _io(broker.counts, experiment=experiment)
                if counts.finished or not wait:
                    break
                expiry = _io(broker.next_lease_expiry)
                delay = 0.25 if expiry is None else max(
                    0.05, expiry - clock() + 0.05
                )
                sleep(delay)
                continue
            if on_claim is not None:
                on_claim(leased)
            ctx = _context(leased)
            heartbeat = (
                leased.lease_seconds * HEARTBEAT_FRACTION
                if heartbeat_seconds is None
                else heartbeat_seconds
            )
            ticker = None
            if heartbeat > 0:
                ticker = _HeartbeatTicker(
                    broker.path, leased.unit_id, worker, heartbeat,
                    clock=clock, retry=policy,
                )
                ticker.start()
            try:
                recorder = SingleUnitRecorder(leased.unit, ctx.plan)
                run_spec(
                    ctx.spec, replace(base, shard=recorder),
                    point_cache=ctx.point_cache,
                )
                payload = recorder.unit_payload()
            except Exception as exc:  # noqa: BLE001 - any unit failure retries
                outcome = _io(
                    broker.fail, leased.unit_id, worker,
                    _format_unit_error(exc), now=clock(),
                )
                if outcome is not None:
                    failed += 1
                continue
            finally:
                if ticker is not None:
                    renewed += ticker.stop()
            if on_executed is not None:
                on_executed(leased)
            wire, checksum = encode_unit_payload(payload)
            if transform_wire is not None:
                wire = transform_wire(leased, wire)
            if _io(
                broker.complete, leased.unit_id, worker,
                now=clock(), wire=wire, checksum=checksum,
            ):
                completed += 1
            else:
                stale += 1
    return WorkerReport(
        worker=worker, completed=completed, failed=failed, stale=stale,
        renewed=renewed, io_retries=io_retries,
    )


#: Completions the rolling unit-rate window looks back over.
PROGRESS_WINDOW = 20


def _progress(counts: FleetCounts, completion_times) -> Dict[str, object]:
    """Progress summary: done/total plus a rolling rate and ETA.

    The rate is measured over the last :data:`PROGRESS_WINDOW`
    completions (their own wall-clock span, so an idle fleet reports
    its historical rate rather than decaying toward zero), and the ETA
    covers the units that can still finish - pending and leased;
    permanently-failed units need ``fleet retry`` first.
    """
    out: Dict[str, object] = {
        "done": counts.done,
        "total": counts.total,
        "remaining": counts.pending + counts.leased,
        "rate_per_s": None,
        "eta_s": None,
    }
    # Guard the rate/ETA derivation: with fewer than two completions,
    # or completions carrying identical timestamps (coarse clocks,
    # injected test clocks), there is no measurable span - report null
    # rather than a division blow-up or an infinite ETA.
    window = completion_times[-PROGRESS_WINDOW:]
    if len(window) >= 2 and window[-1] > window[0]:
        rate = (len(window) - 1) / (window[-1] - window[0])
        if rate > 0:
            out["rate_per_s"] = rate
            out["eta_s"] = out["remaining"] / rate
    return out


def status(
    broker_path,
    detail: bool = False,
    experiment: Optional[str] = None,
) -> Dict[str, object]:
    """A broker's live state: meta, counts, progress/ETA, unit rows.

    Top-level ``counts``/``progress``/``errors`` aggregate over the
    whole broker (or the targeted ``experiment``); ``experiments``
    breaks the same facts out per experiment in priority order.  On a
    single-experiment broker the experiment's identity meta is also
    spread at top level (the pre-v3 shape).  Everything in the returned
    dict is JSON-serializable (``fleet status --json``).
    """
    with Broker.open(broker_path) as broker:
        rows = (
            [broker.resolve_experiment(experiment)]
            if experiment is not None
            else broker.experiments()
        )
        per = []
        for row in rows:
            counts = broker.counts(row.name)
            per.append({
                "name": row.name,
                "priority": row.priority,
                "state": row.state,
                **row.meta,
                "counts": counts.as_dict(),
                "progress": _progress(
                    counts, broker.completion_times(row.name)
                ),
                "errors": broker.errors(row.name),
            })
        agg = broker.counts(experiment)
        out: Dict[str, object] = {
            "path": str(broker.path),
            "counts": agg.as_dict(),
            "progress": _progress(agg, broker.completion_times(experiment)),
            "errors": broker.errors(experiment),
            "experiments": per,
        }
        if len(rows) == 1:
            out = {**rows[0].meta, **out}
        if detail:
            out["units"] = broker.unit_rows(experiment)
        return out


def retry(broker_path, experiment: Optional[str] = None) -> int:
    """Re-queue a broker's permanently-failed units; returns the count."""
    with Broker.open(broker_path) as broker:
        return broker.retry_failed(experiment)


def _finished_units(broker_path, experiment: Optional[str]):
    """One broker file's finished experiment: ``(meta, plan, units)``.

    Refuses an experiment that is not shardable, an open submission
    journal, payloads that fail their checksum audit
    (:meth:`Broker.verify_results` discards them and re-queues their
    units), permanently failed units, and unfinished units, with counts
    in the error.
    """
    with Broker.open(broker_path) as broker:
        row = broker.resolve_experiment(experiment)
        name = row.meta.get("experiment")
        if name not in shardable_experiment_names():
            raise ExperimentError(
                f"{broker.path} names experiment {name!r}, which is unknown "
                "or not shardable"
            )
        if not row.ready:
            raise FleetError(
                f"cannot collect experiment {row.name!r} from "
                f"{broker.path}: its submission journal is still open (an "
                "interrupted 'fleet submit'); re-run the submission with "
                "--if-exists resume first"
            )
        corrupted = broker.verify_results()
        if corrupted:
            shown = ", ".join(str(u) for u in corrupted[:5])
            raise FleetError(
                f"{len(corrupted)} result payload(s) in {broker.path} failed "
                f"their checksum (unit id(s) {shown}); the corrupted results "
                "were discarded and the units re-queued - run more workers, "
                "then collect again"
            )
        counts = broker.counts(row.name)
        if counts.failed:
            first_id, first_error = broker.errors(row.name)[0]
            raise ExperimentError(
                f"cannot collect {broker.path}: {counts.failed} of "
                f"{counts.total} unit(s) failed permanently (first: unit "
                f"{first_id}: {first_error}); inspect 'fleet status', fix "
                "the cause, and resubmit"
            )
        if not counts.finished:
            raise ExperimentError(
                f"cannot collect an unfinished fleet: {broker.path} has "
                f"{counts.pending} pending and {counts.leased} leased of "
                f"{counts.total} unit(s); run more workers first"
            )
        return row.meta, broker.plan(row.name), broker.results(row.name)


def _check_shard_set(broker_paths, shards) -> None:
    """Refuse static-shard files that are not one whole split.

    ``shards`` holds each file's ``shard`` meta (``[index, count]``, or
    ``None`` for a whole-fleet file).  A split with shards missing is
    refused naming the missing ``--shard-index`` values, so the caller
    knows which file to fetch.
    """
    if all(shard is None for shard in shards):
        return
    for path, shard in zip(broker_paths, shards):
        if shard is not None and not (
            isinstance(shard, list) and len(shard) == 2
            and all(type(v) is int for v in shard)
            and 0 <= shard[0] < shard[1]
        ):
            raise ExperimentError(
                f"{path} holds a malformed shard meta {shard!r}; expected "
                "[index, count] with 0 <= index < count"
            )
    given = ", ".join(
        f"{path} (a whole fleet)" if shard is None
        else f"{path} (shard {shard[0]} of {shard[1]})"
        for path, shard in zip(broker_paths, shards)
    )
    counts = {None if shard is None else shard[1] for shard in shards}
    if len(counts) > 1:
        raise ExperimentError(
            "incomplete unit coverage: the broker files do not come from "
            f"one split of the experiment: {given}"
        )
    (count,) = counts
    indices = [shard[0] for shard in shards]
    problems = []
    missing = sorted(set(range(count)) - set(indices))
    if missing:
        problems.append(
            f"missing shard index(es) {', '.join(map(str, missing))} of {count}"
        )
    repeated = sorted({i for i in indices if indices.count(i) > 1})
    if repeated:
        problems.append(
            f"shard index(es) {', '.join(map(str, repeated))} given twice"
        )
    if problems:
        raise ExperimentError(
            f"incomplete unit coverage: {'; '.join(problems)} (given: "
            f"{given}); collect one broker file per --shard-index 0.."
            f"{count - 1}"
        )


def collect(
    *broker_paths,
    runner: Optional[RunnerConfig] = None,
    experiment: Optional[str] = None,
) -> ExperimentResult:
    """Fold finished broker files into the full experiment result.

    Each file must hold a finished ``experiment`` (see
    :func:`_finished_units`), and all files must agree on the
    experiment meta and the call plan - one file per shard of one
    submission, or a single file for a whole fleet.  Completed units
    from every file are reassembled into per-call records (exact trace
    coverage enforced, so a missing shard or a file given twice fails),
    then the experiment driver re-runs with a :class:`UnitReplayer`
    installed, streaming the recorded results through the runner's own
    accumulators - so the collected metrics are bit-identical to a
    serial run.
    """
    if not broker_paths:
        raise ExperimentError("fleet collect needs at least one broker file")
    if runner is not None and runner.shard is not None:
        raise ExperimentError("fleet collect cannot nest inside another shard")
    seen: Dict[Path, str] = {}
    for raw in map(str, broker_paths):
        resolved = Path(raw).resolve()
        if resolved in seen:
            raise ExperimentError(
                f"duplicate broker file {raw!r} (same file as "
                f"{seen[resolved]!r}); list each shard's file once"
            )
        seen[resolved] = raw
    meta = plan = None
    unit_results: List = []
    shards = []
    for path in broker_paths:
        file_meta, file_plan, results = _finished_units(path, experiment)
        if meta is None:
            meta, plan = file_meta, file_plan
        shards.append(file_meta.get(SHARD_META_KEY))
        for key in EXPERIMENT_META_KEYS:
            if file_meta.get(key) != meta.get(key):
                raise ExperimentError(
                    f"broker files disagree on {key!r}: {meta.get(key)!r} "
                    f"({broker_paths[0]}) vs {file_meta.get(key)!r} ({path})"
                )
        if file_plan != plan:
            raise ExperimentError(
                f"broker files disagree on 'plan': {broker_paths[0]} and "
                f"{path} hold different grid-call plans"
            )
        unit_results.extend(results)
    _check_shard_set(broker_paths, shards)
    calls = assemble_calls(plan, unit_results)
    replayer = UnitReplayer(calls)
    result = run_spec(
        _spec_from_meta(meta), replace(runner or RunnerConfig(), shard=replayer)
    )
    replayer.assert_exhausted()
    return result


__all__ = [
    "FleetCounts",
    "HEARTBEAT_FRACTION",
    "SubmitReport",
    "WorkerReport",
    "collect",
    "default_worker_id",
    "retry",
    "status",
    "submit",
    "work",
]
