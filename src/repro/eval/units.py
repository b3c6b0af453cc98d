"""Work-unit model for distributed evaluation.

A registered experiment's evaluation is a pure function of its spec:
:func:`~repro.eval.spec.run_spec` issues one grid call per scheme
point, in spec order.  That determinism lets the grid decompose into
self-describing **work units** - contiguous trace-index ranges of one
grid call - that any process, on any machine, can execute independently
and whose recorded wire results fold back into the exact
:class:`~repro.eval.spec.ExperimentResult` a serial run produces.

Its one consumer is the fleet (:mod:`repro.eval.broker` +
:mod:`repro.eval.fleet`): units live as rows in a SQLite broker with a
pending/leased/done/failed lifecycle; workers pull one unit at a time
through :class:`SingleUnitRecorder` and write wire results back, and
the collector folds the units of one or more broker files (a static
``--shards`` split writes one file per shard) through
:class:`UnitReplayer`.

The pieces:

* :class:`CallPlan` / :func:`plan_calls` - the shape (setup labels +
  trace count) of every grid call a spec will issue, computed without
  executing anything.  The plan is the schema the broker stores and
  every worker validates against, so a worker on a stale checkout
  whose spec builder produces a different grid fails loudly.
* :class:`WorkUnit` / :func:`plan_units` - the decomposition of a plan
  into schedulable ``(call_index, [start, stop))`` slices.
* :class:`SingleUnitRecorder` - the record-side hook: executes exactly
  one unit, validating the live call sequence against the submitted
  plan, serializing results through the wire codec, and answering the
  :meth:`~repro.eval.runner.GridHook.plan_call` peek that lets
  :func:`~repro.eval.spec.run_spec` skip trace generation for
  untouched points.
* :class:`UnitReplayer` - the replay-side hook: folds recorded units
  back through the runner's streaming accumulators (the same
  ``_SummaryAccumulator`` fold a serial run streams into), validating
  every call's shape.
* :func:`assemble_calls` - reassembles completed units into the
  replayable per-call structure, enforcing exact trace coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ExperimentError
from .runner import GridHook
from .serialize import (
    SCHEMA_VERSION,
    check_schema_version,
    trace_result_from_wire,
    trace_result_to_wire,
)


@dataclass(frozen=True)
class CallPlan:
    """Shape of one grid call: the setup labels and trace count."""

    labels: Tuple[str, ...]
    n_traces: int

    def __post_init__(self) -> None:
        if self.n_traces < 0:
            raise ExperimentError(
                f"call plan n_traces must be >= 0, got {self.n_traces}"
            )


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable slice of an experiment: trace indices
    ``[start, stop)`` of grid call ``call_index``.

    ``seeds`` records the covered traces' seeds - informational
    provenance (``fleet status`` displays them), not an input to
    execution, which derives everything from the experiment spec.
    """

    call_index: int
    start: int
    stop: int
    seeds: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.call_index < 0:
            raise ExperimentError(
                f"work unit call_index must be >= 0, got {self.call_index}"
            )
        if not 0 <= self.start < self.stop:
            raise ExperimentError(
                f"work unit range must satisfy 0 <= start < stop, got "
                f"[{self.start}, {self.stop})"
            )

    @property
    def n_traces(self) -> int:
        return self.stop - self.start


def plan_calls(spec) -> List[CallPlan]:
    """The grid-call sequence ``run_spec(spec)`` will issue.

    Mirrors :func:`~repro.eval.spec.run_spec`: one call per scheme
    point, in spec order; probe points issue none.  Nothing is
    executed - setups are built only for their labels.
    """
    plans = []
    for point in spec.points:
        if point.probe is not None:
            continue
        labels = tuple(ref.setup().labeled() for ref in point.schemes)
        plans.append(CallPlan(labels=labels, n_traces=len(point.trace.seeds)))
    return plans


def plan_units(
    spec, unit_traces: int = 1
) -> Tuple[List[CallPlan], List[WorkUnit]]:
    """Decompose a spec's grid calls into contiguous-range work units.

    Each call's trace range splits into units of at most ``unit_traces``
    traces (the scheduling granularity: smaller units mean more
    parallelism and cheaper retries, at more per-unit spec/trace
    overhead).  Returns ``(plan, units)``.
    """
    if unit_traces < 1:
        raise ExperimentError(
            f"unit_traces must be >= 1, got {unit_traces}"
        )
    plans = plan_calls(spec)
    scheme_points = [point for point in spec.points if point.probe is None]
    units: List[WorkUnit] = []
    for call_index, (plan, point) in enumerate(zip(plans, scheme_points)):
        seeds = tuple(point.trace.seeds)
        for start in range(0, plan.n_traces, unit_traces):
            stop = min(start + unit_traces, plan.n_traces)
            units.append(
                WorkUnit(call_index, start, stop, seeds=seeds[start:stop])
            )
    return plans, units


# ----------------------------------------------------------------------
# Wire codecs (broker meta storage)
# ----------------------------------------------------------------------


def call_plans_to_wire(plans: Sequence[CallPlan]) -> List[Dict]:
    """``[CallPlan] -> [{"labels": [...], "n": int}]``."""
    return [{"labels": list(p.labels), "n": int(p.n_traces)} for p in plans]


def call_plans_from_wire(payload) -> List[CallPlan]:
    if not isinstance(payload, list):
        raise ExperimentError(f"malformed call-plan payload: {payload!r}")
    plans = []
    for entry in payload:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("labels"), list)
            and all(isinstance(l, str) for l in entry["labels"])
            and isinstance(entry.get("n"), int)
        ):
            raise ExperimentError(f"malformed call-plan entry: {entry!r}")
        plans.append(CallPlan(labels=tuple(entry["labels"]), n_traces=entry["n"]))
    return plans


# ----------------------------------------------------------------------
# Grid hooks
# ----------------------------------------------------------------------


class SingleUnitRecorder(GridHook):
    """Record-side grid hook (see :class:`~repro.eval.runner.GridHook`)
    that executes exactly one :class:`WorkUnit` of an experiment.

    Every grid call the live spec issues is validated against the
    submitted :class:`CallPlan` sequence, so a worker whose checkout
    builds a different grid (more calls, different labels or trace
    counts) fails loudly before any of its results reach the broker.
    The per-call records (``self.calls``: ``{labels, n_traces,
    units}``) hold each executed trace's results in wire form.
    """

    is_replay = False

    def __init__(self, unit: WorkUnit, plan: Sequence[CallPlan]):
        self.calls: List[Dict] = []
        self.unit = unit
        self._plan = list(plan)
        if not 0 <= unit.call_index < len(self._plan):
            raise ExperimentError(
                f"work unit names call {unit.call_index} but the plan has "
                f"{len(self._plan)} grid call(s)"
            )
        expected = self._plan[unit.call_index]
        if unit.stop > expected.n_traces:
            raise ExperimentError(
                f"work unit range [{unit.start}, {unit.stop}) exceeds call "
                f"{unit.call_index}'s {expected.n_traces} trace(s)"
            )

    def call_range(
        self, call_index: int, labels: Sequence[str], n_traces: int
    ) -> Tuple[int, int]:
        if call_index >= len(self._plan):
            raise ExperimentError(
                f"experiment issued more grid calls than the submitted "
                f"plan's {len(self._plan)}; this worker's checkout no "
                "longer matches the broker's submitter"
            )
        expected = self._plan[call_index]
        if tuple(labels) != expected.labels or n_traces != expected.n_traces:
            raise ExperimentError(
                f"grid call {call_index} shape mismatch: the broker plan "
                f"recorded ({list(expected.labels)}, {expected.n_traces} "
                f"traces) but this checkout produced ({list(labels)}, "
                f"{n_traces} traces); worker and submitter must run "
                "matching checkouts"
            )
        if call_index != self.unit.call_index:
            return (0, 0)
        return (self.unit.start, self.unit.stop)

    def plan_call(self, labels: Sequence[str], n_traces: int) -> range:
        """Peek the next call's executed range without opening it."""
        start, stop = self.call_range(len(self.calls), labels, n_traces)
        return range(start, stop)

    def select_call(self, labels: Sequence[str], n_traces: int) -> range:
        """Open a new grid-call record; return the indices to execute."""
        start, stop = self.call_range(len(self.calls), labels, n_traces)
        self.calls.append(
            {"labels": list(labels), "n_traces": n_traces, "units": []}
        )
        return range(start, stop)

    def record(self, trace_idx: int, results: Sequence) -> None:
        """Serialize one executed unit into the open call record."""
        self.calls[-1]["units"].append(
            [trace_idx, [trace_result_to_wire(r) for r in results]]
        )

    def unit_payload(self) -> Dict:
        """The executed unit's results as a broker-storable document.

        Raises unless the experiment issued exactly the planned call
        sequence and the unit's full trace range was executed - a
        partially executed unit must never be marked done.
        """
        if len(self.calls) != len(self._plan):
            raise ExperimentError(
                f"experiment issued {len(self.calls)} grid call(s) but the "
                f"submitted plan recorded {len(self._plan)}; this worker's "
                "checkout no longer matches the broker's submitter"
            )
        # The process pool records traces in completion order.
        units = sorted(
            self.calls[self.unit.call_index]["units"], key=lambda e: e[0]
        )
        covered = [entry[0] for entry in units]
        if covered != list(range(self.unit.start, self.unit.stop)):
            raise ExperimentError(
                f"unit execution incomplete: expected traces "
                f"{self.unit.start}..{self.unit.stop - 1} of call "
                f"{self.unit.call_index}, got {covered}"
            )
        return {"v": SCHEMA_VERSION, "u": units}


def unit_payload_entries(payload, what: str = "unit result") -> List:
    """Validate and unpack a :meth:`SingleUnitRecorder.unit_payload` doc."""
    check_schema_version(payload, what)
    if not isinstance(payload, dict) or not isinstance(payload.get("u"), list):
        raise ExperimentError(f"malformed {what} payload: {payload!r}")
    for entry in payload["u"]:
        if not (
            isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], int) and isinstance(entry[1], list)
        ):
            raise ExperimentError(
                f"malformed {what} entry (expected [trace_idx, results]): "
                f"{entry!r}"
            )
    return payload["u"]


class UnitReplayer(GridHook):
    """Replay-side grid hook: fold recorded units, execute nothing.

    Feeds merged recorded units back into ``run_grid`` call by call.
    Each replayed call is validated against the live grid's shape
    (setup labels and trace count) so recorded results from a different
    experiment, preset, or seed cannot be folded silently.
    """

    is_replay = True

    def __init__(self, calls: Sequence[Dict]):
        self._calls = list(calls)
        self._cursor = 0

    def plan_call(self, labels: Sequence[str], n_traces: int) -> range:
        """Replay executes nothing, so no call needs traces generated."""
        return range(0)

    def replay_call(self, labels: Sequence[str], n_traces: int):
        """Results for the next grid call: ``[(trace_idx, [TraceResult])]``."""
        if self._cursor >= len(self._calls):
            raise ExperimentError(
                "shard replay exhausted: the experiment issued more grid "
                "calls than the recorded units cover"
            )
        call = self._calls[self._cursor]
        self._cursor += 1
        if call["labels"] != list(labels) or call["n_traces"] != n_traces:
            raise ExperimentError(
                f"shard replay mismatch at call {self._cursor - 1}: recorded "
                f"({call['labels']}, {call['n_traces']} traces) vs live "
                f"({list(labels)}, {n_traces} traces)"
            )
        return [
            (idx, [trace_result_from_wire(w) for w in wires])
            for idx, wires in call["units"]
        ]

    def assert_exhausted(self) -> None:
        """Require that every recorded grid call was replayed.

        A driver that issues fewer grid calls than were recorded (e.g.
        the experiment was edited between recording and merging) would
        otherwise silently drop the tail calls and report a
        complete-looking but partial result.
        """
        if self._cursor != len(self._calls):
            raise ExperimentError(
                f"shard replay incomplete: {len(self._calls)} grid call(s) "
                f"were recorded but only {self._cursor} were replayed; the "
                "experiment driver no longer matches the one that ran"
            )


# ----------------------------------------------------------------------
# Reassembly
# ----------------------------------------------------------------------


def assemble_calls(
    plan: Sequence[CallPlan],
    unit_results: Sequence[Tuple[WorkUnit, Sequence]],
) -> List[Dict]:
    """Reassemble completed units into replayable per-call records.

    ``unit_results`` pairs each unit with its recorded
    ``[[trace_idx, [wire results]], ...]`` entries.  Units may arrive
    in any order; every call's trace range must end up covered exactly
    once, and the whole experiment must have evaluated at least one
    trace (an all-empty reassembly must fail loudly, not report a
    vacuous score).
    """
    calls = [
        {"labels": list(p.labels), "n_traces": p.n_traces, "units": []}
        for p in plan
    ]
    for unit, entries in unit_results:
        if not 0 <= unit.call_index < len(calls):
            raise ExperimentError(
                f"completed unit names call {unit.call_index} but the plan "
                f"has {len(calls)} grid call(s)"
            )
        calls[unit.call_index]["units"].extend(entries)
    total_units = 0
    for call_index, (p, call) in enumerate(zip(plan, calls)):
        call["units"].sort(key=lambda entry: entry[0])
        covered = [entry[0] for entry in call["units"]]
        if covered != list(range(p.n_traces)):
            raise ExperimentError(
                f"grid call {call_index} has incomplete unit coverage: "
                f"expected traces 0..{p.n_traces - 1}, got {covered}"
            )
        total_units += len(call["units"])
    if calls and total_units == 0:
        raise ExperimentError(
            "completed units contain no evaluated traces; refusing to "
            "report metrics computed from zero traces"
        )
    return calls
