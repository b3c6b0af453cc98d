"""Declarative experiment specs and the generic grid driver.

The paper's evaluation is one big matrix - scenario x topology x
telemetry spec x scheme x seeds - but the repo used to encode it as 13
bespoke ~80-line driver functions, each hand-wiring topologies, traces,
and scheme suites.  This module replaces the drivers with data:

* An :class:`ExperimentSpec` is a list of :class:`GridPoint` records.
  Each point declares its topology (:class:`TopologySpec`, resolved
  through the topology registry), its failure workload
  (:class:`ScenarioSpec`, resolved through the scenario registry in
  :mod:`repro.simulation.failures`), its trace knobs
  (:class:`TraceSpec`: per-trace seeds, flow/probe counts, traffic
  patterns), and either a scheme suite (:class:`SchemeRef` entries
  resolved through the scheme registry in :mod:`repro.eval.schemes`)
  or a registered *probe* (:class:`ProbeRef`) for timing-style
  measurements that are not a scheme x trace grid.
* :func:`run_spec` is the single generic driver: for every point it
  builds the topology, generates the traces, evaluates the scheme
  suite through :func:`~repro.eval.harness.evaluate_many` (one
  :func:`~repro.eval.runner.run_grid` call per point, in spec order),
  and emits rows.  Because the grid-call sequence is a pure function
  of the spec, every spec-based experiment is automatically
  distributable through :mod:`repro.eval.fleet` - the work-unit
  recorder and replayer hook the same call sequence on the worker and
  collect sides.
* The *experiment registry* maps names (``fig2``, ``table1-eval``,
  ...) to builder functions that produce a spec from ``(preset, seed,
  overrides)``.  :func:`run_experiment` is the front door used by the
  CLI, benchmarks, and tests.

Determinism: all randomness in a spec lives in explicit seeds (trace
seeds, scenario sample seeds, topology omission seeds), so two runs of
the same spec - serial, parallel, or fleet-collected - produce
bit-identical metrics.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import ExperimentError
from ..routing.ecmp import EcmpRouting
from ..simulation.failures import FailureScenario, make_scenario
from .harness import EvalSummary, SchemeSetup, evaluate_many
from .runner import RunnerConfig
from .scenarios import SKEWED, UNIFORM, Trace, make_trace
from .schemes import make_setup

PRESETS = ("tiny", "ci", "paper")


def check_preset(preset: str) -> None:
    if preset not in PRESETS:
        raise ExperimentError(f"preset must be one of {PRESETS}, got {preset!r}")


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """Rows plus provenance for one experiment."""

    experiment: str
    description: str
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""

    def series(self, **filters) -> List[Dict]:
        """Rows matching all the given column=value filters."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(row)
        return out


# ----------------------------------------------------------------------
# Spec records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeRef:
    """A scheme-registry reference plus its per-experiment knobs.

    ``scheme`` names a registry entry; ``spec`` overrides its default
    telemetry spec; ``overrides`` are factory kwargs (calibrated
    settings already merge underneath); ``telemetry`` passes extra
    :class:`~repro.telemetry.inputs.TelemetryConfig` kwargs; ``label``
    overrides the setup's display name.  ``key`` is the row columns
    this scheme contributes - ``None`` means the default
    ``{"scheme": <label>}`` column.
    """

    scheme: str
    spec: Optional[str] = None
    overrides: Mapping[str, object] = field(default_factory=dict)
    telemetry: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None
    key: Optional[Mapping[str, object]] = None

    def setup(self) -> SchemeSetup:
        return make_setup(
            self.scheme,
            spec=self.spec,
            overrides=self.overrides,
            telemetry=self.telemetry,
            label=self.label,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario-registry reference producing one batch of scenarios.

    ``params`` are fixed constructor kwargs.  ``sampled`` draws integer
    constructor kwargs per trace - ``{name: (lo, hi)}`` maps to one
    ``rng.integers(lo, hi)`` call per trace, in trace order, from a
    generator seeded with ``sample_seed`` (the section 7.1 workload
    draws 1..8 failed links per trace this way).
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    sampled: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    sample_seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.sampled.items():
            if lo >= hi:
                raise ExperimentError(
                    f"scenario spec {self.name!r} samples {name!r} from the "
                    f"empty range [{lo}, {hi}); the upper bound must exceed "
                    "the lower"
                )

    def build(self, count: int) -> List[FailureScenario]:
        if not self.sampled:
            return [make_scenario(self.name, **dict(self.params)) for _ in range(count)]
        if self.sample_seed is None:
            raise ExperimentError(
                f"scenario spec {self.name!r} samples parameters but has "
                "no sample_seed"
            )
        rng = np.random.default_rng(self.sample_seed)
        out = []
        for _ in range(count):
            params = dict(self.params)
            for name in self.sampled:
                lo, hi = self.sampled[name]
                params[name] = int(rng.integers(lo, hi))
            out.append(make_scenario(self.name, **params))
        return out


@dataclass(frozen=True)
class TopologySpec:
    """A topology-registry reference: ``name`` plus resolver kwargs."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self):
        return resolve_topology(self.name, **dict(self.params))


@dataclass(frozen=True)
class TraceSpec:
    """Per-point trace knobs: one trace per entry of ``seeds``.

    ``traffic`` fixes each trace's traffic pattern; ``None`` alternates
    uniform/skewed in trace order, mirroring section 6.3 ("half the
    traces used uniform random traffic and the other half ... skewed").
    """

    seeds: Tuple[int, ...]
    n_passive: int = 2000
    n_probes: int = 500
    traffic: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.traffic is not None and len(self.traffic) != len(self.seeds):
            raise ExperimentError(
                f"traffic list ({len(self.traffic)}) does not match trace "
                f"seeds ({len(self.seeds)})"
            )


@dataclass(frozen=True)
class ProbeRef:
    """A probe-registry reference for non-grid measurements.

    Probes cover what a scheme x trace grid cannot: runtime ablations
    (fig4c), scan-rate measurements, and the fig6 worked example.  A
    probe receives the point's built topology/routing/traces and
    returns its own rows.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment: workload + either schemes or a probe.

    ``key`` columns prefix every row the point emits.  ``extras`` names
    a registered per-point column hook (e.g. the theoretical max
    precision of fig5c) appended to every scheme row.
    """

    topology: TopologySpec
    key: Mapping[str, object] = field(default_factory=dict)
    scenario: Optional[ScenarioSpec] = None
    trace: Optional[TraceSpec] = None
    schemes: Tuple[SchemeRef, ...] = ()
    probe: Optional[ProbeRef] = None
    extras: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.probe is None) == (not self.schemes):
            raise ExperimentError(
                "a grid point needs either a scheme suite or a probe"
            )
        if self.schemes and self.trace is None:
            raise ExperimentError("a scheme grid point needs a trace spec")


@dataclass
class ExperimentSpec:
    """A fully declarative experiment: points plus an aggregation recipe.

    ``metrics`` names the :data:`METRIC_FIELDS` columns emitted per
    scheme row, in column order.  ``cache`` mirrors
    :attr:`~repro.eval.runner.RunnerConfig.cache` - runtime experiments
    (fig4d) disable the problem cache so build times stay cold.
    """

    name: str
    description: str
    points: List[GridPoint] = field(default_factory=list)
    metrics: Tuple[str, ...] = ("precision", "recall", "fscore")
    notes: str = ""
    cache: bool = True

    def __post_init__(self) -> None:
        for metric in self.metrics:
            if metric not in METRIC_FIELDS:
                raise ExperimentError(
                    f"unknown metric {metric!r}; known metrics: "
                    f"{', '.join(sorted(METRIC_FIELDS))}"
                )


#: Columns a spec may request per scheme row, read off the scheme's
#: :class:`~repro.eval.harness.EvalSummary`.
METRIC_FIELDS: Dict[str, Callable[[EvalSummary], float]] = {
    "precision": lambda s: s.accuracy.precision,
    "recall": lambda s: s.accuracy.recall,
    "fscore": lambda s: s.accuracy.fscore,
    "seconds": lambda s: s.mean_inference_seconds,
    "build_seconds": lambda s: s.mean_build_seconds,
}


# ----------------------------------------------------------------------
# Topology / probe / extras registries
# ----------------------------------------------------------------------

_TOPOLOGIES: Dict[str, Callable] = {}
_PROBES: Dict[str, Callable] = {}
_EXTRAS: Dict[str, Callable] = {}


def register_topology(name: str, resolver: Callable) -> None:
    """Register ``resolver(**params) -> Topology`` under ``name``."""
    _TOPOLOGIES[name] = resolver


def resolve_topology(name: str, **params):
    _ensure_builtin_experiments()
    try:
        resolver = _TOPOLOGIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown topology {name!r}; registered topologies: "
            f"{', '.join(sorted(_TOPOLOGIES))}"
        ) from None
    return resolver(**params)


def register_probe(name: str) -> Callable:
    """Decorator registering ``fn(context) -> rows`` under ``name``."""

    def deco(fn: Callable) -> Callable:
        _PROBES[name] = fn
        return fn

    return deco


def register_extras(name: str) -> Callable:
    """Decorator registering a per-point extra-columns hook.

    The hook receives ``(topology, routing, traces)`` and returns a
    dict of columns appended to every scheme row of the point.
    """

    def deco(fn: Callable) -> Callable:
        _EXTRAS[name] = fn
        return fn

    return deco


@dataclass
class ProbeContext:
    """Everything a probe measurement gets from the generic driver."""

    topology: object
    routing: Optional[EcmpRouting]
    traces: List[Trace]
    params: Dict[str, object]


# ----------------------------------------------------------------------
# Generic driver
# ----------------------------------------------------------------------


def build_point_traces(topology, routing, point: GridPoint) -> List[Trace]:
    """Generate one grid point's trace batch from its declarative spec."""
    if point.trace is None:
        return []
    if point.scenario is None:
        raise ExperimentError(
            f"grid point {dict(point.key)!r} has traces but no scenario"
        )
    ts = point.trace
    scenarios = point.scenario.build(len(ts.seeds))
    traces = []
    for i, (scenario, seed) in enumerate(zip(scenarios, ts.seeds)):
        if ts.traffic is not None:
            pattern = ts.traffic[i]
        else:
            pattern = SKEWED if i % 2 == 1 else UNIFORM
        traces.append(
            make_trace(
                topology,
                routing,
                scenario,
                seed=seed,
                n_passive=ts.n_passive,
                n_probes=ts.n_probes,
                traffic=pattern,
            )
        )
    return traces


def run_spec(
    spec: ExperimentSpec,
    runner: Optional[RunnerConfig] = None,
    point_cache: Optional[Dict[int, Tuple]] = None,
) -> ExperimentResult:
    """Evaluate a declarative spec point by point.

    Scheme points issue exactly one :func:`~repro.eval.runner.run_grid`
    call each, in spec order, so a grid hook
    (:class:`~repro.eval.runner.GridHook`) installed on ``runner`` sees
    a call sequence that is a pure function of the spec.  Probe points
    execute locally and never touch the runner.

    The unit boundary: when a record-side hook is installed, each
    scheme point's trace generation is gated on the hook's
    ``plan_call`` peek - a point none of whose traces will execute
    (e.g. a fleet worker's unit lives in a different grid call) skips
    topology build and trace generation entirely, and probe points are
    skipped outright (their rows are recomputed by the collect
    side, which replays recorded units and *does* run probes).  Both
    sides keep the grid-call sequence identical to a local run, so
    recorded units always line up.

    ``point_cache`` (mutable, keyed by point index) carries built
    ``(topology, routing, traces)`` triples across repeated
    ``run_spec`` invocations of the *same spec object* - fleet workers
    executing many units of one experiment pay trace generation once
    per point instead of once per unit.  Trace construction is a pure
    function of the spec, so reuse cannot change results.
    """
    config = runner
    if not spec.cache:
        config = replace(runner if runner is not None else RunnerConfig(), cache=False)
    hook = config.shard if config is not None else None
    recording = hook is not None and not hook.is_replay
    result = ExperimentResult(
        experiment=spec.name, description=spec.description, notes=spec.notes
    )

    def built_point(index: int, point: GridPoint) -> Tuple:
        if point_cache is not None and index in point_cache:
            return point_cache[index]
        topology = point.topology.build()
        routing = EcmpRouting(topology)
        traces = build_point_traces(topology, routing, point)
        if point_cache is not None:
            point_cache[index] = (topology, routing, traces)
        return topology, routing, traces

    for index, point in enumerate(spec.points):
        if point.probe is not None:
            if recording:
                # A record-side worker only contributes grid-call
                # results; probe rows would be discarded with the rest
                # of its partial ExperimentResult.
                continue
            probe = _PROBES.get(point.probe.name)
            if probe is None:
                raise ExperimentError(
                    f"unknown probe {point.probe.name!r}; registered probes: "
                    f"{', '.join(sorted(_PROBES))}"
                )
            topology, routing, traces = built_point(index, point)
            context = ProbeContext(
                topology=topology,
                routing=routing,
                traces=traces,
                params=dict(point.probe.params),
            )
            for row in probe(context):
                result.rows.append({**point.key, **row})
            continue
        setups = [ref.setup() for ref in point.schemes]
        labels = [setup.labeled() for setup in setups]
        n_traces = len(point.trace.seeds)
        planned = None
        plan_call = getattr(hook, "plan_call", None)
        if plan_call is not None:
            planned = plan_call(labels, n_traces)
        if planned is not None and len(planned) == 0 and point.extras is None:
            # Unit boundary: nothing of this call executes here and no
            # extras hook needs the traces - run_grid still sees the
            # call (with placeholder slots) so the hook's call sequence
            # stays aligned, but the workload is never generated.
            topology = routing = None
            traces: List = [None] * n_traces
        else:
            topology, routing, traces = built_point(index, point)
        summaries = evaluate_many(setups, traces, config)
        extras: Dict[str, object] = {}
        if point.extras is not None:
            hook_fn = _EXTRAS.get(point.extras)
            if hook_fn is None:
                raise ExperimentError(
                    f"unknown extras hook {point.extras!r}; registered: "
                    f"{', '.join(sorted(_EXTRAS))}"
                )
            extras = hook_fn(topology, routing, traces)
        for ref, setup in zip(point.schemes, setups):
            summary = summaries[setup.labeled()]
            row: Dict[str, object] = dict(point.key)
            if ref.key is not None:
                row.update(ref.key)
            else:
                row["scheme"] = setup.labeled()
            for metric in spec.metrics:
                row[metric] = METRIC_FIELDS[metric](summary)
            row.update(extras)
            result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a spec builder plus its metadata.

    ``builder(preset, seed, overrides)`` returns an
    :class:`ExperimentSpec`; builders that declare a ``runner``
    parameter additionally receive a shard-free runner for build-time
    evaluation work (the table1 calibrate phase).  ``shardable`` is an
    explicit flag: probe-only and self-calibrating experiments must
    opt out of ``--shards`` and ``fleet submit``.
    """

    name: str
    builder: Callable[..., ExperimentSpec]
    description: str
    default_seed: Optional[int] = None
    shardable: bool = True
    include_in_all: bool = True

    @property
    def takes_runner(self) -> bool:
        return "runner" in inspect.signature(self.builder).parameters


_EXPERIMENTS: Dict[str, Experiment] = {}
_builtins_loaded = False


def register_experiment(
    name: str,
    description: str,
    default_seed: Optional[int] = None,
    shardable: bool = True,
    include_in_all: bool = True,
) -> Callable:
    """Decorator registering a spec builder in the experiment registry.

    ``include_in_all=False`` keeps an experiment out of ``run all`` /
    :func:`default_experiment_names` - used by the table1 phase
    experiments, whose work the combined ``table1`` already covers.
    """

    def deco(builder: Callable) -> Callable:
        _EXPERIMENTS[name] = Experiment(
            name=name,
            builder=builder,
            description=description,
            default_seed=default_seed,
            shardable=shardable,
            include_in_all=include_in_all,
        )
        return builder

    return deco


def _ensure_builtin_experiments() -> None:
    """Load the built-in registrations on first registry access.

    The per-figure builders live in :mod:`repro.eval.experiments` (which
    imports this module); importing it lazily here lets callers use the
    registry without knowing where entries come from.  A dedicated flag
    (not dict emptiness) guards the import, so user registrations made
    before the first access cannot mask the built-ins.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from . import experiments  # noqa: F401  (imported for registration)


def get_experiment(name: str) -> Experiment:
    _ensure_builtin_experiments()
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; registered experiments: "
            f"{', '.join(experiment_names())}"
        ) from None


def experiment_names() -> List[str]:
    _ensure_builtin_experiments()
    return sorted(_EXPERIMENTS)


def shardable_experiment_names() -> List[str]:
    return [n for n in experiment_names() if _EXPERIMENTS[n].shardable]


def default_experiment_names() -> List[str]:
    """The ``run all`` set: every experiment not flagged out of it."""
    return [n for n in experiment_names() if _EXPERIMENTS[n].include_in_all]


class Overrides:
    """Tracks which ``--set key=val`` overrides a builder consumed.

    Builders call :meth:`take` for every knob they support;
    :meth:`finish` raises on leftovers so an unknown key fails loudly
    instead of silently running the unmodified experiment.
    """

    def __init__(self, mapping: Optional[Mapping[str, object]] = None):
        self._data = dict(mapping or {})
        self._taken: set = set()

    def take(self, key: str, default=None):
        self._taken.add(key)
        return self._data.get(key, default)

    def finish(self, experiment: str) -> None:
        leftover = sorted(set(self._data) - self._taken)
        if leftover:
            raise ExperimentError(
                f"experiment {experiment!r} does not support overrides "
                f"{leftover}; supported keys: {sorted(self._taken)}"
            )


def restrict_to_scheme(spec: ExperimentSpec, scheme: str) -> ExperimentSpec:
    """Filter a spec's scheme suites down to one registry scheme.

    Points whose suite contains no reference to ``scheme`` are dropped
    (their traces are never generated); probe points are kept.  If no
    point references the scheme at all, every scheme point instead runs
    the scheme at its registry defaults, so ``run fig2 --scheme
    sherlock`` evaluates Sherlock on fig2's workload even though the
    paper's fig2 grid does not include it.
    """
    from .schemes import get_scheme

    get_scheme(scheme)  # fail fast on unknown names
    any_match = any(
        ref.scheme == scheme for point in spec.points for ref in point.schemes
    )
    points: List[GridPoint] = []
    for point in spec.points:
        if point.probe is not None:
            points.append(point)
            continue
        if any_match:
            kept = tuple(ref for ref in point.schemes if ref.scheme == scheme)
            if kept:
                points.append(replace(point, schemes=kept))
        else:
            points.append(replace(point, schemes=(SchemeRef(scheme=scheme),)))
    if not any(point.schemes for point in points):
        raise ExperimentError(
            f"experiment {spec.name!r} has no scheme grid to restrict "
            f"to --scheme {scheme}"
        )
    return replace(spec, points=points)


def build_experiment_spec(
    name: str,
    preset: str = "ci",
    seed: Optional[int] = None,
    scheme: Optional[str] = None,
    overrides: Optional[Mapping[str, object]] = None,
    build_runner: Optional[RunnerConfig] = None,
) -> ExperimentSpec:
    """Resolve an experiment name into a concrete spec.

    ``build_runner`` parallelizes build-*time* evaluation work for
    builders that accept it (table1's calibrate phase); it must never
    carry a shard hook - sharding applies to the spec's own grid calls,
    not to spec construction.
    """
    check_preset(preset)
    entry = get_experiment(name)
    ov = Overrides(overrides)
    kwargs = {}
    if entry.takes_runner:
        if build_runner is not None and build_runner.shard is not None:
            build_runner = replace(build_runner, shard=None)
        kwargs["runner"] = build_runner
    spec = entry.builder(
        preset,
        seed if seed is not None else entry.default_seed,
        ov,
        **kwargs,
    )
    ov.finish(name)
    if scheme is not None:
        spec = restrict_to_scheme(spec, scheme)
    return spec


def run_experiment(
    name: str,
    preset: str = "ci",
    seed: Optional[int] = None,
    runner: Optional[RunnerConfig] = None,
    scheme: Optional[str] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> ExperimentResult:
    """Build and evaluate one registered experiment (the CLI front door)."""
    spec = build_experiment_spec(
        name,
        preset=preset,
        seed=seed,
        scheme=scheme,
        overrides=overrides,
        build_runner=runner,
    )
    return run_spec(spec, runner)
