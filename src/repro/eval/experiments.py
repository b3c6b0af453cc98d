"""Experiment definitions: one declarative spec per figure/table.

Every experiment here is registered in the :mod:`repro.eval.spec`
registry as a *builder* that turns ``(preset, seed, overrides)`` into an
:class:`~repro.eval.spec.ExperimentSpec` evaluated by the generic grid
driver (:func:`~repro.eval.spec.run_spec`).  Nothing in this module
executes traces or schemes itself; the builders only declare the
scenario x topology x telemetry x scheme x seed matrix.  Timing-style
measurements that are not a scheme x trace grid (fig4c's runtime
ablation, the scan-rate figure, the fig6 worked example) are registered
*probes*.

Presets:

* ``"tiny"`` - a few seconds per experiment; used by the registry-wide
  distributed-equivalence tests.
* ``"ci"`` - scaled-down sizes that run in seconds to minutes on one
  machine, used by the benchmark suite.  The flows-per-link ratio
  matches the paper's setup so accuracy trends are preserved.
* ``"paper"`` - sizes close to the paper's simulations, reachable via
  the CLI for long runs.

The paper-reported numbers each experiment should be compared against
are recorded in each spec's ``notes``.

Run an experiment by name with :func:`~repro.eval.spec.run_experiment`
(``run_experiment("fig2", preset="ci")``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..calibration.grid import CalibrationPoint, iter_grid
from ..calibration.select import choose_operating_point
from ..core.flock import FlockInference
from ..core.flock_fast import VectorArrays
from ..core.params import DEFAULT_PER_FLOW, DEFAULT_PER_PACKET, FlockParams
from ..core.problem import InferenceProblem
from ..errors import ExperimentError
from ..routing.ecmp import EcmpRouting
from ..simulation.failures import SilentLinkDrops
from ..telemetry.inputs import TelemetryConfig
from ..topology import (
    Topology,
    fat_tree,
    link_equivalence_classes,
    omit_random_links,
    paper_simulation_clos,
    testbed,
    theoretical_max_precision,
    three_tier_clos,
)
from ..types import FlowObservation, TelemetryKind
from .harness import SchemeSetup, build_problem
from .runner import RunnerConfig
from .scenarios import SKEWED, UNIFORM, Trace, make_trace_batch
from .schemes import (
    build_localizer,
    get_scheme,
    make_setup,
)
from .spec import (
    PRESETS,
    ExperimentSpec,
    GridPoint,
    Overrides,
    ProbeContext,
    ProbeRef,
    ScenarioSpec,
    SchemeRef,
    TopologySpec,
    TraceSpec,
    check_preset,
    register_experiment,
    register_extras,
    register_probe,
    register_topology,
)

_check_preset = check_preset


# ----------------------------------------------------------------------
# Shared topology/scale configuration
# ----------------------------------------------------------------------


def standard_topology(preset: str) -> Topology:
    """The silent-drop simulation fabric (paper: 2500-link 3-tier Clos)."""
    _check_preset(preset)
    if preset == "paper":
        return paper_simulation_clos()
    if preset == "tiny":
        return three_tier_clos(
            pods=2, tors_per_pod=2, aggs_per_pod=2,
            core_groups=2, cores_per_group=1, hosts_per_tor=2,
        )
    return three_tier_clos(
        pods=4, tors_per_pod=4, aggs_per_pod=2,
        core_groups=2, cores_per_group=2, hosts_per_tor=3,
    )


def _scale(preset: str) -> Dict[str, int]:
    """Flow/probe/trace counts; CI keeps the paper's flows-per-link ratio."""
    if preset == "paper":
        return {"n_passive": 400_000, "n_probes": 20_000, "n_traces": 16}
    if preset == "tiny":
        return {"n_passive": 1_200, "n_probes": 200, "n_traces": 4}
    return {"n_passive": 4_000, "n_probes": 600, "n_traces": 6}


def _testbed_scale(preset: str) -> Dict[str, int]:
    if preset == "paper":
        return {"n_passive": 40_000, "n_traces": 12}
    if preset == "tiny":
        return {"n_passive": 1_000, "n_traces": 4}
    return {"n_passive": 4_000, "n_traces": 6}


def _fig6_topology() -> Topology:
    """The appendix's 5-link example: S1,S2 - I1 - I2 - D1,D2."""
    return Topology(
        names=["S1", "S2", "I1", "I2", "D1", "D2"],
        roles=["host", "host", "tor", "tor", "host", "host"],
        links=[(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)],
    )


def _omitted_topology(preset: str, fraction: float, topo_seed: int) -> Topology:
    rng = np.random.default_rng(topo_seed)
    topo, _removed = omit_random_links(standard_topology(preset), fraction, rng)
    return topo


register_topology("standard", standard_topology)
register_topology("testbed", testbed)
register_topology("fat-tree", fat_tree)
register_topology("standard-omit", _omitted_topology)
register_topology("fig6-example", _fig6_topology)


# ----------------------------------------------------------------------
# Scheme-suite helpers (built on the scheme registry)
# ----------------------------------------------------------------------


def _flock_overrides(params: FlockParams) -> Dict[str, float]:
    return params.grid_overrides()


def flock_ref(
    spec: str,
    params: FlockParams = DEFAULT_PER_PACKET,
    label: Optional[str] = None,
    **telemetry_kwargs,
) -> SchemeRef:
    return SchemeRef(
        "flock",
        spec=spec,
        overrides=_flock_overrides(params),
        telemetry=telemetry_kwargs,
        label=label,
    )


def netbouncer_ref(spec: str, **overrides) -> SchemeRef:
    return SchemeRef("netbouncer", spec=spec, overrides=overrides)


def v007_ref(spec: str = "A2", **overrides) -> SchemeRef:
    return SchemeRef("007", spec=spec, overrides=overrides)


def standard_suite_refs(
    params: FlockParams = DEFAULT_PER_PACKET,
) -> Tuple[SchemeRef, ...]:
    """The Fig. 2 scheme x input grid as registry references."""
    return (
        flock_ref("INT", params),
        flock_ref("A1+A2+P", params),
        flock_ref("A2", params),
        flock_ref("A1+P", params),
        flock_ref("A1", params),
        netbouncer_ref("INT"),
        netbouncer_ref("A1"),
        v007_ref("A2"),
    )


def flock_setup(
    spec: str,
    params: FlockParams = DEFAULT_PER_PACKET,
    name: str = "Flock",
    **telemetry_kwargs,
) -> SchemeSetup:
    return make_setup(
        "flock",
        spec=spec,
        overrides=_flock_overrides(params),
        telemetry=telemetry_kwargs,
        label=name,
    )


def standard_scheme_suite(params: FlockParams = DEFAULT_PER_PACKET) -> List[SchemeSetup]:
    """The Fig. 2 scheme x input grid, as constructed setups."""
    return [ref.setup() for ref in standard_suite_refs(params)]


def silent_drop_traces(
    preset: str,
    seed: int,
    topology: Optional[Topology] = None,
    max_failures: int = 8,
    n_traces: Optional[int] = None,
    n_passive: Optional[int] = None,
    n_probes: Optional[int] = None,
) -> List[Trace]:
    """The section 7.1 workload: 1..8 failed links, alternating traffic."""
    scale = _scale(preset)
    topo = topology if topology is not None else standard_topology(preset)
    routing = EcmpRouting(topo)
    count = n_traces if n_traces is not None else scale["n_traces"]
    rng = np.random.default_rng(seed)
    scenarios = [
        SilentLinkDrops(n_failures=int(rng.integers(1, max_failures + 1)))
        for _ in range(count)
    ]
    return make_trace_batch(
        topo,
        routing,
        scenarios,
        base_seed=seed,
        n_passive=n_passive if n_passive is not None else scale["n_passive"],
        n_probes=n_probes if n_probes is not None else scale["n_probes"],
    )


def _silent_drops_mixed(seed: int, max_failures: int = 8) -> ScenarioSpec:
    """The section 7.1 sampling recipe: 1..max_failures links per trace."""
    return ScenarioSpec(
        "silent-link-drops",
        sampled={"n_failures": (1, max_failures + 1)},
        sample_seed=seed,
    )


def _seed_range(seed: int, count: int) -> Tuple[int, ...]:
    return tuple(range(seed, seed + count))


# ----------------------------------------------------------------------
# Fig. 2a/2b - silent packet drops, accuracy per scheme x input
# ----------------------------------------------------------------------


@register_experiment(
    "fig2",
    description="Silent packet drops: accuracy by scheme and input type",
    default_seed=7,
)
def build_fig2(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Silent-drop accuracy at two monitoring volumes (Fig. 2a/2b)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    base_passive = ov.take("n_passive", scale["n_passive"])
    base_probes = ov.take("n_probes", scale["n_probes"])
    max_failures = ov.take("max_failures", 8)
    # Low volume = 1/4 of the flows, mirroring the paper's 100K vs 400K
    # monitoring volumes.
    volumes = {
        "low": (base_passive // 4, base_probes),
        "high": (base_passive, base_probes * 4),
    }
    points = [
        GridPoint(
            topology=TopologySpec("standard", {"preset": preset}),
            key={"volume": volume_name, "n_passive": n_passive},
            scenario=_silent_drops_mixed(seed, max_failures),
            trace=TraceSpec(
                seeds=_seed_range(seed, n_traces),
                n_passive=n_passive,
                n_probes=n_probes,
            ),
            schemes=standard_suite_refs(),
        )
        for volume_name, (n_passive, n_probes) in volumes.items()
    ]
    return ExperimentSpec(
        name="fig2",
        description="Silent packet drops: accuracy by scheme and input type",
        points=points,
        notes=(
            "Paper (400K flows): Flock INT fscore 0.99, A1+A2+P 0.98, "
            "A2 0.93, A1+P 0.93, NetBouncer INT 0.88, 007 A2 0.61"
        ),
    )


# ----------------------------------------------------------------------
# Paper-scale Clos (the compressed-pipeline flagship workload)
# ----------------------------------------------------------------------


@register_experiment(
    "paper-clos",
    description="Paper-scale Clos silent drops (compressed pipeline demo)",
    default_seed=61,
    include_in_all=False,
)
def build_paper_clos(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Silent drops on the paper's simulation fabric at full scale.

    At ``--preset paper`` this is the paper's actual setup - the
    ``paper_simulation_clos`` 2496-link fabric with 400K passive flows
    per trace - which only the compressed component-path pipeline can
    build and localize; smaller presets scale the same workload down
    for smoke tests.  One trace by default: the point is proving the
    scale, not averaging accuracy.
    """
    scale = _scale(preset)
    n_traces = ov.take("n_traces", 1)
    schemes_csv = ov.take("schemes", "flock")
    refs = tuple(
        SchemeRef(name.strip(), spec="A1+A2+P" if name.strip() == "flock" else None)
        for name in str(schemes_csv).split(",")
    )
    point = GridPoint(
        topology=TopologySpec("standard", {"preset": preset}),
        scenario=ScenarioSpec(
            "silent-link-drops",
            params={"n_failures": 3, "min_rate": 4e-3, "max_rate": 1e-2},
        ),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=ov.take("n_probes", scale["n_probes"]),
        ),
        schemes=refs,
    )
    return ExperimentSpec(
        name="paper-clos",
        description="Paper-scale Clos silent drops (compressed pipeline demo)",
        points=[point],
        notes=(
            "Tentpole workload: 3-tier Clos, 1536 hosts, 400K flows per "
            "trace; ~9M distinct component paths compressed to ~250K "
            "interior projections"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 2c - device failures
# ----------------------------------------------------------------------


@register_experiment(
    "fig2c",
    description="Silent device failures: accuracy by scheme and input",
    default_seed=11,
)
def build_fig2c(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Device failures: fail 25%-100% of a device's links (Fig. 2c)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    point = GridPoint(
        topology=TopologySpec("standard", {"preset": preset}),
        scenario=ScenarioSpec(
            "silent-device-failure",
            sampled={"n_devices": (1, 3)},
            sample_seed=seed,
        ),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=ov.take("n_probes", scale["n_probes"]),
        ),
        schemes=standard_suite_refs(),
    )
    return ExperimentSpec(
        name="fig2c",
        description="Silent device failures: accuracy by scheme and input",
        points=[point],
        notes=(
            "Paper: Flock INT ~100% recall vs NetBouncer INT 80% recall; "
            "Flock A2 fscore 0.97 vs 007 0.76"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 3a/3b - soft gray failures (drop-rate sweep / SNR)
# ----------------------------------------------------------------------


def _a1_only(ref: SchemeRef) -> bool:
    """A1-only schemes are unaffected by skew in application traffic
    and are omitted from Fig. 3b, as in the paper."""
    spec = ref.spec if ref.spec is not None else get_scheme(ref.scheme).default_spec
    config = TelemetryConfig.from_spec(spec)
    return TelemetryKind.A1 in config.kinds and len(config.kinds) == 1


@register_experiment(
    "fig3",
    description="Soft gray failures: fscore vs drop rate (SNR sweep)",
    default_seed=13,
)
def build_fig3(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """F-score vs failed-link drop rate, uniform and skewed traffic."""
    scale = _scale(preset)
    if preset == "tiny":
        drop_rates, n_reps = [0.004, 0.010], 2
    else:
        drop_rates = [0.002, 0.004, 0.006, 0.010, 0.014]
        n_reps = 4 if preset == "ci" else 32
    n_reps = ov.take("n_reps", n_reps)
    drop_rates = ov.take("drop_rates", drop_rates)
    suite = (
        flock_ref("INT"),
        flock_ref("A1+A2+P"),
        flock_ref("A2"),
        v007_ref("A2"),
        netbouncer_ref("A1"),
    )
    points = []
    for traffic in (UNIFORM, SKEWED):
        included = tuple(
            ref for ref in suite
            if not (traffic == SKEWED and _a1_only(ref))
        )
        for rate in drop_rates:
            points.append(
                GridPoint(
                    topology=TopologySpec("standard", {"preset": preset}),
                    key={"traffic": traffic, "drop_rate": rate},
                    scenario=ScenarioSpec(
                        "silent-link-drops",
                        params={"n_failures": 1, "min_rate": rate, "max_rate": rate},
                    ),
                    trace=TraceSpec(
                        seeds=tuple(
                            seed + rep * 101 + int(rate * 1e5)
                            for rep in range(n_reps)
                        ),
                        n_passive=scale["n_passive"],
                        n_probes=scale["n_probes"],
                        traffic=(traffic,) * n_reps,
                    ),
                    schemes=included,
                )
            )
    return ExperimentSpec(
        name="fig3",
        description="Soft gray failures: fscore vs drop rate (SNR sweep)",
        points=points,
        metrics=("fscore", "precision", "recall"),
        notes=(
            "Paper: Flock A2 detects >1% drops reliably; with passive "
            "telemetry >0.4%; 007 degrades under skewed traffic"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 4a - misconfigured queue (testbed)
# ----------------------------------------------------------------------


@register_experiment(
    "fig4a",
    description="Testbed: misconfigured WRED queue (p=1%, w=0)",
    default_seed=17,
)
def build_fig4a(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Misconfigured WRED queue on the testbed topology (Fig. 4a).

    A1 schemes are omitted, as in the paper ("our switches don't have
    the in network IP-in-IP feature for A1").
    """
    scale = _testbed_scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    point = GridPoint(
        topology=TopologySpec("testbed"),
        scenario=ScenarioSpec("queue-misconfig", params={"n_links": 1}),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=0,
        ),
        schemes=(
            flock_ref("INT"),
            flock_ref("A2+P"),
            flock_ref("A2"),
            netbouncer_ref("INT"),
            v007_ref("A2"),
        ),
    )
    return ExperimentSpec(
        name="fig4a",
        description="Testbed: misconfigured WRED queue (p=1%, w=0)",
        points=[point],
        notes=(
            "Paper (recalibrated): Flock INT fscore 0.98 vs NetBouncer INT "
            "0.87; Flock A2 0.97 vs 007 0.5; Flock A2+P close to INT"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 4b - link flap (per-flow RTT analysis)
# ----------------------------------------------------------------------


@register_experiment(
    "fig4b",
    description="Testbed: link flap diagnosed via per-flow RTT analysis",
    default_seed=19,
)
def build_fig4b(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Link flap on the testbed: RTT spikes, per-flow analysis (Fig. 4b)."""
    scale = _testbed_scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    point = GridPoint(
        topology=TopologySpec("testbed"),
        scenario=ScenarioSpec("link-flap", params={"n_links": 1}),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=0,
        ),
        schemes=(
            flock_ref("INT", DEFAULT_PER_FLOW),
            flock_ref("A2+P", DEFAULT_PER_FLOW),
            flock_ref("A2", DEFAULT_PER_FLOW),
            netbouncer_ref("INT", drop_threshold=0.05),
            v007_ref("A2"),
        ),
    )
    return ExperimentSpec(
        name="fig4b",
        description="Testbed: link flap diagnosed via per-flow RTT analysis",
        points=[point],
        notes=(
            "Paper: Flock INT fscore 0.81 vs NetBouncer INT 0.69; "
            "Flock A2 reduces error 1.8x over 007"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 4c - inference runtime: Sherlock vs greedy-only vs JLE-only vs Flock
# ----------------------------------------------------------------------


def estimate_sherlock_runtime(
    problem: InferenceProblem,
    params: FlockParams,
    sample: int = 300,
    seed: int = 0,
) -> Tuple[float, int]:
    """Extrapolate plain Sherlock's K=2 runtime from a hypothesis sample.

    The paper does the same for its largest point ("estimated ... based
    on extrapolating a partial run").  Uses the vectorized hypothesis
    pricer so all Fig. 4c arms share constant factors.  Returns
    (seconds, total hypotheses).
    """
    arrays = VectorArrays(problem, params)
    comps = list(problem.observed_components)
    n = len(comps)
    total_hypotheses = 1 + n + n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    # Warm up the kernels so first-call overhead doesn't inflate the
    # extrapolated per-hypothesis cost.
    for _ in range(10):
        arrays.hypothesis_ll(comps[:2])
    t0 = time.perf_counter()
    measured = 0
    for _ in range(sample):
        pair = rng.choice(n, size=min(2, n), replace=False)
        arrays.hypothesis_ll([comps[int(i)] for i in pair])
        measured += 1
    elapsed = time.perf_counter() - t0
    per_hypothesis = elapsed / max(1, measured)
    return per_hypothesis * total_hypotheses, total_hypotheses


def _fig4c_scales(preset: str) -> Tuple[List[int], int]:
    if preset == "paper":
        return [4, 8, 12, 16], 100
    if preset == "tiny":
        return [4], 10
    return [4, 6, 8], 20


@register_probe("fig4c-arms")
def _fig4c_probe(ctx: ProbeContext) -> List[Dict]:
    """Time the four Fig. 4c arms on one trace's A1+A2+P problem."""
    problem = build_problem(ctx.traces[0], TelemetryConfig.from_spec("A1+A2+P"))

    def best_of(fn, repeats=3):
        best = float("inf")
        value = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        return best, value

    # The measured arms finish in milliseconds at small sizes; take the
    # best of three runs so timer noise doesn't distort the ratios.
    flock = build_localizer("flock")
    flock_time, flock_pred = best_of(lambda: flock.localize(problem))

    greedy_only = build_localizer("flock-greedy")
    greedy_only_time, _ = best_of(lambda: greedy_only.localize(problem))

    jle_only = build_localizer("sherlock-jle")
    jle_only_time, _ = best_of(lambda: jle_only.localize(problem))

    sherlock_time, n_hyp = estimate_sherlock_runtime(problem, DEFAULT_PER_PACKET)
    return [
        {
            "scheme": scheme,
            "seconds": seconds,
            "estimated": estimated,
            "hypotheses": n_hyp if scheme == "sherlock"
            else flock_pred.hypotheses_scanned,
        }
        for scheme, seconds, estimated in (
            ("sherlock", sherlock_time, True),
            ("flock-greedy-only", greedy_only_time, False),
            ("flock-jle-only", jle_only_time, False),
            ("flock", flock_time, False),
        )
    ]


@register_experiment(
    "fig4c",
    description="Inference runtime vs topology size (Sherlock / greedy / JLE / Flock)",
    default_seed=23,
    shardable=False,
)
def build_fig4c(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Runtime of Sherlock / greedy-only / JLE-only / Flock vs size."""
    ks, flows_per_server = _fig4c_scales(preset)
    ks = ov.take("ks", ks)
    flows_per_server = ov.take("flows_per_server", flows_per_server)
    points = []
    for k in ks:
        n_servers = len(fat_tree(k).hosts)
        points.append(
            GridPoint(
                topology=TopologySpec("fat-tree", {"k": k}),
                key={"servers": n_servers, "k": k},
                scenario=ScenarioSpec(
                    "silent-link-drops", params={"n_failures": 2}
                ),
                trace=TraceSpec(
                    seeds=(seed + k,),
                    n_passive=n_servers * flows_per_server,
                    n_probes=n_servers * 2,
                ),
                probe=ProbeRef("fig4c-arms"),
            )
        )
    return ExperimentSpec(
        name="fig4c",
        description=(
            "Inference runtime vs topology size: Sherlock (extrapolated), "
            "Flock greedy-only, Flock JLE-only (Sherlock+JLE), Flock"
        ),
        points=points,
        notes=(
            "Paper: Flock >10^4x faster than Sherlock; greedy and JLE "
            "each contribute ~100x"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 4d - end-to-end scheme runtimes
# ----------------------------------------------------------------------


@register_experiment(
    "fig4d",
    description="Scheme runtime across topology sizes",
    default_seed=29,
)
def build_fig4d(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Runtime of every scheme on its input, across topology sizes.

    Build times must be *cold*, per-scheme measurements (the figure
    compares end-to-end scheme cost), so the spec disables the problem
    cache; with one trace per size the grid runs serially regardless of
    the runner, keeping inference timings uncontended.
    """
    if preset == "paper":
        ks, flows_per_server = [8, 12, 16], 100
    elif preset == "tiny":
        ks, flows_per_server = [4], 10
    else:
        ks, flows_per_server = [4, 6, 8], 20
    ks = ov.take("ks", ks)
    flows_per_server = ov.take("flows_per_server", flows_per_server)
    points = []
    for k in ks:
        n_servers = len(fat_tree(k).hosts)
        points.append(
            GridPoint(
                topology=TopologySpec("fat-tree", {"k": k}),
                key={"servers": n_servers, "k": k},
                scenario=ScenarioSpec(
                    "silent-link-drops", params={"n_failures": 2}
                ),
                trace=TraceSpec(
                    seeds=(seed + k,),
                    n_passive=n_servers * flows_per_server,
                    n_probes=n_servers * 2,
                ),
                schemes=(
                    netbouncer_ref("INT"),
                    flock_ref("A1+A2+P"),
                    flock_ref("INT"),
                    netbouncer_ref("A1"),
                    flock_ref("A1"),
                    flock_ref("A2"),
                    v007_ref("A2"),
                ),
            )
        )
    return ExperimentSpec(
        name="fig4d",
        description="Scheme runtime across topology sizes",
        points=points,
        metrics=("seconds", "build_seconds"),
        cache=False,
        notes=(
            "Paper: Flock ~4.5x faster than NetBouncer on the same input; "
            "007 fastest (<1 sec) but least accurate"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 5a/5b - irregular Clos
# ----------------------------------------------------------------------


def omit_grid_seeds(seed: int, index: int, span: int = 1000) -> Tuple[int, int]:
    """(topology-RNG seed, trace base seed) for one omitted-links grid point.

    Derivation is index-based: grid point ``i`` owns the disjoint seed
    block ``[seed + span*i, seed + span*(i+1))``; traces take the low
    slots (``base_seed + j``) and the topology RNG the top slot.  No two
    grid points can collide, and point 0 never collapses both RNGs onto
    the bare experiment seed.  The earlier fraction-*value* derivation
    (``seed + int(fraction * 1000)`` / ``seed + int(fraction * 100)``)
    truncated floats - ``int(0.29 * 100) == 28`` - so seeds shifted or
    collided as the fraction grid changed, and ``fraction=0.0`` reused
    the bare seed for both the topology RNG and the trace batch.
    """
    block = seed + span * index
    return block + span - 1, block


def _omit_points(
    preset: str,
    seed: int,
    fractions: List[float],
    n_traces: int,
    n_passive: int,
    schemes: Tuple[SchemeRef, ...],
    extras: Optional[str] = None,
) -> List[GridPoint]:
    points = []
    for i, fraction in enumerate(fractions):
        topo_seed, base_seed = omit_grid_seeds(seed, i)
        points.append(
            GridPoint(
                topology=TopologySpec(
                    "standard-omit",
                    {"preset": preset, "fraction": fraction, "topo_seed": topo_seed},
                ),
                key={"fraction_omitted": fraction},
                scenario=ScenarioSpec(
                    "silent-link-drops", params={"n_failures": 1}
                ),
                trace=TraceSpec(
                    seeds=_seed_range(base_seed, n_traces),
                    n_passive=n_passive,
                    n_probes=0,
                ),
                schemes=schemes,
                extras=extras,
            )
        )
    return points


@register_experiment(
    "fig5",
    description="Irregular Clos: accuracy vs % links omitted",
    default_seed=31,
)
def build_fig5(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Accuracy vs fraction of omitted links, including Flock (P)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", max(4, scale["n_traces"] // 2))
    points = _omit_points(
        preset,
        seed,
        fractions=ov.take("fractions", [0.0, 0.05, 0.10, 0.20]),
        n_traces=n_traces,
        n_passive=ov.take("n_passive", scale["n_passive"]),
        schemes=(
            flock_ref("INT"),
            flock_ref("A2+P"),
            flock_ref("A2"),
            flock_ref("P"),
            netbouncer_ref("INT"),
            v007_ref("A2"),
        ),
    )
    return ExperimentSpec(
        name="fig5",
        description="Irregular Clos: accuracy vs % links omitted",
        points=points,
        notes=(
            "Paper: Flock robust to irregularity; 007 sensitive; "
            "Flock (P) improves as symmetry breaks"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 5c - Flock (P) on a hard, nearly-symmetric scenario
# ----------------------------------------------------------------------


@register_extras("theoretical-max-precision")
def _theoretical_max_extras(topology, routing, traces) -> Dict[str, float]:
    """Mean theoretical max precision from link equivalence classes."""
    classes = link_equivalence_classes(topology, routing)
    max_precisions = [
        theoretical_max_precision(classes, trace.ground_truth.failed_links)
        for trace in traces
    ]
    return {"theoretical_max_precision": float(np.mean(max_precisions))}


@register_experiment(
    "fig5c",
    description="Flock (P) on a hard scenario: symmetric Clos, passive only",
    default_seed=37,
)
def build_fig5c(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Passive-only localization with <5% omitted links (Fig. 5c)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", max(4, scale["n_traces"] // 2))
    points = _omit_points(
        preset,
        seed,
        fractions=ov.take("fractions", [0.01, 0.02, 0.03, 0.04]),
        n_traces=n_traces,
        n_passive=ov.take("n_passive", scale["n_passive"]),
        schemes=(flock_ref("P"),),
        extras="theoretical-max-precision",
    )
    return ExperimentSpec(
        name="fig5c",
        description=(
            "Flock (P) on a hard scenario: symmetric Clos, passive only, "
            "with the theoretical max precision from equivalence classes"
        ),
        points=points,
        metrics=("precision", "recall"),
        notes="Paper: >75% recall, >40% precision; theoretical max shown",
    )


# ----------------------------------------------------------------------
# Table 1 - parameter calibration robustness (two-phase)
# ----------------------------------------------------------------------

#: The coarse calibration grid table1 sweeps per environment.
TABLE1_GRID = {
    "pg": [1e-4, 3e-4, 7e-4],
    "pb": [2e-3, 6e-3],
    "rho": [5e-4],
}

_TABLE1_TELEMETRY = "A1+A2+P"


def _table1_workload(preset: str, seed: int):
    """The train batch and the four mismatched test environments.

    Returns ``(train, environments)`` where each entry is
    ``(name, TopologySpec, ScenarioSpec, TraceSpec)``.
    """
    scale = _scale(preset)
    n_traces = max(3, scale["n_traces"] // 2)
    n_passive = scale["n_passive"]
    n_probes = scale["n_probes"]
    standard = TopologySpec("standard", {"preset": preset})

    def drops(**kwargs) -> ScenarioSpec:
        return ScenarioSpec(
            "silent-link-drops", params={"n_failures": 2, **kwargs}
        )

    def batch(name, topology, start_seed, scenario, flows=None, probes=None):
        return (
            name,
            topology,
            scenario,
            TraceSpec(
                seeds=_seed_range(start_seed, n_traces),
                n_passive=flows if flows is not None else n_passive,
                n_probes=probes if probes is not None else n_probes,
            ),
        )

    train = batch("train", standard, seed, drops())
    environments = [
        batch(
            "different_topology", TopologySpec("testbed"), seed + 100, drops(),
            flows=n_passive // 2, probes=0,
        ),
        batch(
            "different_failure_rate", standard, seed + 200,
            drops(min_rate=0.02, max_rate=0.05),
        ),
        batch(
            "different_monitoring_interval", standard, seed + 300, drops(),
            flows=n_passive // 4,
        ),
        batch(
            "different_failure_scenario", standard, seed + 400,
            ScenarioSpec("silent-device-failure", params={"n_devices": 1}),
        ),
    ]
    return train, environments


@register_experiment(
    "table1-calibrate",
    description="Table 1 calibrate phase: parameter-grid accuracy per environment",
    default_seed=41,
    include_in_all=False,
)
def build_table1_calibrate(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Sweep the calibration grid on the train batch and every test
    environment (the "S" calibrations); feed the result rows to
    ``table1-eval`` via ``--set calibration=<result.json>``."""
    train, environments = _table1_workload(preset, seed)
    grid_params = iter_grid(TABLE1_GRID)
    points = []
    for env_name, topology, scenario, trace in [train] + environments:
        points.append(
            GridPoint(
                topology=topology,
                scenario=scenario,
                trace=trace,
                schemes=tuple(
                    SchemeRef(
                        "flock",
                        spec=_TABLE1_TELEMETRY,
                        overrides=params,
                        label=f"candidate[{i}]",
                        key={"environment": env_name, **params},
                    )
                    for i, params in enumerate(grid_params)
                ),
            )
        )
    return ExperimentSpec(
        name="table1-calibrate",
        description=(
            "Table 1 calibrate phase: grid accuracy on the train batch "
            "and each test environment"
        ),
        points=points,
        metrics=("precision", "recall"),
        notes="Feed these rows to table1-eval via --set calibration=PATH",
    )


def _table1_choices(rows: List[Dict]) -> Dict[str, CalibrationPoint]:
    """Apply the section 5.2 operating-point rule per environment."""
    grid_keys = sorted(TABLE1_GRID)
    by_env: Dict[str, List[CalibrationPoint]] = {}
    for row in rows:
        try:
            point = CalibrationPoint(
                params={key: row[key] for key in grid_keys},
                precision=row["precision"],
                recall=row["recall"],
            )
            env = row["environment"]
        except KeyError as exc:
            raise ExperimentError(
                f"calibration row is missing column {exc}; expected rows "
                "from the table1-calibrate experiment"
            ) from None
        by_env.setdefault(env, []).append(point)
    return {
        env: choose_operating_point(points) for env, points in by_env.items()
    }


def _table1_eval_points(
    preset: str,
    seed: int,
    calibration: Optional[str],
    runner: Optional[RunnerConfig],
) -> List[GridPoint]:
    """Build the eval-phase grid from calibrate-phase results.

    ``calibration`` is a path to a saved ``table1-calibrate`` result; if
    ``None``, the calibrate spec runs here (unsharded - spec *building*
    must be identical on every fleet worker and on the collector).
    """
    if calibration is not None:
        from .reporting import load_result

        rows = load_result(calibration).rows
    else:
        from .spec import build_experiment_spec, run_spec

        calibrate_spec = build_experiment_spec(
            "table1-calibrate", preset=preset, seed=seed
        )
        rows = run_spec(calibrate_spec, runner).rows
    choices = _table1_choices(rows)
    _, environments = _table1_workload(preset, seed)
    missing = {"train"} | {env[0] for env in environments}
    missing -= set(choices)
    if missing:
        raise ExperimentError(
            f"calibration rows cover no settings for environment(s) "
            f"{sorted(missing)}"
        )
    train_choice = choices["train"]
    points = []
    for env_name, topology, scenario, trace in environments:
        refs = []
        for mode, choice in (("D", train_choice), ("S", choices[env_name])):
            refs.append(
                SchemeRef(
                    "flock",
                    spec=_TABLE1_TELEMETRY,
                    overrides=dict(choice.params),
                    label=f"Flock[{mode}]",
                    key={
                        "scheme": f"Flock ({_TABLE1_TELEMETRY})",
                        "environment": env_name,
                        "mode": mode,
                        "params": dict(choice.params),
                    },
                )
            )
        points.append(
            GridPoint(
                topology=topology,
                scenario=scenario,
                trace=trace,
                schemes=tuple(refs),
            )
        )
    return points


@register_experiment(
    "table1-eval",
    description="Table 1 eval phase: train/test mismatch accuracy (shardable)",
    default_seed=41,
    include_in_all=False,
)
def build_table1_eval(
    preset: str, seed: int, ov: Overrides, runner: Optional[RunnerConfig] = None
) -> ExperimentSpec:
    """Evaluate the D(ifferent) and S(ame) operating points per
    environment.  Pass ``--set calibration=<table1-calibrate result>``
    to skip recomputing the calibrate phase in every worker."""
    points = _table1_eval_points(
        preset, seed, ov.take("calibration"), runner
    )
    return ExperimentSpec(
        name="table1-eval",
        description="Table 1 eval phase: train/test mismatch accuracy",
        points=points,
        notes="Paper: Flock loses <2% accuracy under mismatch; NetBouncer 31%",
    )


@register_experiment(
    "table1",
    description="Parameter-calibration robustness (calibrate + eval phases)",
    default_seed=41,
    shardable=False,
)
def build_table1(
    preset: str, seed: int, ov: Overrides, runner: Optional[RunnerConfig] = None
) -> ExperimentSpec:
    """Train/test environment mismatch (Table 1), both phases in one run.

    The calibrate phase dominates this experiment's cost and runs at
    spec-build time, so sharding ``table1`` itself would repeat it in
    every worker for no gain - use the ``table1-calibrate`` /
    ``table1-eval`` pair to distribute the eval phase.
    """
    points = _table1_eval_points(preset, seed, ov.take("calibration"), runner)
    return ExperimentSpec(
        name="table1",
        description="Parameter-calibration robustness (train vs test mismatch)",
        points=points,
        notes="Paper: Flock loses <2% accuracy under mismatch; NetBouncer 31%",
    )


# ----------------------------------------------------------------------
# Fig. 6 - worked example
# ----------------------------------------------------------------------


@register_probe("fig6-worked-example")
def _fig6_probe(ctx: ProbeContext) -> List[Dict]:
    """The appendix's 5-link, 5-flow example where Flock localizes the
    failed link and 007/NetBouncer do not.

    Topology: hosts S1, S2 under switch I1; hosts D1, D2 under switch
    I2; link I1-I2 between them.  The link I2-D2 silently drops ~5% of
    packets.  Flows S1->D2 and S2->D2 see heavy loss; S1->D1 sees two
    stray drops; the rest are clean.
    """
    topo = ctx.topology

    def path(*nodes):
        return topo.path_components(nodes, include_devices=False)

    observations = [
        # (path_set, packets_sent, bad_packets) - Fig. 6's annotations.
        FlowObservation((path(0, 2, 3, 5),), 10_000, 543),   # S1->D2, lossy
        FlowObservation((path(0, 2, 3, 4),), 10_000, 2),     # S1->D1, 2 drops
        FlowObservation((path(1, 2, 3, 5),), 10_000, 461),   # S2->D2, lossy
        FlowObservation((path(1, 2, 3, 4),), 10_000, 0),     # S2->D1, clean
        FlowObservation((path(0, 2, 1),), 10_000, 0),        # S1->S2, clean
    ]
    problem = InferenceProblem.from_observations(
        observations, n_components=topo.n_components, n_links=topo.n_links
    )
    failed_link = topo.link_id(3, 5)

    params = FlockParams(pg=3e-4, pb=4e-2, rho=5e-4)
    rows = []
    for name, localizer in (
        ("Flock", FlockInference(params)),
        ("007", build_localizer("007", threshold=0.7)),
        ("NetBouncer", build_localizer("netbouncer")),
    ):
        prediction = localizer.localize(problem)
        named = sorted(topo.component_name(c) for c in prediction.components)
        rows.append(
            {
                "scheme": name,
                "predicted": named,
                "correct_only": prediction.components == frozenset({failed_link}),
            }
        )
    return rows


@register_experiment(
    "fig6",
    description="Worked example: Flock pinpoints I2<->D2",
    shardable=False,
)
def build_fig6(preset: str, seed: Optional[int], ov: Overrides) -> ExperimentSpec:
    """The fig6 worked example has no traces, seeds, or preset scaling;
    its observations are the figure's annotations."""
    point = GridPoint(
        topology=TopologySpec("fig6-example"),
        probe=ProbeRef("fig6-worked-example"),
    )
    return ExperimentSpec(
        name="fig6",
        description="Worked example: Flock pinpoints I2<->D2",
        points=[point],
        notes="Paper Fig. 6: 007 -> (I1,I2); NetBouncer -> 2 links; Flock -> (I2,D2)",
    )


# ----------------------------------------------------------------------
# Fig. 8a/8b - parameter sensitivity and priors
# ----------------------------------------------------------------------


@register_experiment(
    "fig8a",
    description="Sensitivity to pg and pb",
    default_seed=43,
)
def build_fig8a(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """F-score over a (pg, pb) grid (Fig. 8a)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    # One grid point: all settings share the telemetry spec, so each
    # trace's problem is built once for the whole (pg, pb) grid.
    settings = [
        (pg, pb)
        for pg in (1e-4, 3e-4, 5e-4, 7e-4)
        for pb in (2e-3, 4e-3, 6e-3, 1e-2)
    ]
    point = GridPoint(
        topology=TopologySpec("standard", {"preset": preset}),
        scenario=_silent_drops_mixed(seed, max_failures=4),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=ov.take("n_probes", scale["n_probes"]),
        ),
        schemes=tuple(
            SchemeRef(
                "flock",
                spec="A1+A2+P",
                overrides={"pg": pg, "pb": pb, "rho": 5e-4},
                label=f"Flock pg={pg:g} pb={pb:g}",
                key={"pg": pg, "pb": pb},
            )
            for pg, pb in settings
        ),
    )
    return ExperimentSpec(
        name="fig8a",
        description="Sensitivity to pg and pb",
        points=[point],
        metrics=("fscore", "precision", "recall"),
        notes="Paper: accuracy high over a wide (pg, pb) region",
    )


@register_experiment(
    "fig8b",
    description="Effect of the failure prior rho",
    default_seed=47,
)
def build_fig8b(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Effect of the prior rho on precision/recall (Fig. 8b)."""
    scale = _scale(preset)
    n_traces = ov.take("n_traces", scale["n_traces"])
    rhos = (1e-5, 1e-4, 5e-4, 2e-3, 1e-2)
    point = GridPoint(
        topology=TopologySpec("standard", {"preset": preset}),
        scenario=_silent_drops_mixed(seed, max_failures=4),
        trace=TraceSpec(
            seeds=_seed_range(seed, n_traces),
            n_passive=ov.take("n_passive", scale["n_passive"]),
            n_probes=ov.take("n_probes", scale["n_probes"]),
        ),
        schemes=tuple(
            SchemeRef(
                "flock",
                spec="A1+A2+P",
                overrides={"pg": 3e-4, "pb": 4e-3, "rho": rho},
                label=f"Flock rho={rho:g}",
                key={"rho": rho},
            )
            for rho in rhos
        ),
    )
    return ExperimentSpec(
        name="fig8b",
        description="Effect of the failure prior rho",
        points=[point],
        notes="Paper: larger priors move points right (higher precision)",
    )


# ----------------------------------------------------------------------
# Section 7.8 - hypothesis scan rate
# ----------------------------------------------------------------------


@register_probe("scan-rate")
def _scan_rate_probe(ctx: ProbeContext) -> List[Dict]:
    """Time one full Flock localization on an A1+A2+P problem."""
    trace = ctx.traces[0]
    problem = build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))
    localizer = build_localizer("flock")
    t0 = time.perf_counter()
    prediction = localizer.localize(problem)
    elapsed = time.perf_counter() - t0
    return [
        {
            "links": ctx.topology.n_links,
            "components": ctx.topology.n_components,
            "flows": problem.total_flows,
            "grouped_flows": problem.n_flows,
            "hypotheses_scanned": prediction.hypotheses_scanned,
            "seconds": elapsed,
            "hypotheses_per_second": prediction.hypotheses_scanned / elapsed,
        }
    ]


@register_experiment(
    "scan-rate",
    description="Flock hypothesis scan rate (section 7.8)",
    default_seed=53,
    shardable=False,
)
def build_scan_rate(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Hypotheses scanned per second by Flock's inference (section 7.8).

    The paper reports ~3.5M hypotheses in 17 s at 88K links / 9.5M
    flows (~200K hypotheses/s in C++ on 40 cores).
    """
    k = {"tiny": 4, "ci": 8, "paper": 16}[preset]
    flows_per_server = {"tiny": 10, "ci": 30, "paper": 150}[preset]
    k = ov.take("k", k)
    flows_per_server = ov.take("flows_per_server", flows_per_server)
    n_servers = len(fat_tree(k).hosts)
    point = GridPoint(
        topology=TopologySpec("fat-tree", {"k": k}),
        scenario=ScenarioSpec("silent-link-drops", params={"n_failures": 4}),
        trace=TraceSpec(
            seeds=(seed,),
            n_passive=n_servers * flows_per_server,
            n_probes=n_servers * 2,
        ),
        probe=ProbeRef("scan-rate"),
    )
    return ExperimentSpec(
        name="scan-rate",
        description="Flock hypothesis scan rate",
        points=[point],
        notes="Paper: ~3.5M hypotheses in 17s at 88K links (C++, 40 cores)",
    )


# ----------------------------------------------------------------------
# Streaming localization monitor
# ----------------------------------------------------------------------


@register_probe("stream-monitor")
def _stream_monitor_probe(ctx: ProbeContext) -> List[Dict]:
    """Replay a chunked incident and monitor it with a sliding window.

    Emits one ``row="cycle"`` line per monitor cycle plus one
    ``row="incident"`` line per ground-truth incident with its
    detection latency.
    """
    from ..simulation.failures import make_scenario
    from ..simulation.stream import replay_stream
    from .stream import StreamMonitor, incident_latencies

    p = ctx.params
    scenario = make_scenario(
        p.get("scenario", "gray-drift"), **dict(p.get("scenario_params", {}))
    )
    seed = int(p.get("seed", 0))
    chunks = replay_stream(
        ctx.topology,
        ctx.routing,
        scenario,
        seed=seed,
        n_chunks=int(p.get("n_chunks", 12)),
        flows_per_chunk=int(p.get("flows_per_chunk", 500)),
        probes_per_chunk=int(p.get("probes_per_chunk", 100)),
        chunk_seconds=float(p.get("chunk_seconds", 1.0)),
        onset_chunk=int(p.get("onset_chunk", 0)),
        clear_chunk=p.get("clear_chunk"),
    )
    monitor = StreamMonitor(
        ctx.topology,
        scheme=str(p.get("scheme", "flock")),
        window=int(p.get("window", 4)),
        warm=bool(p.get("warm", True)),
        seed=seed,
    )
    reports = monitor.run(chunks)
    rows: List[Dict] = [
        {
            "row": "cycle",
            "cycle": r.cycle,
            "t_end": r.t_end,
            "raw_flows": r.raw_flows,
            "grouped_flows": r.grouped_flows,
            "predicted": len(r.prediction.components),
            "truth": len(r.truth),
            "detected": int(r.detected),
            "churn": r.churn,
            "build_seconds": r.build_seconds,
            "localize_seconds": r.localize_seconds,
        }
        for r in reports
    ]
    for incident in incident_latencies(reports):
        rows.append({"row": "incident", **incident})
    return rows


@register_experiment(
    "stream-monitor",
    description="Streaming sliding-window localization of a gray drift",
    default_seed=61,
    shardable=False,
)
def build_stream_monitor(preset: str, seed: int, ov: Overrides) -> ExperimentSpec:
    """Online localization cycles over a chunked gray-drift replay.

    A drifting silent-drop incident turns on mid-stream; the monitor
    folds each chunk into a sliding window, warm-starts the kernels
    from the previous cycle's state, and reports detection latency and
    hypothesis churn per cycle.
    """
    shape = {
        "tiny": {"n_chunks": 8, "flows_per_chunk": 300, "probes_per_chunk": 60},
        "ci": {"n_chunks": 12, "flows_per_chunk": 1_000, "probes_per_chunk": 150},
        "paper": {
            "n_chunks": 24,
            "flows_per_chunk": 50_000,
            "probes_per_chunk": 2_500,
        },
    }[preset]
    window = ov.take("window", {"tiny": 3, "ci": 4, "paper": 8}[preset])
    n_chunks = ov.take("n_chunks", shape["n_chunks"])
    params = {
        "scenario": ov.take("scenario", "gray-drift"),
        "seed": seed,
        "n_chunks": n_chunks,
        "flows_per_chunk": ov.take(
            "flows_per_chunk", shape["flows_per_chunk"]
        ),
        "probes_per_chunk": ov.take(
            "probes_per_chunk", shape["probes_per_chunk"]
        ),
        "window": window,
        "scheme": ov.take("scheme", "flock"),
        "warm": ov.take("warm", True),
        "onset_chunk": ov.take("onset_chunk", n_chunks // 3),
        "clear_chunk": ov.take("clear_chunk", None),
    }
    point = GridPoint(
        topology=TopologySpec("standard", {"preset": preset}),
        key={"scenario": params["scenario"], "window": window},
        probe=ProbeRef("stream-monitor", params=params),
    )
    return ExperimentSpec(
        name="stream-monitor",
        description="Streaming sliding-window localization",
        points=[point],
        notes=(
            "Per-cycle detection/churn rows plus per-incident detection "
            "latency for a mid-stream gray drift"
        ),
    )
