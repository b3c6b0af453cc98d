"""Flock: accurate network fault localization at scale - reproduction.

A from-scratch Python implementation of the Flock system (Harsh, Meng,
Agrawal, Godfrey - Proceedings of the ACM on Networking (PACMNET),
2023): a probabilistic-graphical-model fault
localizer with greedy + JLE (joint likelihood exploration) inference,
alongside the baselines it is evaluated against (007, NetBouncer,
Sherlock), the simulation and telemetry substrates, and the full
evaluation suite.

Quickstart::

    from repro import (
        EcmpRouting, FlockInference, SilentLinkDrops, TelemetryConfig,
        build_problem, fat_tree, make_trace,
    )

    topo = fat_tree(4)
    routing = EcmpRouting(topo)
    trace = make_trace(topo, routing, SilentLinkDrops(n_failures=2), seed=1)
    problem = build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))
    prediction = FlockInference().localize(problem)
    print({topo.component_name(c) for c in prediction.components})
"""

from .baselines import NetBouncer, SherlockFerret, Vote007
from .core import (
    DEFAULT_PER_FLOW,
    DEFAULT_PER_PACKET,
    FlockInference,
    FlockParams,
    GibbsInference,
    InferenceProblem,
)
from .errors import ReproError
from .eval import (
    ExperimentResult,
    ExperimentSpec,
    RunnerConfig,
    SchemeSetup,
    Trace,
    build_localizer,
    build_problem,
    evaluate,
    evaluate_many,
    evaluate_prediction,
    experiment_names,
    fscore,
    make_setup,
    make_trace,
    run_experiment,
    run_on_trace,
    run_spec,
    scheme_names,
)
from .routing import EcmpRouting
from .simulation import (
    LinkFlap,
    NoFailure,
    QueueMisconfig,
    SilentDeviceFailure,
    SilentLinkDrops,
    simulate_batch,
)
from .telemetry import Collector, TelemetryAgent, TelemetryConfig
from .topology import (
    Topology,
    fat_tree,
    leaf_spine,
    paper_simulation_clos,
    testbed,
    three_tier_clos,
)
from .types import (
    FlowBatch,
    FlowObservation,
    GroundTruth,
    Prediction,
    TelemetryKind,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # topology
    "Topology",
    "fat_tree",
    "three_tier_clos",
    "paper_simulation_clos",
    "leaf_spine",
    "testbed",
    # routing
    "EcmpRouting",
    # simulation
    "simulate_batch",
    "SilentLinkDrops",
    "SilentDeviceFailure",
    "QueueMisconfig",
    "LinkFlap",
    "NoFailure",
    # telemetry
    "TelemetryAgent",
    "Collector",
    "TelemetryConfig",
    # core
    "FlockParams",
    "DEFAULT_PER_PACKET",
    "DEFAULT_PER_FLOW",
    "FlockInference",
    "GibbsInference",
    "InferenceProblem",
    # baselines
    "Vote007",
    "NetBouncer",
    "SherlockFerret",
    # eval
    "RunnerConfig",
    "SchemeSetup",
    "Trace",
    "make_trace",
    "build_problem",
    "run_on_trace",
    "evaluate",
    "evaluate_many",
    "evaluate_prediction",
    "fscore",
    # registries + specs
    "ExperimentResult",
    "ExperimentSpec",
    "run_experiment",
    "run_spec",
    "experiment_names",
    "scheme_names",
    "build_localizer",
    "make_setup",
    # types
    "FlowBatch",
    "FlowObservation",
    "Prediction",
    "GroundTruth",
    "TelemetryKind",
]
