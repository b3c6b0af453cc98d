"""Columnar-vs-object pipeline equivalence.

The struct-of-arrays trace pipeline (SpecBatch -> FlowBatch ->
ObservationBatch -> InferenceProblem.from_batch) must be *bit-identical*
to the object pipeline oracle (the trace's FlowRecords ->
FlowObservations -> from_observations, ``oracles.problem.object_problem``)
at fixed seeds: same problem arrays and indexes, and the same
prediction from every registered scheme.  These tests sweep every registered failure scenario at the
tiny preset.
"""

import numpy as np
import pytest

from oracles.gibbs import SequentialGibbs
from oracles.jle import JleState
from oracles.problem import n_paths, object_problem, uncompressed_from_batch
from repro.core.gibbs import GibbsInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.core.problem import InferenceProblem
from repro.eval.experiments import standard_topology
from repro.eval.harness import build_problem, effective_telemetry
from repro.eval.scenarios import make_trace
from repro.telemetry.inputs import build_observation_batch
from repro.eval.schemes import make_setup, scheme_names
from repro.routing import EcmpRouting, PathSpace
from repro.simulation import DropRatePlan, SilentLinkDrops
from repro.simulation.failures import make_scenario, scenario_names
from repro.simulation.flowsim import _path_survivals
from repro.telemetry import TelemetryConfig
from repro.topology import fat_tree
from repro.types import TelemetryKind


def _assert_problems_identical(col: InferenceProblem, obj: InferenceProblem):
    assert col.flow_paths == obj.flow_paths
    assert list(col.path_table) == list(obj.path_table)
    assert np.array_equal(col.bad_packets, obj.bad_packets)
    assert np.array_equal(col.packets_sent, obj.packets_sent)
    assert np.array_equal(col.weights, obj.weights)
    assert np.array_equal(col.exact, obj.exact)
    assert col.kinds == obj.kinds
    assert col.flows_by_comp == obj.flows_by_comp
    assert col.paths_by_comp == obj.paths_by_comp
    assert col.comps_by_flow == obj.comps_by_flow
    assert col.observed_components == obj.observed_components


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_problem_identical_across_registered_scenarios(tiny_world, scenario_name):
    topo, routing = tiny_world
    scenario = make_scenario(scenario_name)
    trace = make_trace(
        topo, routing, scenario, seed=42, n_passive=1_200, n_probes=200,
    )
    for spec in ("A1+A2+P", "INT", "A2", "A1+P", "P"):
        telemetry = TelemetryConfig.from_spec(spec)
        col = build_problem(trace, telemetry)
        obj = object_problem(trace, telemetry)
        _assert_problems_identical(col, obj)


@pytest.mark.parametrize("scenario_name", scenario_names())
@pytest.mark.parametrize("scheme", scheme_names())
def test_scheme_predictions_identical(tiny_world, scenario_name, scheme):
    """Every scheme's prediction is bit-identical across all three
    problem representations: compressed (from_batch), uncompressed
    (the oracle build of the same batch), and the object pipeline
    (from_observations)."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario(scenario_name), seed=7,
        n_passive=1_200, n_probes=200,
    )
    setup = make_setup(scheme)
    col = build_problem(trace, setup.telemetry)
    # Passive (P) rows keep their pair sets factored.
    passive = TelemetryKind.PASSIVE in setup.telemetry.kinds
    assert bool(len(col._set_ecomps)) == passive
    obs_batch = build_observation_batch(
        trace.batch, effective_telemetry(trace, setup.telemetry),
        np.random.default_rng(trace.seed + 0x5EED),
    )
    unc = uncompressed_from_batch(obs_batch, topo.n_components, topo.n_links)
    assert not len(unc._set_ecomps)
    obj = object_problem(trace, setup.telemetry)
    pred_col = setup.localizer.localize(col)
    pred_unc = setup.localizer.localize(unc)
    pred_obj = setup.localizer.localize(obj)
    for other in (pred_unc, pred_obj):
        assert pred_col.components == other.components
        assert pred_col.scores == other.scores
        assert pred_col.log_likelihood == other.log_likelihood


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_compressed_problem_views_match_uncompressed(tiny_world, scenario_name):
    """The compressed build's lazy object views expand to exactly the
    uncompressed representation (full projections, first-seen ids)."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario(scenario_name), seed=13,
        n_passive=900, n_probes=150,
    )
    telemetry = TelemetryConfig.from_spec("A1+A2+P")
    rng = np.random.default_rng(trace.seed + 0x5EED)
    batch = build_observation_batch(trace.batch, telemetry, rng)
    col = InferenceProblem.from_batch(batch, topo.n_components, topo.n_links)
    rng = np.random.default_rng(trace.seed + 0x5EED)
    batch = build_observation_batch(trace.batch, telemetry, rng)
    unc = uncompressed_from_batch(batch, topo.n_components, topo.n_links)
    assert len(col._set_ecomps) and not len(unc._set_ecomps)
    assert n_paths(col) == n_paths(unc)
    _assert_problems_identical(col, unc)


def test_gibbs_batched_matches_sequential(tiny_world):
    """Batched sweeps visit the identical chain as the sequential loop."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, SilentLinkDrops(n_failures=2, min_rate=4e-3),
        seed=17, n_passive=1_000, n_probes=150,
    )
    problem = build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))
    for seed in (0, 1, 2):
        batched = GibbsInference(
            DEFAULT_PER_PACKET, sweeps=12, burn_in=4, seed=seed,
        ).localize(problem)
        sequential = SequentialGibbs(
            DEFAULT_PER_PACKET, sweeps=12, burn_in=4, seed=seed,
        ).localize(problem)
        assert batched.components == sequential.components
        assert batched.scores == sequential.scores
        assert batched.log_likelihood == sequential.log_likelihood


def test_factored_pair_sets_materialize_to_host_paths(tiny_world):
    """A factored pair set expands to exactly routing.host_paths, and
    its factored component sets expand to the full projections."""
    topo, routing = tiny_world
    space = PathSpace(topo, routing)
    hosts = topo.hosts
    pairs = [(hosts[0], hosts[-1]), (hosts[0], hosts[1])]
    for src, dst in pairs:
        sid = space.pair_set(src, dst)
        assert space.set_is_factored(sid)
        expected = routing.host_paths(src, dst)
        assert space.set_size(sid) == len(expected)
        # member_pids before full materialization
        choice = np.arange(len(expected), dtype=np.int64)
        pids = space.member_pids(sid, choice)
        assert [space.path_nodes(int(p)) for p in pids] == list(expected)
        # full materialization agrees
        assert [
            space.path_nodes(int(p)) for p in space.set_path_ids(sid)
        ] == list(expected)
        for include_devices in (False, True):
            gsid = int(space.set_gsids(
                np.asarray([sid], dtype=np.int64), include_devices
            )[0])
            assert space.comp_set_is_factored(gsid)
            gids = space.comp_set(gsid)
            expected_projs = [
                topo.path_components(p, include_devices) for p in expected
            ]
            assert [space.comp_path(int(g)) for g in gids] == expected_projs


def test_sampled_telemetry_identical(tiny_world):
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, SilentLinkDrops(n_failures=1), seed=3,
        n_passive=900, n_probes=150,
    )
    for spec in ("INT", "P", "A1+P"):
        telemetry = TelemetryConfig.from_spec(spec, passive_sampling=0.4)
        col = build_problem(trace, telemetry)
        obj = object_problem(trace, telemetry)
        _assert_problems_identical(col, obj)


def test_vectorized_path_drop_probs_bit_identical(tiny_world):
    """multiply.reduceat folds hops exactly like the scalar loop."""
    topo, routing = tiny_world
    rng = np.random.default_rng(0)
    plan = DropRatePlan(topo, rng.uniform(0.0, 0.02, size=topo.n_links))
    space = routing.path_space()
    for host in topo.hosts[:4]:
        for other in topo.hosts[-4:]:
            if host != other:
                space.pair_set(host, other)
    probs = 1.0 - _path_survivals(space, plan)
    for pid in range(space.n_paths):
        scalar = plan.path_drop_probability(space.path_nodes(pid))
        assert probs[pid] == scalar

    # Hop-less paths (zero links) must read as drop probability 0
    # without corrupting their neighbors' reduceat segments - including
    # a trailing one, whose start index falls off the end of the CSR.
    space.intern_path((topo.hosts[0],))
    probs = 1.0 - _path_survivals(space, plan)
    assert probs[space.n_paths - 1] == 0.0
    for pid in range(space.n_paths - 1):
        assert probs[pid] == plan.path_drop_probability(space.path_nodes(pid))


def test_drop_plan_memoizes_per_path():
    topo = fat_tree(4)
    rng = np.random.default_rng(1)
    plan = DropRatePlan(topo, rng.uniform(0.0, 0.01, size=topo.n_links))
    u, v = topo.endpoints(0)
    first = plan.path_drop_probability((u, v))
    assert plan.path_drop_probability((u, v)) == first
    assert (u, v) in plan._path_prob_cache
    # A derived plan gets a fresh cache (its rates differ).
    derived = plan.with_rates({0: 0.5})
    assert (u, v) not in derived._path_prob_cache
    assert derived.path_drop_probability((u, v)) != first


def test_gibbs_vector_state_matches_reference(tiny_world):
    """The array-state Gibbs reproduces the reference-chain predictions."""
    import math

    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, SilentLinkDrops(n_failures=1, min_rate=4e-3),
        seed=21, n_passive=900, n_probes=150,
    )
    problem = build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))

    def reference_gibbs(problem, sweeps, burn_in, threshold, seed):
        # The pre-vectorization chain, verbatim: JleState + dict counts.
        rng = np.random.default_rng(seed)
        state = JleState(problem, DEFAULT_PER_PACKET)
        candidates = list(problem.observed_components)
        counts = {comp: 0 for comp in candidates}
        kept = 0
        for sweep in range(sweeps):
            order = rng.permutation(len(candidates))
            for idx in order:
                comp = candidates[idx]
                in_hyp = comp in state.hypothesis
                gain = state.gain(comp)
                log_odds = -gain if in_hyp else gain
                if log_odds >= 0:
                    p = 1.0 / (1.0 + math.exp(-log_odds))
                else:
                    p = math.exp(log_odds) / (1.0 + math.exp(log_odds))
                if (rng.random() < p) != in_hyp:
                    state.flip(comp)
            if sweep >= burn_in:
                kept += 1
                for comp in state.hypothesis:
                    counts[comp] += 1
        marginals = {c: n / kept for c, n in counts.items()}
        return (
            frozenset(c for c, p in marginals.items() if p >= threshold),
            marginals,
        )

    for seed in (0, 1, 2):
        new = GibbsInference(
            DEFAULT_PER_PACKET, sweeps=12, burn_in=4, seed=seed
        ).localize(problem)
        ref_components, ref_scores = reference_gibbs(
            problem, sweeps=12, burn_in=4, threshold=0.5, seed=seed
        )
        assert new.components == ref_components
        assert new.scores == ref_scores
