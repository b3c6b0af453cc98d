"""Tests for Gibbs sampling and the theory/analysis companions."""

import math

import numpy as np
import pytest

from oracles.model import evidence_score
from repro.core.analysis import (
    check_theorem2,
    max_recoverable_failures,
    observation_for_score,
    traffic_skew,
    vertex_cover_gadget,
)
from repro.core.flock import FlockInference
from repro.core.gibbs import GibbsInference
from repro.core.params import DEFAULT_PER_PACKET, FlockParams
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.simulation import SilentLinkDrops
from repro.topology import fat_tree
from repro.types import FlowObservation, FlowRecord
from repro.eval.scenarios import make_trace


class TestGibbs:
    def test_finds_obvious_failure(self):
        observations = [
            FlowObservation(path_set=((0,),), packets_sent=500, bad_packets=30),
            FlowObservation(path_set=((1,),), packets_sent=500, bad_packets=0),
            FlowObservation(path_set=((2,),), packets_sent=500, bad_packets=0),
        ]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        pred = GibbsInference(
            DEFAULT_PER_PACKET, sweeps=20, burn_in=5, seed=1
        ).localize(problem)
        assert pred.components == frozenset({0})
        assert pred.scores[0] > 0.9
        assert pred.scores[1] < 0.1

    def test_recovers_failures_on_trace(self, drop_problem, drop_trace):
        # Single-site Gibbs can stay stuck in a mode that swaps a link
        # for its device (the paper's stated reason for preferring
        # greedy: convergence is hard to bound), so one cold chain's
        # answer depends on its seed.  Assert over ten chain seeds
        # instead: started at greedy's answer (the truth here) every
        # chain keeps it, and cold chains recover the failures in at
        # least half the seeds.  tests/oracles/gibbs.py pins the chain
        # itself step for step.
        from repro.core.flock_fast import VectorJleState
        from repro.eval.metrics import evaluate_prediction

        greedy = FlockInference(DEFAULT_PER_PACKET).localize(drop_problem)
        truth = frozenset(drop_trace.ground_truth.failed_links)
        assert greedy.components == truth
        recovered = 0
        for seed in range(10):
            sampler = GibbsInference(
                DEFAULT_PER_PACKET, sweeps=15, burn_in=5, seed=seed
            )
            warm = VectorJleState(drop_problem, DEFAULT_PER_PACKET)
            for comp in sorted(truth):
                warm.flip(comp)
            kept = sampler.localize(drop_problem, initial_state=warm)
            assert kept.components == truth
            metrics = evaluate_prediction(
                sampler.localize(drop_problem),
                drop_trace.ground_truth,
                drop_trace.topology,
            )
            recovered += metrics.recall == 1.0 and metrics.precision >= 0.5
        assert recovered >= 5

    def test_validation(self):
        with pytest.raises(InferenceError):
            GibbsInference(sweeps=5, burn_in=5)
        with pytest.raises(InferenceError):
            GibbsInference(threshold=0.0)
        # sweeps > burn_in holds here, but localize would divide the
        # inclusion counts by zero kept samples.
        with pytest.raises(InferenceError, match="burn_in"):
            GibbsInference(sweeps=0, burn_in=-1)

    def test_empty_problem(self):
        problem = InferenceProblem.from_observations([], 4, 4)
        assert GibbsInference().localize(problem).components == frozenset()


class TestTrafficSkew:
    def test_disjoint_flows_zero_skew(self, small_fat_tree):
        topo = small_fat_tree
        h0 = topo.hosts[0]
        records = [
            FlowRecord(src=h0, dst=topo.rack_of(h0), packets_sent=10,
                       bad_packets=0, path=(h0, topo.rack_of(h0)))
        ]
        assert traffic_skew(topo, records) == 0.0

    def test_identical_paths_full_skew(self, small_fat_tree, ft_routing):
        topo = small_fat_tree
        path = ft_routing.host_paths(topo.hosts[0], topo.hosts[-1])[0]
        records = [
            FlowRecord(src=path[0], dst=path[-1], packets_sent=10,
                       bad_packets=0, path=path)
            for _ in range(5)
        ]
        assert traffic_skew(topo, records) == pytest.approx(1.0)

    def test_failure_budget(self):
        assert max_recoverable_failures(0.25) == 2.0
        assert max_recoverable_failures(0.0) == math.inf

    def test_theorem2_report_on_trace(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing, SilentLinkDrops(n_failures=1),
            seed=50, n_passive=800, n_probes=100,
        )
        params = FlockParams(pg=7e-4, pb=6e-3, rho=1e-4)
        report = check_theorem2(
            small_fat_tree,
            trace.records,
            params,
            trace.ground_truth.failed_links,
            trace.ground_truth.drop_rates,
            good_rate_bound=1e-4,
        )
        assert report.hyperparams_ok  # 5*7e-4 < 6e-3 < 0.05
        assert report.eps > 0
        assert report.min_link_packets >= 0


class TestVertexCoverGadget:
    def test_observation_for_score_hits_target(self):
        params = DEFAULT_PER_PACKET
        for target in (2.5, -1.0, 8.0):
            obs = observation_for_score(target, params, (0,))
            s = evidence_score(obs.bad_packets, obs.packets_sent, params)
            assert s == pytest.approx(target, abs=0.5)

    def test_mle_is_vertex_cover(self):
        # Path graph 0-1-2: minimum vertex cover is {1}.
        params = DEFAULT_PER_PACKET
        observations, n = vertex_cover_gadget(
            [(0, 1), (1, 2)], params, cost_scale=1e6, epsilon=0.01
        )
        problem = InferenceProblem.from_observations(observations, n, n)
        pred = FlockInference(params).localize(problem)
        assert pred.components == frozenset({1})

    def test_triangle_needs_two(self):
        params = DEFAULT_PER_PACKET
        observations, n = vertex_cover_gadget(
            [(0, 1), (1, 2), (0, 2)], params, cost_scale=1e6, epsilon=0.01
        )
        problem = InferenceProblem.from_observations(observations, n, n)
        pred = FlockInference(params).localize(problem)
        assert len(pred.components) == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(InferenceError):
            vertex_cover_gadget([], DEFAULT_PER_PACKET)
