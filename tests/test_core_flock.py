"""Behavioral tests of Flock's inference on planted-fault problems."""

import numpy as np
import pytest

from oracles.telemetry import build_observations, records_of
from repro.baselines.sherlock import SherlockFerret
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET, FlockParams
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.routing import EcmpRouting
from repro.simulation import SilentDeviceFailure, SilentLinkDrops, NoFailure
from repro.telemetry.inputs import TelemetryConfig
from repro.topology import fat_tree
from repro.eval.scenarios import make_trace
from repro.types import FlowObservation


def problem_for(trace, spec="A1+A2+P", **kwargs):
    obs = build_observations(
        records_of(trace.batch), trace.topology, trace.routing,
        TelemetryConfig.from_spec(spec, **kwargs),
        np.random.default_rng(11),
    )
    return InferenceProblem.from_observations(
        obs, trace.topology.n_components, trace.topology.n_links
    )


class TestLocalization:
    def test_finds_planted_links_exactly(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing, SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2),
            seed=42, n_passive=3000, n_probes=400,
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem_for(trace))
        assert pred.components == trace.ground_truth.failed_links

    def test_healthy_network_returns_empty(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing, NoFailure(),
            seed=43, n_passive=3000, n_probes=400,
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem_for(trace))
        assert pred.components == frozenset()

    def test_device_failure_blames_device(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing,
            SilentDeviceFailure(
                n_devices=1, min_link_fraction=1.0, max_link_fraction=1.0
            ),
            seed=44, n_passive=5000, n_probes=800,
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem_for(trace))
        truth_device = next(iter(trace.ground_truth.failed_devices))
        # Either the device itself, or (at minimum) its links, are blamed.
        if truth_device not in pred.components:
            node = small_fat_tree.component_device(truth_device)
            device_links = set(small_fat_tree.device_links(node))
            assert pred.components & device_links
        else:
            assert truth_device in pred.components

    def test_matches_sherlock_mle_with_two_failures(
        self, small_fat_tree, ft_routing
    ):
        # Paper section 6.1: Sherlock (exact MLE for K<=2) "resulted in
        # the same accuracy as Flock for K<=2 failures at small scale".
        trace = make_trace(
            small_fat_tree, ft_routing, SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2),
            seed=45, n_passive=2000, n_probes=300,
        )
        problem = problem_for(trace, spec="A2")
        flock = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        sherlock = SherlockFerret(
            DEFAULT_PER_PACKET, max_failures=2
        ).localize(problem)
        if len(flock.components) <= 2:
            assert flock.components == sherlock.components
            assert flock.log_likelihood == pytest.approx(
                sherlock.log_likelihood, abs=1e-6
            )


class TestControls:
    def test_max_failures_cap(self, drop_problem):
        pred = FlockInference(DEFAULT_PER_PACKET, max_failures=1).localize(
            drop_problem
        )
        assert len(pred.components) <= 1

    def test_min_gain_raises_bar(self, drop_problem):
        strict = FlockInference(
            DEFAULT_PER_PACKET, min_gain=1e9
        ).localize(drop_problem)
        assert strict.components == frozenset()

    def test_empty_problem(self):
        problem = InferenceProblem.from_observations([], 10, 10)
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        assert pred.components == frozenset()

    def test_scores_track_additions(self, drop_problem):
        pred = FlockInference(DEFAULT_PER_PACKET).localize(drop_problem)
        assert set(pred.scores) == set(pred.components)
        assert all(gain > 0 for gain in pred.scores.values())

    def test_invalid_max_failures(self):
        with pytest.raises(InferenceError):
            FlockInference(DEFAULT_PER_PACKET, max_failures=-1)


class TestPriors:
    def test_higher_prior_blames_more(self):
        # A single mildly-lossy flow: with a generous prior the link is
        # blamed; with a tiny prior the evidence is insufficient.
        observations = [
            FlowObservation(path_set=((0,),), packets_sent=200, bad_packets=4)
        ]
        problem = InferenceProblem.from_observations(observations, 1, 1)
        eager = FlockInference(
            FlockParams(pg=7e-4, pb=6e-3, rho=0.2)
        ).localize(problem)
        skeptical = FlockInference(
            FlockParams(pg=7e-4, pb=6e-3, rho=1e-12)
        ).localize(problem)
        assert eager.components == frozenset({0})
        assert skeptical.components == frozenset()

    def test_device_needs_more_evidence_than_link(self):
        # Same observations, one path with a link and its device: the
        # 5x-log-scale device prior must make Flock prefer the link.
        observations = [
            FlowObservation(path_set=((0, 1),), packets_sent=500, bad_packets=25)
        ] * 3
        problem = InferenceProblem.from_observations(
            observations, n_components=2, n_links=1
        )
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        assert 0 in pred.components
        assert 1 not in pred.components
