"""Tests for Sherlock/Ferret, plain and JLE-accelerated."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, random_problems
from oracles.model import LikelihoodModel
from oracles.sherlock import ferret_jle
from repro.baselines.sherlock import SherlockFerret
from repro.core.problem import InferenceProblem
from repro.errors import ExperimentError, InferenceError
from repro.eval.schemes import build_localizer
from repro.types import FlowObservation


def brute_force(problem, params, k):
    """Reference MLE over all hypotheses with <= k failures."""
    model = LikelihoodModel(problem, params)
    comps = range(problem.n_components)
    best, best_ll = frozenset(), 0.0
    for size in range(1, k + 1):
        for hyp in combinations(comps, size):
            ll = model.log_likelihood(hyp)
            if ll > best_ll:
                best, best_ll = frozenset(hyp), ll
    return best, best_ll


class TestCorrectness:
    @given(problem=random_problems())
    @settings(max_examples=25, deadline=None)
    def test_plain_matches_brute_force(self, problem):
        pred = SherlockFerret(PARAMS, max_failures=2).localize(problem)
        expected, expected_ll = brute_force(problem, PARAMS, 2)
        assert pred.log_likelihood == pytest.approx(expected_ll, abs=1e-7)
        if expected_ll > 1e-9:
            model = LikelihoodModel(problem, PARAMS)
            assert model.log_likelihood(pred.components) == pytest.approx(
                expected_ll, abs=1e-7
            )

    @given(problem=random_problems())
    @settings(max_examples=25, deadline=None)
    def test_jle_matches_plain(self, problem):
        plain = SherlockFerret(PARAMS, max_failures=2).localize(problem)
        for jle in (
            SherlockFerret(PARAMS, max_failures=2, use_jle=True).localize(problem),
            ferret_jle(problem, PARAMS, 2),
        ):
            assert jle.log_likelihood == pytest.approx(
                plain.log_likelihood, abs=1e-7
            )

    def test_k1_picks_best_single(self):
        observations = [
            FlowObservation(((0,),), 1000, 30),
            FlowObservation(((1,),), 1000, 5),
        ]
        problem = InferenceProblem.from_observations(observations, 2, 2)
        pred = SherlockFerret(PARAMS, max_failures=1).localize(problem)
        assert pred.components == frozenset({0})

    def test_k2_finds_pair(self):
        observations = [
            FlowObservation(((0,),), 1000, 30),
            FlowObservation(((1,),), 1000, 30),
            FlowObservation(((2,),), 1000, 0),
        ]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        for use_jle in (False, True):
            pred = SherlockFerret(
                PARAMS, max_failures=2, use_jle=use_jle
            ).localize(problem)
            assert pred.components == frozenset({0, 1})


class TestAccounting:
    def test_plain_scan_count(self):
        observations = [FlowObservation(((0, 1, 2),), 100, 5)]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        pred = SherlockFerret(PARAMS, max_failures=2).localize(problem)
        # 1 empty + 3 singles + 3 pairs.
        assert pred.hypotheses_scanned == 7

    def test_empty_problem(self):
        problem = InferenceProblem.from_observations([], 5, 5)
        pred = SherlockFerret(PARAMS).localize(problem)
        assert pred.components == frozenset()

    def test_validation(self):
        with pytest.raises(InferenceError):
            SherlockFerret(PARAMS, max_failures=0)
        # The vector engine is the only one; ``engine`` is no longer a
        # parameter.
        with pytest.raises(TypeError):
            SherlockFerret(PARAMS, engine="quantum")
        with pytest.raises(ExperimentError, match="engine"):
            build_localizer("sherlock-jle", engine="fast")
