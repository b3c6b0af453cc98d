"""Correctness of the Algorithm-2 oracle against direct likelihood
evaluation.

These are the load-bearing tests of the repository: they pin the
incremental Δ-array bookkeeping (Algorithm 2 / Theorem 1 / Eq. 2) of
the literal transcription in ``tests/oracles/jle.py`` to the
brute-force evaluator, on hand-built and randomly generated problems.
The vectorized engine is pinned to that transcription in
``test_core_engines.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, random_problems
from oracles.jle import JleState
from oracles.model import LikelihoodModel
from repro.core.problem import InferenceProblem
from repro.types import FlowObservation


def assert_delta_consistent(state: JleState, model: LikelihoodModel):
    """Every non-member Δ entry must equal LL(H+c) - LL(H) exactly."""
    hyp = set(state.hypothesis)
    base = model.log_likelihood(hyp, include_prior=False)
    for comp in range(state.problem.n_components):
        if comp in hyp:
            continue
        direct = model.log_likelihood(hyp | {comp}, include_prior=False) - base
        assert state.delta[comp] == pytest.approx(direct, abs=1e-8), (
            f"delta[{comp}] diverged for H={sorted(hyp)}"
        )


class TestInitialDelta:
    def test_matches_direct_single_hypotheses(self, drop_problem):
        state = JleState(drop_problem, PARAMS)
        model = LikelihoodModel(drop_problem, PARAMS)
        # Spot-check a sample of components on the real trace problem.
        comps = list(drop_problem.observed_components)[::7]
        for comp in comps:
            direct = model.log_likelihood({comp}, include_prior=False)
            assert state.delta[comp] == pytest.approx(direct, abs=1e-8)

    @given(problem=random_problems())
    @settings(max_examples=60, deadline=None)
    def test_random_problems(self, problem):
        state = JleState(problem, PARAMS)
        model = LikelihoodModel(problem, PARAMS)
        assert_delta_consistent(state, model)


class TestFlip:
    @given(problem=random_problems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_stays_consistent_over_additions(self, problem, data):
        state = JleState(problem, PARAMS)
        model = LikelihoodModel(problem, PARAMS)
        comps = list(range(problem.n_components))
        for _ in range(3):
            comp = data.draw(st.sampled_from(comps))
            if comp in state.hypothesis:
                continue
            state.flip(comp)
            assert_delta_consistent(state, model)
            assert state.ll == pytest.approx(
                model.log_likelihood(state.hypothesis), abs=1e-8
            )

    @given(problem=random_problems(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_delta_consistent_with_removals(self, problem, data):
        state = JleState(problem, PARAMS)
        model = LikelihoodModel(problem, PARAMS)
        comps = list(range(problem.n_components))
        for _ in range(5):
            comp = data.draw(st.sampled_from(comps))
            state.flip(comp)  # may add or remove
        assert_delta_consistent(state, model)
        assert state.ll == pytest.approx(
            model.log_likelihood(state.hypothesis), abs=1e-8
        )

    @given(problem=random_problems(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_flip_is_involutive(self, problem, data):
        state = JleState(problem, PARAMS)
        comp = data.draw(
            st.integers(min_value=0, max_value=problem.n_components - 1)
        )
        delta_before = state.delta.copy()
        ll_before = state.ll
        change = state.flip(comp)
        change_back = state.flip(comp)
        assert change == pytest.approx(-change_back, abs=1e-9)
        assert state.ll == pytest.approx(ll_before, abs=1e-9)
        np.testing.assert_allclose(state.delta, delta_before, atol=1e-9)
        assert not state.hypothesis

    def test_removal_delta_direct(self, drop_problem):
        state = JleState(drop_problem, PARAMS)
        model = LikelihoodModel(drop_problem, PARAMS)
        comp = drop_problem.observed_components[0]
        state.flip(comp)
        removal = state.removal_delta(comp)
        direct = -model.log_likelihood({comp}, include_prior=False)
        assert removal == pytest.approx(direct, abs=1e-8)

    def test_removal_delta_requires_membership(self, drop_problem):
        state = JleState(drop_problem, PARAMS)
        from repro.errors import InferenceError

        with pytest.raises(InferenceError):
            state.removal_delta(drop_problem.observed_components[0])


class TestBookkeeping:
    def test_flow_b_and_path_counts(self):
        observations = [
            FlowObservation(path_set=((0, 1), (2, 3)), packets_sent=10,
                            bad_packets=1),
        ]
        problem = InferenceProblem.from_observations(observations, 4, 4)
        state = JleState(problem, PARAMS)
        state.flip(0)
        assert state.flow_b[0] == 1
        state.flip(1)  # same path: still one failed path
        assert state.flow_b[0] == 1
        state.flip(2)
        assert state.flow_b[0] == 2
        state.flip(0)
        state.flip(1)
        assert state.flow_b[0] == 1

    def test_hypotheses_scanned_grows(self, drop_problem):
        state = JleState(drop_problem, PARAMS)
        base = state.hypotheses_scanned
        state.flip(drop_problem.observed_components[0])
        assert state.hypotheses_scanned == base + drop_problem.n_components

    def test_gain_includes_prior(self, drop_problem):
        state = JleState(drop_problem, PARAMS)
        comp = drop_problem.observed_components[0]
        assert state.gain(comp) == pytest.approx(
            float(state.delta[comp]) + PARAMS.link_prior_gain
        )
