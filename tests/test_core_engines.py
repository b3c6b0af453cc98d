"""Equivalence of the vectorized kernels and the reference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, flow_b, path_nfailed, random_problems
from oracles.greedy_nojle import GreedyWithoutJle
from oracles.jle import JleState, reference_flock
from oracles.model import LikelihoodModel
from repro.core.flock import FlockInference
from repro.core.flock_fast import (
    VectorArrays,
    VectorGreedyWithoutJle,
    VectorJleState,
)
from repro.errors import ExperimentError, InferenceError
from repro.eval.schemes import build_localizer


class TestVectorArrays:
    @given(problem=random_problems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_ll_matches_reference(self, problem, data):
        arrays = VectorArrays(problem, PARAMS)
        model = LikelihoodModel(problem, PARAMS)
        size = data.draw(st.integers(min_value=0, max_value=3))
        hyp = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=problem.n_components - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        assert arrays.hypothesis_ll(hyp) == pytest.approx(
            model.log_likelihood(hyp), abs=1e-8
        )

    def test_empty_hypothesis(self, drop_problem):
        arrays = VectorArrays(drop_problem, PARAMS)
        assert arrays.hypothesis_ll([]) == 0.0


class TestVectorJleState:
    @given(problem=random_problems(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_over_flip_sequences(self, problem, data):
        ref = JleState(problem, PARAMS)
        vec = VectorJleState(problem, PARAMS)
        np.testing.assert_allclose(vec.delta, ref.delta, atol=1e-9)
        comps = list(range(problem.n_components))
        for _ in range(4):
            comp = data.draw(st.sampled_from(comps))
            ref_change = ref.flip(comp)
            vec_change = vec.flip(comp)
            assert vec_change == pytest.approx(ref_change, abs=1e-8)
            assert vec.hypothesis == ref.hypothesis
            np.testing.assert_allclose(vec.delta, ref.delta, atol=1e-8)
            np.testing.assert_array_equal(
                path_nfailed(vec), np.asarray(ref.path_nfailed)
            )
            np.testing.assert_array_equal(
                flow_b(vec), np.asarray(ref.flow_b)
            )

    def test_involution(self, drop_problem):
        state = VectorJleState(drop_problem, PARAMS)
        delta_before = state.delta.copy()
        comp = drop_problem.observed_components[3]
        change = state.flip(comp)
        back = state.flip(comp)
        assert change == pytest.approx(-back, abs=1e-9)
        np.testing.assert_allclose(state.delta, delta_before, atol=1e-8)

    def test_gain_rejects_members(self, drop_problem):
        state = VectorJleState(drop_problem, PARAMS)
        comp = drop_problem.observed_components[0]
        state.flip(comp)
        with pytest.raises(InferenceError):
            state.gain(comp)


class TestGreedyEquivalence:
    @given(problem=random_problems())
    @settings(max_examples=40, deadline=None)
    def test_all_greedy_variants_agree(self, problem):
        # Symmetric random problems produce exact gain ties, where the
        # pick depends on floating-point summation order - so the
        # contract is equal posterior log-likelihood (verified by an
        # independent evaluator), not bit-identical hypotheses.
        model = LikelihoodModel(problem, PARAMS)
        predictions = [
            FlockInference(PARAMS).localize(problem),
            reference_flock(problem, PARAMS),
            GreedyWithoutJle(PARAMS).localize(problem),
            VectorGreedyWithoutJle(problem, PARAMS).run(),
        ]
        lls = [model.log_likelihood(p.components) for p in predictions]
        for pred, ll in zip(predictions, lls):
            # Each variant's self-reported ll must match the evaluator.
            assert pred.log_likelihood == pytest.approx(ll, abs=1e-7)
        for ll in lls[1:]:
            assert ll == pytest.approx(lls[0], abs=1e-7)

    def test_engines_agree_on_real_trace(self, drop_problem):
        fast = FlockInference(PARAMS).localize(drop_problem)
        ref = reference_flock(drop_problem, PARAMS)
        assert fast.components == ref.components
        assert fast.log_likelihood == pytest.approx(
            ref.log_likelihood, rel=1e-9
        )

    def test_greedy_ll_matches_direct_evaluation(self, drop_problem):
        pred = FlockInference(PARAMS).localize(drop_problem)
        model = LikelihoodModel(drop_problem, PARAMS)
        assert pred.log_likelihood == pytest.approx(
            model.log_likelihood(pred.components), abs=1e-6
        )

    def test_invalid_engine(self):
        # The vector engine is the only one: ``engine`` is no longer a
        # parameter, of the class or of any scheme factory.
        with pytest.raises(TypeError):
            FlockInference(PARAMS, engine="gpu")
        for scheme in ("flock", "flock-greedy", "sherlock", "sherlock-jle"):
            with pytest.raises(ExperimentError, match="engine"):
                build_localizer(scheme, engine="fast")
