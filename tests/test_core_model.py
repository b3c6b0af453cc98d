"""Tests for the likelihood math (Eq. 1 and its normalized form).

The scalar forms and the brute-force evaluator are the oracles in
``tests/oracles/model.py``; the production kernels in
:mod:`repro.core.model` are checked against them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.model import (
    LikelihoodModel,
    evidence_score,
    normalized_flow_ll,
    normalized_flow_ll_fast_reference,
    normalized_flow_ll_vec,
)
from repro.core.model import (
    evidence_exp,
    evidence_scores,
    normalized_flow_ll_fast,
)
from repro.core.params import FlockParams
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.types import FlowObservation

PARAMS = FlockParams(pg=7e-4, pb=6e-3, rho=1e-4)


class TestEvidenceScore:
    def test_lossy_flow_positive(self):
        assert evidence_score(10, 100, PARAMS) > 0

    def test_clean_flow_negative(self):
        assert evidence_score(0, 1000, PARAMS) < 0

    def test_invalid(self):
        with pytest.raises(InferenceError):
            evidence_score(5, 3, PARAMS)

    def test_vector_matches_scalar(self):
        r = np.array([0, 1, 5, 50])
        t = np.array([10, 10, 100, 100])
        vec = evidence_scores(r, t, PARAMS)
        for i in range(len(r)):
            assert vec[i] == pytest.approx(
                evidence_score(int(r[i]), int(t[i]), PARAMS)
            )

    def test_matches_direct_formula(self):
        # s must equal log(P_bad / P_good) of the binomial-free form.
        r, t = 3, 50
        direct = (
            r * math.log(PARAMS.pb) + (t - r) * math.log(1 - PARAMS.pb)
        ) - (
            r * math.log(PARAMS.pg) + (t - r) * math.log(1 - PARAMS.pg)
        )
        assert evidence_score(r, t, PARAMS) == pytest.approx(direct)


class TestNormalizedFlowLL:
    def test_boundaries(self):
        s = 3.7
        assert normalized_flow_ll(0, 4, s) == 0.0
        assert normalized_flow_ll(4, 4, s) == s
        assert normalized_flow_ll(7, 4, s) == s  # clamped

    def test_matches_eq1_directly(self):
        # nll(b) must equal log of Eq. 1 normalized by the all-good case.
        r, t, w, b = 2, 40, 4, 1
        s = evidence_score(r, t, PARAMS)
        lg = PARAMS.pg ** r * (1 - PARAMS.pg) ** (t - r)
        lb = PARAMS.pb ** r * (1 - PARAMS.pb) ** (t - r)
        eq1 = (b / w) * lb + ((w - b) / w) * lg
        assert normalized_flow_ll(b, w, s) == pytest.approx(
            math.log(eq1 / lg)
        )

    def test_monotone_in_b_for_positive_s(self):
        s = 2.0
        values = [normalized_flow_ll(b, 5, s) for b in range(6)]
        assert values == sorted(values)

    def test_monotone_decreasing_for_negative_s(self):
        s = -2.0
        values = [normalized_flow_ll(b, 5, s) for b in range(6)]
        assert values == sorted(values, reverse=True)

    def test_invalid_w(self):
        with pytest.raises(InferenceError):
            normalized_flow_ll(0, 0, 1.0)

    @given(
        b=st.integers(min_value=0, max_value=16),
        w=st.integers(min_value=1, max_value=16),
        s=st.floats(min_value=-80.0, max_value=80.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_vector_matches_scalar(self, b, w, s):
        scalar = normalized_flow_ll(min(b, w), w, s)
        vec = normalized_flow_ll_vec(
            np.array([min(b, w)], dtype=float),
            np.array([w], dtype=float),
            np.array([s]),
        )
        assert vec[0] == pytest.approx(scalar, abs=1e-10)

    @given(
        b=st.integers(min_value=0, max_value=16),
        w=st.integers(min_value=1, max_value=16),
        s=st.floats(min_value=-800.0, max_value=800.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_fast_kernel_matches_scalar(self, b, w, s):
        """The production kernel, overflowing ``exp(s)`` included: exact
        at ``b == 0`` and ``b >= w``, ulp-level in between."""
        scalar = normalized_flow_ll(b, w, s)
        s_arr = np.array([s])
        fast = normalized_flow_ll_fast(
            np.array([b]), np.array([w], dtype=float), s_arr,
            evidence_exp(s_arr),
        )
        if b == 0 or b >= w:
            assert fast[0] == scalar
        else:
            assert fast[0] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=16),
                st.one_of(
                    st.floats(min_value=-900.0, max_value=900.0),
                    st.sampled_from([-1000.0, 709.0, 710.0]),
                ),
                st.sampled_from(["exp", "inf", "zero"]),
            ),
            max_size=24,
        ),
        int_b=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_fast_kernel_bitwise_equals_reference(self, rows, int_b):
        """Every output bit equals the earlier kernel body's, on rows
        mixing ``es = inf`` (``0 * inf`` is NaN), ``es = 0``, ``b = 0``,
        ``b == w`` and ``b > w`` (a negative log argument is NaN)."""
        b = np.array([r[0] for r in rows], dtype=np.int64 if int_b else float)
        w = np.array([r[1] for r in rows], dtype=float)
        s = np.array([r[2] for r in rows], dtype=float)
        es = evidence_exp(s)
        es[[r[3] == "inf" for r in rows]] = np.inf
        es[[r[3] == "zero" for r in rows]] = 0.0
        got = normalized_flow_ll_fast(b, w, s, es)
        want = normalized_flow_ll_fast_reference(b, w, s, es)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(
        w=st.integers(min_value=2, max_value=8),
        s=st.floats(min_value=-40.0, max_value=40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_endpoints(self, w, s):
        for b in range(w + 1):
            value = normalized_flow_ll(b, w, s)
            assert min(0.0, s) - 1e-9 <= value <= max(0.0, s) + 1e-9


def tiny_problem():
    """Three components; two flows with known paths, one ECMP flow."""
    observations = [
        FlowObservation(path_set=((0, 1),), packets_sent=100, bad_packets=4),
        FlowObservation(path_set=((2,),), packets_sent=100, bad_packets=0),
        FlowObservation(
            path_set=((0,), (2,)), packets_sent=50, bad_packets=1
        ),
    ]
    return InferenceProblem.from_observations(
        observations, n_components=3, n_links=3
    )


class TestLikelihoodModel:
    def test_empty_hypothesis_is_zero(self):
        model = LikelihoodModel(tiny_problem(), PARAMS)
        assert model.log_likelihood([]) == pytest.approx(
            0.0
        )  # only the (empty) prior term

    def test_prior_toggle(self):
        model = LikelihoodModel(tiny_problem(), PARAMS)
        with_prior = model.log_likelihood([0])
        without = model.log_likelihood([0], include_prior=False)
        assert with_prior == pytest.approx(
            without + PARAMS.link_prior_gain
        )

    def test_manual_hypothesis_value(self):
        problem = tiny_problem()
        model = LikelihoodModel(problem, PARAMS)
        # Hypothesis {0}: flow0 has its single path failed (b=1, w=1);
        # flow2 has one of two paths failed (b=1, w=2); flow1 untouched.
        s0 = evidence_score(4, 100, PARAMS)
        s2 = evidence_score(1, 50, PARAMS)
        expected = (
            normalized_flow_ll(1, 1, s0)
            + normalized_flow_ll(1, 2, s2)
            + PARAMS.link_prior_gain
        )
        assert model.log_likelihood([0]) == pytest.approx(expected)

    def test_flow_ll_counts_failed_paths(self):
        problem = tiny_problem()
        model = LikelihoodModel(problem, PARAMS)
        # Find the grouped flow with two paths.
        flow = next(
            i for i, fp in enumerate(problem.flow_paths) if len(fp) == 2
        )
        s = model.flow_score(flow)
        assert model.flow_ll(flow, {0, 2}) == pytest.approx(
            normalized_flow_ll(2, 2, s)
        )
