"""Tests for the NetBouncer coordinate-descent baseline."""

import math
import struct

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oracles.netbouncer import netbouncer_localize
from repro.baselines.netbouncer import NetBouncer
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.types import FlowObservation


def problem_from(observations, n_components=10, n_links=10):
    return InferenceProblem.from_observations(
        observations, n_components, n_links
    )


class TestEstimation:
    def test_clean_links_estimated_healthy(self):
        observations = [
            FlowObservation(((0, 1),), 1000, 0),
            FlowObservation(((1, 2),), 1000, 0),
        ]
        pred = NetBouncer(regularization=0.0).localize(
            problem_from(observations)
        )
        assert pred.components == frozenset()
        for link in (0, 1, 2):
            assert pred.scores[link] == pytest.approx(0.0, abs=1e-6)

    def test_isolates_lossy_link(self):
        # Link 1 is shared by two lossy paths; links 0 and 2 also appear
        # on clean paths, so the solver must pin the loss on link 1.
        observations = [
            FlowObservation(((0, 1),), 10_000, 100),
            FlowObservation(((1, 2),), 10_000, 100),
            FlowObservation(((0,),), 10_000, 0),
            FlowObservation(((2,),), 10_000, 0),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3
        ).localize(problem_from(observations))
        assert pred.components == frozenset({1})
        assert pred.scores[1] == pytest.approx(0.01, rel=0.15)

    def test_estimates_drop_rate_magnitude(self):
        observations = [FlowObservation(((4,),), 50_000, 250)]
        pred = NetBouncer(regularization=0.0, drop_threshold=1e-3).localize(
            problem_from(observations)
        )
        assert pred.scores[4] == pytest.approx(0.005, rel=0.1)

    def test_regularizer_denoises(self):
        # A single stray drop out of 2000 packets: the x(1-x) penalty
        # should snap the estimate to healthy.
        observations = [FlowObservation(((0,),), 2000, 1)]
        noisy = NetBouncer(regularization=0.0, drop_threshold=3e-4).localize(
            problem_from(observations)
        )
        snapped = NetBouncer(regularization=0.5, drop_threshold=3e-4).localize(
            problem_from(observations)
        )
        assert noisy.components == frozenset({0})
        assert snapped.components == frozenset()

    def test_ignores_pathset_flows(self):
        observations = [FlowObservation(((0,), (1,)), 100, 50)]
        pred = NetBouncer().localize(problem_from(observations))
        assert pred.components == frozenset()


class TestDeviceRule:
    def test_device_blamed_when_links_fail(self):
        # Links 0 and 1 both lossy; both paths cross device 5.
        observations = [
            FlowObservation(((0, 5),), 10_000, 100),
            FlowObservation(((1, 5),), 10_000, 100),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3, device_frac=0.9
        ).localize(problem_from(observations, n_components=6, n_links=5))
        assert 5 in pred.components

    def test_device_spared_when_minority_fails(self):
        observations = [
            FlowObservation(((0, 5),), 10_000, 100),
            FlowObservation(((1, 5),), 10_000, 0),
            FlowObservation(((2, 5),), 10_000, 0),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3, device_frac=0.5
        ).localize(problem_from(observations, n_components=6, n_links=5))
        assert 5 not in pred.components


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(InferenceError):
            NetBouncer(regularization=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InferenceError):
                NetBouncer(regularization=bad)
        with pytest.raises(InferenceError):
            NetBouncer(drop_threshold=0.0)
        with pytest.raises(InferenceError):
            NetBouncer(device_frac=0.0)
        with pytest.raises(InferenceError):
            NetBouncer(max_sweeps=0)

    def test_empty_problem(self):
        pred = NetBouncer().localize(problem_from([]))
        assert pred.components == frozenset()


# ----------------------------------------------------------------------
# Bitwise agreement with the per-path scalar loops
# ----------------------------------------------------------------------

N_LINKS = 8
N_COMPS = 12  # ids 8..11 are devices


@st.composite
def netbouncer_cases(draw):
    """A small problem (mostly exact flows, some path sets, a few
    devices) and NetBouncer settings.

    Regularizations of 0.5 and above make the per-link quadratic
    concave on links whose path products are small, and flows that drop
    every packet drive links to x = 0, which with no regularization
    leaves the links sharing their paths a flat (skipped) step.
    """
    observations = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        n_paths = draw(st.sampled_from((1, 1, 1, 2)))
        path_set = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=N_COMPS - 1),
                    min_size=1, max_size=4, unique=True,
                ).map(lambda comps: tuple(sorted(comps))),
                min_size=n_paths, max_size=n_paths, unique=True,
            )
        )
        sent = draw(st.integers(min_value=0, max_value=400))
        bad = draw(
            st.sampled_from((0, sent)) | st.integers(min_value=0, max_value=sent)
        )
        observations.append(FlowObservation(tuple(path_set), sent, bad))
    problem = problem_from(observations, N_COMPS, N_LINKS)
    settings_ = dict(
        regularization=draw(
            st.sampled_from((0.0, 0.005, 0.5, 2.0))
            | st.floats(min_value=0.0, max_value=3.0)
        ),
        drop_threshold=draw(st.sampled_from((3e-3, 0.05, 0.5))),
        device_frac=draw(st.sampled_from((0.25, 0.5, 1.0))),
        max_sweeps=draw(st.integers(min_value=1, max_value=50)),
        tol=draw(st.sampled_from((1e-9, 1e-3))),
    )
    return problem, settings_


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@given(case=netbouncer_cases())
@settings(max_examples=200, deadline=None)
def test_localize_matches_scalar_oracle_bitwise(case):
    problem, settings_ = case
    got = NetBouncer(**settings_).localize(problem)
    want = netbouncer_localize(problem, **settings_)
    assert got.components == want.components
    assert (got.scores is None) == (want.scores is None)
    got_scores, want_scores = got.scores or {}, want.scores or {}
    assert list(got_scores) == list(want_scores)
    assert [_bits(v) for v in got_scores.values()] == [
        _bits(v) for v in want_scores.values()
    ]


@pytest.mark.parametrize("branch", ["concave", "skip"])
def test_cases_reach_branch(branch):
    """The bitwise property above covers the boundary and flat steps."""

    def reaches(case):
        problem, settings_ = case
        branches = {}
        netbouncer_localize(problem, **settings_, branches=branches)
        return branches.get(branch, 0) > 0

    find(
        netbouncer_cases(),
        reaches,
        settings=settings(
            max_examples=2000, phases=[Phase.generate], database=None
        ),
    )
