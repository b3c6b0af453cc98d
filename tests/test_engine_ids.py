"""Out-of-range component ids are refused by every JLE gain entry point.

``gain(-1)`` used to read the last component's Δ through negative
indexing and ``gain(n_components)`` raised a bare ``IndexError``; the
vector engine and the Algorithm-2 oracle now raise
:class:`InferenceError`, as ``flip`` already did.
"""

import pytest

from oracles.jle import JleState
from repro.core.flock_fast import VectorJleState
from repro.core.params import FlockParams
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.types import FlowObservation

N_COMPS = 6


@pytest.fixture(scope="module")
def problem():
    observations = [
        FlowObservation(path_set=((0, 1), (0, 2)), packets_sent=50, bad_packets=3),
        FlowObservation(path_set=((3, 4),), packets_sent=40, bad_packets=0),
        FlowObservation(path_set=((5,),), packets_sent=30, bad_packets=1),
    ]
    return InferenceProblem.from_observations(observations, N_COMPS, N_COMPS)


def _states(problem):
    params = FlockParams()
    return [
        JleState(problem, params),
        VectorJleState(problem, params),
    ]


def _removal(state):
    return state.removal_delta if isinstance(state, JleState) else state.removal_gain


@pytest.mark.parametrize("comp", [-1, N_COMPS, N_COMPS + 1])
def test_out_of_range_ids_raise(problem, comp):
    for state in _states(problem):
        for call in (state.gain, _removal(state), state.flip):
            with pytest.raises(InferenceError, match="out of range"):
                call(comp)
        # ...also once the hypothesis is non-empty.
        state.flip(0)
        for call in (state.gain, _removal(state)):
            with pytest.raises(InferenceError, match="out of range"):
                call(comp)


def test_in_range_ids_still_priced(problem):
    for state in _states(problem):
        first = state.gain(N_COMPS - 1)
        assert first == state.gain(N_COMPS - 1)
        state.flip(0)
        assert isinstance(_removal(state)(0), float)
