"""Micro-benchmarks of the inference kernels.

These are the work units whose asymptotics section 4.1 analyzes:
Δ-array construction (O(n + mT)), a JLE flip (O(DT)), a direct
hypothesis evaluation (Sherlock's unit), and a full greedy run.  They
also time every scheme in the registry end to end so a newly
registered scheme is benchmarked automatically.
"""

import pytest

from repro.core.flock_fast import VectorArrays, VectorJleState
from repro.core.params import DEFAULT_PER_PACKET
from repro.eval.schemes import build_localizer, scheme_names


@pytest.fixture(scope="module")
def problem(drop_problem):
    return drop_problem


def test_vector_delta_construction(benchmark, problem):
    state = benchmark(VectorJleState, problem, DEFAULT_PER_PACKET)
    assert state.delta.shape == (problem.n_components,)


def test_vector_flip(benchmark, problem):
    state = VectorJleState(problem, DEFAULT_PER_PACKET)
    comp = problem.observed_components[0]

    def flip_pair():
        state.flip(comp)
        state.flip(comp)

    benchmark(flip_pair)
    assert not state.hypothesis


def test_hypothesis_ll_unit(benchmark, problem):
    arrays = VectorArrays(problem, DEFAULT_PER_PACKET)
    comps = problem.observed_components[:2]
    value = benchmark(arrays.hypothesis_ll, comps)
    assert isinstance(value, float)


def test_full_greedy(benchmark, problem):
    localizer = build_localizer("flock")
    pred = benchmark(localizer.localize, problem)
    assert pred.components


@pytest.mark.parametrize("scheme", scheme_names())
def test_registry_scheme_localize(benchmark, problem, scheme):
    """End-to-end localize cost of every registered scheme, on the
    same problem, labeled by its registry name."""
    localizer = build_localizer(scheme)
    pred = benchmark(localizer.localize, problem)
    assert pred is not None
