"""Shared test utilities: the reference parameters, the random
problem generator used by the JLE, engine-equivalence, and Sherlock
suites, and object-view readers of a ``VectorJleState``'s counters.

Kept outside conftest.py because these are plain importables (a
hypothesis strategy and constants), not fixtures; test modules import
them absolutely (``from helpers import ...``) so collection works
without turning ``tests/`` into a package.
"""

import numpy as np
from hypothesis import strategies as st

from repro.core.params import FlockParams
from repro.core.problem import InferenceProblem
from repro.types import FlowObservation

PARAMS = FlockParams(pg=7e-4, pb=6e-3, rho=1e-4)
N_COMPS = 10


@st.composite
def random_problems(draw):
    """Small random inference problems over N_COMPS components.

    Each member path after a set's first repeats an already-drawn one
    with probability 1/3, so repeated member paths (multiplicity > 1,
    as ECMP paths projecting to one component path produce) are common.
    """
    n_flows = draw(st.integers(min_value=1, max_value=12))
    observations = []
    for _ in range(n_flows):
        n_paths = draw(st.integers(min_value=1, max_value=3))
        path_set = []
        for _ in range(n_paths):
            if path_set and draw(st.integers(min_value=0, max_value=2)) == 0:
                path_set.append(draw(st.sampled_from(path_set)))
                continue
            size = draw(st.integers(min_value=1, max_value=4))
            comps = draw(
                st.lists(
                    st.integers(min_value=0, max_value=N_COMPS - 1),
                    min_size=size, max_size=size, unique=True,
                )
            )
            path_set.append(tuple(sorted(comps)))
        t = draw(st.integers(min_value=1, max_value=200))
        r = draw(st.integers(min_value=0, max_value=min(t, 8)))
        observations.append(
            FlowObservation(
                path_set=tuple(path_set), packets_sent=t, bad_packets=r
            )
        )
    return InferenceProblem.from_observations(
        observations, n_components=N_COMPS, n_links=N_COMPS
    )


def flow_b(state):
    """Failed-path count per flow of a ``VectorJleState`` (object-view
    semantics, as the reference ``JleState.flow_b``)."""
    return state._set_b[state.set_of_flow]


def path_nfailed(state):
    """Failed-component count per *full* path of a ``VectorJleState``
    (object-view ids, as the reference ``JleState.path_nfailed``).

    The engine keeps counts per interior path, so they are recounted
    here from the full path table.
    """
    hyp = state.hypothesis
    table = state.problem.path_table
    return np.fromiter(
        (sum(c in hyp for c in comps) for comps in table),
        dtype=np.int64,
        count=len(table),
    )
