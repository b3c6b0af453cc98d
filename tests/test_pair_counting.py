"""Interior-set pair counting against the set-granular oracle, bitwise.

The numpy engine counts (component, count) pairs once per distinct
interior set with one sort-based counter and expands them straight to
flows.  The oracle (:mod:`oracles.pair_counting`) is the code it
replaced: per-set expansion, counted in a dense bincount scratch or by
``np.unique``, merged with endpoint components and expanded to flows in
component-sorted order.  Every Δ, ll and failed-member count must be
``np.array_equal`` to the oracle's - not approximately equal - on both
counting branches, over random problems with repeated member paths
(multiplicity > 1) and compressed tiny-fabric problems with endpoint
components.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, random_problems
from oracles.pair_counting import DENSE_CELLS_CAP, OracleJleState, count_sorted
from repro.core.flock_fast import VectorJleState, _count_sorted
from repro.core.problem import InferenceProblem
from repro.eval.experiments import standard_topology
from repro.eval.schemes import make_setup
from repro.routing import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream
from repro.telemetry.inputs import build_observation_batch
from repro.types import FlowObservation

#: Oracle counting branches: dense scratch whenever it fits / np.unique.
CAPS = (DENSE_CELLS_CAP, 0)


# ----------------------------------------------------------------------
# The counter
# ----------------------------------------------------------------------
@given(
    keys=st.lists(st.integers(0, 299), max_size=200),
    weight_kind=st.sampled_from(["ones", "mixed"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_count_sorted_matches_oracle(keys, weight_kind, seed):
    """Same unique keys and per-key sums, same dtypes, as both oracle
    branches, for all-ones and integer multiplicities (empty input
    included)."""
    keys = np.asarray(keys, dtype=np.int64)
    rng = np.random.default_rng(seed)
    if weight_kind == "ones":
        weights = np.ones(len(keys))
    else:
        weights = rng.integers(1, 5, len(keys)).astype(np.float64)
    got_keys, got_cnts = _count_sorted(keys, weights)
    for cap in CAPS:
        want_keys, want_cnts = count_sorted(keys, weights, 300, cap)
        assert got_keys.dtype == want_keys.dtype
        assert got_cnts.dtype == want_cnts.dtype
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_cnts, want_cnts)


def test_count_sorted_empty():
    keys = np.empty(0, dtype=np.int64)
    got = _count_sorted(keys, np.empty(0))
    for cap in CAPS:
        want = count_sorted(keys, np.empty(0), 0, cap)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape == (0,)


# ----------------------------------------------------------------------
# Δ, contributions and flips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _tiny_problem(topo, routing, seed, n_flows):
    """A compressed from_batch problem: sets carry endpoint comps."""
    (chunk,) = replay_stream(
        topo, routing, make_scenario("silent-link-drops"), seed=seed,
        n_chunks=1, flows_per_chunk=n_flows, probes_per_chunk=n_flows % 7,
    )
    batch = build_observation_batch(
        chunk.batch, make_setup("flock").telemetry, np.random.default_rng(seed)
    )
    return InferenceProblem.from_batch(batch, topo.n_components, topo.n_links)


def _assert_same(state, oracle):
    assert np.array_equal(state.delta, oracle.delta)
    assert state.ll == oracle.ll
    assert np.array_equal(state._set_b, oracle._set_b)
    assert state.hypothesis == oracle.hypothesis


def _check_problem(problem, seed):
    rng = np.random.default_rng(seed)
    observed = np.asarray(problem.observed_components, dtype=np.int64)
    for cap in CAPS:
        state = VectorJleState(problem, PARAMS)
        oracle = OracleJleState(problem, PARAMS, cap)
        _assert_same(state, oracle)

        # Contributions of weighted flow subsets under a random hypothesis.
        if len(observed):
            size = rng.integers(0, min(4, len(observed)) + 1)
            hyp = rng.choice(observed, size, replace=False)
            for comp in hyp.tolist():
                assert state.flip(comp) == oracle.flip(comp)
                _assert_same(state, oracle)
        for _ in range(3):
            n = int(rng.integers(0, problem.n_flows + 1))
            flows = np.sort(rng.choice(problem.n_flows, n, replace=False))
            dw = rng.uniform(0.1, 3.0, n)
            got, got_ll = state._delta_contrib(flows, dw)
            want, want_ll = oracle._delta_contrib(flows, dw)
            assert np.array_equal(got, want)
            assert got_ll == want_ll

        # Random add/remove flip sequences.
        if len(observed):
            for comp in rng.choice(observed, 8).tolist():
                assert state.flip(comp) == oracle.flip(comp)
                _assert_same(state, oracle)


@given(problem=random_problems(), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_delta_matches_oracle_on_random_problems(problem, seed):
    """Hand-built problems; repeated member paths give multiplicity > 1."""
    _check_problem(problem, seed)


@given(seed=st.integers(0, 2**16), n_flows=st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_delta_matches_oracle_on_compressed_problems(tiny_world, seed, n_flows):
    """Compressed tiny-fabric problems, whose sets carry endpoint comps."""
    topo, routing = tiny_world
    _check_problem(_tiny_problem(topo, routing, seed, n_flows), seed)


def test_repeated_member_path_has_multiplicity():
    """A path listed twice in one set is one unique member of
    multiplicity 2, and the counts stay bitwise equal."""
    obs = [FlowObservation(path_set=((1, 2), (1, 2), (3,)), packets_sent=9,
                           bad_packets=2)]
    problem = InferenceProblem.from_observations(obs, 5, 5)
    assert problem._iset_umult.max() == 2
    _check_problem(problem, 0)


@given(seed=st.integers(0, 2**16), n_flows=st.integers(8, 60))
@settings(max_examples=20, deadline=None)
def test_removing_a_sets_only_failed_endpoint(tiny_world, seed, n_flows):
    """Fail an endpoint component, move other state, then remove it:
    the sets it was the only failed endpoint of return to per-path
    counting, and Δ stays bitwise equal to the oracle throughout."""
    topo, routing = tiny_world
    problem = _tiny_problem(topo, routing, seed, n_flows)
    ecomps = np.unique(problem._set_ecomps)
    if not len(ecomps):
        return
    rng = np.random.default_rng(seed)
    endpoint = int(rng.choice(ecomps))
    eset = int(problem.comp_eset_ids(endpoint)[0])
    interior = [
        c for c in problem.observed_components
        if c != endpoint and not len(problem.comp_eset_ids(c))
    ]
    for cap in CAPS:
        state = VectorJleState(problem, PARAMS)
        oracle = OracleJleState(problem, PARAMS, cap)
        sequence = [endpoint] + interior[:2] + [endpoint]
        for step, comp in enumerate(sequence):
            if step == len(sequence) - 1:
                assert state._set_e_nfailed[eset] == 1
                assert state._set_b[eset] == problem._set_w[eset]
            assert state.flip(comp) == oracle.flip(comp)
            _assert_same(state, oracle)
        assert state._set_e_nfailed[eset] == 0
