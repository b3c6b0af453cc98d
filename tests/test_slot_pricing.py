"""Per-(flow, distinct count) Δ pricing against the per-pair reference.

``VectorJleState`` evaluates a flow's likelihood term once per distinct
count its pairs carry and gathers it back to each pair through the
flow's slot offset; the cold Δ reads each interior set's pair list from
the problem's memoized unions and member counts.  The reference
(:mod:`oracles.per_pair`) is the code this replaced: one ``nll`` per
(flow, component) pair, and a cold Δ counted over the members.  After
the cold build, after every flip and after every rebase, Δ, ``ll`` and
the failed-member counts must be byte-identical to the reference's.

The problems cover repeated member paths (multiplicity > 1), endpoint
components (compressed tiny-fabric sets), sets whose every member has
failed (``b = w``) and flows whose ``exp(s)`` overflows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, random_problems
from oracles.per_pair import PerPairJleState
from repro.core.flock_fast import VectorJleState
from repro.core.problem import InferenceProblem
from repro.core.window import WindowedProblem
from repro.eval.experiments import standard_topology
from repro.eval.schemes import make_setup
from repro.routing import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream
from repro.telemetry.inputs import build_observation_batch
from repro.types import FlowObservation


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _assert_same(got, want):
    assert got.delta.tobytes() == want.delta.tobytes()
    assert got.ll == want.ll
    assert got._set_b.tobytes() == want._set_b.tobytes()
    assert got.hypothesis == want.hypothesis


def _flip_both(got, want, comps):
    for comp in comps:
        assert got.flip(comp) == want.flip(comp)
        _assert_same(got, want)


def _set_cover(state, rng):
    """Components that fail every member of one random set (``b = w``):
    one endpoint component if the set has any, else one component of
    each member path.  Returns ``(set, comps)``."""
    s = int(rng.integers(state.n_sets))
    ecomps = state.set_ecomps[state.set_eoff[s]:state.set_eoff[s + 1]]
    if len(ecomps):
        return s, [int(rng.choice(ecomps))]
    iset = state.iset_of_set[s]
    comps = []
    for pid in state.iset_upids[state.iset_uoff[iset]:state.iset_uoff[iset + 1]]:
        path = state.path_comps[state.path_off[pid]:state.path_off[pid + 1]]
        comps.append(int(rng.choice(path)))
    return s, list(dict.fromkeys(comps))


def _walk(problem, seed):
    """Cold build, a whole-set cover, random add/remove flips, a rebase
    of random weighted flow groups, then more flips; both engines agree
    byte for byte after every step."""
    rng = np.random.default_rng(seed)
    got = VectorJleState(problem, PARAMS)
    want = PerPairJleState(problem, PARAMS)
    _assert_same(got, want)
    observed = np.asarray(problem.observed_components, dtype=np.int64)
    if len(observed):
        s, cover = _set_cover(got, rng)
        _flip_both(got, want, cover)
        assert got._set_b[s] == problem._set_w[s]
        _flip_both(got, want, rng.choice(observed, 6).tolist())
    n = problem.n_flows
    removed = np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
    added = np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
    rw = rng.uniform(0.1, 3.0, len(removed))
    aw = rng.uniform(0.1, 3.0, len(added))
    got = VectorJleState.rebase(problem, got, removed, rw, added, aw)
    want = PerPairJleState.rebase(problem, want, removed, rw, added, aw)
    _assert_same(got, want)
    if len(added):
        assert got.added_contrib.delta.tobytes() == want.added_contrib.delta.tobytes()
        assert got.added_contrib.ll == want.added_contrib.ll
    if len(observed):
        _flip_both(got, want, rng.choice(observed, 4).tolist())


@given(problem=random_problems(overflow=True), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_slot_pricing_matches_per_pair_on_random_problems(problem, seed):
    """Hand-built problems: repeated members, overflowing ``exp(s)``."""
    _walk(problem, seed)


@given(seed=st.integers(0, 2**16), n_flows=st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_slot_pricing_matches_per_pair_on_compressed_problems(
    tiny_world, seed, n_flows
):
    """Compressed tiny-fabric problems, whose sets carry endpoint comps."""
    topo, routing = tiny_world
    (chunk,) = replay_stream(
        topo, routing, make_scenario("silent-link-drops"), seed=seed,
        n_chunks=1, flows_per_chunk=n_flows, probes_per_chunk=n_flows % 7,
    )
    batch = build_observation_batch(
        chunk.batch, make_setup("flock").telemetry, np.random.default_rng(seed)
    )
    problem = InferenceProblem.from_batch(batch, topo.n_components, topo.n_links)
    _walk(problem, seed)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_window_rebase_matches_per_pair(tiny_world, seed):
    """A sliding window: each cycle rebases onto the new window's
    problem (expired and appended groups re-priced), then flips."""
    topo, routing = tiny_world
    telemetry = make_setup("flock").telemetry
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=2)
    rng = np.random.default_rng(seed)
    got = want = None
    for chunk in replay_stream(
        topo, routing, make_scenario("silent-link-drops"), seed=seed,
        n_chunks=5, flows_per_chunk=40, probes_per_chunk=5,
    ):
        update = windowed.append(build_observation_batch(
            chunk.batch, telemetry, np.random.default_rng(seed + chunk.index)
        ))
        if got is None:
            got = VectorJleState(update.problem, PARAMS)
            want = PerPairJleState(update.problem, PARAMS)
        else:
            args = (
                update.removed_flows, update.removed_weights,
                update.added_flows, update.added_weights,
            )
            got = VectorJleState.rebase(update.problem, got, *args)
            want = PerPairJleState.rebase(update.problem, want, *args)
        _assert_same(got, want)
        observed = np.asarray(
            update.problem.observed_components, dtype=np.int64
        )
        if len(observed):
            _flip_both(got, want, rng.choice(observed, 3).tolist())


def test_repeated_members_and_overflow():
    """A member listed twice (multiplicity 2) and a flow whose
    ``exp(s)`` is inf, priced through every flip of its components."""
    obs = [
        FlowObservation(path_set=((1, 2), (1, 2), (3,)), packets_sent=9,
                        bad_packets=2),
        FlowObservation(path_set=((1, 2), (2, 4), (3, 4)), packets_sent=400,
                        bad_packets=400),
        FlowObservation(path_set=((0, 4),), packets_sent=50, bad_packets=0),
    ]
    problem = InferenceProblem.from_observations(obs, 5, 5)
    state = VectorJleState(problem, PARAMS)
    assert problem._iset_umult.max() == 2
    assert np.isinf(state._es).any()
    for seed in range(6):
        _walk(problem, seed)
