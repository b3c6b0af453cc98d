"""Blocked Δ pricing is bitwise independent of the block size.

``VectorJleState._state_delta`` prices flows in blocks of about
``_PAIR_BLOCK`` (flow, comp, count) pairs, cut at flow boundaries, and
folds each block into Δ with one ``np.bincount`` that starts every bin
from its running total.  These tests shrink the block to 1 and 7 pairs
(and grow it past every pair count, one block) and check that the cold
Δ, a weighted ``_delta_contrib`` and an add/remove flip sequence are
byte-identical to the unblocked set-granular oracle
(:mod:`oracles.pair_counting`) at every size, on hand-built and on
compressed tiny-fabric problems.  A last test checks that blocking is
what bounds the cold Δ's memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PARAMS, random_problems
from oracles.pair_counting import OracleJleState
from repro.core import flock_fast
from repro.core.flock_fast import VectorJleState
from repro.core.problem import InferenceProblem
from repro.eval.experiments import standard_topology
from repro.eval.schemes import make_setup
from repro.routing import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream
from repro.telemetry.inputs import build_observation_batch
from repro.types import FlowObservation

#: Pairs per block: single pairs, a size that splits most problems at
#: odd places, and one above every pair count here (a single block).
BLOCKS = (1, 7, 1 << 40)


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


def _record(state, seed):
    """Bytes of the cold Δ, an 8-flip add/remove sequence (Δ, ll,
    failed-member counts after each flip) and a weighted contribution
    under the final hypothesis."""
    rng = np.random.default_rng(seed)
    out = [state.delta.tobytes()]
    observed = np.asarray(state.problem.observed_components, dtype=np.int64)
    if len(observed):
        # At most four distinct components, so the sequence removes too.
        picks = rng.choice(observed, min(4, len(observed)), replace=False)
        for comp in rng.choice(picks, 8).tolist():
            change = state.flip(comp)
            out.append(
                (change, state.delta.tobytes(), state.ll, state._set_b.tobytes())
            )
    n_flows = state.problem.n_flows
    flows = np.sort(rng.choice(n_flows, int(rng.integers(1, n_flows + 1)),
                               replace=False))
    contrib, ll = state._delta_contrib(flows, rng.uniform(0.1, 3.0, len(flows)))
    out.append((contrib.tobytes(), ll))
    return out


def _check_blocks(problem, seed):
    want = _record(OracleJleState(problem, PARAMS), seed)
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flock_fast, "_PAIR_BLOCK", block)
            assert _record(VectorJleState(problem, PARAMS), seed) == want, block


@given(problem=random_problems(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_block_size_is_bitwise_invisible_on_random_problems(problem, seed):
    _check_blocks(problem, seed)


@given(seed=st.integers(0, 2**16), n_flows=st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_block_size_is_bitwise_invisible_on_compressed_problems(
    tiny_world, seed, n_flows
):
    topo, routing = tiny_world
    _check_blocks(_tiny_problem(topo, routing, seed, n_flows), seed)


def test_flow_longer_than_a_block():
    """A flow with nine pairs outgrows blocks of 1 and 7 pairs; it is
    priced whole in a block of its own, and Δ stays bitwise."""
    wide = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    obs = [
        FlowObservation(path_set=((0, 9),), packets_sent=50, bad_packets=1),
        FlowObservation(path_set=wide, packets_sent=80, bad_packets=4),
        FlowObservation(path_set=((1, 2), (2, 9)), packets_sent=30,
                        bad_packets=0),
        FlowObservation(path_set=wide, packets_sent=20, bad_packets=2),
    ]
    problem = InferenceProblem.from_observations(obs, 10, 10)
    assert max(len(comps) for comps in problem.comps_by_flow) == 9
    for seed in range(4):
        _check_blocks(problem, seed)


def _cold_delta_peak(problem, block, monkeypatch):
    monkeypatch.setattr(flock_fast, "_PAIR_BLOCK", block)
    tracemalloc.start()
    try:
        state = VectorJleState(problem, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return state.delta, peak


def test_blocking_bounds_cold_delta_memory(tiny_world, monkeypatch):
    """On a problem of at least 50 blocks of pairs, the cold Δ peaks at
    most half as high as pricing every pair in one block."""
    topo, routing = tiny_world
    problem = _tiny_problem(topo, routing, 5, 4000)
    pair_lens = []
    flow_pairs = VectorJleState._flow_pairs

    def spy(self, *args):
        table = flow_pairs(self, *args)
        pair_lens.append(table[3].sum(axis=1))
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorJleState, "_flow_pairs", spy)
        one_block, whole_peak = _cold_delta_peak(problem, 1 << 40, monkeypatch)
    (npairs,) = pair_lens
    block = int(npairs.sum()) // 64
    # No flow outgrows a block, so every block holds at most ``block``
    # pairs and there are at least 64 of them.
    assert npairs.max() <= block
    blocked, blocked_peak = _cold_delta_peak(problem, block, monkeypatch)
    assert blocked.tobytes() == one_block.tobytes()
    assert blocked_peak <= whole_peak / 2, (blocked_peak, whole_peak)
