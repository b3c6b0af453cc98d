"""Demand-driven per-component queries against the sorted-index oracle.

``InferenceProblem.comp_path_ids``/``comp_eset_ids``/``comp_flows``
answer a component by scanning the CSR rows that can hold it, and sort
a whole inverted index only once a problem has asked about
``_PROMOTE_AFTER`` distinct components.  The oracle below is the
eager construction the build used to run unconditionally: stable sorts
by component over every path entry, every endpoint entry and every set
union, then component -> sets -> flows gathers.  Whatever the layout,
query order or side of the promotion threshold, every answer must be
the oracle's array: int64, ascending, empty for an unobserved
component.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.problem import uncompressed_from_batch
from repro.core import problem as problem_mod
from repro.core.problem import InferenceProblem, _expand_slices
from repro.errors import InferenceError
from repro.eval.experiments import standard_topology
from repro.eval.schemes import make_setup
from repro.routing import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream
from repro.telemetry.inputs import KIND_CODE, build_observation_batch
from repro.types import FlowObservation, TelemetryKind

PROMOTE = problem_mod._PROMOTE_AFTER
ACCESSORS = ("comp_path_ids", "comp_eset_ids", "comp_flows")


# ----------------------------------------------------------------------
# Oracle: the former eager, sort-based indexes
# ----------------------------------------------------------------------
def _sorted_index(keys, vals, n_components):
    """(vals, bounds): stable sort by key keeps vals ascending per key."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(
        keys[order], np.arange(n_components + 1, dtype=np.int64)
    )
    return vals[order], bounds


def _set_unions(problem):
    """Per-set sorted component unions, from first principles: a set's
    endpoint components plus every comp of its interior members."""
    comps, off = problem.path_comps.tolist(), problem.path_off.tolist()
    ecomps, eoff = problem._set_ecomps.tolist(), problem._set_eoff.tolist()
    upids, uoff = problem._iset_upids.tolist(), problem._iset_uoff.tolist()
    unions = []
    for s, iset in enumerate(problem._iset_of_set.tolist()):
        union = set(ecomps[eoff[s]:eoff[s + 1]])
        for p in upids[uoff[iset]:uoff[iset + 1]]:
            union.update(comps[off[p]:off[p + 1]])
        unions.append(sorted(union))
    return unions


class Oracle:
    def __init__(self, problem):
        n = problem.n_components
        n_paths = len(problem.path_off) - 1
        pid_of = np.repeat(
            np.arange(n_paths, dtype=np.int64), np.diff(problem.path_off)
        )
        self.paths = _sorted_index(problem.path_comps, pid_of, n)
        n_sets = len(problem._set_eoff) - 1
        eset_of = np.repeat(
            np.arange(n_sets, dtype=np.int64), np.diff(problem._set_eoff)
        )
        self.esets = _sorted_index(problem._set_ecomps, eset_of, n)
        self.unions = _set_unions(problem)
        lens = np.array([len(u) for u in self.unions], dtype=np.int64)
        union_comps = np.array(
            [c for u in self.unions for c in u], dtype=np.int64
        )
        union_set = np.repeat(np.arange(n_sets, dtype=np.int64), lens)
        self.comp_sets = _sorted_index(union_comps, union_set, n)
        set_of_flow = problem._set_of_flow
        self.set_flows = _sorted_index(
            set_of_flow, np.arange(len(set_of_flow), dtype=np.int64), n_sets
        )

    @staticmethod
    def _slice(index, comp):
        vals, bounds = index
        return vals[bounds[comp]:bounds[comp + 1]]

    def comp_path_ids(self, comp):
        return self._slice(self.paths, comp)

    def comp_eset_ids(self, comp):
        return self._slice(self.esets, comp)

    def comp_flows(self, comp):
        sets = self._slice(self.comp_sets, comp)
        flow_vals, flow_bounds = self.set_flows
        lens = np.diff(flow_bounds)[sets]
        return np.sort(flow_vals[_expand_slices(flow_bounds[sets], lens)])


def _assert_answers(problem, oracle, comps):
    for comp in comps:
        for name in ACCESSORS:
            got = getattr(problem, name)(comp)
            want = getattr(oracle, name)(comp)
            assert got.dtype == np.int64, (name, comp)
            assert np.array_equal(got, want), (name, comp)
            assert not got.flags.writeable, (name, comp)


# ----------------------------------------------------------------------
# Random problems
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _batch(topo, routing, seed, n_flows):
    (chunk,) = replay_stream(
        topo, routing, make_scenario("silent-link-drops"), seed=seed,
        n_chunks=1, flows_per_chunk=n_flows, probes_per_chunk=n_flows % 7,
    )
    telemetry = make_setup("flock").telemetry
    return build_observation_batch(
        chunk.batch, telemetry, np.random.default_rng(seed)
    )


def _observation_problem(draw_sets, n_components):
    observations = [
        FlowObservation(
            path_set=tuple(tuple(sorted(set(p))) for p in path_set),
            packets_sent=10, bad_packets=bad,
            kind=TelemetryKind.PASSIVE,
        )
        for path_set, bad in draw_sets
    ]
    return InferenceProblem.from_observations(
        observations, n_components, n_components // 2
    )


@given(
    seed=st.integers(0, 2**16),
    n_flows=st.integers(1, 60),
    compressed=st.booleans(),
    n_queries=st.sampled_from([1, PROMOTE - 1, PROMOTE, PROMOTE + 1, 38]),
    order_seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_queries_equal_oracle_on_simulated_problems(
    tiny_world, seed, n_flows, compressed, n_queries, order_seed
):
    """Compressed and uncompressed from_batch problems: any query order,
    either side of the promotion threshold, every answer equals the
    oracle's - and so does every answer after promotion."""
    topo, routing = tiny_world
    build = InferenceProblem.from_batch if compressed else uncompressed_from_batch
    batch = _batch(topo, routing, seed, n_flows)
    problem = build(batch, topo.n_components, topo.n_links)
    # Only passive (P) rows carry factored pair sets with endpoint comps.
    passive = bool(np.any(batch.kind == KIND_CODE[TelemetryKind.PASSIVE]))
    assert bool(len(problem._set_ecomps)) == (compressed and passive)
    oracle = Oracle(problem)
    order = np.random.default_rng(order_seed).permutation(topo.n_components)
    _assert_answers(problem, oracle, order[:n_queries].tolist())
    promoted = n_queries > PROMOTE
    assert (problem._path_rows._index is not None) == promoted
    _assert_answers(problem, oracle, range(topo.n_components))
    assert problem._path_rows._index is not None
    assert problem.observed_components == tuple(
        sorted({c for u in oracle.unions for c in u})
    )
    comps, bounds = problem._set_union_comps, problem._set_union_bounds
    assert [
        comps[bounds[s]:bounds[s + 1]].tolist()
        for s in range(len(bounds) - 1)
    ] == oracle.unions


@given(
    draw_sets=st.lists(
        st.tuples(
            st.lists(
                st.lists(st.integers(0, 39), min_size=1, max_size=5),
                min_size=1, max_size=4,
            ),
            st.integers(0, 3),
        ),
        max_size=25,
    ),
    n_queries=st.sampled_from([0, PROMOTE, PROMOTE + 1]),
)
@settings(max_examples=60, deadline=None)
def test_queries_equal_oracle_on_hand_built_problems(draw_sets, n_queries):
    """from_observations problems over a 40-component space: most ids
    never observed (empty int64 answers), the empty problem included."""
    problem = _observation_problem(draw_sets, 40)
    oracle = Oracle(problem)
    _assert_answers(problem, oracle, range(n_queries))
    _assert_answers(problem, oracle, reversed(range(40)))


def test_empty_problem_answers_empty():
    problem = InferenceProblem.from_observations([], 30, 10)
    for comp in list(range(30)) * 2:
        for name in ACCESSORS:
            got = getattr(problem, name)(comp)
            assert got.dtype == np.int64 and len(got) == 0
    assert problem.observed_components == ()
    assert problem.flows_by_comp == {}
    assert problem.paths_by_comp == {}


@pytest.mark.parametrize("compressed", [True, False])
def test_out_of_range_components_raise(tiny_world, compressed):
    topo, routing = tiny_world
    build = InferenceProblem.from_batch if compressed else uncompressed_from_batch
    problem = build(_batch(topo, routing, 5, 40), topo.n_components, topo.n_links)
    n = problem.n_components
    for when in ("scanning", "promoted"):
        for comp in (-1, n, n + 1):
            for name in ACCESSORS:
                with pytest.raises(InferenceError):
                    getattr(problem, name)(comp)
        for comp in range(n):  # cross the threshold for the second pass
            for name in ACCESSORS:
                getattr(problem, name)(comp)


def test_build_sorts_nothing_and_promotion_sorts_once(tiny_world):
    """A build leaves every index unbuilt; the PROMOTE-th distinct
    component scans, the next one builds the index, repeats stay
    memoized and do not count."""
    topo, routing = tiny_world
    problem = InferenceProblem.from_batch(
        _batch(topo, routing, 11, 50), topo.n_components, topo.n_links
    )
    queries = (problem._path_rows, problem._eset_rows, problem._flows)
    assert all(q._index is None for q in queries)
    assert problem._flows._unions is None
    problem.observed_components
    assert problem._flows._unions is None
    for comp in range(PROMOTE):
        for _ in range(3):
            problem.comp_path_ids(comp)
    assert problem._path_rows._index is None
    problem.comp_path_ids(PROMOTE)
    index = problem._path_rows._index
    assert index is not None
    problem.comp_path_ids(PROMOTE + 1)
    assert problem._path_rows._index is index
    assert problem._flows._index is None


def test_memoized_answers_are_read_only(tiny_world):
    topo, routing = tiny_world
    problem = InferenceProblem.from_batch(
        _batch(topo, routing, 13, 50), topo.n_components, topo.n_links
    )
    comp = problem.observed_components[0]
    for name in ACCESSORS:
        for _ in range(2):  # scanned, then the memo hit
            arr = getattr(problem, name)(comp)
            with pytest.raises(ValueError):
                arr[...] = 0
    for arr in problem._flows.unions() + problem._flows.index()[:1]:
        assert not arr.flags.writeable


def test_problem_pickles_without_its_caches(tiny_world):
    """Memos, indexes and unions are caches: a copy of a queried problem
    starts unbuilt and rebuilds them read-only."""
    topo, routing = tiny_world
    problem = InferenceProblem.from_batch(
        _batch(topo, routing, 17, 50), topo.n_components, topo.n_links
    )
    for comp in range(PROMOTE + 3):
        problem.comp_flows(comp)
    assert problem._flows._index is not None
    clone = pickle.loads(pickle.dumps(problem))
    for query in (clone._path_rows, clone._eset_rows, clone._flows):
        assert query._index is None and query._memo == {}
    assert clone._flows._unions is None
    oracle = Oracle(problem)
    _assert_answers(clone, oracle, range(topo.n_components))


def test_threads_sharing_a_problem_see_serial_answers():
    """Six workers, one after another, ask the three queries,
    observed_components and the lazy set unions of one shared problem,
    crossing the promotion threshold mid-run; every answer equals a
    separately built problem's."""
    topo = standard_topology("ci")
    routing = EcmpRouting(topo)
    batch = _batch(topo, routing, 23, 400)

    def build():
        return InferenceProblem.from_batch(
            batch, topo.n_components, topo.n_links
        )

    n = topo.n_components
    serial = build()
    want = {
        name: [getattr(serial, name)(c).tolist() for c in range(n)]
        for name in ACCESSORS
    }
    want_observed = serial.observed_components
    want_unions = serial._set_union_comps.tolist()

    shared = build()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for comp in rng.permutation(n).tolist():
            for name in rng.permutation(ACCESSORS).tolist():
                got = getattr(shared, name)(comp).tolist()
                assert got == want[name][comp], (name, comp)
            assert shared.observed_components == want_observed
            assert shared._set_union_comps.tolist() == want_unions
    assert shared._path_rows._index is not None
    assert shared._flows._index is not None
