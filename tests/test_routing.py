"""Tests for ECMP path enumeration and path interning."""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import (
    EcmpRouting, PathSpace, PathTable, wcmp_weights,
)
from repro.routing.paths import first_seen_ids
from repro.topology import fat_tree, leaf_spine


class TestEcmpFatTree:
    @pytest.fixture(scope="class")
    def routing(self):
        return EcmpRouting(fat_tree(4))

    def test_same_rack_path(self, routing):
        topo = routing.topology
        tor = topo.racks[0]
        h0, h1 = topo.hosts_in_rack(tor)[:2]
        paths = routing.host_paths(h0, h1)
        assert paths == ((h0, tor, h1),)

    def test_same_pod_paths(self, routing):
        topo = routing.topology
        # Two tors in the same pod share k/2 = 2 agg choices.
        tor_a, tor_b = topo.racks[0], topo.racks[1]
        assert topo.name(tor_a)[:2] == topo.name(tor_b)[:2]
        h_a = topo.hosts_in_rack(tor_a)[0]
        h_b = topo.hosts_in_rack(tor_b)[0]
        paths = routing.host_paths(h_a, h_b)
        assert len(paths) == 2
        for path in paths:
            assert len(path) == 5  # h, tor, agg, tor, h
            assert topo.role(path[2]) == "agg"

    def test_cross_pod_paths(self, routing):
        topo = routing.topology
        pods = {}
        for tor in topo.racks:
            pods.setdefault(topo.name(tor)[:2], []).append(tor)
        pod_list = sorted(pods)
        tor_a = pods[pod_list[0]][0]
        tor_b = pods[pod_list[1]][0]
        h_a = topo.hosts_in_rack(tor_a)[0]
        h_b = topo.hosts_in_rack(tor_b)[0]
        paths = routing.host_paths(h_a, h_b)
        # k=4 fat tree: (k/2)^2 = 4 core paths between pods.
        assert len(paths) == 4
        for path in paths:
            assert len(path) == 7
            assert topo.role(path[3]) == "core"

    def test_paths_are_simple_and_valid(self, routing):
        topo = routing.topology
        paths = routing.host_paths(topo.hosts[0], topo.hosts[-1])
        for path in paths:
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert topo.has_link(u, v)

    def test_symmetry(self, routing):
        topo = routing.topology
        fwd = routing.host_paths(topo.hosts[0], topo.hosts[-1])
        rev = routing.host_paths(topo.hosts[-1], topo.hosts[0])
        assert sorted(tuple(reversed(p)) for p in fwd) == sorted(rev)

    def test_probe_paths_reach_core(self, routing):
        topo = routing.topology
        host = topo.hosts[0]
        core = topo.cores[0]
        paths = routing.probe_paths(host, core)
        assert paths
        for path in paths:
            assert path[0] == host
            assert path[-1] == core

    def test_same_host_rejected(self, routing):
        topo = routing.topology
        with pytest.raises(RoutingError):
            routing.host_paths(topo.hosts[0], topo.hosts[0])

    def test_cache_grows(self, routing):
        before = routing.cached_pairs
        topo = routing.topology
        routing.host_paths(topo.hosts[0], topo.hosts[5])
        assert routing.cached_pairs >= before


class TestEcmpLeafSpine:
    def test_cross_rack_uses_all_spines(self):
        topo = leaf_spine(2, 3, 2)
        routing = EcmpRouting(topo)
        h_a = topo.hosts_in_rack(topo.racks[0])[0]
        h_b = topo.hosts_in_rack(topo.racks[1])[0]
        paths = routing.host_paths(h_a, h_b)
        assert len(paths) == 2
        spines = {path[2] for path in paths}
        assert spines == set(topo.cores)


class TestWcmp:
    def test_uniform_weights(self):
        weights = wcmp_weights(((0, 1), (0, 2)))
        assert weights == (0.5, 0.5)

    def test_capacity_weights(self):
        caps = {(0, 1): 40.0, (0, 2): 10.0}
        weights = wcmp_weights(((0, 1), (0, 2)), caps)
        assert weights == (0.8, 0.2)

    def test_missing_capacity(self):
        with pytest.raises(RoutingError):
            wcmp_weights(((0, 1),), {})

    def test_empty_paths(self):
        with pytest.raises(RoutingError):
            wcmp_weights(())


class TestInterning:
    def test_path_table_distinct(self):
        table = PathTable()
        a = table.intern_canonical((1, 2))
        b = table.intern_canonical((1, 3))
        assert a != b
        assert len(table) == 2


def _csr(rows):
    """From-scratch CSR (values, offsets) of int rows."""
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    flat = np.array([v for r in rows for v in r], dtype=np.int64)
    return flat, off


def _assert_csrs_fresh(space):
    """comp_csr()/link_csr() equal a from-scratch build over every id."""
    want_comp = _csr([space.comp_path(g) for g in range(space.n_comp_paths)])
    want_link = _csr([space.path_link_ids(p) for p in range(space.n_paths)])
    for got, want in ((space.comp_csr(), want_comp),
                      (space.link_csr(), want_link)):
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == np.int64
            assert np.array_equal(got_arr, want_arr)


def _intern_pairs(space, routing, pairs):
    """Intern every ECMP path of ``pairs`` and both its projections."""
    for a, b in pairs:
        pids = np.array(
            [space.intern_path(p) for p in routing.host_paths(a, b)],
            dtype=np.int64,
        )
        space.path_gids(pids, include_devices=True)
        space.path_gids(pids, include_devices=False)


class TestPathSpaceCSR:
    """The incrementally grown CSRs always equal a from-scratch build."""

    @pytest.fixture(scope="class")
    def routing(self):
        return EcmpRouting(fat_tree(4))

    @pytest.fixture(scope="class")
    def pairs(self, routing):
        hosts = routing.topology.hosts
        return [(a, b) for a in hosts for b in hosts if a != b]

    def test_interleaved_interning_and_reads(self, routing, pairs):
        space = PathSpace(routing.topology, routing)
        handed_out = []
        for start in range(0, len(pairs), 37):
            _intern_pairs(space, routing, pairs[start:start + 37])
            _assert_csrs_fresh(space)
            arrays = space.comp_csr() + space.link_csr()
            handed_out.append((arrays, [a.copy() for a in arrays]))
        # Growth never rewrites arrays handed out before it.
        for arrays, snapshot in handed_out:
            for arr, copy in zip(arrays, snapshot):
                assert np.array_equal(arr, copy)

    def test_pickle_round_trip(self, routing, pairs):
        space = PathSpace(routing.topology, routing)
        half = len(pairs) // 2
        _intern_pairs(space, routing, pairs[:half])
        space.comp_csr()
        space.link_csr()
        clone = pickle.loads(pickle.dumps(space))
        _assert_csrs_fresh(clone)
        _intern_pairs(space, routing, pairs[half:])
        _intern_pairs(clone, routing, pairs[half:])
        _assert_csrs_fresh(clone)
        _assert_csrs_fresh(space)
        for mine, theirs in zip(space.comp_csr(), clone.comp_csr()):
            assert np.array_equal(mine, theirs)

    def test_concurrent_interning_leaves_a_consistent_csr(
        self, routing, pairs
    ):
        space = PathSpace(routing.topology, routing)
        # Six workers, one after another, over overlapping slices: later
        # workers meet ids that earlier ones interned.
        for k in range(6):
            for i, pair in enumerate(pairs[k::3] + pairs[::7]):
                _intern_pairs(space, routing, [pair])
                if i % 4:
                    continue
                for (flat, off), row in (
                    (space.comp_csr(), space.comp_path),
                    (space.link_csr(), space.path_link_ids),
                ):
                    assert off[-1] == len(flat)
                    last = len(off) - 2
                    assert flat[off[last]:].tolist() == list(row(last))
        _assert_csrs_fresh(space)


def test_routing_and_its_space_free_without_a_collection():
    """A routing and its shared space hold no reference cycle, so
    dropping the last reference frees both at once.  An experiment's
    spaces hold tens of MB; left to the cycle collector, they outlive
    it by however long the next full collection takes to come."""
    topo = fat_tree(4)
    routing = EcmpRouting(topo)
    space = routing.path_space()
    hosts = np.asarray(topo.hosts, dtype=np.int64)
    sids = space.pair_sets(hosts[:-1], hosts[1:])
    space.set_gsids(sids, include_devices=True)
    refs = [weakref.ref(routing), weakref.ref(space)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del routing, space
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def _unique_first_seen(values):
    """``first_seen_ids`` by ``np.unique`` and a first-row argsort."""
    uniq, first_idx, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    return uniq[order], rank[inverse]


INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)


@st.composite
def dense_ids(draw):
    """Non-negative ints whose span (max + 1) is at most 4x their count,
    the inputs ``first_seen_ids`` numbers without a sort."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    n = draw(st.integers(1, 300))
    top = min(4 * n, int(np.iinfo(dtype).max) + 1)
    span = draw(st.integers(1, top))
    values = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    return np.asarray(values, dtype=dtype)


@given(values=dense_ids())
@settings(max_examples=200, deadline=None)
def test_first_seen_ids_dense_path_matches_unique(values):
    """Same distinct values in first-appearance order, same dtype, and
    the same int64 ids as the ``np.unique`` reference."""
    assert int(values.max()) + 1 <= 4 * len(values)
    got_vals, got_ids = first_seen_ids(values)
    want_vals, want_ids = _unique_first_seen(values)
    assert got_vals.dtype == values.dtype
    assert got_ids.dtype == np.int64
    assert np.array_equal(got_vals, want_vals)
    assert np.array_equal(got_ids, want_ids)


@pytest.mark.parametrize("span", [1 << 10, 1 << 17])
def test_first_seen_ids_sparse_paths_match_unique(span):
    """Spans above 4x the count take the radix (below 2^16) and the
    ``np.unique`` branches; both agree with the reference."""
    values = np.random.default_rng(span).integers(0, span, 50)
    values[0] = span - 1
    got = first_seen_ids(values)
    want = _unique_first_seen(values)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
