"""Batched path interning equals the one-key-at-a-time reference.

:class:`PathSpace` interns every missed pair, path and path set of a
lookup in one batch, with array passes over its set columns.  The
reference below is the original per-key fill - one pair per
``pair_set`` call, a Python set walk per node path, and a recursive
one-set lookup for each factored set's interior - kept here as the
oracle.  Both must hand out the same ids and leave identical intern
tables behind, since checkpoint resume and drift detection depend on
the interning order.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.routing import EcmpRouting, PathSpace
from repro.topology import fat_tree, leaf_spine, three_tier_clos
from repro.topology.irregular import omit_random_links


def oracle_path_components(topo, nodes, include_devices):
    """The original set-walk definition of a path's component ids."""
    comps = set()
    for u, v in zip(nodes, nodes[1:]):
        comps.add(topo.link_id(u, v))
    if include_devices:
        for node in nodes:
            if topo.switch_mask[node]:
                comps.add(topo.n_links + node)
    return tuple(sorted(comps))


def _per_key_lookup(cache, keys, fill):
    out = cache.gather(keys)
    if np.any(out < 0):
        for key in dict.fromkeys(keys[out < 0].tolist()):
            cache.store(np.asarray([key]), np.asarray([fill(key)]))
        out = cache.gather(keys)
    return out


class PerKeySpace(PathSpace):
    """A :class:`PathSpace` whose interning runs one key at a time.

    It shares the space's storage (rows, indexes and packed maps) but
    not its numbering: every new set is appended on its own.
    """

    def pair_set(self, src, dst):
        topo = self.topology
        n_nodes = topo.n_nodes
        key = np.asarray([src * n_nodes + dst], dtype=np.int64)
        sid = int(self._pair_sid.get(key)[0])
        if sid < 0:
            src_rack, dst_rack = topo.rack_of(src), topo.rack_of(dst)
            rkey = np.asarray([src_rack * n_nodes + dst_rack], dtype=np.int64)
            switch = int(self._rack_pair_sid.get(rkey)[0])
            if switch < 0:
                # get(a, a) is the trivial single-node path, covering
                # same-rack pairs.
                switch = self.intern_set(
                    self._switch_paths.get(src_rack, dst_rack)
                )
                self._rack_pair_sid.insert(
                    rkey, np.asarray([switch], dtype=np.int64)
                )
            sid = self.n_sets
            self._append_sets(np.asarray([[
                src, dst, switch, topo.link_id(src, src_rack),
                topo.link_id(dst_rack, dst), self.set_size(switch),
            ]], dtype=np.int64), ())
        return sid

    def pair_sets(self, src, dst):
        n_nodes = self.topology.n_nodes
        packed = np.asarray(src, dtype=np.int64) * n_nodes + dst
        uniq, inverse = np.unique(packed, return_inverse=True)
        sids = np.asarray(
            [self.pair_set(*divmod(key, n_nodes)) for key in uniq.tolist()],
            dtype=np.int64,
        )
        return sids[inverse]

    def _project_path(self, pid, include_devices):
        comps = oracle_path_components(
            self.topology, self._paths[pid], include_devices
        )
        return self.intern_components(comps)

    def _intern_factored(self, lo, hi, interior):
        key = self._factored_keys(
            np.asarray([interior], dtype=np.int64), lo, hi
        )
        gsid = int(self._factored_gsid.get(key)[0])
        if gsid < 0:
            gsid = self.n_comp_sets
            self._append_comp_sets(
                np.asarray([[lo, hi, interior]], dtype=np.int64), ()
            )
        return gsid

    def path_gids(self, pids, include_devices):
        return _per_key_lookup(
            self._pid_gid[int(include_devices)], pids,
            lambda pid: self._project_path(pid, include_devices),
        )

    def exact_gsids(self, pids, include_devices):
        def fill(pid):
            return self.intern_comp_set(
                (self._project_path(pid, include_devices),)
            )

        return _per_key_lookup(
            self._pid_gsid[int(include_devices)], pids, fill
        )

    def set_gsids(self, sids, include_devices):
        def fill(sid):
            switch, src_link, dst_link = (
                int(col[0]) for col in self.pair_set_columns(np.asarray([sid]))
            )
            if switch >= 0:
                switch_gsid = int(self.set_gsids(
                    np.asarray([switch], dtype=np.int64), include_devices,
                )[0])
                lo, hi = sorted((src_link, dst_link))
                return self._intern_factored(lo, hi, switch_gsid)
            gids = self.path_gids(self.set_path_ids(sid), include_devices)
            return self.intern_comp_set(gids.tolist())

        return _per_key_lookup(
            self._sid_gsid[int(include_devices)], sids, fill
        )


def _irregular():
    topo, _ = omit_random_links(fat_tree(4), 0.2, np.random.default_rng(1))
    return topo


TOPOLOGIES = {
    "fat_tree4": fat_tree(4),
    "clos": three_tier_clos(
        pods=2, tors_per_pod=2, aggs_per_pod=2,
        core_groups=2, cores_per_group=1, hosts_per_tor=2,
    ),
    "leaf_spine": leaf_spine(2, 3, 2),
    "irregular": _irregular(),
}
ROUTINGS = {name: EcmpRouting(topo) for name, topo in TOPOLOGIES.items()}


def _bounce(path):
    """A probe path bounced off its far end back to the sender."""
    return tuple(path) + tuple(reversed(path[:-1]))


def _switch_sid(space, sid):
    """The switch-level sid of a factored pair set, -1 for a plain one."""
    return int(space.pair_set_columns(np.asarray([sid], dtype=np.int64))[0][0])


def _populate(space, routing, pair_picks, probe_picks):
    """Intern the same node paths and sets into ``space``; returns
    ``(sids, pids)`` candidate pools in interning order."""
    topo = routing.topology
    hosts = topo.hosts
    sids = []
    for a, b in pair_picks:
        src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
        if src == dst:
            continue
        sids.append(space.pair_set(src, dst))
        # Same-rack pairs share the single-node switch-level set.
        sids.append(_switch_sid(space, sids[-1]))
    pids = []
    for h, c in probe_picks:
        host = hosts[h % len(hosts)]
        core = topo.cores[c % len(topo.cores)]
        paths = routing.probe_paths(host, core)
        bounced = [_bounce(p) for p in paths]
        sids.append(space.intern_set(bounced))
        sids.append(space.intern_set(paths[:1]))
        pids.extend(space.intern_path(p) for p in bounced + list(paths))
    for sid in sids:
        if space.set_is_factored(sid):
            pids.extend(space.set_path_ids(_switch_sid(space, sid)).tolist())
        else:
            pids.extend(space.set_path_ids(sid).tolist())
    return sids, pids


def _comp_set_state(space):
    lo, hi, interior = space.comp_set_columns(np.arange(space.n_comp_sets))
    out = []
    for gsid in range(space.n_comp_sets):
        if interior[gsid] >= 0:
            out.append(("f", [int(lo[gsid]), int(hi[gsid])], int(interior[gsid])))
        else:
            out.append(("p", space.comp_set(gsid).tolist()))
    return out


def _set_state(space):
    sids = np.arange(space.n_sets, dtype=np.int64)
    cols = [c.tolist() for c in space.pair_set_columns(sids)]
    out = list(zip(*cols, space.set_sizes(sids).tolist()))
    for sid in range(space.n_sets):
        if not space.set_is_factored(sid):
            out[sid] += tuple(space.set_path_ids(sid).tolist())
    return out


def _map_state(packed_map):
    return [arr.tolist() for arr in packed_map.items()]


def _assert_same_tables(got, want):
    assert got._comp_paths == want._comp_paths
    assert got._comp_index == want._comp_index
    assert _comp_set_state(got) == _comp_set_state(want)
    assert got._cset_index == want._cset_index
    assert _map_state(got._factored_gsid) == _map_state(want._factored_gsid)


def _assert_same_sets(got, want):
    assert got._paths == want._paths
    assert _set_state(got) == _set_state(want)
    assert got._set_index == want._set_index
    assert _map_state(got._pair_sid) == _map_state(want._pair_sid)
    assert _map_state(got._rack_pair_sid) == _map_state(want._rack_pair_sid)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "exact"]),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
    ),
    min_size=1, max_size=6,
)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(TOPOLOGIES)),
    pair_picks=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63)),
        min_size=1, max_size=10,
    ),
    probe_picks=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 7)), max_size=3,
    ),
    ops=OPS,
)
def test_batched_projection_equals_per_key_oracle(
    name, pair_picks, probe_picks, ops
):
    routing = ROUTINGS[name]
    got = PathSpace(routing.topology, routing)
    want = PerKeySpace(routing.topology, routing)
    pools = _populate(got, routing, pair_picks, probe_picks)
    assert _populate(want, routing, pair_picks, probe_picks) == pools
    sids, pids = pools
    for kind, include_devices, picks in ops:
        pool = sids if kind == "set" else pids
        if not pool:
            continue
        keys = np.asarray([pool[i % len(pool)] for i in picks], dtype=np.int64)
        method = "set_gsids" if kind == "set" else "exact_gsids"
        out = getattr(got, method)(keys, include_devices)
        assert out.dtype == np.int64
        assert np.array_equal(out, getattr(want, method)(keys, include_devices))
        _assert_same_tables(got, want)
    # Lazy expansion of factored comp sets agrees as well.
    for gsid in range(got.n_comp_sets):
        assert np.array_equal(got.comp_set(gsid), want.comp_set(gsid))
    _assert_same_tables(got, want)


def _rack_mate(topo, host):
    """Another host in ``host``'s rack (``host`` itself when alone)."""
    mates = [h for h in topo.hosts_in_rack(topo.rack_of(host)) if h != host]
    return mates[0] if mates else host


INTERLEAVED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["pair", "pairs", "probe", "set", "exact"]),
        st.booleans(),
        st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8
        ),
    ),
    min_size=1, max_size=10,
)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=st.sampled_from(sorted(TOPOLOGIES)), ops=INTERLEAVED_OPS)
def test_interleaved_interning_equals_per_key_oracle(name, ops):
    """Random interleavings of pair, probe-set, set and exact lookups
    under both device flags hand out the oracle's ids and leave its
    tables, and a pickled copy of the space answers every lookup the
    same way."""
    routing = ROUTINGS[name]
    topo = routing.topology
    hosts = topo.hosts
    got = PathSpace(topo, routing)
    want = PerKeySpace(topo, routing)
    sids, pairs = [], []
    for kind, flag, picks in ops:
        if kind in ("pair", "pairs"):
            # Each pick pairs with the next one and with a rack mate,
            # both ways: reversed same-rack pairs share a factored key.
            batch = []
            for a, b in zip(picks, picks[1:] + picks[:1]):
                src = hosts[a % len(hosts)]
                for dst in (hosts[b % len(hosts)], _rack_mate(topo, src)):
                    if dst != src:
                        batch += [(src, dst), (dst, src)]
            if not batch:
                continue
            pairs += batch
            if kind == "pair":
                out = [
                    [space.pair_set(s, d) for s, d in batch]
                    for space in (got, want)
                ]
            else:
                src, dst = (np.asarray(c, dtype=np.int64) for c in zip(*batch))
                out = [space.pair_sets(src, dst).tolist() for space in (got, want)]
            assert out[0] == out[1]
            sids += out[0] + [_switch_sid(got, sid) for sid in out[0]]
        elif kind == "probe":
            host = hosts[picks[0] % len(hosts)]
            core = topo.cores[picks[-1] % len(topo.cores)]
            paths = routing.probe_paths(host, core)
            for members in ([_bounce(p) for p in paths], paths[:1]):
                out = [space.intern_set(members) for space in (got, want)]
                assert out[0] == out[1]
                sids.append(out[0])
        else:
            pool = sids if kind == "set" else range(got.n_paths)
            if not pool:
                continue
            keys = np.asarray([pool[i % len(pool)] for i in picks], dtype=np.int64)
            method = "set_gsids" if kind == "set" else "exact_gsids"
            out = getattr(got, method)(keys, flag)
            assert out.dtype == np.int64
            assert np.array_equal(out, getattr(want, method)(keys, flag))
        _assert_same_sets(got, want)
        _assert_same_tables(got, want)

    clone = pickle.loads(pickle.dumps(got))
    _assert_same_sets(clone, got)
    _assert_same_tables(clone, got)
    all_sids = np.arange(got.n_sets, dtype=np.int64)
    all_pids = np.arange(got.n_paths, dtype=np.int64)
    for flag in (False, True):
        assert np.array_equal(
            clone.set_gsids(all_sids, flag), got.set_gsids(all_sids, flag)
        )
        assert np.array_equal(
            clone.exact_gsids(all_pids, flag), got.exact_gsids(all_pids, flag)
        )
    if pairs:
        src, dst = (np.asarray(c, dtype=np.int64) for c in zip(*pairs))
        assert np.array_equal(clone.pair_sets(src, dst), got.pair_sets(src, dst))
    for sid in all_sids.tolist():
        assert np.array_equal(clone.set_path_ids(sid), got.set_path_ids(sid))
    for gsid in range(got.n_comp_sets):
        assert np.array_equal(clone.comp_set(gsid), got.comp_set(gsid))
    _assert_same_sets(clone, got)
    _assert_same_tables(clone, got)


def _assert_union_counts(space, gsids):
    """Each plain gsid's memoized union and counts equal a recount of
    its members' component rows."""
    u_flat, u_counts, u_off = space.comp_set_unions(gsids)
    assert u_counts.dtype == np.int32
    members, m_off = space.comp_set_members(gsids)
    cc_flat, cc_off = space.comp_csr()
    for row in range(len(gsids)):
        counted = {}
        for gid in members[m_off[row]:m_off[row + 1]].tolist():
            for comp in cc_flat[cc_off[gid]:cc_off[gid + 1]].tolist():
                counted[comp] = counted.get(comp, 0) + 1
        lo, hi = u_off[row], u_off[row + 1]
        assert u_flat[lo:hi].tolist() == sorted(counted)
        assert u_counts[lo:hi].tolist() == [counted[c] for c in sorted(counted)]


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=st.sampled_from(sorted(TOPOLOGIES)), ops=INTERLEAVED_OPS)
def test_union_counts_recount_members(name, ops):
    """Random interleavings of pair, set and exact lookups under both
    device flags, each followed by a union read of the plain sets it
    reached: every union's member counts equal a recount from
    ``comp_set_members`` and ``comp_csr``, memoized early or late, and
    a pickled space answers the same."""
    routing = ROUTINGS[name]
    topo = routing.topology
    hosts = topo.hosts
    space = PathSpace(topo, routing)
    sids = []
    for kind, flag, picks in ops:
        if kind in ("pair", "pairs"):
            src = np.asarray([hosts[a % len(hosts)] for a in picks])
            dst = np.asarray([hosts[(a + 1 + b) % len(hosts)]
                              for a, b in zip(picks, picks[1:] + picks[:1])])
            keep = src != dst
            pair_sids = space.pair_sets(src[keep], dst[keep]).tolist()
            sids += pair_sids + [_switch_sid(space, sid) for sid in pair_sids]
            continue
        if kind == "probe":
            # Bounced probe paths: members that share a projection.
            host = hosts[picks[0] % len(hosts)]
            core = topo.cores[picks[-1] % len(topo.cores)]
            paths = routing.probe_paths(host, core)
            sids += [
                space.intern_set([_bounce(p) for p in paths]),
                space.intern_set(paths[:1]),
            ]
            continue
        pool = sids if kind == "set" else range(space.n_paths)
        if not pool:
            continue
        keys = np.asarray([pool[i % len(pool)] for i in picks], dtype=np.int64)
        method = "set_gsids" if kind == "set" else "exact_gsids"
        gsids = getattr(space, method)(keys, flag)
        interior = space.comp_set_columns(gsids)[2]
        _assert_union_counts(space, np.where(interior >= 0, interior, gsids))

    plain = np.asarray(
        [g for g in range(space.n_comp_sets) if not space.comp_set_is_factored(g)],
        dtype=np.int64,
    )
    clone = pickle.loads(pickle.dumps(space))
    _assert_union_counts(space, plain)
    for got, want in zip(clone.comp_set_unions(plain), space.comp_set_unions(plain)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_pair_comp_sets_retain_few_bytes():
    """Projecting host pairs whose interiors are known keeps each new
    comp set as a few int columns: at most 128 B retained per set."""
    topo = fat_tree(8)
    routing = EcmpRouting(topo)
    hosts = np.asarray(topo.hosts, dtype=np.int64)
    src, dst = (a.ravel() for a in np.meshgrid(hosts, hosts, indexing="ij"))
    src, dst = src[src != dst], dst[src != dst]
    racks = np.zeros(topo.n_nodes, dtype=np.int64)
    racks[hosts] = [topo.rack_of(h) for h in topo.hosts]
    _, warm = np.unique(
        racks[src] * topo.n_nodes + racks[dst], return_index=True
    )
    rest = np.setdiff1d(np.arange(len(src)), warm)
    tracemalloc.start()
    try:
        space = PathSpace(topo, routing)
        sids = space.pair_sets(src, dst)
        # One pair per rack pair projects every interior first.
        space.set_gsids(sids[warm], False)
        before_sets = space.n_comp_sets
        before = tracemalloc.get_traced_memory()[0]
        space.set_gsids(sids[rest], False)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_new = space.n_comp_sets - before_sets
    assert n_new >= 5_000
    assert retained <= 128 * n_new, retained / n_new


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("include_devices", [False, True])
def test_paths_components_equals_set_walk(name, include_devices):
    topo = TOPOLOGIES[name]
    routing = ROUTINGS[name]
    hosts = topo.hosts
    paths = [()]
    for rack in topo.racks[:2]:
        paths.append((rack,))  # same-rack switch-level path
    for src in hosts[:4]:
        for dst in hosts[-4:]:
            if dst != src:
                paths.extend(routing.host_paths(src, dst))
        for core in topo.cores[:2]:
            paths.extend(_bounce(p) for p in routing.probe_paths(src, core))
    flat, off = topo.paths_components(paths, include_devices)
    assert flat.dtype == np.int64 and len(off) == len(paths) + 1
    for row, path in enumerate(paths):
        want = oracle_path_components(topo, path, include_devices)
        assert tuple(flat[off[row]:off[row + 1]].tolist()) == want
        assert topo.path_components(path, include_devices) == want


def test_paths_components_rejects_missing_link():
    topo = TOPOLOGIES["fat_tree4"]
    a, b = topo.hosts[0], topo.hosts[-1]
    with pytest.raises(TopologyError, match=f"no link between {a} and {b}"):
        topo.paths_components([(topo.rack_of(a), a), (a, b)])


def _content(space, gsid):
    """Interning-order-free content of a comp set."""
    lo, hi, interior = (
        int(col[0]) for col in space.comp_set_columns(np.asarray([gsid]))
    )
    if interior >= 0:
        return ("f", (lo, hi), _content(space, interior))
    return ("p", tuple(space.comp_path(g) for g in space.comp_set(gsid).tolist()))


def test_threads_share_one_space():
    """Four workers, one after another, mixing set/exact lookups on one
    shared space intern every distinct set once."""
    routing = ROUTINGS["clos"]
    hosts = routing.topology.hosts
    pairs = [(a, b) for a in hosts for b in hosts if a != b]
    serial = PathSpace(routing.topology, routing)
    shared = PathSpace(routing.topology, routing)
    sids = {}
    for space in (serial, shared):
        sids[id(space)] = np.asarray(
            [space.pair_set(a, b) for a, b in pairs], dtype=np.int64
        )
        for sid in sids[id(space)].tolist():
            space.set_path_ids(sid)
    keys = sids[id(shared)]
    pids = np.arange(shared.n_paths, dtype=np.int64)
    results = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(40):
            flag = bool(rng.integers(2))
            if rng.integers(2):
                pick = rng.choice(keys, 5)
                rows.append(("set", flag, pick, shared.set_gsids(pick, flag)))
            else:
                pick = rng.choice(pids, 5)
                rows.append(
                    ("exact", flag, pick, shared.exact_gsids(pick, flag))
                )
        results.append(rows)
    assert len(shared._comp_paths) == len(shared._comp_index)
    assert len(set(shared._comp_paths)) == len(shared._comp_paths)
    gsids = (
        list(shared._cset_index.values())
        + shared._factored_gsid.items()[1].tolist()
    )
    assert shared.n_comp_sets == len(gsids)
    assert sorted(gsids) == list(range(shared.n_comp_sets))
    to_serial = dict(zip(keys.tolist(), sids[id(serial)].tolist()))
    assigned = {}
    # The serial space answers the workers' lookups in reverse order, so
    # the two spaces intern with different histories.
    for rows in reversed(results):
        for kind, flag, pick, out in rows:
            for key, gsid in zip(pick.tolist(), out.tolist()):
                # One gsid per (lookup kind, flag, key), across workers.
                assert assigned.setdefault((kind, flag, key), gsid) == gsid
                if kind == "set":
                    want = int(serial.set_gsids(
                        np.asarray([to_serial[key]]), flag
                    )[0])
                else:
                    path = shared.path_nodes(key)
                    want = int(serial.exact_gsids(
                        np.asarray([serial.intern_path(path)]), flag
                    )[0])
                assert _content(shared, gsid) == _content(serial, want)


def test_threads_intern_pairs_and_unions():
    """Six workers, one after another, intern overlapping batches of
    new pairs, project them and memoize their interiors' unions and
    member counts on one space: every id is handed out once, and every
    set holds what a space fed the same batches in reverse order
    holds."""
    routing = ROUTINGS["fat_tree4"]
    topo = routing.topology
    hosts = topo.hosts
    pairs = np.asarray(
        [(a, b) for a in hosts for b in hosts if a != b], dtype=np.int64
    )
    shared = PathSpace(topo, routing)
    serial = PathSpace(topo, routing)
    results = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(8):
            pick = pairs[rng.choice(len(pairs), 24)]
            flag = bool(rng.integers(2))
            sids = shared.pair_sets(pick[:, 0], pick[:, 1])
            gsids = shared.set_gsids(sids, flag)
            interiors = shared.comp_set_columns(gsids)[2]
            unions = shared.comp_set_unions(interiors)
            out.append((pick, flag, sids, gsids, interiors, unions))
        results.append(out)
    set_ids = np.concatenate(
        [shared._pair_sid.items()[1], shared._rack_pair_sid.items()[1]]
    )
    assert sorted(set_ids.tolist()) == list(range(shared.n_sets))
    gsids = (
        list(shared._cset_index.values())
        + shared._factored_gsid.items()[1].tolist()
    )
    assert sorted(gsids) == list(range(shared.n_comp_sets))
    for rows in reversed(results):
        for pick, flag, sids, got_gsids, interiors, unions in rows:
            u_flat, u_counts, u_off = unions
            want_sids = serial.pair_sets(pick[:, 0], pick[:, 1])
            want_gsids = serial.set_gsids(want_sids, flag)
            for row, (src, dst) in enumerate(pick.tolist()):
                nodes = [
                    shared.path_nodes(p)
                    for p in shared.set_path_ids(int(sids[row])).tolist()
                ]
                assert nodes == list(routing.host_paths(src, dst))
                assert _content(shared, int(got_gsids[row])) == _content(
                    serial, int(want_gsids[row])
                )
                members = shared.comp_set(int(interiors[row])).tolist()
                want = sorted({c for g in members for c in shared.comp_path(g)})
                assert u_flat[u_off[row]:u_off[row + 1]].tolist() == want
                assert u_counts[u_off[row]:u_off[row + 1]].tolist() == [
                    sum(c in shared.comp_path(g) for g in members) for c in want
                ]
