"""Batched path projection equals the one-key-at-a-time reference.

:class:`PathSpace` projects every missed path (set) of a lookup in one
batch.  The reference below is the original per-key fill - a Python
set walk per node path, and a recursive one-set lookup for each factored
set's interior - kept here as the oracle.  Both must hand out the same
ids and leave identical intern tables behind, since checkpoint resume
and drift detection depend on the interning order.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.routing import EcmpRouting, PathSpace
from repro.routing.paths import _FactoredCompSet, _FactoredSet
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


def _per_key_lookup(cache, keys, fill, lock):
    out = cache.gather(keys)
    if np.any(out < 0):
        with lock:
            out = cache.gather(keys)
            for key in dict.fromkeys(keys[out < 0].tolist()):
                cache.store(np.asarray([key]), np.asarray([fill(key)]))
            out = cache.gather(keys)
    return out


class PerKeySpace(PathSpace):
    """A :class:`PathSpace` whose projection fills run one key at a time."""

    def _project_path(self, pid, include_devices):
        comps = oracle_path_components(
            self.topology, self._paths[pid], include_devices
        )
        return self.intern_components(comps)

    def path_gids(self, pids, include_devices):
        return _per_key_lookup(
            self._pid_gid[int(include_devices)], pids,
            lambda pid: self._project_path(pid, include_devices), self._lock,
        )

    def exact_gsids(self, pids, include_devices):
        def fill(pid):
            return self.intern_comp_set(
                (self._project_path(pid, include_devices),)
            )

        return _per_key_lookup(
            self._pid_gsid[int(include_devices)], pids, fill, self._lock
        )

    def set_gsids(self, sids, include_devices):
        def fill(sid):
            entry = self._sets[sid]
            if isinstance(entry, _FactoredSet):
                switch_gsid = int(self.set_gsids(
                    np.asarray([entry.switch_sid], dtype=np.int64),
                    include_devices,
                )[0])
                ecomps = tuple(sorted((entry.src_link, entry.dst_link)))
                return self.intern_factored_comp_set(ecomps, switch_gsid)
            gids = self.path_gids(entry, include_devices)
            return self.intern_comp_set(gids.tolist())

        return _per_key_lookup(
            self._sid_gsid[int(include_devices)], sids, fill, self._lock
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
        sids.append(space.set_factored(sids[-1]).switch_sid)
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
            entry = space.set_factored(sid)
            pids.extend(space.set_path_ids(entry.switch_sid).tolist())
        else:
            pids.extend(space.set_path_ids(sid).tolist())
    return sids, pids


def _comp_set_state(space):
    out = []
    for entry in space._comp_sets:
        if isinstance(entry, _FactoredCompSet):
            out.append(("f", entry.ecomps.tolist(), entry.switch_gsid))
        else:
            out.append(("p", entry.tolist()))
    return out


def _assert_same_tables(got, want):
    assert got._comp_paths == want._comp_paths
    assert got._comp_index == want._comp_index
    assert _comp_set_state(got) == _comp_set_state(want)
    assert got._comp_set_index == want._comp_set_index


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
    for gsid in range(len(got._comp_sets)):
        assert np.array_equal(got.comp_set(gsid), want.comp_set(gsid))
    _assert_same_tables(got, want)


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
    entry = space._comp_sets[gsid]
    if isinstance(entry, _FactoredCompSet):
        return ("f", tuple(entry.ecomps.tolist()),
                _content(space, entry.switch_gsid))
    return ("p", tuple(space.comp_path(g) for g in entry.tolist()))


def test_threads_share_one_space():
    """Four threads interleaving set/exact lookups on one shared space
    (as the thread executor does) intern every distinct set once."""
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
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]
    errors = []

    def work(t):
        try:
            barrier.wait()
            for _ in range(40):
                flag = bool(rngs[t].integers(2))
                if rngs[t].integers(2):
                    pick = rngs[t].choice(keys, 5)
                    results[t].append(
                        ("set", flag, pick, shared.set_gsids(pick, flag))
                    )
                else:
                    pick = rngs[t].choice(pids, 5)
                    results[t].append(
                        ("exact", flag, pick, shared.exact_gsids(pick, flag))
                    )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(shared._comp_paths) == len(shared._comp_index)
    assert len(set(shared._comp_paths)) == len(shared._comp_paths)
    assert len(shared._comp_sets) == len(shared._comp_set_index)
    assert sorted(shared._comp_set_index.values()) == list(
        range(len(shared._comp_sets))
    )
    to_serial = dict(zip(keys.tolist(), sids[id(serial)].tolist()))
    assigned = {}
    for rows in results:
        for kind, flag, pick, out in rows:
            for key, gsid in zip(pick.tolist(), out.tolist()):
                # One gsid per (lookup kind, flag, key), across threads.
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
