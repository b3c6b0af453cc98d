"""Core topology model.

A :class:`Topology` is an undirected multigraph-free graph of *nodes*
(hosts and switches) connected by *links*.  Nodes carry a *role* string
that drives routing and probing decisions:

``host``
    An endpoint that sources/sinks flows and runs a telemetry agent.
``tor`` / ``leaf``
    Rack-level switches.  Every host attaches to exactly one of these.
``agg``
    Pod-level aggregation switches (3-tier Clos only).
``core`` / ``spine``
    Top-tier switches.  Active A1 probes are bounced off these.

Component id space
------------------
Fault localization treats links *and* devices as failable components in a
single integer id space (section 3.2 "Model extensions" of the paper):

* ids ``[0, n_links)`` are links;
* id ``n_links + node`` is the device component of ``node``.

Host devices get ids too (the arithmetic is simpler that way) but hosts
are never placed on a path's component list, so they can never be blamed.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TopologyError
from ..types import ComponentKind

HOST_ROLE = "host"
RACK_ROLES = frozenset({"tor", "leaf"})
AGG_ROLES = frozenset({"agg"})
CORE_ROLES = frozenset({"core", "spine"})
SWITCH_ROLES = RACK_ROLES | AGG_ROLES | CORE_ROLES

#: Tier used for up/down (valley-free) routing. Hosts are tier 0.
ROLE_TIERS = {
    "host": 0,
    "tor": 1,
    "leaf": 1,
    "agg": 2,
    "core": 3,
    "spine": 3,
}


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of int keys, by sort and boundary mask.

    numpy 2.x answers a bare ``np.unique`` from a hash table, which
    runs tens of times slower than a sort when most keys are distinct
    - as packed (owner, component) keys are (0.57 s against 0.012 s
    for 750K such keys on one core of a 2.1 GHz Xeon VM).
    """
    out = np.sort(keys)
    keep = np.empty(len(out), dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


class Topology:
    """An immutable datacenter topology.

    Parameters
    ----------
    names:
        Human-readable node names, indexed by node id.
    roles:
        Role string per node (see module docstring).
    links:
        Iterable of ``(u, v)`` node-id pairs.  Links are undirected and
        stored with ``u < v``; duplicates and self-loops are rejected.
    """

    def __init__(
        self,
        names: Sequence[str],
        roles: Sequence[str],
        links: Iterable[Tuple[int, int]],
    ) -> None:
        if len(names) != len(roles):
            raise TopologyError("names and roles must have the same length")
        for role in roles:
            if role != HOST_ROLE and role not in SWITCH_ROLES:
                raise TopologyError(f"unknown node role {role!r}")
        self._names: Tuple[str, ...] = tuple(names)
        self._roles: Tuple[str, ...] = tuple(roles)
        n = len(self._names)

        canonical: List[Tuple[int, int]] = []
        index: Dict[Tuple[int, int], int] = {}
        for u, v in links:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"link ({u}, {v}) references a missing node")
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in index:
                raise TopologyError(f"duplicate link {key}")
            index[key] = len(canonical)
            canonical.append(key)
        self._links: Tuple[Tuple[int, int], ...] = tuple(canonical)
        self._link_index = index
        # Packed ``min * n + max`` link keys, sorted, with the link id of
        # each: one searchsorted maps any batch of hops to link ids.
        packed = np.asarray(
            [u * n + v for u, v in canonical], dtype=np.int64
        )
        self._link_order = np.argsort(packed, kind="stable")
        self._link_keys = packed[self._link_order]

        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for lid, (u, v) in enumerate(self._links):
            adj[u].append((v, lid))
            adj[v].append((u, lid))
        self._adj: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(sorted(entries)) for entries in adj
        )

        self._hosts = tuple(i for i, r in enumerate(self._roles) if r == HOST_ROLE)
        self._switches = tuple(
            i for i, r in enumerate(self._roles) if r in SWITCH_ROLES
        )
        self._racks = tuple(i for i, r in enumerate(self._roles) if r in RACK_ROLES)
        self._aggs = tuple(i for i, r in enumerate(self._roles) if r in AGG_ROLES)
        self._cores = tuple(i for i, r in enumerate(self._roles) if r in CORE_ROLES)
        self._switch_mask = tuple(r in SWITCH_ROLES for r in self._roles)
        self._switch_arr = np.asarray(self._switch_mask, dtype=bool)

        rack_of: Dict[int, int] = {}
        for host in self._hosts:
            rack_neighbors = [
                nbr for nbr, _ in self._adj[host] if self._roles[nbr] in RACK_ROLES
            ]
            if len(rack_neighbors) != 1:
                raise TopologyError(
                    f"host {self._names[host]} must attach to exactly one "
                    f"rack switch, found {len(rack_neighbors)}"
                )
            rack_of[host] = rack_neighbors[0]
        self._rack_of = rack_of

        hosts_in_rack: Dict[int, List[int]] = {rack: [] for rack in self._racks}
        for host, rack in rack_of.items():
            hosts_in_rack[rack].append(host)
        self._hosts_in_rack = {
            rack: tuple(sorted(members)) for rack, members in hosts_in_rack.items()
        }

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._names)

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def n_components(self) -> int:
        """Size of the unified component id space (links + devices)."""
        return self.n_links + self.n_nodes

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def roles(self) -> Tuple[str, ...]:
        return self._roles

    @property
    def links(self) -> Tuple[Tuple[int, int], ...]:
        return self._links

    @property
    def hosts(self) -> Tuple[int, ...]:
        return self._hosts

    @property
    def switches(self) -> Tuple[int, ...]:
        return self._switches

    @property
    def racks(self) -> Tuple[int, ...]:
        """Rack-level switches (tor/leaf nodes)."""
        return self._racks

    @property
    def aggs(self) -> Tuple[int, ...]:
        return self._aggs

    @property
    def cores(self) -> Tuple[int, ...]:
        """Top-tier switches (core/spine nodes)."""
        return self._cores

    def role(self, node: int) -> str:
        return self._roles[node]

    def tier(self, node: int) -> int:
        return ROLE_TIERS[self._roles[node]]

    def name(self, node: int) -> str:
        return self._names[node]

    def neighbors(self, node: int) -> Tuple[Tuple[int, int], ...]:
        """Return ``(neighbor, link_id)`` pairs of ``node``."""
        return self._adj[node]

    def rack_of(self, host: int) -> int:
        """The rack switch a host attaches to."""
        try:
            return self._rack_of[host]
        except KeyError:
            raise TopologyError(f"node {host} is not a host") from None

    def hosts_in_rack(self, rack: int) -> Tuple[int, ...]:
        try:
            return self._hosts_in_rack[rack]
        except KeyError:
            raise TopologyError(f"node {rack} is not a rack switch") from None

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def link_id(self, u: int, v: int) -> int:
        """Link id for the (unordered) node pair ``(u, v)``."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._link_index[key]
        except KeyError:
            raise TopologyError(f"no link between {u} and {v}") from None

    def has_link(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._link_index

    def endpoints(self, link: int) -> Tuple[int, int]:
        try:
            return self._links[link]
        except IndexError:
            raise TopologyError(f"no link with id {link}") from None

    def device_links(self, node: int) -> Tuple[int, ...]:
        """Ids of all links incident to ``node``."""
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"no node with id {node}")
        return tuple(lid for _, lid in self._adj[node])

    def switch_switch_links(self) -> Tuple[int, ...]:
        """Ids of links whose endpoints are both switches."""
        return tuple(
            lid
            for lid, (u, v) in enumerate(self._links)
            if self._switch_mask[u] and self._switch_mask[v]
        )

    # ------------------------------------------------------------------
    # Component id space
    # ------------------------------------------------------------------
    def device_component(self, node: int) -> int:
        """Component id of the device at ``node``."""
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"no node with id {node}")
        return self.n_links + node

    def is_link_component(self, comp: int) -> bool:
        return 0 <= comp < self.n_links

    def is_device_component(self, comp: int) -> bool:
        return self.n_links <= comp < self.n_components

    def component_kind(self, comp: int) -> ComponentKind:
        if self.is_link_component(comp):
            return ComponentKind.LINK
        if self.is_device_component(comp):
            return ComponentKind.DEVICE
        raise TopologyError(f"component id {comp} is out of range")

    def component_name(self, comp: int) -> str:
        """Readable name: ``linkname`` for links, node name for devices."""
        if self.is_link_component(comp):
            u, v = self._links[comp]
            return f"{self._names[u]}<->{self._names[v]}"
        if self.is_device_component(comp):
            return self._names[comp - self.n_links]
        raise TopologyError(f"component id {comp} is out of range")

    def component_device(self, comp: int) -> int:
        """Node id of a device component."""
        if not self.is_device_component(comp):
            raise TopologyError(f"component id {comp} is not a device")
        return comp - self.n_links

    def path_components(
        self, nodes: Sequence[int], include_devices: bool = True
    ) -> Tuple[int, ...]:
        """Component ids (sorted, de-duplicated) along a node-sequence path.

        The one-row case of :meth:`paths_components`.
        """
        flat, _ = self.paths_components((nodes,), include_devices)
        return tuple(flat.tolist())

    def paths_components(
        self, paths: Sequence[Sequence[int]], include_devices: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Component ids along each node path, as a ``(values, offsets)`` CSR.

        Row ``i`` holds path ``i``'s link ids - plus, with
        ``include_devices``, the device components of its switch nodes
        (hosts never appear) - sorted and de-duplicated, so repeated
        traversals (probe bounce paths) collapse.  A single-node path
        has no links: it keeps only its device, if any.  A node id
        outside ``[0, n_nodes)`` raises :class:`TopologyError`.  The
        whole batch is one vectorized pass: consecutive hops map to link
        ids through one ``searchsorted`` over the packed link keys.
        """
        n_rows = len(paths)
        lens = np.fromiter(map(len, paths), dtype=np.int64, count=n_rows)
        nodes = np.fromiter(
            chain.from_iterable(paths), dtype=np.int64, count=int(lens.sum())
        )
        out_of_range = (nodes < 0) | (nodes >= self.n_nodes)
        if np.any(out_of_range):
            bad = int(nodes[np.argmax(out_of_range)])
            raise TopologyError(
                f"node id {bad} is out of range [0, {self.n_nodes})"
            )
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
        hop = rows[1:] == rows[:-1]
        u = nodes[:-1][hop]
        v = nodes[1:][hop]
        keys = np.minimum(u, v) * self.n_nodes + np.maximum(u, v)
        link_keys = self._link_keys
        pos = np.searchsorted(link_keys, keys)
        found = pos < len(link_keys)
        found[found] = link_keys[pos[found]] == keys[found]
        if not np.all(found):
            bad = int(np.argmin(found))
            raise TopologyError(f"no link between {int(u[bad])} and {int(v[bad])}")
        comps = self._link_order[pos]
        comp_rows = rows[1:][hop]
        if include_devices:
            switch = self._switch_arr[nodes]
            comps = np.concatenate((comps, self.n_links + nodes[switch]))
            comp_rows = np.concatenate((comp_rows, rows[switch]))
        n_comps = self.n_components
        packed = sorted_unique(comp_rows * n_comps + comps)
        off = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(packed // n_comps, minlength=n_rows), out=off[1:])
        return packed % n_comps, off

    # ------------------------------------------------------------------
    # Derived topologies and exports
    # ------------------------------------------------------------------
    def without_links(self, link_ids: Iterable[int]) -> "Topology":
        """A copy of this topology with the given links removed.

        Link ids are *not* stable across this operation (the survivors are
        renumbered densely); translate via node pairs when comparing.
        """
        doomed = set(link_ids)
        for lid in doomed:
            if not 0 <= lid < self.n_links:
                raise TopologyError(f"no link with id {lid}")
        surviving = [
            pair for lid, pair in enumerate(self._links) if lid not in doomed
        ]
        return Topology(self._names, self._roles, surviving)

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0."""
        if self.n_nodes == 0:
            return True
        seen = [False] * self.n_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            node = stack.pop()
            for nbr, _ in self._adj[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    count += 1
                    stack.append(nbr)
        return count == self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(nodes={self.n_nodes}, links={self.n_links}, "
            f"hosts={len(self._hosts)}, racks={len(self._racks)}, "
            f"cores={len(self._cores)})"
        )


class TopologyBuilder:
    """Incremental construction helper used by the generators."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._roles: List[str] = []
        self._links: List[Tuple[int, int]] = []
        self._by_name: Dict[str, int] = {}

    def add_node(self, name: str, role: str) -> int:
        if name in self._by_name:
            raise TopologyError(f"duplicate node name {name!r}")
        node = len(self._names)
        self._names.append(name)
        self._roles.append(role)
        self._by_name[name] = node
        return node

    def add_link(self, u: int, v: int) -> None:
        self._links.append((u, v))

    def node(self, name: str) -> int:
        return self._by_name[name]

    def build(self) -> Topology:
        return Topology(self._names, self._roles, self._links)
