"""ECMP path enumeration over Clos-like fabrics.

The inference model (paper section 3.2) assumes "a flow F is routed via
ECMP; F takes one of w paths chosen uniformly at random".  This module
computes those path sets: all shortest paths between rack switches over
the switch-only subgraph, enumerated from a BFS predecessor DAG and
cached per rack pair (every host pair in the same rack pair shares the
same switch-level path set, so the cache is tiny relative to the number
of flows).

In a Clos, shortest paths are automatically valley-free (up/down), so no
separate valley-free filter is required; a ``max_paths`` guard protects
against pathological topologies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import RoutingError
from ..topology.base import Topology

NodePath = Tuple[int, ...]


class SwitchPaths:
    """Every shortest switch-only path between two switches, cached per
    switch pair.

    Shared by an :class:`EcmpRouting` and that routing's
    :class:`~repro.routing.paths.PathSpace`.  It refers to neither, so
    the routing and its space hold no reference cycle: they are freed as
    soon as the last trace holding them is, rather than at whatever
    later point a full garbage collection runs.
    """

    def __init__(self, topology: Topology, max_paths: int) -> None:
        self._topo = topology
        self._max_paths = max_paths
        self._cache: Dict[Tuple[int, int], Tuple[NodePath, ...]] = {}

    def __len__(self) -> int:
        """Switch pairs enumerated so far."""
        return len(self._cache)

    def get(self, src: int, dst: int) -> Tuple[NodePath, ...]:
        """All shortest switch-only paths from ``src`` to ``dst``.

        Paths include both endpoints.  ``get(a, a)`` is the trivial
        single-node path.
        """
        if src == dst:
            return ((src,),)
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        reverse = self._cache.get((dst, src))
        if reverse is not None:
            paths = tuple(tuple(reversed(p)) for p in reverse)
            self._cache[key] = paths
            return paths
        paths = self._all_shortest_paths(src, dst)
        self._cache[key] = paths
        return paths

    def _all_shortest_paths(self, src: int, dst: int) -> Tuple[NodePath, ...]:
        topo = self._topo
        dist = self._bfs_distances(dst)
        if dist.get(src) is None:
            raise RoutingError(
                f"no switch path from {topo.name(src)} to {topo.name(dst)}"
            )
        results: List[NodePath] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(src, (src,))]
        while stack:
            node, prefix = stack.pop()
            if node == dst:
                results.append(prefix)
                if len(results) > self._max_paths:
                    raise RoutingError(
                        f"more than {self._max_paths} equal-cost paths "
                        f"between {topo.name(src)} and {topo.name(dst)}"
                    )
                continue
            next_dist = dist[node] - 1
            for nbr, _ in topo.neighbors(node):
                if dist.get(nbr) == next_dist:
                    stack.append((nbr, prefix + (nbr,)))
        results.sort()
        return tuple(results)

    def _bfs_distances(self, target: int) -> Dict[int, int]:
        """Hop distance to ``target`` over the switch-only subgraph."""
        topo = self._topo
        dist: Dict[int, int] = {target: 0}
        frontier = [target]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nbr, _ in topo.neighbors(node):
                    if topo.role(nbr) == "host" or nbr in dist:
                        continue
                    dist[nbr] = dist[node] + 1
                    nxt.append(nbr)
            frontier = nxt
        return dist


class EcmpRouting:
    """Per-topology ECMP path provider with rack-pair caching.

    Parameters
    ----------
    topology:
        The fabric to route over.
    max_paths:
        Safety cap on the number of equal-cost paths enumerated per pair.
        Clos path-set sizes are small (k^2/4 in a fat-tree); hitting the
        cap raises, because silently truncating would bias inference.
    """

    def __init__(self, topology: Topology, max_paths: int = 4096) -> None:
        self._topo = topology
        self.switch_level = SwitchPaths(topology, max_paths)
        self._probe_cache: Dict[Tuple[int, int], Tuple[NodePath, ...]] = {}
        self._path_space = None

    @property
    def topology(self) -> Topology:
        return self._topo

    def path_space(self):
        """The shared :class:`~repro.routing.paths.PathSpace` of this
        routing instance.

        Lazily created, then reused by every trace built over this
        routing - path and path-set ids are assigned once per
        (topology, routing) pair and persist across traces, which is
        what makes the columnar pipeline's interning cost amortize to
        zero over an experiment's trace batch.
        """
        if self._path_space is None:
            from .paths import PathSpace

            self._path_space = PathSpace(self._topo, self)
        return self._path_space

    # ------------------------------------------------------------------
    # Switch-level path sets
    # ------------------------------------------------------------------
    def switch_paths(self, src: int, dst: int) -> Tuple[NodePath, ...]:
        """All shortest switch-only paths between two switches.

        Paths include both endpoints.  ``switch_paths(a, a)`` is the
        trivial single-node path.
        """
        return self.switch_level.get(src, dst)

    # ------------------------------------------------------------------
    # Host-level path sets
    # ------------------------------------------------------------------
    def host_paths(self, src_host: int, dst_host: int) -> Tuple[NodePath, ...]:
        """All ECMP paths between two hosts, endpoints included."""
        topo = self._topo
        if src_host == dst_host:
            raise RoutingError("src and dst hosts must differ")
        src_rack = topo.rack_of(src_host)
        dst_rack = topo.rack_of(dst_host)
        if src_rack == dst_rack:
            return ((src_host, src_rack, dst_host),)
        switch_level = self.switch_paths(src_rack, dst_rack)
        return tuple((src_host,) + middle + (dst_host,) for middle in switch_level)

    # ------------------------------------------------------------------
    # Probe paths (A1: host <-> core, NetBouncer-style)
    # ------------------------------------------------------------------
    def probe_paths(self, host: int, core: int) -> Tuple[NodePath, ...]:
        """All shortest paths from a host up to a core/spine switch.

        A1 probes are bounced off the core switch back to the sender
        (NetBouncer's IP-in-IP trick), so the probe traverses exactly
        these links - twice, which leaves the component set unchanged.
        """
        topo = self._topo
        rack = topo.rack_of(host)
        key = (rack, core)
        cached = self._probe_cache.get(key)
        if cached is None:
            cached = self.switch_paths(rack, core)
            self._probe_cache[key] = cached
        return tuple((host,) + middle for middle in cached)

    # ------------------------------------------------------------------
    # Cache statistics (useful when sizing experiments)
    # ------------------------------------------------------------------
    @property
    def cached_pairs(self) -> int:
        return len(self.switch_level)


def wcmp_weights(paths: Tuple[NodePath, ...], capacities=None) -> Tuple[float, ...]:
    """Per-path WCMP weights (paper: "Equation 1 can also be adapted to
    include path weights, like in WCMP [61]").

    With no capacity information, weights are uniform.  With a mapping
    from link id or node pair to capacity, each path is weighted by its
    bottleneck capacity and the result normalized to sum to 1.
    """
    if not paths:
        raise RoutingError("cannot weight an empty path set")
    if capacities is None:
        return tuple(1.0 / len(paths) for _ in paths)
    weights: List[float] = []
    for path in paths:
        bottleneck = float("inf")
        for edge in zip(path, path[1:]):
            cap = capacities.get(edge) or capacities.get((edge[1], edge[0]))
            if cap is None:
                raise RoutingError(f"missing capacity for edge {edge}")
            bottleneck = min(bottleneck, cap)
        weights.append(bottleneck)
    total = sum(weights)
    if total <= 0:
        raise RoutingError("total path capacity must be positive")
    return tuple(w / total for w in weights)
