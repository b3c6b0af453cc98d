"""Traffic matrices: which host pairs talk.

Section 6.3: "half the traces used uniform random traffic and the other
half used a skewed traffic pattern where 50% of the traffic is
concentrated among 5% of the racks, randomly chosen."
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ExperimentError, TrafficError
from ..topology.base import Topology

UNIFORM = "uniform"
SKEWED = "skewed"


class TrafficMatrix:
    """Base class: a sampler of (src_host, dst_host) pairs.

    Subclasses implement :meth:`sample_pair_arrays`, which returns the
    sources and destinations of ``n`` flows as two aligned arrays.
    """

    def sample_pair_arrays(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class UniformTraffic(TrafficMatrix):
    """Source and destination hosts chosen uniformly at random."""

    def __init__(self, topology: Topology) -> None:
        if len(topology.hosts) < 2:
            raise TrafficError("uniform traffic needs at least two hosts")
        self._hosts = np.asarray(topology.hosts, dtype=np.int64)

    def sample_pair_arrays(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        src = self._hosts[rng.integers(0, len(self._hosts), size=n)]
        dst = self._hosts[rng.integers(0, len(self._hosts), size=n)]
        clash = src == dst
        while np.any(clash):
            dst[clash] = self._hosts[rng.integers(0, len(self._hosts), size=int(clash.sum()))]
            clash = src == dst
        return src, dst


class SkewedTraffic(TrafficMatrix):
    """Rack-level hotspot traffic (paper's skewed pattern).

    With probability ``hot_traffic_fraction`` a flow has both endpoints
    among the hosts of the hot racks (``hot_rack_fraction`` of all racks,
    chosen once per matrix); otherwise both endpoints are uniform over
    all hosts.
    """

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        hot_rack_fraction: float = 0.05,
        hot_traffic_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < hot_rack_fraction <= 1.0:
            raise TrafficError("hot_rack_fraction must be in (0, 1]")
        if not 0.0 <= hot_traffic_fraction <= 1.0:
            raise TrafficError("hot_traffic_fraction must be in [0, 1]")
        if len(topology.hosts) < 2:
            raise TrafficError("skewed traffic needs at least two hosts")
        racks = list(topology.racks)
        n_hot = max(1, int(round(hot_rack_fraction * len(racks))))
        # At least two hot racks whenever possible, so hot flows can cross
        # the fabric rather than staying rack-local.
        n_hot = min(len(racks), max(n_hot, 2))
        hot_racks = rng.choice(len(racks), size=n_hot, replace=False)
        hot_hosts: List[int] = []
        for idx in hot_racks:
            hot_hosts.extend(topology.hosts_in_rack(racks[idx]))
        if len(hot_hosts) < 2:
            raise TrafficError("hot racks contain fewer than two hosts")
        self._hot_hosts = np.asarray(sorted(hot_hosts), dtype=np.int64)
        self._all_hosts = np.asarray(topology.hosts, dtype=np.int64)
        self._hot_fraction = hot_traffic_fraction
        self.hot_racks: Tuple[int, ...] = tuple(sorted(racks[i] for i in hot_racks))

    def sample_pair_arrays(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        hot = rng.random(n) < self._hot_fraction
        pool_sizes = np.where(hot, len(self._hot_hosts), len(self._all_hosts))
        src_idx = (rng.random(n) * pool_sizes).astype(np.int64)
        dst_idx = (rng.random(n) * pool_sizes).astype(np.int64)
        src = np.where(hot, self._hot_hosts[src_idx % len(self._hot_hosts)],
                       self._all_hosts[src_idx % len(self._all_hosts)])
        dst = np.where(hot, self._hot_hosts[dst_idx % len(self._hot_hosts)],
                       self._all_hosts[dst_idx % len(self._all_hosts)])
        clash = src == dst
        while np.any(clash):
            n_clash = int(clash.sum())
            redraw = (rng.random(n_clash) * pool_sizes[clash]).astype(np.int64)
            hot_clash = hot[clash]
            new_dst = np.where(
                hot_clash,
                self._hot_hosts[redraw % len(self._hot_hosts)],
                self._all_hosts[redraw % len(self._all_hosts)],
            )
            dst[clash] = new_dst
            clash = src == dst
        return src, dst


def make_matrix(
    topology: Topology, pattern: str, rng: np.random.Generator
) -> TrafficMatrix:
    """Build the paper's uniform or skewed traffic matrix."""
    if pattern == UNIFORM:
        return UniformTraffic(topology)
    if pattern == SKEWED:
        return SkewedTraffic(topology, rng)
    raise ExperimentError(f"unknown traffic pattern {pattern!r}")
