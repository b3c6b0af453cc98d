"""Active probe plans (A1).

A1 (section 6.2): "Active probes between end-hosts and the core switches
with known paths, as designed for NetBouncer."  Each probe targets one
core switch via one specific up-path (probes pin their path, so the
observation is exact), and the plan cycles hosts x cores x ECMP choices
so that every link receives probe coverage - NetBouncer's "probes
uniformly from hosts to core switches".

A2 flagging (007-style) happens after simulation, in
:mod:`repro.telemetry.inputs`, because it depends on which passive flows
saw retransmissions.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrafficError
from ..routing.ecmp import EcmpRouting
from ..routing.paths import PathSpace
from ..topology.base import Topology
from .flows import SpecBatch

#: Packets per probe report; the paper probes at "40 packets per second"
#: per probe flow.
PROBE_PACKETS = 40


def a1_probe_batch(
    topology: Topology,
    routing: EcmpRouting,
    n_probes: int,
    rng: np.random.Generator,
    space: PathSpace,
) -> SpecBatch:
    """Generate ``n_probes`` host->core probe flows with pinned paths.

    The plan enumerates every (host, core) pair round-robin, shuffled
    once so truncated plans still cover the fabric evenly, and rotates
    through each pair's ECMP up-paths deterministically.  Each probe
    sends :data:`PROBE_PACKETS` packets.  The round-robin arithmetic is
    closed-form - probe ``i`` uses pair ``order[i % P]`` on ECMP
    rotation turn ``i // P`` - so the plan vectorizes: pinned paths are
    interned once per distinct (pair, rotation) combination instead of
    per probe.
    """
    if n_probes < 0:
        raise TrafficError("n_probes must be non-negative")
    hosts = list(topology.hosts)
    cores = list(topology.cores)
    if not hosts or not cores:
        raise TrafficError("A1 probing needs at least one host and one core")
    if n_probes == 0:
        return SpecBatch.empty(space)

    pairs = [(h, c) for h in hosts for c in cores]
    order = rng.permutation(len(pairs))
    idx = np.arange(n_probes, dtype=np.int64)
    pair_idx = order[idx % len(pairs)]
    turn = idx // len(pairs)

    # Enumerate ECMP fan-outs only for pairs the plan actually hits
    # (a short plan on a large fabric touches few); unused entries
    # stay 1 and are never indexed.
    n_paths = np.ones(len(pairs), dtype=np.int64)
    for i in np.unique(pair_idx).tolist():
        n_paths[i] = len(routing.probe_paths(*pairs[i]))
    choice = turn % n_paths[pair_idx]
    combo = pair_idx * np.int64(int(n_paths.max())) + choice
    uniq, inverse = np.unique(combo, return_inverse=True)
    width = int(n_paths.max())

    def pinned_sid(key: int) -> int:
        host, core = pairs[key // width]
        return space.intern_set((routing.probe_paths(host, core)[key % width],))

    sids = np.fromiter(
        (pinned_sid(int(key)) for key in uniq), dtype=np.int64, count=len(uniq)
    )
    pairs_arr = np.asarray(pairs, dtype=np.int64)
    return SpecBatch(
        space=space,
        src=pairs_arr[pair_idx, 0],
        dst=pairs_arr[pair_idx, 1],
        packets=np.full(n_probes, PROBE_PACKETS, dtype=np.int64),
        path_set=sids[inverse],
        is_probe=np.ones(n_probes, dtype=bool),
    )
