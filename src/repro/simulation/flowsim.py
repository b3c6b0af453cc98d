"""Flow-level network simulator.

This is the paper's scaling simulator, built as a first-class substrate:
"NS3 was too slow for large scale simulations.  Hence, we use a flow
level simulator (similar to [11]), that drops each packet as per preset
drop probabilities on links but does not model queuing or TCP."
(section 6.3)

For every flow spec the simulator picks one actual path uniformly from
the ECMP set (the routing model of Eq. 1), computes the path's drop
probability from the per-link plan, draws the number of bad packets from
a binomial, and (when a latency model is present) samples an RTT.  Every
draw is whole-batch - one uniform array for the ECMP choices, one
binomial call for the drops - so the stream a seed produces does not
depend on how flows group by path set.

:func:`simulate_traffic` is the one generation step every trace and
stream chunk takes: passive flows, then A1 probes, then
:func:`simulate_batch`.  The simulator's unit of work is a columnar
:class:`~repro.traffic.flows.SpecBatch` whose path sets arrive interned;
set metadata is gathered per distinct set id, per-path drop
probabilities are computed once per injection by interned path id, and
the result is a struct-of-arrays :class:`~repro.types.FlowBatch` - no
per-record Python anywhere on the hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..routing.ecmp import EcmpRouting
from ..routing.paths import PathSpace, first_seen_ids
from ..topology.base import Topology
from ..traffic.flows import SpecBatch, generate_passive_flow_batch
from ..traffic.matrix import TrafficMatrix
from ..traffic.probes import a1_probe_batch
from ..types import FlowBatch, FlowRecord
from .failures import Injection


def simulate_traffic(
    routing: EcmpRouting,
    matrix: Optional[TrafficMatrix],
    injection: Injection,
    rng: np.random.Generator,
    n_passive: int,
    n_probes: int,
) -> FlowBatch:
    """Generate ``n_passive`` flows from ``matrix``, then ``n_probes``
    A1 probes, and simulate them all under ``injection``.

    The RNG draws run in that order on one stream.  ``matrix`` may be
    ``None`` when ``n_passive`` is 0.
    """
    space = routing.path_space()
    batches: List[SpecBatch] = []
    if n_passive > 0:
        batches.append(
            generate_passive_flow_batch(routing, matrix, n_passive, rng, space)
        )
    if n_probes > 0:
        batches.append(
            a1_probe_batch(routing.topology, routing, n_probes, rng, space)
        )
    specs = SpecBatch.concat(batches) if batches else SpecBatch.empty(space)
    return simulate_batch(specs, injection, rng)


def simulate_batch(
    specs: SpecBatch,
    injection: Injection,
    rng: np.random.Generator,
) -> FlowBatch:
    """Simulate a columnar spec batch and return a columnar trace.

    All randomness is drawn whole-batch: one uniform array prices
    every flow's ECMP choice and one binomial call prices every
    flow's drops.  Path drop probabilities are computed once per
    distinct path id per injection, and group metadata is a gather
    over the space's set columns.  The only per-group Python loop
    left materializes the chosen member paths of factored sets,
    after every draw is made.
    """
    space = specs.space
    rates = injection.plan.rates
    n = len(specs)
    packets = specs.packets
    bad = np.zeros(n, dtype=np.int64)
    chosen = np.zeros(n, dtype=np.int64)

    if n:
        surv_by_pid = _path_survivals(space, injection.plan)
        sids, gids = first_seen_ids(specs.path_set)
        n_groups = len(sids)
        sid_list = sids.tolist()
        sizes = space.set_sizes(sids)
        switch_sid, src_link, dst_link = space.pair_set_columns(sids)
        factored = switch_sid >= 0

        # One uniform per flow prices its ECMP choice: floor(u * k)
        # is uniform over [0, k) (clipped against the u == 1.0
        # corner).
        k = sizes[gids]
        choice = np.minimum((rng.random(n) * k).astype(np.int64), k - 1)
        p = np.empty(n)
        fac_f = factored[gids]
        if np.any(fac_f):
            # Factored flows: the chosen *middle* segment prices the
            # drop; a CSR over the few unique switch sids gathers it.
            usw = np.unique(switch_sid[factored])
            sw_lists = [space.set_path_ids(int(s)) for s in usw]
            sw_off = np.zeros(len(usw) + 1, dtype=np.int64)
            np.cumsum([len(a) for a in sw_lists], out=sw_off[1:])
            sw_flat = np.concatenate(sw_lists)
            sw_rank = np.searchsorted(usw, switch_sid)
            fg = gids[fac_f]
            mid = sw_flat[sw_off[sw_rank[fg]] + choice[fac_f]]
            p[fac_f] = 1.0 - (
                (1.0 - rates[src_link[fg]])
                * surv_by_pid[mid]
                * (1.0 - rates[dst_link[fg]])
            )
        plain_f = ~fac_f
        if np.any(plain_f):
            plain_groups = np.nonzero(~factored)[0]
            pl_lists = [
                space.set_path_ids(sid_list[g]) for g in plain_groups
            ]
            pl_off = np.zeros(len(pl_lists) + 1, dtype=np.int64)
            np.cumsum([len(a) for a in pl_lists], out=pl_off[1:])
            pl_flat = np.concatenate(pl_lists)
            pl_rank = np.cumsum(~factored) - 1
            pid_plain = pl_flat[
                pl_off[pl_rank[gids[plain_f]]] + choice[plain_f]
            ]
            p[plain_f] = 1.0 - surv_by_pid[pid_plain]
            chosen[plain_f] = pid_plain

        bad = rng.binomial(packets, p).astype(np.int64)

        if np.any(fac_f):
            # Factored chosen paths still intern lazily per group,
            # but with every draw already made above.
            order = np.argsort(gids, kind="stable")
            counts = np.bincount(gids, minlength=n_groups)
            offsets = np.zeros(n_groups + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            for g in np.nonzero(factored)[0].tolist():
                idx = order[offsets[g]:offsets[g + 1]]
                chosen[idx] = space.member_pids(sid_list[g], choice[idx])

    if injection.latency_model is not None:
        crosses = space.paths_cross_links(chosen, injection.flapped_links)
        rtts = injection.latency_model.sample_rtts_masked(crosses, rng)
    else:
        rtts = np.zeros(n)

    return FlowBatch(
        space=space,
        src=specs.src,
        dst=specs.dst,
        packets=packets,
        bad=bad,
        rtt_ms=rtts,
        is_probe=specs.is_probe,
        path_set=specs.path_set,
        chosen_path=chosen,
    )


def _path_survivals(space: PathSpace, plan) -> np.ndarray:
    """Survival probability of every interned path, one vectorized pass.

    ``np.multiply.reduceat`` folds each CSR segment left to right, so
    ``1 - survival`` is bit-identical to the scalar
    :meth:`~repro.simulation.droprate.DropRatePlan.path_drop_probability`
    loop over the same hop order.  Hop-less paths survive with
    probability exactly 1.
    """
    flat_links, link_off = space.link_csr()
    n_paths = len(link_off) - 1
    surv = np.ones(n_paths)
    if n_paths == 0 or len(flat_links) == 0:
        return surv
    seg = 1.0 - plan.rates[flat_links]
    # Fold only non-empty segments: their starts are strictly
    # increasing and in bounds, and skipped (hop-less) paths occupy
    # zero width between them, so each fold covers exactly one path's
    # hops.
    nonempty = np.diff(link_off) > 0
    if np.any(nonempty):
        surv[nonempty] = np.multiply.reduceat(seg, link_off[:-1][nonempty])
    return surv


def empirical_link_loss(
    topology: Topology, records: Sequence[FlowRecord]
) -> Dict[int, Tuple[int, int]]:
    """Aggregate (bad, total) packets per link from ground-truth paths.

    A simulator-fidelity diagnostic: with many flows, a link's empirical
    loss share converges toward its planned drop rate.  Without
    per-packet data a flow's bad packets cannot be attributed to the
    link that dropped them, so this attributes all of a flow's packets,
    good and bad, to every link on its path (the standard tomography
    load matrix).
    """
    totals: Dict[int, Tuple[int, int]] = {}
    for record in records:
        for u, v in zip(record.path, record.path[1:]):
            link = topology.link_id(u, v)
            bad, total = totals.get(link, (0, 0))
            totals[link] = (bad + record.bad_packets, total + record.packets_sent)
    return totals
