"""The object telemetry pipeline: flows -> ``FlowObservation`` lists.

:func:`repro.telemetry.inputs.build_observation_batch` builds the
columnar twin of these lists from a ``FlowBatch`` - a trace's own, or
one :func:`repro.telemetry.inputs.batch_from_reports` made from wire
reports.  The per-flow loop here is the literal reading of the paper's
input rules (section 6.2) over either kind of flow, kept so tests can
pin the columnar build - and every problem and prediction built from
it - to it bit for bit.

:class:`FlowRecord` is the per-flow object view of a ``FlowBatch`` row
(:func:`records_of`), so tests can check columnar code against plain
per-record loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulation.failures import PER_PACKET
from repro.telemetry import FlowReport
from repro.telemetry.inputs import KIND_ORDER, ObservationBatch, TelemetryConfig
from repro.types import FlowBatch, FlowObservation, TelemetryKind


@dataclass(frozen=True)
class FlowRecord:
    """One simulated flow with its exact node path (endpoints included);
    ``packets_sent`` and ``bad_packets`` are ``t`` and ``r`` of the
    paper's Eq. 1."""

    src: int
    dst: int
    packets_sent: int
    bad_packets: int
    path: Tuple[int, ...]
    rtt_ms: float = 0.0
    is_probe: bool = False


def records_of(batch: FlowBatch) -> List[FlowRecord]:
    """The batch's rows as records; every row must know its path."""
    assert not np.any(batch.chosen_path < 0), "a row has no known path"
    path_nodes = batch.space.path_nodes
    return [
        FlowRecord(
            src=src, dst=dst, packets_sent=sent, bad_packets=bad,
            path=path_nodes(pid), rtt_ms=rtt, is_probe=probe,
        )
        for src, dst, sent, bad, rtt, probe, pid in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.packets.tolist(),
            batch.bad.tolist(), batch.rtt_ms.tolist(),
            batch.is_probe.tolist(), batch.chosen_path.tolist(),
        )
    ]


class PathMemo:
    """Memoizes component lookups for one (topology, routing) pair:
    each exact node path and each host pair's ECMP set resolves to
    components once."""

    def __init__(self, topology, routing):
        self._topo = topology
        self._routing = routing
        self._exact: Dict[Tuple, Tuple[int, ...]] = {}
        self._ecmp: Dict[Tuple, Tuple[Tuple[int, ...], ...]] = {}

    def exact(self, path, include_devices: bool) -> Tuple[int, ...]:
        """Components of one known node path."""
        key = (path, include_devices)
        cached = self._exact.get(key)
        if cached is None:
            cached = self._topo.path_components(path, include_devices)
            self._exact[key] = cached
        return cached

    def ecmp(
        self, src: int, dst: int, include_devices: bool
    ) -> Tuple[Tuple[int, ...], ...]:
        """Component path *set* for a passive flow's (src, dst)."""
        key = (src, dst, include_devices)
        cached = self._ecmp.get(key)
        if cached is None:
            node_paths = self._routing.host_paths(src, dst)
            cached = tuple(
                self.exact(p, include_devices) for p in node_paths
            )
            self._ecmp[key] = cached
        return cached


def _bad_and_rtt(flow: Union[FlowRecord, FlowReport]) -> Tuple[int, float]:
    """(bad packets, RTT in ms) as each flow type carries them."""
    if isinstance(flow, FlowReport):
        return flow.retransmissions, flow.rtt_us / 1000.0
    return flow.bad_packets, flow.rtt_ms


def build_observations(
    flows: Sequence[Union[FlowRecord, FlowReport]],
    topology,
    routing,
    config: TelemetryConfig,
    rng: Optional[np.random.Generator] = None,
    memo: Optional[PathMemo] = None,
) -> List[FlowObservation]:
    """Build inference observations from simulator records or wire
    reports.

    A record always knows its exact path; a report carries one only
    when its agent traced the flow.  A kind that needs exact paths
    (A1/A2/INT) skips pathless flows, and passive handling falls back
    to the ECMP path set for (src, dst).  ``memo`` shares path lookups
    across builds over the same fabric.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    kinds = config.kinds
    want_a1 = TelemetryKind.A1 in kinds
    want_a2 = TelemetryKind.A2 in kinds
    want_p = TelemetryKind.PASSIVE in kinds
    want_int = TelemetryKind.INT in kinds
    if memo is None:
        memo = PathMemo(topology, routing)
    include_devices = config.include_devices

    observations: List[FlowObservation] = []
    for flow in flows:
        bad, rtt_ms = _bad_and_rtt(flow)
        if config.analysis == PER_PACKET:
            sent = flow.packets_sent
        else:
            bad, sent = (1 if rtt_ms > config.rtt_threshold_ms else 0), 1
        has_path = flow.path is not None
        if flow.is_probe:
            if not (want_a1 or want_int) or not has_path:
                continue
            comps = memo.exact(flow.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,), packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.A1,
                )
            )
            continue

        flagged = bad >= 1
        if want_int and has_path:
            if config.passive_sampling < 1.0 and rng.random() >= config.passive_sampling:
                continue
            comps = memo.exact(flow.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,), packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.INT,
                )
            )
        elif want_a2 and flagged and has_path:
            comps = memo.exact(flow.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,), packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.A2,
                )
            )
        elif want_p:
            if config.passive_sampling < 1.0 and rng.random() >= config.passive_sampling:
                continue
            path_set = memo.ecmp(flow.src, flow.dst, include_devices)
            observations.append(
                FlowObservation(
                    path_set=path_set, packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.PASSIVE,
                )
            )
    return observations


def batch_observations(batch: ObservationBatch) -> List[FlowObservation]:
    """Object observations of a columnar batch's rows, every set
    expanded to its full member projections."""
    space = batch.space
    out: List[FlowObservation] = []
    for gsid, bad, sent, code in zip(
        batch.path_set.tolist(), batch.bad.tolist(), batch.sent.tolist(),
        batch.kind.tolist(),
    ):
        gids = space.comp_set(gsid)
        out.append(
            FlowObservation(
                path_set=tuple(space.comp_path(int(g)) for g in gids),
                packets_sent=sent,
                bad_packets=bad,
                kind=KIND_ORDER[code],
            )
        )
    return out
