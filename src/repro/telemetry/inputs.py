"""Construction of inference inputs from telemetry (paper section 6.2).

The four input types:

* **A1** - active host<->core probes with known paths (NetBouncer-style).
* **A2** - flows with >= 1 retransmission, with actively-traced exact
  paths (007-style).  Only flagged flows are reported.
* **P** - passive reports for all application flows; the path is
  unknown, only the ECMP path set is ("vendor-specific ECMP hashing
  obscures flows' exact paths").
* **INT** - passive coverage *with* exact paths for every flow.

Combinations compose by union with flagged-flow de-duplication: with
``A2+P`` a flagged flow appears once, with its exact path; its
unflagged peers appear with path sets.  ``INT`` supersedes ``P``/``A2``
for passive flows.

Per-flow vs per-packet analysis (paper section 3.2): the per-packet
analysis reports (retransmissions, packets sent); the per-flow analysis
reports a single bit - RTT above threshold - per flow, used for the
link-flap scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TelemetryError
from ..routing.ecmp import EcmpRouting
from ..routing.paths import PathSpace
from ..simulation.failures import PER_FLOW, PER_PACKET
from ..simulation.latency import RTT_BAD_THRESHOLD_MS
from ..topology.base import Topology
from ..types import FlowBatch, FlowObservation, TelemetryKind
from .records import FlowReport

_KIND_BY_NAME = {kind.value: kind for kind in TelemetryKind}

#: Integer codes for the columnar pipeline's ``kind`` column.
KIND_ORDER: Tuple[TelemetryKind, ...] = (
    TelemetryKind.A1, TelemetryKind.A2, TelemetryKind.PASSIVE, TelemetryKind.INT,
)
KIND_CODE: Dict[TelemetryKind, int] = {k: i for i, k in enumerate(KIND_ORDER)}


@dataclass(frozen=True)
class TelemetryConfig:
    """Which telemetry the inference input should contain, and how."""

    kinds: FrozenSet[TelemetryKind]
    include_devices: bool = True
    analysis: str = PER_PACKET
    rtt_threshold_ms: float = RTT_BAD_THRESHOLD_MS
    passive_sampling: float = 1.0

    def __post_init__(self) -> None:
        if not self.kinds:
            raise TelemetryError("telemetry config needs at least one input kind")
        if self.analysis not in (PER_PACKET, PER_FLOW):
            raise TelemetryError(f"unknown analysis mode {self.analysis!r}")
        if not 0.0 < self.passive_sampling <= 1.0:
            raise TelemetryError("passive_sampling must be in (0, 1]")

    @staticmethod
    def from_spec(spec: str, **kwargs) -> "TelemetryConfig":
        """Parse a paper-style spec like ``"A1+A2+P"`` or ``"INT"``."""
        kinds = set()
        for token in spec.split("+"):
            token = token.strip()
            if token not in _KIND_BY_NAME:
                raise TelemetryError(
                    f"unknown telemetry kind {token!r}; expected "
                    f"{sorted(_KIND_BY_NAME)}"
                )
            kinds.add(_KIND_BY_NAME[token])
        return TelemetryConfig(kinds=frozenset(kinds), **kwargs)

    @property
    def spec(self) -> str:
        order = [TelemetryKind.A1, TelemetryKind.A2, TelemetryKind.INT,
                 TelemetryKind.PASSIVE]
        return "+".join(k.value for k in order if k in self.kinds)


class PathMemo:
    """Memoizes component lookups for one (topology, routing) pair.

    Both lookup kinds are pure functions of the topology, so a memo can
    be shared across every collector-side build of the same fabric
    (:func:`build_observations_from_reports`): each report's exact path
    and ECMP set resolve to components once.
    """

    def __init__(self, topology: Topology, routing: EcmpRouting):
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


def _record_counts(
    record, analysis: str, rtt_threshold_ms: float, rtt_ms: float
) -> Tuple[int, int]:
    """(bad, sent) under the configured analysis mode."""
    if analysis == PER_PACKET:
        return record_bad(record), record_sent(record)
    return (1 if rtt_ms > rtt_threshold_ms else 0), 1


def record_bad(record) -> int:
    if isinstance(record, FlowReport):
        return record.retransmissions
    return record.bad_packets


def record_sent(record) -> int:
    return record.packets_sent


def build_observations_from_reports(
    reports: Sequence[FlowReport],
    topology: Topology,
    routing: EcmpRouting,
    config: TelemetryConfig,
    rng: Optional[np.random.Generator] = None,
    memo: Optional[PathMemo] = None,
) -> List[FlowObservation]:
    """Build inference observations from collector-side wire reports.

    Reports only carry a path when the agent traced one; a kind that
    needs exact paths (A1/A2/INT) skips pathless reports, and passive
    handling falls back to the ECMP path set for (src, dst).
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
    for report in reports:
        rtt_ms = report.rtt_us / 1000.0
        bad, sent = _record_counts(
            report, config.analysis, config.rtt_threshold_ms, rtt_ms
        )
        has_path = report.path is not None
        if report.is_probe:
            if not (want_a1 or want_int) or not has_path:
                continue
            comps = memo.exact(report.path, include_devices)
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
            comps = memo.exact(report.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,), packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.INT,
                )
            )
        elif want_a2 and flagged and has_path:
            comps = memo.exact(report.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,), packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.A2,
                )
            )
        elif want_p:
            if config.passive_sampling < 1.0 and rng.random() >= config.passive_sampling:
                continue
            path_set = memo.ecmp(report.src, report.dst, include_devices)
            observations.append(
                FlowObservation(
                    path_set=path_set, packets_sent=sent, bad_packets=bad,
                    kind=TelemetryKind.PASSIVE,
                )
            )
    return observations


# ----------------------------------------------------------------------
# Columnar pipeline
# ----------------------------------------------------------------------


@dataclass
class ObservationBatch:
    """Struct-of-arrays inference input: the columnar twin of a
    ``List[FlowObservation]``.

    ``path_set`` holds each observation's *component* path-set id
    (``gsid``) in ``space``; ``bad``/``sent`` the counts under the
    configured analysis mode; ``kind`` the :data:`KIND_ORDER` code.
    Rows preserve simulator record order, exactly like the object
    pipeline's observation list.
    """

    space: PathSpace
    path_set: np.ndarray
    bad: np.ndarray
    sent: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.path_set)


def build_observation_batch(
    batch: FlowBatch,
    config: TelemetryConfig,
    rng: Optional[np.random.Generator] = None,
) -> ObservationBatch:
    """Inference observations of a flow batch, as columns.

    The A1/A2/P/INT composition and flagged-flow de-duplication are
    boolean-mask algebra over the batch columns; path-component
    resolution is one memoized gather per distinct path (set) id.  Rows
    keep batch order, and passive sampling draws one uniform per row
    that reaches a sampling decision, in row order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = batch.space
    kinds = config.kinds
    want_a1 = TelemetryKind.A1 in kinds
    want_a2 = TelemetryKind.A2 in kinds
    want_p = TelemetryKind.PASSIVE in kinds
    want_int = TelemetryKind.INT in kinds
    include_devices = config.include_devices
    n = len(batch)

    if config.analysis == PER_PACKET:
        bad = batch.bad
        sent = batch.packets
    else:
        bad = (batch.rtt_ms > config.rtt_threshold_ms).astype(np.int64)
        sent = np.ones(n, dtype=np.int64)

    probe = batch.is_probe
    passive = ~probe
    flagged = bad >= 1

    keep = np.zeros(n, dtype=bool)
    kind_code = np.zeros(n, dtype=np.int64)
    exact = np.zeros(n, dtype=bool)

    if want_a1 or want_int:
        keep |= probe
        exact |= probe
        kind_code[probe] = KIND_CODE[TelemetryKind.A1]

    if want_int:
        keep |= passive
        exact |= passive
        kind_code[passive] = KIND_CODE[TelemetryKind.INT]
        sampled = passive
    else:
        a2_rows = passive & flagged if want_a2 else np.zeros(n, dtype=bool)
        p_rows = passive & ~a2_rows if want_p else np.zeros(n, dtype=bool)
        keep |= a2_rows | p_rows
        exact |= a2_rows
        kind_code[a2_rows] = KIND_CODE[TelemetryKind.A2]
        kind_code[p_rows] = KIND_CODE[TelemetryKind.PASSIVE]
        sampled = p_rows

    if config.passive_sampling < 1.0 and np.any(sampled):
        # One uniform per row that reaches a sampling decision, in row
        # order - the stream a per-record ``rng.random()`` loop would
        # consume.
        draws = rng.random(int(sampled.sum()))
        keep[sampled] &= draws < config.passive_sampling

    rows = np.nonzero(keep)[0]
    gsid = np.empty(len(rows), dtype=np.int64)
    exact_rows = exact[rows]
    if np.any(exact_rows):
        gsid[exact_rows] = space.exact_gsids(
            batch.chosen_path[rows[exact_rows]], include_devices
        )
    if not np.all(exact_rows):
        inexact = ~exact_rows
        gsid[inexact] = space.set_gsids(
            batch.path_set[rows[inexact]], include_devices
        )

    return ObservationBatch(
        space=space,
        path_set=gsid,
        bad=bad[rows],
        sent=sent[rows],
        kind=kind_code[rows],
    )
