"""Construction of inference inputs from telemetry (paper section 6.2).

Every input goes through one pipeline: a :class:`~repro.types.FlowBatch`
(a simulated trace's own batch, a loaded dataset, or collector wire
reports via :func:`batch_from_reports`) -> :func:`build_observation_batch`
-> :meth:`repro.core.problem.InferenceProblem.from_batch`.

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
for passive flows.  A1, A2 and INT need a flow's exact path, so a wire
report whose agent did not trace the flow reaches the input only as a
passive ``P`` row, with its host pair's ECMP path set.

Per-flow vs per-packet analysis (paper section 3.2): the per-packet
analysis reports (retransmissions, packets sent); the per-flow analysis
reports a single bit - RTT above threshold - per flow, used for the
link-flap scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError, TelemetryError, TopologyError
from ..routing.paths import PathSpace
from ..simulation.failures import PER_FLOW, PER_PACKET
from ..simulation.latency import RTT_BAD_THRESHOLD_MS
from ..types import FlowBatch, TelemetryKind
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


# ----------------------------------------------------------------------
# Columnar pipeline
# ----------------------------------------------------------------------


def batch_from_reports(
    reports: Sequence[FlowReport], space: PathSpace
) -> FlowBatch:
    """Collector wire reports as a flow batch over ``space``.

    Columns are read as the paper's collector reads a report: ``bad``
    is its retransmission count and ``rtt_ms`` is ``rtt_us / 1000``.
    A report without a traced path gets ``chosen_path`` -1.  Reports
    are outside input, so they are checked before anything is interned
    in the shared space: a traced path must be a walk over the
    topology's links (:class:`TopologyError`), and a passive report
    must run between two distinct hosts (:class:`RoutingError`).
    """
    topology = space.topology
    n_nodes = topology.n_nodes
    n = len(reports)
    paths = [report.path for report in reports]
    _check_walks({p for p in paths if p is not None}, topology)
    src = np.fromiter((r.src for r in reports), dtype=np.int64, count=n)
    dst = np.fromiter((r.dst for r in reports), dtype=np.int64, count=n)
    is_probe = np.fromiter((r.is_probe for r in reports), dtype=bool, count=n)
    is_host = np.zeros(n_nodes + 1, dtype=bool)
    is_host[list(topology.hosts)] = True
    # Out-of-range ids read the trailing non-host entry.
    src_host = is_host[np.minimum(src, n_nodes)]
    dst_host = is_host[np.minimum(dst, n_nodes)]
    bad_pair = ~is_probe & ~(src_host & dst_host & (src != dst))
    if np.any(bad_pair):
        row = int(np.argmax(bad_pair))
        raise RoutingError(
            f"report {row}: a passive flow runs between two distinct "
            f"hosts, got src {int(src[row])} and dst {int(dst[row])}"
        )
    return FlowBatch.from_flows(
        space,
        src=src,
        dst=dst,
        packets=[r.packets_sent for r in reports],
        bad=[r.retransmissions for r in reports],
        rtt_ms=[r.rtt_us / 1000.0 for r in reports],
        is_probe=is_probe,
        paths=paths,
    )


def _check_walks(paths, topology) -> None:
    """Raise :class:`TopologyError` unless every node path is a walk
    over ``topology``'s links."""
    n_nodes = topology.n_nodes
    for path in paths:
        for node in path:
            if not 0 <= node < n_nodes:
                raise TopologyError(f"path {path}: no node with id {node}")
        for u, v in zip(path, path[1:]):
            if not topology.has_link(u, v):
                raise TopologyError(f"path {path}: no link between {u} and {v}")


@dataclass
class ObservationBatch:
    """Struct-of-arrays inference input: the columnar twin of a
    ``List[FlowObservation]``.

    ``path_set`` holds each observation's *component* path-set id
    (``gsid``) in ``space``; ``bad``/``sent`` the counts under the
    configured analysis mode; ``kind`` the :data:`KIND_ORDER` code.
    Rows keep flow-batch order.
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
    boolean-mask algebra over the batch columns.  With ``traced`` the
    rows whose path is known (``chosen_path >= 0``):

    * A1 = probe & traced (with A1 or INT configured);
    * INT = passive & traced;
    * A2 = passive & traced & flagged & ~INT;
    * P = passive & ~INT & ~A2.

    A simulated batch is traced throughout.  Path-component resolution
    is one memoized gather per distinct path (set) id.  Rows keep batch
    order, and passive sampling draws one uniform per INT or P row, in
    row order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = batch.space
    kinds = config.kinds
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
    traced = batch.chosen_path >= 0
    none = np.zeros(n, dtype=bool)
    a1_rows = (
        probe & traced
        if kinds & {TelemetryKind.A1, TelemetryKind.INT} else none
    )
    int_rows = passive & traced if TelemetryKind.INT in kinds else none
    a2_rows = (
        passive & traced & (bad >= 1) & ~int_rows
        if TelemetryKind.A2 in kinds else none
    )
    p_rows = (
        passive & ~int_rows & ~a2_rows
        if TelemetryKind.PASSIVE in kinds else none
    )
    sampled = int_rows | p_rows
    keep = a1_rows | a2_rows | sampled
    if config.passive_sampling < 1.0 and np.any(sampled):
        # One uniform per row that reaches a sampling decision, in row
        # order - the stream a per-record ``rng.random()`` loop would
        # consume.
        draws = rng.random(int(sampled.sum()))
        keep[sampled] &= draws < config.passive_sampling

    kind_code = np.zeros(n, dtype=np.int64)
    for mask, kind in (
        (a1_rows, TelemetryKind.A1), (int_rows, TelemetryKind.INT),
        (a2_rows, TelemetryKind.A2), (p_rows, TelemetryKind.PASSIVE),
    ):
        kind_code[mask] = KIND_CODE[kind]

    rows = np.nonzero(keep)[0]
    gsid = np.empty(len(rows), dtype=np.int64)
    inexact = p_rows[rows]
    exact_rows = ~inexact
    if np.any(exact_rows):
        gsid[exact_rows] = space.exact_gsids(
            batch.chosen_path[rows[exact_rows]], include_devices
        )
    if np.any(inexact):
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
