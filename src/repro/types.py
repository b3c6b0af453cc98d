"""Shared value types used across the Flock reproduction.

The types here are the "wire" vocabulary of the system: what the simulator
emits, what the telemetry agents report, and what the inference schemes
predict.  Flows have one representation, the columnar :class:`FlowBatch`:
the simulator, the agent, the collector's report path and the dataset
codec all read and write its columns.  Algorithm-internal structures
(e.g. the interned path tables used by inference) live next to the
algorithms that own them.

Component identifiers
---------------------
All fault-localization schemes operate over *components*: links and devices.
A component id is a plain ``int`` in a unified id space defined by the
topology: ids ``[0, n_links)`` are links, and id ``n_links + node`` is the
device component of node ``node``.  See
:meth:`repro.topology.base.Topology.device_component`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .routing.paths import PathSpace


class ComponentKind(enum.Enum):
    """Kind of a failable network component."""

    LINK = "link"
    DEVICE = "device"


class TelemetryKind(enum.Enum):
    """The four input-telemetry types from the paper (section 6.2).

    * ``A1`` - active probes between hosts and core switches, exact paths
      known (NetBouncer-style probing plan).
    * ``A2`` - reports about flows with at least one retransmission, with
      actively-traced exact paths (007-style).
    * ``PASSIVE`` - passive reports for all application flows; only the set
      of possible ECMP paths is known.
    * ``INT`` - in-band network telemetry: passive coverage with exact
      paths for every reported flow.
    """

    A1 = "A1"
    A2 = "A2"
    PASSIVE = "P"
    INT = "INT"


@dataclass
class FlowBatch:
    """Struct-of-arrays trace: one aligned numpy column per flow field.

    This is the one flow representation: the simulator emits it, the
    agent exports its rows, telemetry construction reads it, and the
    dataset codec saves and loads it.  ``packets`` and ``bad`` are a
    flow's sent and bad packets (``t`` and ``r`` in the paper's Eq. 1)
    and ``rtt_ms`` its mean round-trip time.  Paths are interned: ``path_set``
    holds each flow's ECMP candidate-set id and ``chosen_path`` the
    node-path id the simulator picked, both resolved against ``space``
    (:class:`~repro.routing.paths.PathSpace`).  ``chosen_path`` is -1
    where the path is unknown: a wire report from an agent that did
    not trace the flow (:func:`repro.telemetry.inputs.batch_from_reports`);
    such a probe's ``path_set`` is -1 too.  Consumers that need every
    row's exact path (the agent, the dataset serializer) refuse such a
    batch.

    Streaming chunks carry an optional ``t_start`` column (per-flow
    arrival time in seconds); batch producers leave it ``None``.
    Chunks over the same :class:`PathSpace` concatenate with
    :meth:`concat` and split with :meth:`slice` - interned ids stay
    valid because the space is shared, never copied.
    """

    space: "PathSpace"
    src: np.ndarray
    dst: np.ndarray
    packets: np.ndarray
    bad: np.ndarray
    rtt_ms: np.ndarray
    is_probe: np.ndarray
    path_set: np.ndarray
    chosen_path: np.ndarray
    t_start: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.src)
        for name in ("dst", "packets", "bad", "rtt_ms", "is_probe",
                     "path_set", "chosen_path"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} is not aligned ({n} flows)")
        if self.t_start is not None and len(self.t_start) != n:
            raise ValueError(f"column 't_start' is not aligned ({n} flows)")

    def __len__(self) -> int:
        return len(self.src)

    @property
    def n_flows(self) -> int:
        return len(self.src)

    @staticmethod
    def concat(batches: Sequence["FlowBatch"]) -> "FlowBatch":
        """Concatenate chunks over one shared :class:`PathSpace`.

        Either every chunk carries ``t_start`` or none does - a mixed
        concatenation would silently fabricate or drop arrival times.
        """
        if not batches:
            raise ValueError("cannot concatenate zero flow batches")
        space = batches[0].space
        for other in batches[1:]:
            if other.space is not space:
                raise ValueError(
                    "flow batches must share one PathSpace to concatenate"
                )
        timed = [b.t_start is not None for b in batches]
        if any(timed) and not all(timed):
            raise ValueError(
                "cannot concatenate timestamped and untimestamped batches"
            )
        return FlowBatch(
            space=space,
            src=np.concatenate([b.src for b in batches]),
            dst=np.concatenate([b.dst for b in batches]),
            packets=np.concatenate([b.packets for b in batches]),
            bad=np.concatenate([b.bad for b in batches]),
            rtt_ms=np.concatenate([b.rtt_ms for b in batches]),
            is_probe=np.concatenate([b.is_probe for b in batches]),
            path_set=np.concatenate([b.path_set for b in batches]),
            chosen_path=np.concatenate([b.chosen_path for b in batches]),
            t_start=(
                np.concatenate([b.t_start for b in batches])
                if all(timed) else None
            ),
        )

    def slice(self, start: int, stop: int) -> "FlowBatch":
        """A contiguous sub-chunk ``[start:stop)`` sharing this batch's
        space (columns are numpy views, not copies)."""
        return FlowBatch(
            space=self.space,
            src=self.src[start:stop],
            dst=self.dst[start:stop],
            packets=self.packets[start:stop],
            bad=self.bad[start:stop],
            rtt_ms=self.rtt_ms[start:stop],
            is_probe=self.is_probe[start:stop],
            path_set=self.path_set[start:stop],
            chosen_path=self.chosen_path[start:stop],
            t_start=(
                None if self.t_start is None else self.t_start[start:stop]
            ),
        )

    def with_t_start(self, t_start: np.ndarray) -> "FlowBatch":
        """A copy of this batch with the arrival-time column attached."""
        return FlowBatch(
            space=self.space, src=self.src, dst=self.dst,
            packets=self.packets, bad=self.bad, rtt_ms=self.rtt_ms,
            is_probe=self.is_probe, path_set=self.path_set,
            chosen_path=self.chosen_path,
            t_start=np.asarray(t_start, dtype=np.float64),
        )

    @staticmethod
    def from_flows(
        space: "PathSpace",
        src: Sequence[int],
        dst: Sequence[int],
        packets: Sequence[int],
        bad: Sequence[int],
        rtt_ms: Sequence[float],
        is_probe: Sequence[bool],
        paths: Sequence[Optional[Tuple[int, ...]]],
    ) -> "FlowBatch":
        """Columnarize per-flow fields; ``paths[i]`` is flow ``i``'s
        node path, or ``None`` where it is unknown (``chosen_path``
        -1).

        Path sets are the ones the simulator's batch holds: a probe's
        is its own path alone (-1 when it has none), a passive flow's
        is its host pair's ECMP set (:meth:`PathSpace.pair_sets`), so
        passive telemetry over the result sees the same candidate sets.
        Callers check that the paths are walks over links and that
        passive endpoints are distinct hosts.
        """
        n = len(paths)
        intern = space.intern_path
        chosen = np.fromiter(
            (-1 if p is None else intern(p) for p in paths),
            dtype=np.int64, count=n,
        )
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        is_probe = np.asarray(is_probe, dtype=bool)
        path_set = np.full(n, -1, dtype=np.int64)
        path_set[~is_probe] = space.pair_sets(src[~is_probe], dst[~is_probe])
        traced_probes = np.flatnonzero(is_probe & (chosen >= 0))
        path_set[traced_probes] = [
            space.intern_set((paths[i],)) for i in traced_probes.tolist()
        ]
        return FlowBatch(
            space=space,
            src=src,
            dst=dst,
            packets=np.asarray(packets, dtype=np.int64),
            bad=np.asarray(bad, dtype=np.int64),
            rtt_ms=np.asarray(rtt_ms, dtype=np.float64),
            is_probe=is_probe,
            path_set=path_set,
            chosen_path=chosen,
        )


@dataclass(frozen=True)
class FlowObservation:
    """One flow as seen by an inference scheme.

    ``path_set`` contains one or more candidate paths, each expressed as a
    tuple of *component ids* (links, and devices when device modeling is
    enabled).  An exact-path observation has ``len(path_set) == 1``.

    This is deliberately scheme-agnostic: Flock consumes the full path
    set, while 007 and NetBouncer only accept observations whose path is
    exact (their published algorithms cannot model path uncertainty).
    """

    path_set: Tuple[Tuple[int, ...], ...]
    packets_sent: int
    bad_packets: int
    kind: TelemetryKind = TelemetryKind.PASSIVE

    def __post_init__(self) -> None:
        if not self.path_set:
            raise ValueError("a flow observation needs at least one path")
        if not 0 <= self.bad_packets <= self.packets_sent:
            raise ValueError("bad_packets must be within [0, packets_sent]")

    @property
    def exact_path(self) -> bool:
        """Whether the flow's path is known exactly."""
        return len(self.path_set) == 1


@dataclass(frozen=True)
class Prediction:
    """The output of a localization scheme: the inferred failed set.

    Attributes
    ----------
    components:
        Predicted failed component ids (hypothesis ``H`` in the paper).
    scores:
        Optional per-component diagnostic scores (votes for 007, estimated
        drop rates for NetBouncer, likelihood gains for Flock).
    log_likelihood:
        For PGM schemes, the normalized log likelihood of the returned
        hypothesis.
    hypotheses_scanned:
        Number of hypotheses whose likelihood was (conceptually) evaluated;
        used by the scan-rate experiment of section 7.8.
    """

    components: FrozenSet[int]
    scores: Optional[dict] = None
    log_likelihood: float = 0.0
    hypotheses_scanned: int = 0

    @staticmethod
    def empty() -> "Prediction":
        """The no-failure prediction."""
        return Prediction(components=frozenset())


@dataclass(frozen=True)
class GroundTruth:
    """The actual failed components and their drop rates for one trace."""

    failed_links: FrozenSet[int] = frozenset()
    failed_devices: FrozenSet[int] = frozenset()
    drop_rates: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def failed_components(self) -> FrozenSet[int]:
        """Union of failed link components and failed device components."""
        return self.failed_links | self.failed_devices

    @property
    def has_failures(self) -> bool:
        return bool(self.failed_links or self.failed_devices)


def validate_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1] and return it."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)
