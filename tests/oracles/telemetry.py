"""The object telemetry pipeline: records -> ``FlowObservation`` lists.

:func:`repro.telemetry.inputs.build_observation_batch` builds the
columnar twin of these lists straight from a ``FlowBatch``.  The
per-record loop here is the literal reading of the paper's input
rules (section 6.2), kept so tests can pin the columnar build - and
every problem and prediction built from it - to it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.telemetry.inputs import (
    KIND_ORDER,
    ObservationBatch,
    PathMemo,
    TelemetryConfig,
    _record_counts,
)
from repro.types import FlowObservation, FlowRecord, TelemetryKind


def build_observations(
    records: Sequence[FlowRecord],
    topology,
    routing,
    config: TelemetryConfig,
    rng: Optional[np.random.Generator] = None,
    memo: Optional[PathMemo] = None,
) -> List[FlowObservation]:
    """Build inference observations from ground-truth simulator records.

    The simulator knows each flow's exact path; this function decides
    what each telemetry kind may reveal.  ``memo`` shares path lookups
    across builds of the same trace.
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
    for record in records:
        bad, sent = _record_counts(
            record, config.analysis, config.rtt_threshold_ms, record.rtt_ms
        )
        if record.is_probe:
            if not (want_a1 or want_int):
                continue
            comps = memo.exact(record.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,),
                    packets_sent=sent,
                    bad_packets=bad,
                    kind=TelemetryKind.A1,
                )
            )
            continue

        flagged = bad >= 1
        if want_int:
            if config.passive_sampling < 1.0 and rng.random() >= config.passive_sampling:
                continue
            comps = memo.exact(record.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,),
                    packets_sent=sent,
                    bad_packets=bad,
                    kind=TelemetryKind.INT,
                )
            )
        elif want_a2 and flagged:
            comps = memo.exact(record.path, include_devices)
            observations.append(
                FlowObservation(
                    path_set=(comps,),
                    packets_sent=sent,
                    bad_packets=bad,
                    kind=TelemetryKind.A2,
                )
            )
        elif want_p:
            if config.passive_sampling < 1.0 and rng.random() >= config.passive_sampling:
                continue
            path_set = memo.ecmp(record.src, record.dst, include_devices)
            observations.append(
                FlowObservation(
                    path_set=path_set,
                    packets_sent=sent,
                    bad_packets=bad,
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
