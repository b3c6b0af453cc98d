"""The uncompressed build of a columnar observation batch.

:meth:`repro.core.problem.InferenceProblem.from_batch` keeps factored
pair sets factored.  :func:`uncompressed_from_batch` expands every set
to full per-pair projections instead - the layout
:meth:`~repro.core.problem.InferenceProblem.from_observations` builds -
so tests can require every kernel, view and prediction to agree
bitwise across the two layouts of the same rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import (
    InferenceProblem,
    _first_seen_unique_rows,
    _gather_rows,
)
from repro.routing.paths import first_seen_ids
from repro.telemetry.inputs import KIND_ORDER, ObservationBatch


def uncompressed_from_batch(
    batch: ObservationBatch, n_components: int, n_links: int
) -> InferenceProblem:
    """Group ``batch`` as ``from_batch`` does, then expand every set."""
    if len(batch) == 0:
        return InferenceProblem.from_observations([], n_components, n_links)
    rep_rows, counts = _first_seen_unique_rows(
        batch.path_set, batch.bad, batch.sent, batch.kind
    )
    space = batch.space
    # Local path ids are assigned in first-appearance order, which
    # factors through path *sets*: a gid's first appearance is always
    # inside the first occurrence of its set, so scanning distinct sets
    # in first-seen order reproduces the per-observation interning
    # order of from_observations exactly.
    ordered_gsids, set_of_flow = first_seen_ids(batch.path_set[rep_rows])
    member_arrays = [space.comp_set(int(g)) for g in ordered_gsids.tolist()]
    set_lens = np.fromiter(
        (len(a) for a in member_arrays), dtype=np.int64,
        count=len(member_arrays),
    )
    set_off = np.zeros(len(member_arrays) + 1, dtype=np.int64)
    np.cumsum(set_lens, out=set_off[1:])
    local_gids, set_pids = first_seen_ids(np.concatenate(member_arrays))
    path_comps, path_off = _gather_rows(*space.comp_csr(), local_gids)
    return InferenceProblem._from_arrays(
        n_components=n_components,
        n_links=n_links,
        path_comps=path_comps,
        path_off=path_off,
        set_of_flow=set_of_flow,
        set_pids=set_pids,
        set_off=set_off,
        bad_packets=batch.bad[rep_rows].astype(np.int64),
        packets_sent=batch.sent[rep_rows].astype(np.int64),
        weights=counts.astype(np.int64),
        exact=set_lens[set_of_flow] == 1,
        kinds=[KIND_ORDER[code] for code in batch.kind[rep_rows].tolist()],
    )
