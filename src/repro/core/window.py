"""Sliding-window inference problems for the streaming monitor.

A :class:`WindowedProblem` maintains the inference problem of the last
``window`` telemetry chunks via append + expire instead of re-running
:meth:`InferenceProblem.from_batch` over the whole retained trace each
cycle.  Each appended :class:`~repro.telemetry.inputs.ObservationBatch`
is grouped once (the same packed ``np.unique`` pass ``from_batch``
uses); per cycle only the small per-chunk grouped tables are merged and
handed to :meth:`InferenceProblem._from_grouped`.

The set stage of each build is a gather over the
:class:`~repro.routing.paths.PathSpace`'s comp-set columns, and the
space memoizes each interior's sorted component union by gsid.  A
steady-state cycle re-sees almost every interior of the previous one,
so it computes unions only for the few interiors new to the stream,
instead of re-deriving every union from all of the window's (interior
set, component) pairs each cycle - about 750K on the 2496-link paper
fabric with eight 525-flow chunks.

Bit-identity with a full rebuild is by construction, not by luck:

* per-chunk tables are first-seen ordered, and chunks concatenate in
  arrival order, so a first-seen merge over the *tables* reproduces the
  first-seen grouping over the raw retained rows exactly - same group
  order, same representative rows, same weights;
* the merged table feeds the same ``_from_grouped`` constructor
  ``from_batch`` itself uses, so every downstream array and prediction
  is identical to a fresh build over the retained flows.

The :class:`WindowUpdate` returned by :meth:`WindowedProblem.append`
carries the flow-index deltas (expired rows against the previous
problem's numbering, appended rows against the new one) that the
warm-started kernels (:meth:`repro.core.flock_fast.VectorJleState
.rebase`) need to rebase their Δ array incrementally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import InferenceError
from ..telemetry.inputs import ObservationBatch
from .problem import (
    InferenceProblem,
    _first_seen_unique_rows,
    _row_group_keys,
)


class _Chunk:
    """One appended chunk: its grouped table and raw observations.

    ``flow_idx`` maps each table row to its flow index in the problem
    of the *latest* cycle the chunk was retained in; for a chunk that
    just expired it therefore indexes the previous cycle's problem -
    exactly what the Δ rebase needs.
    """

    __slots__ = (
        "gsid", "bad", "sent", "kind", "counts", "sort_perm", "flow_idx",
        "obs",
    )

    def __init__(self, obs: ObservationBatch) -> None:
        rep_rows, counts = _first_seen_unique_rows(
            obs.path_set, obs.bad, obs.sent, obs.kind
        )
        self.gsid = obs.path_set[rep_rows]
        self.bad = obs.bad[rep_rows].astype(np.int64)
        self.sent = obs.sent[rep_rows].astype(np.int64)
        self.kind = obs.kind[rep_rows]
        self.counts = counts.astype(np.int64)
        # Key order of the table rows, cached once: packings with
        # different bit widths sort identically (both are the columns'
        # lexicographic order), so the window merge can splice these
        # per-chunk sorted runs under its own packing and let timsort
        # exploit them.
        self.sort_perm = np.argsort(
            _row_group_keys(self.gsid, self.bad, self.sent, self.kind)
        )
        self.flow_idx: Optional[np.ndarray] = None
        self.obs = obs

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class WindowUpdate:
    """One cycle's problem plus the flow deltas for warm kernels.

    ``removed_flows``/``removed_weights`` index the *previous* cycle's
    problem (the grouped flows whose weight dropped when chunks
    expired); ``added_flows``/``added_weights`` index ``problem`` (the
    grouped flows whose weight rose with the appended chunk).  Weights
    are the per-row multiplicity deltas - a group retained by several
    chunks shrinks rather than disappears when one of them expires.
    """

    problem: InferenceProblem
    removed_flows: np.ndarray
    removed_weights: np.ndarray
    added_flows: np.ndarray
    added_weights: np.ndarray


class WindowedProblem:
    """Sliding window of observation chunks with an incrementally
    maintained :class:`InferenceProblem` over the retained flows."""

    def __init__(
        self,
        n_components: int,
        n_links: int,
        window: int,
    ) -> None:
        if window < 1:
            raise InferenceError("window must retain at least one chunk")
        if n_links > n_components:
            raise InferenceError("n_links cannot exceed n_components")
        self.n_components = n_components
        self.n_links = n_links
        self.window = window
        self._chunks: Deque[_Chunk] = deque()
        self._space = None
        self._problem: Optional[InferenceProblem] = None

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    @property
    def problem(self) -> InferenceProblem:
        """The current window's problem (empty before any append)."""
        if self._problem is None:
            self._problem = InferenceProblem._empty(
                self.n_components, self.n_links
            )
        return self._problem

    def retained_chunk_observations(self) -> List[ObservationBatch]:
        """The retained chunks' raw observations, oldest first.

        One entry per retained chunk (the checkpoint codec stores them
        individually so a resume can validate each regenerated chunk
        against the checkpointed one before trusting the replay).
        """
        return [c.obs for c in self._chunks]

    def retained_observations(self) -> ObservationBatch:
        """The window's raw observation rows, concatenated in arrival
        order - feeding these to ``from_batch`` must reproduce
        :attr:`problem` exactly (the equivalence the tests assert)."""
        if self._space is None:
            raise InferenceError("no chunks have been appended yet")
        return ObservationBatch(
            space=self._space,
            path_set=np.concatenate([c.obs.path_set for c in self._chunks]),
            bad=np.concatenate([c.obs.bad for c in self._chunks]),
            sent=np.concatenate([c.obs.sent for c in self._chunks]),
            kind=np.concatenate([c.obs.kind for c in self._chunks]),
        )

    def append(self, obs: ObservationBatch) -> WindowUpdate:
        """Fold one chunk in, expire chunks beyond the window, and
        rebuild the problem from the merged per-chunk tables."""
        if self._space is None:
            self._space = obs.space
        elif obs.space is not self._space:
            raise InferenceError(
                "all window chunks must share one PathSpace"
            )
        appended = _Chunk(obs)
        self._chunks.append(appended)
        expired: List[_Chunk] = []
        while len(self._chunks) > self.window:
            expired.append(self._chunks.popleft())

        chunks = list(self._chunks)
        gsid = np.concatenate([c.gsid for c in chunks])
        bad = np.concatenate([c.bad for c in chunks])
        sent = np.concatenate([c.sent for c in chunks])
        kind = np.concatenate([c.kind for c in chunks])
        counts = np.concatenate([c.counts for c in chunks])

        # First-seen merge of the stacked tables: group order and
        # representatives match a from_batch grouping of the raw rows
        # (tables are first-seen within each chunk; arrival order
        # breaks ties across chunks, exactly as raw row order would).
        keys = _row_group_keys(gsid, bad, sent, kind)
        if len(keys) and keys.dtype.kind != "V":
            # Splice the cached per-chunk sorted runs and stable-sort:
            # timsort merges the runs in near-linear time, and within
            # equal keys stability keeps chunk (= arrival = row) order,
            # so each run's first element is the group's first-seen
            # representative row.
            offset = 0
            parts = []
            for chunk in chunks:
                parts.append(chunk.sort_perm + offset)
                offset += len(chunk)
            perm = np.concatenate(parts)
            runs = keys[perm]
            order = np.argsort(runs, kind="stable")
            sorted_keys = runs[order]
            orig = perm[order]
            boundary = np.empty(len(keys), dtype=bool)
            boundary[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
            first_idx = orig[boundary]
            seen_order = np.argsort(first_idx)
            rank = np.empty(len(seen_order), dtype=np.int64)
            rank[seen_order] = np.arange(len(seen_order), dtype=np.int64)
            group_of_row = np.empty(len(keys), dtype=np.int64)
            group_of_row[orig] = rank[np.cumsum(boundary) - 1]
            rep = first_idx[seen_order]
        else:
            _, first_idx, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            seen_order = np.argsort(first_idx, kind="stable")
            rank = np.empty(len(seen_order), dtype=np.int64)
            rank[seen_order] = np.arange(len(seen_order), dtype=np.int64)
            group_of_row = rank[inverse]
            rep = first_idx[seen_order]
        weights = np.bincount(
            group_of_row, weights=counts, minlength=len(rep)
        ).astype(np.int64)

        problem = InferenceProblem._from_grouped(
            self._space,
            gsid[rep], bad[rep], sent[rep], kind[rep], weights,
            self.n_components, self.n_links,
        )

        # Expired rows still carry flow indices of the previous
        # problem; capture them before re-pointing retained chunks at
        # the new numbering.
        if expired and self._problem is not None:
            removed_flows = np.concatenate([c.flow_idx for c in expired])
            removed_weights = np.concatenate([c.counts for c in expired])
        else:
            removed_flows = np.empty(0, dtype=np.int64)
            removed_weights = np.empty(0, dtype=np.int64)

        offset = 0
        for chunk in chunks:
            chunk.flow_idx = group_of_row[offset:offset + len(chunk)]
            offset += len(chunk)

        self._problem = problem
        return WindowUpdate(
            problem=problem,
            removed_flows=removed_flows,
            removed_weights=removed_weights,
            added_flows=appended.flow_idx,
            added_weights=appended.counts,
        )
