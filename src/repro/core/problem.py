"""The shared inference-problem representation.

Every localization scheme consumes an :class:`InferenceProblem`.  The
construction

* interns distinct component-paths and path sets (datacenter traces have
  millions of flows over thousands of distinct paths),
* groups identical observations - same path set, same (r, t), same
  analysis - into one weighted flow, which preserves every scheme's
  output exactly (log likelihoods, votes and least-squares terms are all
  additive) while shrinking the working set dramatically, and
* answers the per-component queries (component -> flows, -> paths,
  -> endpoint sets) that JLE's update rule walks, on demand: scans for
  the few components a hot caller asks about, one sorted inverted
  index once a caller asks about many.

The problem's representation is columnar: CSR arrays for
path -> components, set -> endpoint components, interior set ->
component union and flow -> set, plus aligned per-flow count arrays.
The vectorized kernels (:mod:`repro.core.flock_fast`) consume the
arrays directly; the object views the baselines and the test oracles
walk (``path_table``, ``flow_paths``, ``flows_by_comp``, ...) are lazy
adapters materialized from the arrays on first access.

One constructor body builds every problem
(:meth:`InferenceProblem._from_grouped`).  :meth:`InferenceProblem
.from_batch` groups a columnar observation batch into it (an
``np.unique`` over packed key columns; per-observation work is array
algebra), the sliding window (:mod:`repro.core.window`) merges
per-chunk grouped tables into it, and :meth:`InferenceProblem
.from_observations` - hand-built observations - interns each
observation's component paths as a plain set and calls ``from_batch``.
Local path ids and flow groups are numbered in first-appearance order
either way.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import InferenceError
from ..routing.paths import (
    PathSpace,
    PathTable,
    _expand_slices,
    _gather_rows,
    first_seen_ids,
)
from ..types import FlowObservation, TelemetryKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.inputs import ObservationBatch


def _split_index(
    vals: np.ndarray, bounds: Sequence[int]
) -> Dict[int, List[int]]:
    """Turn a (vals, bounds) inverted index into {key: [vals]}, one
    entry per non-empty key, keys ascending."""
    return {
        key: vals[bounds[key]:bounds[key + 1]].tolist()
        for key in np.flatnonzero(np.diff(bounds)).tolist()
    }


def _small_key_argsort(keys: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative keys with known bound ``upper``.

    Keys below 2**16 cast to uint16, which routes numpy to its radix
    sort - several times faster than the comparison sort on the
    small-range component ids the problem's inverted indexes sort
    by.  The cast is order-preserving, so both paths tie out.
    """
    if 0 < upper <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _row_group_keys(*cols: np.ndarray) -> np.ndarray:
    """One scalar grouping key per row of aligned int columns.

    When the columns' combined bit-width fits an int64, rows pack into
    plain integers (``np.unique`` then sorts natives instead of
    element-compared structured records - an order of magnitude faster
    at window scale).  Otherwise falls back to a structured void view.
    Packing is injective and ordered column-major either way, so both
    paths group identically.
    """
    arrs = [np.asarray(c, dtype=np.int64) for c in cols]
    bits = []
    for a in arrs:
        if len(a) == 0 or a.min() < 0:
            bits = None
            break
        bits.append(max(1, int(a.max()).bit_length()))
    if bits is not None and sum(bits) <= 62:
        key = arrs[0].copy()
        for a, b in zip(arrs[1:], bits[1:]):
            key <<= b
            key |= a
        return key
    mat = np.ascontiguousarray(np.column_stack(arrs))
    return mat.view([(f"f{i}", np.int64) for i in range(mat.shape[1])]).ravel()


def _first_seen_unique_rows(*cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal rows of aligned int columns, first-appearance order.

    Returns ``(rep_rows, counts)``: the index of each group's first row
    (ascending, i.e. insertion order of the object pipeline's grouping
    dict) and the group sizes.
    """
    _, first_idx, counts = np.unique(
        _row_group_keys(*cols), return_index=True, return_counts=True
    )
    order = np.argsort(first_idx, kind="stable")
    return first_idx[order], counts[order]


#: Distinct components a per-component query answers by scanning before
#: it sorts its whole inverted index once (about one radix sort's worth
#: of scans).  Stream and diagnosis problems ask about one to three
#: components and never sort; baselines that ask about dozens promote.
_PROMOTE_AFTER = 16


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only, so a caller that writes into an
    answer fails loudly instead of corrupting every later answer."""
    arr.setflags(write=False)
    return arr


def _rows_containing(
    values: np.ndarray, off: np.ndarray, comp: int
) -> np.ndarray:
    """Ascending ids of the CSR rows whose values contain ``comp``.

    Every row holds a component at most once, so the hit positions map
    to distinct rows - the same ascending array a sorted
    component -> rows index slices out.
    """
    pos = np.flatnonzero(values == comp)
    return np.searchsorted(off, pos, side="right") - 1


class _CompIndex:
    """Per-component queries over one inverted index, built on demand.

    The first :data:`_PROMOTE_AFTER` distinct components are answered
    by :meth:`_scan` and memoized; the next distinct one builds the
    sorted index (:meth:`_build`: ``(vals, bounds)``) once, and every
    later query slices it.  Either way the answer is the same
    ascending, read-only int64 array.
    """

    def __init__(self, n_components: int) -> None:
        self.n_components = n_components
        self._memo: Dict[int, np.ndarray] = {}
        self._index: Optional[Tuple[np.ndarray, List[int]]] = None

    def __call__(self, comp: int) -> np.ndarray:
        if not 0 <= comp < self.n_components:
            raise InferenceError(
                f"component id {comp} outside [0, {self.n_components})"
            )
        index = self._index
        if index is None:
            rows = self._memo.get(comp)
            if rows is not None:
                return rows
            if len(self._memo) < _PROMOTE_AFTER:
                rows = _frozen(self._scan(comp))
                self._memo[comp] = rows
                return rows
            index = self.index()
        vals, bounds = index
        return vals[bounds[comp]:bounds[comp + 1]]

    def index(self) -> Tuple[np.ndarray, List[int]]:
        """(ids ascending per component, per-component bounds).

        The bounds are a list: slicing by Python ints is the cheapest
        query, and many-query callers (Sherlock prices every hypothesis
        through these) make hundreds of thousands.
        """
        index = self._index
        if index is None:
            vals, bounds = self._build()
            index = (_frozen(vals), bounds.tolist())
            self._index = index
        return index

    def __getstate__(self) -> dict:
        """Memos and indexes are caches: a copy starts unbuilt (and
        rebuilds them read-only)."""
        state = self.__dict__.copy()
        state["_memo"] = {}
        state["_index"] = None
        return state

    def _scan(self, comp: int) -> np.ndarray:
        raise NotImplementedError

    def _build(self) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _sorted(
        self, comps: np.ndarray, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stable sort of aligned (component, id) entries by component."""
        bounds = np.zeros(self.n_components + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(comps, minlength=self.n_components), out=bounds[1:]
        )
        return ids[_small_key_argsort(comps, self.n_components)], bounds


class _CompRows(_CompIndex):
    """component -> ascending ids of the rows of one CSR containing it."""

    def __init__(
        self, values: np.ndarray, off: np.ndarray, n_components: int
    ) -> None:
        super().__init__(n_components)
        self.values = values
        self.off = off

    def _scan(self, comp: int) -> np.ndarray:
        return _rows_containing(self.values, self.off, comp)

    def _build(self) -> Tuple[np.ndarray, np.ndarray]:
        row_of = np.repeat(
            np.arange(len(self.off) - 1, dtype=np.int64), np.diff(self.off)
        )
        return self._sorted(self.values, row_of)


class _CompFlows(_CompIndex):
    """component -> ascending flows that can blame it.

    A flow can blame its set's union: the interior union of the set's
    interior set plus the set's endpoint components.  A scan finds the
    interior sets and endpoint sets carrying the component
    (``iu_rows``, ``e_rows``), maps them to sets, then to flows.  The
    index expands every flow's union and sorts it by component.
    """

    def __init__(
        self,
        n_components: int,
        iu_rows: _CompRows,
        e_rows: _CompRows,
        iset_of_set: np.ndarray,
        set_of_flow: np.ndarray,
    ) -> None:
        super().__init__(n_components)
        self.iu_rows = iu_rows
        self.e_rows = e_rows
        self.iset_of_set = iset_of_set
        self.set_of_flow = set_of_flow
        self._unions: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _scan(self, comp: int) -> np.ndarray:
        iset_hit = np.zeros(len(self.iu_rows.off) - 1, dtype=bool)
        iset_hit[self.iu_rows(comp)] = True
        set_hit = iset_hit[self.iset_of_set]
        set_hit[self.e_rows(comp)] = True
        return np.flatnonzero(set_hit[self.set_of_flow])

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_unions"] = None
        return state

    def unions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-set sorted component unions, CSR (built once).

        Endpoint comps and interior unions are disjoint (endpoints are
        host links, interiors switch-level comps), so a set's union
        length is the sum of the two.  Both packed (set, comp) runs are
        already sorted - interior unions gathered in set order, endpoint
        comps sorted per set - so the stable sort (a merge sort) merges
        them in linear time.
        """
        unions = self._unions
        if unions is None:
            comps, off = _gather_rows(
                self.iu_rows.values, self.iu_rows.off, self.iset_of_set
            )
            e_comps, e_off = self.e_rows.values, self.e_rows.off
            if len(e_comps):
                span = np.int64(self.n_components)
                set_ids = np.arange(len(off) - 1, dtype=np.int64)
                comps = np.sort(
                    np.concatenate([
                        np.repeat(set_ids, np.diff(off)) * span + comps,
                        np.repeat(set_ids, np.diff(e_off)) * span + e_comps,
                    ]),
                    kind="stable",
                ) % span
                off = off + e_off
            unions = (_frozen(comps), _frozen(off))
            self._unions = unions
        return unions

    def _build(self) -> Tuple[np.ndarray, np.ndarray]:
        comps, bounds = self.unions()
        counts = np.diff(bounds)[self.set_of_flow]
        flow_comp = comps[_expand_slices(bounds[self.set_of_flow], counts)]
        inst_flow = np.repeat(
            np.arange(len(self.set_of_flow), dtype=np.int64), counts
        )
        return self._sorted(flow_comp, inst_flow)


class InferenceProblem:
    """Immutable, indexed view of a telemetry snapshot.

    One layout serves every problem.  A flow's path set is stored as
    *endpoint components* (components on every member path) plus a
    reference to an *interior path set*:

    * a factored pair set (:meth:`PathSpace.pair_set`) keeps its two
      host links as endpoint components and shares one interior set
      with every host pair of the same rack pair, so the path table
      holds unique interior projections instead of ~pairs x ~w full
      projections - at the paper's simulation scale this collapses ~9M
      distinct component paths to a few hundred thousand;
    * a plain set (an exact path, or a hand-built observation) is its
      own interior set and has no endpoint components.

    Interior members are de-duplicated per set with an integer
    multiplicity column; the vectorized kernels
    (:mod:`repro.core.flock_fast`) weight by it.

    Attributes
    ----------
    n_components:
        Size of the component id space (``topology.n_components``).
    n_links:
        Boundary between link ids and device ids.
    path_comps / path_off:
        CSR of component ids per problem path (sorted, de-duplicated
        per path): interior projections, and full projections of plain
        sets.
    bad_packets / packets_sent / weights:
        Aligned int arrays: ``r``, ``t`` and the group multiplicity.
    exact:
        Aligned bool array: True when the flow's path is known exactly.
    flow_paths / path_table / flows_by_comp / paths_by_comp /
    comps_by_flow:
        Lazy object views over the arrays (baselines and test
        oracles): factored sets expand to full per-pair projections on
        first access.
    """

    def _defer_comp_flows(self) -> None:
        """Set up the per-component queries; nothing is sorted yet.

        :meth:`comp_path_ids`, :meth:`comp_eset_ids` and
        :meth:`comp_flows` each answer a component by scanning the CSR
        rows that can hold it - path rows, endpoint rows, interior-union
        rows plus endpoint rows mapped to sets and then flows - and
        memoize the answer.  Hot callers ask about one to three
        components per problem, so a build sorts no inverted index.
        Once a query has scanned :data:`_PROMOTE_AFTER` distinct
        components it builds its whole sorted index once and slices
        every later answer from it (see :class:`_CompIndex`); so do the
        whole-index readers (``flows_by_comp``,
        ``addition_upper_bounds``).
        Scan and index return identical arrays: int64 ids, ascending
        per component, read-only, empty for an unobserved component.
        """
        n = self.n_components
        self._path_rows = _CompRows(self.path_comps, self.path_off, n)
        self._eset_rows = _CompRows(self._set_ecomps, self._set_eoff, n)
        self._flows = _CompFlows(
            n,
            _CompRows(self._iu_comps, self._iu_bounds, n),
            self._eset_rows,
            self._iset_of_set,
            self._set_of_flow,
        )

    @property
    def _set_union_comps(self) -> np.ndarray:
        return self._flows.unions()[0]

    @property
    def _set_union_bounds(self) -> np.ndarray:
        return self._flows.unions()[1]

    @property
    def _comp_flow_keys(self) -> np.ndarray:
        bounds = self._flows.index()[1]
        return np.repeat(
            np.arange(self.n_components, dtype=np.int64), np.diff(bounds)
        )

    @property
    def _comp_flow_vals(self) -> np.ndarray:
        return self._flows.index()[0]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_observations(
        cls,
        observations: Sequence[FlowObservation],
        n_components: int,
        n_links: int,
    ) -> "InferenceProblem":
        """Build the problem from hand-built object observations.

        A thin adapter over :meth:`from_batch`: each observation's
        component paths intern as one *plain* component set (no
        endpoint components) in a private :class:`PathSpace` that holds
        components only, so the result is the layout ``from_batch``
        builds for exact paths - every set its own interior set.
        """
        from ..telemetry.inputs import KIND_CODE, ObservationBatch

        if n_links > n_components:
            raise InferenceError("n_links cannot exceed n_components")
        # The component half of a space reads its topology only for
        # the size of the component id space.
        space = PathSpace(SimpleNamespace(n_components=n_components), None)
        n = len(observations)
        gsids = np.empty(n, dtype=np.int64)
        for row, obs in enumerate(observations):
            for path in obs.path_set:
                for comp in path:
                    if not 0 <= comp < n_components:
                        raise InferenceError(
                            f"component id {comp} outside [0, {n_components})"
                        )
            gsids[row] = space.intern_comp_set(
                [space.intern_components(path) for path in obs.path_set]
            )
        batch = ObservationBatch(
            space=space,
            path_set=gsids,
            bad=np.fromiter(
                (o.bad_packets for o in observations), dtype=np.int64, count=n
            ),
            sent=np.fromiter(
                (o.packets_sent for o in observations), dtype=np.int64, count=n
            ),
            kind=np.fromiter(
                (KIND_CODE[o.kind] for o in observations),
                dtype=np.int64, count=n,
            ),
        )
        return cls.from_batch(batch, n_components, n_links)

    @classmethod
    def from_batch(
        cls,
        batch: "ObservationBatch",
        n_components: int,
        n_links: int,
    ) -> "InferenceProblem":
        """Build the problem from a columnar observation batch.

        Grouping is one ``np.unique`` over the packed
        (path-set, bad, sent, kind) key columns, reordered to
        first-appearance order, so groups - and the path table's local
        ids - are numbered in the order their first row appears.

        Factored pair sets stay factored: the problem's path table holds
        unique *interior* projections shared across every host pair of a
        rack pair, plus per-set endpoint components.  Predictions are
        bit-identical to those over the same rows with every set
        expanded to plain full projections.
        """
        if len(batch) == 0:
            return cls._empty(n_components, n_links)
        rep_rows, counts = _first_seen_unique_rows(
            batch.path_set, batch.bad, batch.sent, batch.kind
        )
        return cls._from_grouped(
            batch.space,
            batch.path_set[rep_rows],
            batch.bad[rep_rows].astype(np.int64),
            batch.sent[rep_rows].astype(np.int64),
            batch.kind[rep_rows],
            counts.astype(np.int64),
            n_components,
            n_links,
        )

    @classmethod
    def _empty(cls, n_components: int, n_links: int) -> "InferenceProblem":
        """The problem with no flows (a window before its first chunk)."""
        none = np.empty(0, dtype=np.int64)
        return cls._from_grouped(
            None, none, none, none, none, none, n_components, n_links
        )

    @classmethod
    def _from_grouped(
        cls,
        space,
        rep_gsids: np.ndarray,
        bad: np.ndarray,
        sent: np.ndarray,
        kind_codes: np.ndarray,
        weights: np.ndarray,
        n_components: int,
        n_links: int,
    ) -> "InferenceProblem":
        """The one constructor body: build from already-grouped rows in
        first-appearance order.

        ``rep_gsids``/``bad``/``sent``/``kind_codes``/``weights`` are
        aligned per grouped flow.  :meth:`from_batch` lands here after
        its one grouping pass; the sliding-window pipeline
        (:class:`repro.core.window.WindowedProblem`) lands here after
        merging per-chunk grouped tables - the shared entry is what
        makes windowed problems bit-identical to batch rebuilds.

        The set stage is a handful of gathers over the space's
        comp-set columns (:meth:`PathSpace.comp_set_columns`).  A
        factored set contributes its two endpoint components and the
        key of its rack pair's shared interior set; a plain set is its
        own interior set and has no endpoint components.  Interior sets
        are keyed by a kind-tagged gsid (odd for a shared interior,
        even for a plain set) and numbered by first appearance over the
        first-seen sets; their member gids and sorted component unions,
        with each component's member count, are gathered from the
        space, which memoizes both per gsid.  The local path table
        interns only distinct interior/exact projections.  At paper scale this is what keeps
        the build - and every kernel that runs on it - tractable.  With
        no rows the space is never read.
        """
        if n_links > n_components:
            raise InferenceError("n_links cannot exceed n_components")
        if len(rep_gsids):
            ordered_gsids, set_of_flow = first_seen_ids(rep_gsids)
            lo, hi, interior = space.comp_set_columns(ordered_gsids)
            factored = interior >= 0
            inner = np.where(factored, interior, ordered_gsids)
            ordered_keys, iset_of_set = first_seen_ids(2 * inner + factored)
            set_eoff = np.zeros(len(ordered_gsids) + 1, dtype=np.int64)
            np.cumsum(2 * factored, out=set_eoff[1:])
            set_ecomps = np.column_stack((lo, hi))[factored].ravel()
            iset_gsids = ordered_keys >> 1
            flat_gids, iset_raw_off = space.comp_set_members(iset_gsids)
            iu_comps, iu_counts, iu_bounds = space.comp_set_unions(iset_gsids)
            local_gids, iset_raw_pids = first_seen_ids(flat_gids)
            path_comps, path_off = _gather_rows(
                *space.comp_csr(), local_gids
            )
            if space.topology.n_components != n_components:
                for arr in (path_comps, set_ecomps):
                    if len(arr):
                        bad_mask = (arr < 0) | (arr >= n_components)
                        if np.any(bad_mask):
                            raise InferenceError(
                                f"component id {int(arr[bad_mask][0])} "
                                f"outside [0, {n_components})"
                            )
        else:
            none = np.empty(0, dtype=np.int64)
            set_of_flow = iset_of_set = iset_raw_pids = none
            path_comps = set_ecomps = iu_comps = none
            iu_counts = np.empty(0, dtype=np.int32)
            path_off = set_eoff = iset_raw_off = iu_bounds = np.zeros(
                1, dtype=np.int64
            )

        self = cls.__new__(cls)
        self.n_components = n_components
        self.n_links = n_links
        self.bad_packets = bad
        self.packets_sent = sent
        self.weights = weights
        # kinds materialize lazily from the codes: nothing on the
        # steady-state streaming path reads them.
        self._kinds: Optional[List[TelemetryKind]] = None
        self._kind_codes = kind_codes
        self._path_table: Optional[PathTable] = None
        self._flow_paths: Optional[List[Tuple[int, ...]]] = None
        self._flows_by_comp: Optional[Dict[int, List[int]]] = None
        self._paths_by_comp: Optional[Dict[int, List[int]]] = None
        self._comps_by_flow: Optional[List[Tuple[int, ...]]] = None
        self.path_comps = path_comps
        self.path_off = path_off
        self._set_of_flow = set_of_flow
        # The set layer the vectorized kernels consume.  Sets reference
        # shared interior sets (``iset``); ``set_ecomps`` holds each
        # set's endpoint components (sorted, disjoint from every
        # member's interior components; empty for plain sets),
        # ``iu_comps``/``iu_bounds`` each interior set's sorted
        # component union (CSR), and ``iu_counts`` how many raw member
        # paths hold each union component.
        self._set_ecomps = set_ecomps
        self._set_eoff = set_eoff
        self._iset_of_set = iset_of_set
        self._iset_raw_pids = iset_raw_pids
        self._iset_raw_off = iset_raw_off
        self._iu_comps = iu_comps
        self._iu_counts = iu_counts
        self._iu_bounds = iu_bounds

        # Unique members + multiplicity per interior set (member order
        # inside a set does not matter to any kernel sum: pair counts
        # re-sort by component and failed-path counts are exact integer
        # sums).
        n_isets = len(iset_raw_off) - 1
        n_paths = max(1, len(path_off) - 1)
        raw_lens = np.diff(iset_raw_off)
        if len(iset_raw_pids):
            raw_iset = np.repeat(np.arange(n_isets, dtype=np.int64), raw_lens)
            ukeys, mult = np.unique(
                raw_iset * np.int64(n_paths) + iset_raw_pids, return_counts=True
            )
            self._iset_upids = ukeys % n_paths
            self._iset_uoff = np.searchsorted(
                ukeys // n_paths, np.arange(n_isets + 1, dtype=np.int64)
            )
            self._iset_umult = mult.astype(np.int64)
        else:
            self._iset_upids = np.empty(0, dtype=np.int64)
            self._iset_umult = np.empty(0, dtype=np.int64)
            self._iset_uoff = np.zeros(n_isets + 1, dtype=np.int64)
        self._set_w = raw_lens[iset_of_set]
        self.exact = self._set_w[set_of_flow] == 1
        self._defer_comp_flows()
        return self

    # ------------------------------------------------------------------
    # Array accessors (the vectorized kernels' interface)
    # ------------------------------------------------------------------
    def comp_flows(self, comp: int) -> np.ndarray:
        """Flows that can blame ``comp`` (ascending int64, read-only).

        The first :data:`_PROMOTE_AFTER` distinct components are
        scanned: the interior-union rows and endpoint rows carrying
        ``comp`` map to sets, and the sets to flows in ascending order.
        The next distinct component builds the full component -> flows
        index once (also built by ``flows_by_comp`` and
        ``addition_upper_bounds``), and every later answer slices it.
        Both give the same array; ids outside ``[0, n_components)``
        raise :class:`InferenceError`.
        """
        return self._flows(comp)

    def comp_path_ids(self, comp: int) -> np.ndarray:
        """Problem paths containing ``comp`` (ascending, read-only).

        The path table holds interior and plain-set projections;
        endpoint components map to sets via :meth:`comp_eset_ids`
        instead.
        """
        return self._path_rows(comp)

    def comp_eset_ids(self, comp: int) -> np.ndarray:
        """Sets carrying ``comp`` as an endpoint component (ascending)."""
        return self._eset_rows(comp)

    # ------------------------------------------------------------------
    # Lazy object views (baselines, test oracles)
    # ------------------------------------------------------------------
    def _materialize_object_paths(self) -> None:
        """Expand every set to full member projections.

        Full member projections are the (disjoint) union of each set's
        endpoint comps and its interior projections; scanning sets in
        first-seen order and members in raw member order numbers the
        full paths in first-appearance order, as the plain layout of
        the same rows numbers its path table.
        """
        table = PathTable()
        comps = self.path_comps.tolist()
        path_off = self.path_off.tolist()
        e_all = self._set_ecomps.tolist()
        eoff = self._set_eoff.tolist()
        raw = self._iset_raw_pids.tolist()
        roff = self._iset_raw_off.tolist()
        set_tuples: List[Tuple[int, ...]] = []
        for s, iid in enumerate(self._iset_of_set.tolist()):
            e = tuple(e_all[eoff[s]:eoff[s + 1]])
            members = raw[roff[iid]:roff[iid + 1]]
            if e:
                ids = tuple(
                    table.intern_canonical(
                        tuple(sorted(
                            e + tuple(comps[path_off[p]:path_off[p + 1]])
                        ))
                    )
                    for p in members
                )
            else:
                ids = tuple(
                    table.intern_canonical(
                        tuple(comps[path_off[p]:path_off[p + 1]])
                    )
                    for p in members
                )
            set_tuples.append(ids)
        self._path_table = table
        self._flow_paths = [
            set_tuples[s] for s in self._set_of_flow.tolist()
        ]

    @property
    def kinds(self) -> List[TelemetryKind]:
        """Per-flow telemetry kinds (lazy when built from kind codes)."""
        if self._kinds is None:
            from ..telemetry.inputs import KIND_ORDER

            self._kinds = [
                KIND_ORDER[code] for code in self._kind_codes.tolist()
            ]
        return self._kinds

    @property
    def path_table(self) -> PathTable:
        """Interning table of the problem's *full* component paths
        (lazy object view)."""
        if self._path_table is None:
            self._materialize_object_paths()
        return self._path_table

    @property
    def flow_paths(self) -> List[Tuple[int, ...]]:
        """Per-flow interned path-id tuples (lazy; tuples are shared
        between flows with the same path set)."""
        if self._flow_paths is None:
            self._materialize_object_paths()
        return self._flow_paths

    @property
    def flows_by_comp(self) -> Dict[int, List[int]]:
        """{component: ascending flow indices} (lazy view)."""
        if self._flows_by_comp is None:
            self._flows_by_comp = _split_index(*self._flows.index())
        return self._flows_by_comp

    @property
    def paths_by_comp(self) -> Dict[int, List[int]]:
        """{component: ascending path ids} (lazy view over the full
        paths of :attr:`path_table`)."""
        if self._paths_by_comp is None:
            out: Dict[int, List[int]] = {}
            for pid, comps in enumerate(self.path_table):
                for comp in comps:
                    out.setdefault(comp, []).append(pid)
            self._paths_by_comp = out
        return self._paths_by_comp

    @property
    def comps_by_flow(self) -> List[Tuple[int, ...]]:
        """Per-flow sorted component unions (lazy view)."""
        if self._comps_by_flow is None:
            comps, bounds = self._flows.unions()
            comps = comps.tolist()
            union_by_set = [
                tuple(comps[start:stop])
                for start, stop in zip(bounds[:-1].tolist(),
                                       bounds[1:].tolist())
            ]
            self._comps_by_flow = [
                union_by_set[s] for s in self._set_of_flow.tolist()
            ]
        return self._comps_by_flow

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        """Number of grouped flows."""
        return len(self.bad_packets)

    @property
    def total_flows(self) -> int:
        """Number of underlying observations (sum of group weights)."""
        return int(self.weights.sum())

    def is_device(self, comp: int) -> bool:
        return comp >= self.n_links

    @property
    def observed_components(self) -> Tuple[int, ...]:
        """Components that at least one flow can blame.

        Every set is referenced by at least one flow and every interior
        set by at least one set, so a component is observed iff some
        interior union or endpoint row carries it.  A bincount over the
        small component id space sorts for free; ``np.unique`` would
        hash millions of entries.
        """
        n = self.n_components
        counts = np.bincount(self._iu_comps, minlength=n)
        counts += np.bincount(self._set_ecomps, minlength=n)
        return tuple(np.flatnonzero(counts).tolist())

    def exact_flow_indices(self) -> np.ndarray:
        """Indices of flows whose path is known exactly.

        007 and NetBouncer only consume these: their published algorithms
        have no notion of path uncertainty (paper section 6.2).
        """
        return np.nonzero(self.exact)[0]

    def describe(self) -> str:
        """One-line summary, handy in logs and experiment reports."""
        observed = len(self.observed_components)
        paths = len(self.path_off) - 1
        return (
            f"InferenceProblem(flows={self.total_flows} grouped to "
            f"{self.n_flows}, interior paths={paths}, "
            f"components={observed} observed of "
            f"{self.n_components})"
        )
