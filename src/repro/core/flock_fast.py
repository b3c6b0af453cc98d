"""Vectorized inference kernels (NumPy CSR formulation).

Everything here computes the quantities of the paper's Algorithm 2 as
flat-array passes (its line-for-line transcription, which walks Python
dicts, is the test oracle in ``tests/oracles/jle.py``), so that the
Fig. 4c ablation (Sherlock vs greedy-only vs JLE-only vs Flock)
compares *algorithms* rather than interpreter constant factors - all
four arms share the CSR substrate below, mirroring the paper's single
C++ framework.

Shared structures (:class:`VectorArrays`), built on the problem's *set
layer*:

* ``path_comps``/``path_off`` - CSR of component ids per problem path
  (interior projections, and full projections of plain sets);
* flows reference de-duplicated path sets; sets reference shared
  *interior sets* whose unique member paths carry an integer
  multiplicity column; per-set *endpoint components* sit on every
  member path of their set;
* ``comp -> flows``, ``comp -> paths`` and ``comp -> endpoint sets``
  inverted maps.

The workhorse pattern: list (component, count) pairs once per distinct
interior set, price each flow once per distinct count, and scatter-add
the per-pair terms with ``np.bincount``.  Under the empty hypothesis
every member path is good, so an interior set's list is its memoized
component union with member counts, which the problem gathers from the
:class:`~repro.routing.paths.PathSpace` - the cold Δ sorts nothing.
Under any other hypothesis the lists are counted over *good* members
with one sort.  A flow reads two slices of the pair table, its interior
set's list and its set's endpoint components, and its likelihood term
depends on a pair only through the count: ``wt_f * (nll(b_f + g) -
nll(b_f))`` is evaluated once per (flow, distinct count) - a few slots
per flow, against tens of pairs - and each pair gathers its term
through its flow's slot offset.  Flows come out in ascending order with
at most one pair per (flow, comp), so every Δ[c] sums the same terms in
the same order whatever the component order inside a flow (see
:meth:`VectorArrays._flow_pairs`).  Pairs are folded in blocks of about
:data:`_PAIR_BLOCK`, cut at flow boundaries, and each block folds into
Δ with one ``np.bincount`` whose first weight per bin is the running
total: a bin starts from the same value and adds the same terms in the
same flow-ascending order as a single pass over every flow, so Δ does
not depend on the block size, bit for bit, while the per-pair
temporaries stay a few MB.  A plain set is the trivial factoring (its
own interior set, no endpoint comps), so the same rows with every
factored set expanded to plain full projections give Δ sums identical
term by term and in accumulation order - which is what keeps
predictions bit-identical between the two.  Per-flow pricing is the
only layout: Δ is pinned bitwise to the set-granular pair-counting
oracle (``tests/oracles/pair_counting.py``) and to the per-pair
pricing it replaced (``tests/oracles/per_pair.py``), and scores and
log-likelihoods agree bitwise between a ``from_batch`` problem, its
plain-set expansion and the object pipeline's problem.

Engines built on the substrate:

* :class:`VectorJleState` - JLE Δ array with involutive add/remove
  flips;
* :class:`VectorGreedyWithoutJle` - greedy search pricing every
  candidate individually each iteration (the "greedy only" arm), with
  array-level candidate pruning from a per-component gain upper bound;
* :meth:`VectorArrays.hypothesis_ll` - direct hypothesis pricing used
  by the plain-Sherlock arm.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..errors import InferenceError
from ..types import Prediction
from .model import evidence_exp, evidence_scores, normalized_flow_ll_fast
from .params import FlockParams
from .problem import InferenceProblem


from .problem import _expand_slices  # noqa: E402  (shared CSR helper)

#: Flow pairs folded per block of :meth:`VectorJleState._price`.
#: Blocks end at flow boundaries, so a flow longer than this is folded
#: whole.  Big enough that the per-block overhead (two concatenations
#: of ``n_comps`` entries) is noise, small enough that a cold Δ's
#: per-pair temporaries stay a few MB instead of growing with the flows.
_PAIR_BLOCK = 1 << 16


def addition_upper_bounds(
    problem: InferenceProblem,
    params: FlockParams,
    s: Optional[np.ndarray] = None,
    wt: Optional[np.ndarray] = None,
    prior_gain: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-component upper bound on any addition gain.

    ``nll(b') - nll(b) <= max(0, s)`` for every flow, so adding ``c``
    to *any* hypothesis gains at most
    ``prior[c] + sum_{f in flows(c), s_f > 0} wt_f * s_f``.  A mixed
    absolute + relative slack absorbs float rounding (the bound and the
    exact gains accumulate in different summation orders), so pruning
    cannot drop a candidate unless its exact gain beats the incumbent
    by less than the slack - i.e. only float-tie-level outcomes can
    differ from an unpruned scan.  Computed straight off the problem
    arrays; the vector engines pass their precomputed
    ``s``/``wt``/``prior_gain``, and Sherlock's recursion computes them
    here.
    """
    if s is None:
        s = evidence_scores(problem.bad_packets, problem.packets_sent, params)
    if wt is None:
        wt = problem.weights.astype(np.float64)
    pos = wt * np.maximum(s, 0.0)
    ub = np.bincount(
        problem._comp_flow_keys,
        weights=pos[problem._comp_flow_vals],
        minlength=problem.n_components,
    )
    if prior_gain is None:
        prior_gain = np.empty(problem.n_components)
        prior_gain[: problem.n_links] = params.link_prior_gain
        prior_gain[problem.n_links:] = params.device_prior_gain
    return ub + prior_gain + (1e-9 + 1e-12 * np.abs(ub))


def _count_sorted(
    keys: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, per-key weight sums as float64).

    ``weights`` are integer multiplicities (how many identical member
    paths a unique path stands for), so each key is repeated by its
    weight - a no-op in the common all-ones case - and the key values
    are sorted; the sums are the run lengths, exact small integers.
    """
    if len(keys) == 0:
        return keys, np.empty(0)
    if np.any(weights != 1):
        keys = np.repeat(keys, weights.astype(np.int64))
    keys = np.sort(keys)
    brk = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], brk))
    ends = np.concatenate((brk, [len(keys)]))
    return keys[starts], (ends - starts).astype(np.float64)


def _sorted_member(values: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """Bool per value: does the ascending ``sorted_ids`` hold it?"""
    if len(sorted_ids) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_ids, values), len(sorted_ids) - 1)
    return sorted_ids[pos] == values


class _IsetLayer(NamedTuple):
    """Affected sets viewed through their distinct interior sets.

    ``isets`` are the distinct interior sets (ascending), ``set_il``
    each affected set's index into them, and ``il``/``upids``/``mult``
    the (local iset, unique member pid, multiplicity) instances.
    """

    isets: np.ndarray
    set_il: np.ndarray
    il: np.ndarray
    upids: np.ndarray
    mult: np.ndarray


class _FlowPairs(NamedTuple):
    """A priced call's (component, slot) table and its flows' views.

    ``comps``/``slots`` are the table entries: the affected interior
    sets' (component, count) lists, then the sets' endpoint
    components.  An entry's *slot* numbers its count among the
    distinct counts a flow of its set prices.  ``starts``/``lens`` are
    each flow's ``(n_flows, 2)`` slice bounds into the table (interior
    list, endpoint components).  ``slot_flow``/``slot_count`` list
    every (flow, slot) pair flow-major, and ``toff`` is each flow's
    first position in them.
    """

    comps: np.ndarray
    slots: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    slot_flow: np.ndarray
    slot_count: np.ndarray
    toff: np.ndarray


class VectorArrays:
    """Shared CSR arrays + likelihood vectors for one problem.

    Every engine prices per flow: (component, count) pairs are listed
    once per distinct interior set (:meth:`_flow_pairs`) and each flow's
    likelihood term is evaluated individually, once per distinct count,
    so Δ, ll and predictions are bitwise identical across problem
    representations.
    """

    def __init__(self, problem: InferenceProblem, params: FlockParams) -> None:
        self.problem = problem
        self.params = params
        self.n_comps = problem.n_components

        self.s = evidence_scores(problem.bad_packets, problem.packets_sent, params)
        self._es = evidence_exp(self.s)
        self.wt = problem.weights.astype(np.float64)

        # The problem's primary representation already is the CSR this
        # engine wants - share the arrays instead of rebuilding them
        # from the object views.
        self.path_comps, self.path_off = problem.path_comps, problem.path_off
        self.path_len = np.diff(self.path_off)
        self.n_kernel_paths = len(self.path_off) - 1

        self.set_of_flow = problem._set_of_flow
        self.iset_of_set = problem._iset_of_set
        self.iset_upids = problem._iset_upids
        self.iset_umult = problem._iset_umult.astype(np.float64)
        self.iset_uoff = problem._iset_uoff
        self.iset_ulen = np.diff(self.iset_uoff)
        # Raw member paths per interior set: the largest count any of
        # its (component, count) pairs can reach.
        self.iset_w = np.diff(problem._iset_raw_off)
        self.set_ecomps = problem._set_ecomps
        self.set_eoff = problem._set_eoff
        self.set_elen = np.diff(self.set_eoff)
        self.set_w = problem._set_w.astype(np.float64)
        self.n_sets = len(self.iset_of_set)

        self.w = self.set_w[self.set_of_flow]

        self.prior_gain = np.empty(self.n_comps)
        self.prior_gain[: problem.n_links] = params.link_prior_gain
        self.prior_gain[problem.n_links:] = params.device_prior_gain

    def nll(self, b: np.ndarray, flow_idx: np.ndarray) -> np.ndarray:
        """Normalized flow ll for (global) flow indices, memoized exp(s)."""
        return normalized_flow_ll_fast(
            b, self.w[flow_idx], self.s[flow_idx], self._es[flow_idx]
        )

    def comp_flows(self, comp: int) -> np.ndarray:
        """Flows that can blame ``comp`` (empty array when unobserved)."""
        return self.problem.comp_flows(comp)

    def comp_paths(self, comp: int) -> np.ndarray:
        """Problem paths containing ``comp``."""
        return self.problem.comp_path_ids(comp)

    def comp_esets(self, comp: int) -> np.ndarray:
        """Sets carrying ``comp`` as an endpoint component."""
        return self.problem.comp_eset_ids(comp)

    # ------------------------------------------------------------------
    # Set-layer expansion primitives
    # ------------------------------------------------------------------
    def set_instances(
        self, sets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local set index, unique member pid, multiplicity) triples."""
        isets = self.iset_of_set[sets]
        lengths = self.iset_ulen[isets]
        idx = _expand_slices(self.iset_uoff[isets], lengths)
        local = np.repeat(np.arange(len(sets), dtype=np.int64), lengths)
        return local, self.iset_upids[idx], self.iset_umult[idx]

    def _iset_layer(self, aff_sets: np.ndarray) -> _IsetLayer:
        """The distinct interior sets of ``aff_sets`` and their members."""
        iset_of = self.iset_of_set[aff_sets]
        isets = np.unique(iset_of)
        set_il = np.searchsorted(isets, iset_of)
        lengths = self.iset_ulen[isets]
        idx = _expand_slices(self.iset_uoff[isets], lengths)
        il = np.repeat(np.arange(len(isets), dtype=np.int64), lengths)
        return _IsetLayer(
            isets, set_il, il, self.iset_upids[idx], self.iset_umult[idx]
        )

    def _iset_pair_lists(
        self, layer: _IsetLayer, good: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-interior-set (component, count) lists over good members.

        Counts weight by member multiplicity; endpoint components are
        per *set* and left to the caller.  Returns (packed keys,
        counts) sorted by (iset local id, comp).
        """
        n_comps = np.int64(self.n_comps)
        gl = layer.il[good]
        gp = layer.upids[good]
        lens = self.path_len[gp]
        keys = np.repeat(gl, lens) * n_comps + self.path_comps[
            _expand_slices(self.path_off[gp], lens)
        ]
        wts = np.repeat(layer.mult[good], lens)
        return _count_sorted(keys, wts)

    def _flow_pairs(
        self,
        aff_sets: np.ndarray,
        fsl: np.ndarray,
        set_il: np.ndarray,
        good_count: np.ndarray,
        lists: Tuple[np.ndarray, np.ndarray, np.ndarray],
        iset_w: np.ndarray,
    ) -> _FlowPairs:
        """The (comp, slot) pair table over good member paths, each
        flow's two slices of it, and every flow's distinct counts.

        ``lists`` are the (component, integer count) lists of the
        affected sets' distinct interior sets as a CSR ``(comps,
        counts, bounds)``, one row per local interior set (``set_il``
        maps each affected set to its row, ``iset_w`` bounds each row's
        counts).  A set with no good member (``good_count`` 0) reads no
        pairs.  Flow ``i`` (of set ``fsl[i]``) reads two slices: its
        interior set's list, and its set's endpoint components, each
        counted at the set's good-member total (an endpoint component
        sits on every member path).

        A flow's likelihood term depends on its pair only through the
        count, and a list holds few distinct counts, so each flow gets
        one *slot* per distinct count of its interior list, plus one
        for its endpoint components when it has any.  The distinct
        counts are numbered in one pass: count ``c`` of row ``i`` marks
        cell ``woff[i] + c`` of a table with ``iset_w[i] + 1`` cells per
        row, and a cumsum over the marks numbers each row's distinct
        counts in ascending order.  The caller prices every (flow,
        slot) once and gathers each pair's term through ``toff[flow] +
        slot`` (:meth:`VectorJleState._price`).

        Bit-identity: the caller scatters per-pair terms with
        ``np.bincount``, which adds weights in input order.  Flows are
        expanded in ascending order and each flow holds at most one pair
        per component, so Δ[c] sums the same terms in the same
        flow-ascending order whatever the component order inside a
        flow - which is why Δ is bitwise identical to the set-granular
        count, and across problem representations.
        """
        icomps, icounts, ibounds = lists
        ilen = np.diff(ibounds)
        span = iset_w + 1
        woff = np.zeros(len(span) + 1, dtype=np.int64)
        np.cumsum(span, out=woff[1:])
        cell = np.repeat(woff[:-1], ilen) + icounts
        seen = np.zeros(int(woff[-1]), dtype=bool)
        seen[cell] = True
        dcell = np.flatnonzero(seen)
        doff = np.searchsorted(dcell, woff)
        nd = np.diff(doff)
        dcount = (dcell - np.repeat(woff[:-1], nd)).astype(np.float64)
        cell_slot = np.cumsum(seen) - 1 - np.repeat(doff[:-1], span)

        live = good_count > 0
        ilens = np.where(live, ilen[set_il], 0)
        elens = np.where(live, self.set_elen[aff_sets], 0)
        eidx = _expand_slices(self.set_eoff[aff_sets], elens)
        islots = np.where(live, nd[set_il], 0)
        comps = np.concatenate((icomps, self.set_ecomps[eidx]))
        slots = np.concatenate((cell_slot[cell], np.repeat(islots, elens)))
        starts = np.empty((len(aff_sets), 2), dtype=np.int64)
        starts[:, 0] = ibounds[set_il]
        starts[:, 1] = len(icomps) + elens.cumsum() - elens
        lens = np.empty((len(aff_sets), 2), dtype=np.int64)
        lens[:, 0] = ilens
        lens[:, 1] = elens

        # Every flow's slots: its interior's distinct counts, then its
        # set's good-member total when it has endpoint components.
        nslots = (islots + (elens > 0))[fsl]
        toff = nslots.cumsum() - nslots
        slot_flow = np.repeat(np.arange(len(fsl), dtype=np.int64), nslots)
        j = np.arange(len(slot_flow), dtype=np.int64) - toff[slot_flow]
        fset = fsl[slot_flow]
        src = np.where(
            j < islots[fset], doff[set_il[fset]] + j, len(dcount) + fset
        )
        slot_count = np.concatenate((dcount, good_count))[src]
        return _FlowPairs(
            comps, slots, starts[fsl], lens[fsl], slot_flow, slot_count, toff
        )

    def affected_flows(self, comps: Iterable[int]) -> np.ndarray:
        arrays = [a for a in (self.comp_flows(c) for c in comps) if len(a)]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def addition_upper_bounds(self) -> np.ndarray:
        """See the module-level :func:`addition_upper_bounds`."""
        return addition_upper_bounds(
            self.problem, self.params, self.s, self.wt, self.prior_gain
        )

    def hypothesis_ll(self, comps: Iterable[int], include_prior: bool = True) -> float:
        """Normalized log likelihood of a hypothesis, priced directly.

        This is the plain-Sherlock work unit: only flows intersecting
        the hypothesis contribute, each priced from its failed-path
        count.  Cost: O(member paths of affected sets + affected flows).
        """
        hyp = list(set(comps))
        total = 0.0
        if hyp:
            flows = self.affected_flows(hyp)
            if len(flows):
                aff_sets, fsl = np.unique(
                    self.set_of_flow[flows], return_inverse=True
                )
                local, upids, mult = self.set_instances(aff_sets)
                path_bad = np.zeros(self.n_kernel_paths, dtype=bool)
                e_bad = np.zeros(len(aff_sets), dtype=bool)
                for comp in hyp:
                    path_bad[self.comp_paths(comp)] = True
                    esets = self.comp_esets(comp)
                    if len(esets):
                        e_bad[np.searchsorted(aff_sets, esets)] = True
                inst_bad = path_bad[upids] | e_bad[local]
                b_set = np.bincount(
                    local, weights=mult * inst_bad, minlength=len(aff_sets)
                )
                b = b_set[fsl]
                lls = self.nll(b, flows)
                total = float(np.dot(self.wt[flows], lls))
        if include_prior:
            total += float(sum(self.prior_gain[c] for c in hyp))
        return total

class DeltaContrib(NamedTuple):
    """A flow group's priced Δ/ll contribution, replayable at expiry.

    A chunk's contribution depends only on its rows' intrinsic set
    structure (global component ids) and the hypothesis it was priced
    under, so when the same chunk expires with the hypothesis unchanged
    - the streaming steady state - the cached vector can be subtracted
    instead of re-priced.  ``hypothesis`` records the pricing context
    for the validity check.
    """

    delta: np.ndarray
    ll: float
    hypothesis: frozenset


class VectorJleState(VectorArrays):
    """Array-based JLE state (Algorithm 2's Δ array, vectorized).

    Supports both addition and removal flips (removals keep the Δ array
    consistent and are exact inverses of additions), so Sherlock's
    Algorithm-3 recursion can explore by flip/descend/unflip.
    """

    def __init__(self, problem: InferenceProblem, params: FlockParams) -> None:
        super().__init__(problem, params)
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        self._set_b = np.zeros(self.n_sets, dtype=np.int64)
        self.hypothesis: Set[int] = set()
        self.ll = 0.0
        self.flips = 0
        self.added_contrib: Optional[DeltaContrib] = None
        self.delta = self._initial_delta()

    @property
    def hypotheses_scanned(self) -> int:
        return (self.flips + 1) * self.problem.n_components

    @classmethod
    def rebase(
        cls,
        problem: InferenceProblem,
        prev: "VectorJleState",
        removed_flows: np.ndarray,
        removed_weights: np.ndarray,
        added_flows: np.ndarray,
        added_weights: np.ndarray,
        removed_contrib: Optional[DeltaContrib] = None,
    ) -> "VectorJleState":
        """Warm-start a state on a new sliding-window problem.

        Carries the previous window's hypothesis over and rebases Δ
        incrementally instead of re-running :meth:`_initial_delta`
        (the dominant cost of a cold state at scale):

        * structural state (failed-path / failed-member counts) is
          rebuilt under the carried hypothesis on the new problem's
          numbering - O(paths of H) scatter adds;
        * Δ is linear in group weight and each group's unit
          contribution depends only on its set structure in *global*
          component ids plus the hypothesis, so
          ``Δ_new = Δ_prev - contrib(expired groups on prev state)
          + contrib(appended groups on new state)`` is exact up to
          float summation order.

        ``removed_flows`` index ``prev.problem``'s grouped flows with
        the weight each lost; ``added_flows`` index ``problem``'s with
        the weight each gained (a :class:`repro.core.window
        .WindowUpdate` supplies exactly these).  The result converges
        to the same hypotheses as a cold state; only float rounding of
        Δ differs.

        ``removed_contrib`` may pass the :class:`DeltaContrib` the
        expiring chunk's rows were priced at when *they* were appended
        (exposed as :attr:`added_contrib` on the rebased state).  When
        its recorded hypothesis still matches ``prev``'s, the cached
        vector is bit-identical to re-pricing and is subtracted
        directly; a stale hint (the search moved the hypothesis in
        between) is ignored and the rows are re-priced.
        """
        self = cls.__new__(cls)
        VectorArrays.__init__(self, problem, prev.params)
        self.hypothesis = set(prev.hypothesis)
        self.flips = prev.flips
        self._rebuild_structural()

        # The normalized ll is a weighted per-flow sum (plus a prior
        # term that doesn't change under rebase), so it moves by the
        # expired/appended groups' own contributions - priced by the
        # same pass that prices their Δ contributions.
        delta = prev.delta.copy()
        ll = prev.ll
        removed = np.asarray(removed_flows, dtype=np.int64)
        if len(removed):
            if (
                removed_contrib is not None
                and removed_contrib.hypothesis == prev.hypothesis
            ):
                delta -= removed_contrib.delta
                ll -= removed_contrib.ll
            else:
                contrib, base_ll = prev._delta_contrib(
                    removed, np.asarray(removed_weights, dtype=np.float64)
                )
                delta -= contrib
                ll -= base_ll
        added = np.asarray(added_flows, dtype=np.int64)
        self.added_contrib: Optional[DeltaContrib] = None
        if len(added):
            contrib, base_ll = self._delta_contrib(
                added, np.asarray(added_weights, dtype=np.float64)
            )
            delta += contrib
            ll += base_ll
            self.added_contrib = DeltaContrib(
                contrib, base_ll, frozenset(self.hypothesis)
            )
        self.delta = delta
        self.ll = ll
        return self

    def _rebuild_structural(self) -> None:
        """Rebuild the failed-path / failed-member count arrays under
        :attr:`hypothesis` on this state's problem numbering.

        The structural state is a pure function of the hypothesis and
        the problem's set structure - O(paths of H) scatter adds - so
        both :meth:`rebase` (new window numbering) and :meth:`restore`
        (checkpoint recovery) reconstruct it exactly rather than
        serializing it.
        """
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        for comp in sorted(self.hypothesis):
            self._path_nfailed[self.comp_paths(comp)] += 1
            esets = self.comp_esets(comp)
            if len(esets):
                self._set_e_nfailed[esets] += 1
        if self.n_sets:
            n_isets = len(self.iset_uoff) - 1
            inst_iset = np.repeat(
                np.arange(n_isets, dtype=np.int64), self.iset_ulen
            )
            iset_b = np.bincount(
                inst_iset,
                weights=self.iset_umult * (self._path_nfailed[self.iset_upids] > 0),
                minlength=n_isets,
            )
            b = iset_b[self.iset_of_set]
            # A failed endpoint component fails every member path.
            full = self._set_e_nfailed > 0
            b[full] = self.set_w[full]
            self._set_b = b.astype(np.int64)
        else:
            self._set_b = np.zeros(0, dtype=np.int64)

    @classmethod
    def restore(
        cls,
        problem: InferenceProblem,
        params: FlockParams,
        hypothesis,
        delta: np.ndarray,
        ll: float,
        flips: int,
    ) -> "VectorJleState":
        """Reconstruct a warm state from checkpointed search facts.

        The serialized facts are exactly the non-recomputable ones:
        the hypothesis, the Δ array (float64, bit-exact), the
        normalized ll, and the flip count.  Structural counters are a
        pure function of hypothesis + problem and are rebuilt here, so
        a monitor restored onto a bit-identical window problem resumes
        localization exactly where the checkpointed one stopped.
        """
        self = cls.__new__(cls)
        VectorArrays.__init__(self, problem, params)
        delta = np.array(delta, dtype=np.float64, copy=True)
        if delta.shape != (self.n_comps,):
            raise InferenceError(
                f"checkpointed delta has shape {delta.shape}, problem "
                f"has {self.n_comps} component(s) - the checkpoint does "
                "not match this window"
            )
        self.hypothesis = set(int(c) for c in hypothesis)
        self.flips = int(flips)
        self._rebuild_structural()
        self.delta = delta
        self.ll = float(ll)
        self.added_contrib = None
        return self

    def _delta_contrib(
        self, flows: np.ndarray, dw: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """(Δ contribution, ll contribution) of a weighted flow subset.

        Under the current structural state, flow ``f`` adds
        ``dw_f * (nll(b_f + g_fc) - nll(b_f))`` to Δ[c], where ``g_fc``
        counts ``f``'s still-good member paths containing ``c`` - the
        exact per-flow term the flip bookkeeping maintains, evaluated
        directly.  Contributions are linear in the group weight, which
        is what makes the sliding-window rebase exact: Δ and the
        normalized ll move by the weight deltas of expired/appended
        groups only.  The second return is ``sum(dw_f * nll(b_f))`` -
        the subset's share of the hypothesis ll under the carried
        hypothesis.
        """
        out = np.zeros(self.n_comps, dtype=np.float64)
        flows = np.asarray(flows, dtype=np.int64)
        if len(flows) == 0 or self.n_sets == 0:
            return out, 0.0
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        b = self._set_b[aff_sets][fsl].astype(np.float64)
        base_ll = float(np.dot(dw, self.nll(b, flows)))
        layer = self._iset_layer(aff_sets)
        _, contrib = self._state_delta(
            flows, dw, aff_sets, fsl, layer,
            self._path_nfailed[layer.upids] == 0,
            self._set_e_nfailed[aff_sets] > 0,
        )
        return (out if contrib is None else contrib), base_ll

    def _state_delta(
        self,
        flows: np.ndarray,
        wt: np.ndarray,
        aff_sets: np.ndarray,
        fsl: np.ndarray,
        layer: _IsetLayer,
        good: np.ndarray,
        e_failed: np.ndarray,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(per-set failed-member count, Δ contribution) under a state.

        Prices weighted flows under an explicit structural state:
        ``good`` marks interior-set instances whose path holds no
        failed component, ``e_failed`` the affected sets with a failed
        endpoint component (every member failed, ``b = w``).  A member
        path is good when its path holds no failed component and its
        set has no failed endpoint component, so a set with a failed
        endpoint has no good members and no pairs, and every other
        set's good members are its interior set's path-good members:
        each distinct interior set's (component, count) list is counted
        once, over its good members, with one sort
        (:meth:`_iset_pair_lists`), then priced by :meth:`_price`.  The
        contribution is ``None`` when no set has a good member.
        """
        iset_b = np.bincount(
            layer.il, weights=layer.mult * ~good, minlength=len(layer.isets)
        )
        set_w = self.set_w[aff_sets]
        b_set = np.where(e_failed, set_w, iset_b[layer.set_il])
        good_count = set_w - b_set
        live = good_count > 0
        if not np.any(live):
            return b_set, None
        n_comps = np.int64(self.n_comps)
        n_isets = len(layer.isets)
        live_iset = np.zeros(n_isets, dtype=bool)
        live_iset[layer.set_il[live]] = True
        keys, cnts = self._iset_pair_lists(layer, good & live_iset[layer.il])
        ibounds = np.searchsorted(
            keys, np.arange(n_isets + 1, dtype=np.int64) * n_comps
        )
        lists = (keys % n_comps, cnts.astype(np.int64), ibounds)
        return b_set, self._price(
            flows, wt, aff_sets, fsl, layer.set_il, b_set, good_count,
            lists, self.iset_w[layer.isets],
        )

    def _price(
        self,
        flows: np.ndarray,
        wt: np.ndarray,
        aff_sets: np.ndarray,
        fsl: np.ndarray,
        set_il: np.ndarray,
        b_set: np.ndarray,
        good_count: np.ndarray,
        lists: Tuple[np.ndarray, np.ndarray, np.ndarray],
        iset_w: np.ndarray,
    ) -> np.ndarray:
        """Δ contribution of weighted flows from their pair lists.

        Flow ``f`` adds ``wt_f * (nll(b_f + g_fc) - nll(b_f))`` to Δ[c],
        where ``g_fc`` counts its good member paths holding ``c``
        (``b_set``/``good_count`` per affected set, ``lists`` and
        ``iset_w`` as :meth:`_flow_pairs` takes them).  The term is
        evaluated once per (flow, distinct count) - the same
        element-wise expression, so every pair's term keeps its bits -
        and each pair gathers its term by its flow's slot offset.

        Flows are folded in blocks: the cumsum of per-flow pair counts
        and one ``searchsorted`` cut the flow list at the last flow
        boundary at or below each multiple of :data:`_PAIR_BLOCK`, so a
        block never splits a flow (a flow longer than a block is a block
        of its own).  Each block expands only its own pairs and folds
        them into Δ with one ``np.bincount`` over ``(every component,
        the block's comps)`` weighted by ``(running Δ, the block's
        terms)``.  ``np.bincount`` adds in input order from 0.0 and
        ``0.0 + x == x``, so each Δ[c] starts from its running total and
        adds the same terms in the same flow-ascending order as one pass
        over all flows would: the result is bitwise independent of the
        block size.  (``np.add.at`` would give the same bits, but ran
        with twice the run-to-run spread.)
        """
        b = b_set[fsl]
        base = self.nll(b, flows)
        pairs = self._flow_pairs(
            aff_sets, fsl, set_il, good_count, lists, iset_w
        )
        tf = pairs.slot_flow
        terms = wt[tf] * (
            self.nll(b[tf] + pairs.slot_count, flows[tf]) - base[tf]
        )
        npairs = pairs.lens.sum(axis=1)
        ends = npairs.cumsum()
        cuts = np.searchsorted(
            ends, np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK), side="right"
        )
        bounds = np.unique(np.concatenate(([0], cuts, [len(flows)])))
        bins = np.arange(self.n_comps, dtype=np.int64)
        delta = np.zeros(self.n_comps)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            idx = _expand_slices(
                pairs.starts[lo:hi].ravel(), pairs.lens[lo:hi].ravel()
            )
            at = pairs.toff[lo:hi].repeat(npairs[lo:hi]) + pairs.slots[idx]
            delta = np.bincount(
                np.concatenate((bins, pairs.comps[idx])),
                weights=np.concatenate((delta, terms[at])),
                minlength=self.n_comps,
            )
        return delta

    def _initial_delta(self) -> np.ndarray:
        """Δ of the empty hypothesis: every flow's contribution at ``b = 0``
        (``nll(0)`` is exactly 0, so this is the bare pair sum).

        Every member is good, so each interior set's pair list is its
        component union with member counts, which the problem gathered
        from the space's memo: no member is expanded or sorted here.
        """
        if self.problem.n_flows == 0 or self.n_sets == 0:
            return np.zeros(self.n_comps, dtype=np.float64)
        problem = self.problem
        return self._price(
            np.arange(problem.n_flows, dtype=np.int64),
            self.wt,
            np.arange(self.n_sets, dtype=np.int64),
            self.set_of_flow,
            self.iset_of_set,
            np.zeros(self.n_sets),
            self.set_w,
            (problem._iu_comps, problem._iu_counts, problem._iu_bounds),
            self.iset_w,
        )

    # ------------------------------------------------------------------
    def addition_gains(self, candidates: np.ndarray) -> np.ndarray:
        gains = self.delta[candidates] + self.prior_gain[candidates]
        if self.hypothesis:
            member = np.fromiter(
                (c in self.hypothesis for c in candidates),
                dtype=bool,
                count=len(candidates),
            )
            gains[member] = -np.inf
        return gains

    def _check_comp(self, comp: int) -> None:
        if not 0 <= comp < self.n_comps:
            raise InferenceError(f"component id {comp} out of range")

    def gain(self, comp: int) -> float:
        self._check_comp(comp)
        if comp in self.hypothesis:
            raise InferenceError(
                "gain() prices additions; for a member's removal gain "
                "use removal_gain()"
            )
        return float(self.delta[comp] + self.prior_gain[comp])

    def removal_gain(self, comp: int) -> float:
        """(data - prior) LL change of removing a member, priced
        without flipping - the Gibbs sampler's conditional for a
        component currently in the hypothesis.  Mirrors the reference
        engine's ``gain()`` for members: removal data delta minus the
        prior gain."""
        self._check_comp(comp)
        if comp not in self.hypothesis:
            raise InferenceError(f"component {comp} is not in the hypothesis")
        total = 0.0
        flows = self.comp_flows(comp)
        if len(flows):
            aff_sets, fsl = np.unique(
                self.set_of_flow[flows], return_inverse=True
            )
            local, upids, mult = self.set_instances(aff_sets)
            has = self._membership(comp, aff_sets, local, upids)
            nf_new = (
                self._path_nfailed[upids]
                + self._set_e_nfailed[aff_sets][local]
                - has
            )
            b_new_set = np.bincount(
                local, weights=mult * (nf_new > 0), minlength=len(aff_sets)
            )
            b_new = b_new_set[fsl]
            b_old = self._set_b[aff_sets][fsl].astype(np.float64)
            diff = self.nll(b_new, flows) - self.nll(b_old, flows)
            total = float(np.dot(self.wt[flows], diff))
        return total - float(self.prior_gain[comp])

    def _membership(
        self,
        comp: int,
        aff_sets: np.ndarray,
        local: np.ndarray,
        upids: np.ndarray,
    ) -> np.ndarray:
        """Bool per member instance: does its full path contain comp?"""
        path_has = np.zeros(self.n_kernel_paths, dtype=bool)
        path_has[self.comp_paths(comp)] = True
        out = path_has[upids]
        esets = self.comp_esets(comp)
        if len(esets):
            e_has = np.zeros(len(aff_sets), dtype=bool)
            e_has[np.searchsorted(aff_sets, esets)] = True
            out |= e_has[local]
        return out

    # ------------------------------------------------------------------
    def flip(self, comp: int) -> float:
        """Flip ``comp``; returns the (data + prior) LL change."""
        self._check_comp(comp)
        adding = comp not in self.hypothesis
        if adding:
            change = float(self.delta[comp] + self.prior_gain[comp])

        affected = self.comp_flows(comp)
        paths_of_comp = self.comp_paths(comp)
        esets_of_comp = self.comp_esets(comp)
        step = 1 if adding else -1
        if len(affected) > 0:
            aff_sets, fsl = np.unique(
                self.set_of_flow[affected], return_inverse=True
            )
            layer = self._iset_layer(aff_sets)
            nf_old = self._path_nfailed[layer.upids]
            has = _sorted_member(layer.upids, paths_of_comp)
            e_old = self._set_e_nfailed[aff_sets]
            e_new = e_old.copy()
            if len(esets_of_comp):
                e_new[np.searchsorted(aff_sets, esets_of_comp)] += step
            wt = self.wt[affected]
            _, old = self._state_delta(
                affected, wt, aff_sets, fsl, layer, nf_old == 0, e_old > 0
            )
            b_new_set, new = self._state_delta(
                affected, wt, aff_sets, fsl, layer,
                (nf_old + step * has) == 0, e_new > 0,
            )
            if old is not None:
                self.delta -= old
            if new is not None:
                self.delta += new
            self._set_b[aff_sets] = b_new_set.astype(np.int64)

        self._path_nfailed[paths_of_comp] += step
        if len(esets_of_comp):
            self._set_e_nfailed[esets_of_comp] += step
        if adding:
            self.hypothesis.add(comp)
        else:
            self.hypothesis.discard(comp)
            # After the state reverts, the addition gain of ``comp`` is
            # exactly the negative of the removal change.
            change = -float(self.delta[comp] + self.prior_gain[comp])
        self.ll += change
        self.flips += 1
        return change


def greedy_local_search(
    state: VectorJleState,
    candidates: np.ndarray,
    max_failures: Optional[int] = None,
    min_gain: float = 0.0,
) -> Prediction:
    """Greedy local search from a (possibly warm) JLE state.

    Extends the paper's add-only greedy loop with removals so a
    warm-started hypothesis can shed components the new window no
    longer supports: each step flips whichever single addition or
    removal improves the LL most, and stops when no flip beats
    ``min_gain``.  From an empty state this reduces exactly to the
    add-only loop (a just-added component's removal gain is its
    addition gain negated, so removals never fire without new
    evidence).  An iteration guard bounds pathological flip cycles.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    scores: Dict[int, float] = {}
    cap = max_failures
    if cap is None:
        cap = len(candidates) + len(state.hypothesis)
    guard = 2 * (len(candidates) + len(state.hypothesis)) + 16
    for _ in range(guard):
        best_comp = -1
        best_gain = min_gain
        removing = False
        if len(candidates) and len(state.hypothesis) < cap:
            gains = state.addition_gains(candidates)
            idx = int(np.argmax(gains))
            if float(gains[idx]) > best_gain:
                best_gain = float(gains[idx])
                best_comp = int(candidates[idx])
        for comp in sorted(state.hypothesis):
            gain = state.removal_gain(comp)
            if gain > best_gain:
                best_gain = gain
                best_comp = comp
                removing = True
        if best_comp < 0:
            break
        state.flip(best_comp)
        if removing:
            scores.pop(best_comp, None)
        else:
            scores[best_comp] = best_gain
    return Prediction(
        components=frozenset(state.hypothesis),
        scores=scores,
        log_likelihood=float(state.ll),
        hypotheses_scanned=state.hypotheses_scanned,
    )


class VectorGreedyWithoutJle(VectorArrays):
    """Greedy search pricing every candidate from scratch each iteration
    (the "greedy only" ablation arm, on the shared vector substrate).

    Candidates are pruned with the :meth:`VectorArrays
    .addition_upper_bounds` array: a component whose bound cannot beat
    the running best gain is skipped without pricing, which leaves the
    selected hypothesis unchanged (the bound over-estimates)."""

    name = "flock-greedy-only"

    def __init__(
        self,
        problem: InferenceProblem,
        params: FlockParams,
        max_failures: Optional[int] = None,
        initial_hypothesis: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(problem, params)
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        self._set_b = np.zeros(self.n_sets, dtype=np.int64)
        self.hypothesis: Set[int] = set()
        self.ll = 0.0
        self._cap = max_failures
        if initial_hypothesis:
            # Warm start: seed the previous window's hypothesis so the
            # greedy loop only prices what changed.
            for comp in sorted(set(initial_hypothesis)):
                self.commit(comp, self.candidate_gain(comp))

    def _newly_bad_counts(
        self, comp: int, flows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(affected sets, per-set newly-failed count, flow set index)."""
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        local, upids, mult = self.set_instances(aff_sets)
        path_has = np.zeros(self.n_kernel_paths, dtype=bool)
        path_has[self.comp_paths(comp)] = True
        has = path_has[upids]
        esets = self.comp_esets(comp)
        if len(esets):
            e_has = np.zeros(len(aff_sets), dtype=bool)
            e_has[np.searchsorted(aff_sets, esets)] = True
            has = has | e_has[local]
        nf = self._path_nfailed[upids] + self._set_e_nfailed[aff_sets][local]
        newly_bad = has & (nf == 0)
        extra_set = np.bincount(
            local, weights=mult * newly_bad, minlength=len(aff_sets)
        )
        return aff_sets, extra_set, fsl

    def candidate_gain(self, comp: int) -> float:
        """LL(H + comp) - LL(H), recomputed over flows(comp)."""
        flows = self.comp_flows(comp)
        if not len(flows):
            return float(self.prior_gain[comp])
        aff_sets, extra_set, fsl = self._newly_bad_counts(comp, flows)
        b_old = self._set_b[aff_sets][fsl].astype(np.float64)
        extra = extra_set[fsl]
        diff = self.nll(b_old + extra, flows) - self.nll(b_old, flows)
        return float(np.dot(self.wt[flows], diff) + self.prior_gain[comp])

    def commit(self, comp: int, gain: float) -> None:
        flows = self.comp_flows(comp)
        if len(flows):
            aff_sets, extra_set, _ = self._newly_bad_counts(comp, flows)
            self._set_b[aff_sets] += extra_set.astype(np.int64)
        self._path_nfailed[self.comp_paths(comp)] += 1
        esets = self.comp_esets(comp)
        if len(esets):
            self._set_e_nfailed[esets] += 1
        self.hypothesis.add(comp)
        self.ll += gain

    def run(self) -> Prediction:
        candidates = list(self.problem.observed_components)
        cap = self._cap if self._cap is not None else len(candidates)
        ub = self.addition_upper_bounds()
        scanned = 0
        scores: Dict[int, float] = {}
        while len(self.hypothesis) < cap:
            best_comp = -1
            best_gain = 0.0
            for comp in candidates:
                if comp in self.hypothesis:
                    continue
                if ub[comp] <= best_gain:
                    # The bound caps the exact gain, so this candidate
                    # cannot strictly beat the current best.
                    continue
                scanned += 1
                gain = self.candidate_gain(comp)
                if gain > best_gain:
                    best_gain = gain
                    best_comp = comp
            if best_comp < 0:
                break
            self.commit(best_comp, best_gain)
            scores[best_comp] = best_gain
        return Prediction(
            components=frozenset(self.hypothesis),
            scores=scores,
            log_likelihood=self.ll,
            hypotheses_scanned=scanned,
        )
