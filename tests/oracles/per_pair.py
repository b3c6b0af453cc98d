"""Per-pair JLE Δ pricing: the former ``VectorJleState._state_delta``.

Before per-(flow, distinct count) pricing, :class:`repro.core.flock_fast
.VectorJleState` expanded every (flow, component, count) pair and
evaluated the likelihood term once per pair, and the cold Δ counted
every interior set's pairs over its members with one sort instead of
reading the problem's memoized unions and counts.
:class:`PerPairJleState` keeps that ``_state_delta``/``_flow_pairs``
pair verbatim, and routes the initial Δ through them, so tests can
require the production engine's Δ, ll and failed-member counts to be
byte-identical to it after every flip and rebase.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core import flock_fast
from repro.core.flock_fast import VectorJleState, _IsetLayer
from repro.core.problem import _expand_slices


class PerPairJleState(VectorJleState):
    """:class:`VectorJleState` pricing one ``nll`` per (flow, comp) pair.

    Flips, :meth:`rebase`, :meth:`restore` and ``_delta_contrib`` are
    inherited and reach the reference through :meth:`_state_delta`.
    """

    def _initial_delta(self) -> np.ndarray:
        flows = np.arange(self.problem.n_flows, dtype=np.int64)
        return self._delta_contrib(flows, self.wt)[0]

    def _flow_pairs(
        self,
        aff_sets: np.ndarray,
        fsl: np.ndarray,
        good_count: np.ndarray,
        layer: _IsetLayer,
        good: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (comp, count) pair table over good member paths, and
        each flow's two slices of it (interior list, endpoint comps)."""
        n_comps = np.int64(self.n_comps)
        n_isets = len(layer.isets)
        live = good_count > 0
        live_iset = np.zeros(n_isets, dtype=bool)
        live_iset[layer.set_il[live]] = True
        keys, cnts = self._iset_pair_lists(layer, good & live_iset[layer.il])
        ibounds = np.searchsorted(
            keys, np.arange(n_isets + 1, dtype=np.int64) * n_comps
        )
        ilens = np.where(live, np.diff(ibounds)[layer.set_il], 0)
        elens = np.where(live, self.set_elen[aff_sets], 0)
        eidx = _expand_slices(self.set_eoff[aff_sets], elens)
        comps = np.concatenate((keys % n_comps, self.set_ecomps[eidx]))
        counts = np.concatenate((cnts, np.repeat(good_count, elens)))
        starts = np.empty((len(aff_sets), 2), dtype=np.int64)
        starts[:, 0] = ibounds[layer.set_il]
        starts[:, 1] = len(keys) + elens.cumsum() - elens
        lens = np.empty((len(aff_sets), 2), dtype=np.int64)
        lens[:, 0] = ilens
        lens[:, 1] = elens
        return comps, counts, starts[fsl], lens[fsl]

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
        """(per-set failed-member count, Δ contribution), one ``nll``
        per pair, folded in blocks of ``flock_fast._PAIR_BLOCK``."""
        iset_b = np.bincount(
            layer.il, weights=layer.mult * ~good, minlength=len(layer.isets)
        )
        set_w = self.set_w[aff_sets]
        b_set = np.where(e_failed, set_w, iset_b[layer.set_il])
        good_count = set_w - b_set
        if not np.any(good_count > 0):
            return b_set, None
        b = b_set[fsl]
        base = self.nll(b, flows)
        comps, counts, starts, lens = self._flow_pairs(
            aff_sets, fsl, good_count, layer, good
        )
        npairs = lens.sum(axis=1)
        ends = npairs.cumsum()
        block = flock_fast._PAIR_BLOCK
        cuts = np.searchsorted(
            ends, np.arange(block, ends[-1], block), side="right"
        )
        bounds = np.unique(np.concatenate(([0], cuts, [len(flows)])))
        slots = np.arange(self.n_comps, dtype=np.int64)
        delta = np.zeros(self.n_comps)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            fl = np.arange(lo, hi, dtype=np.int64).repeat(npairs[lo:hi])
            idx = _expand_slices(starts[lo:hi].ravel(), lens[lo:hi].ravel())
            contrib = wt[fl] * (
                self.nll(b[fl] + counts[idx], flows[fl]) - base[fl]
            )
            delta = np.bincount(
                np.concatenate((slots, comps[idx])),
                weights=np.concatenate((delta, contrib)),
                minlength=self.n_comps,
            )
        return b_set, delta
