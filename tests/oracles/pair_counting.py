"""Set-granular JLE pair counting: the former numpy-engine Δ kernels.

Before interior-set counting, :class:`repro.core.flock_fast
.VectorJleState` counted (set, component) pairs by expanding the
interior members of *every* affected set, counted them either into a
dense ``len(sets) x n_comps`` bincount scratch or with ``np.unique``,
merged the endpoint components in, and expanded the per-set lists to
flows in component-sorted order.  :class:`OracleJleState` keeps those
code paths verbatim (the initial Δ, ``_delta_contrib`` and both flip
passes) on top of the production state, so tests can require the
production engine to match it with ``np.array_equal``.

``dense_cap`` selects the counting branch: the historical default
uses the dense scratch whenever it fits, ``0`` forces ``np.unique``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.flock_fast import VectorJleState
from repro.core.problem import _expand_slices
from repro.errors import InferenceError

#: Above this many (row x component) cells the pair count fell back to
#: sort-based counting instead of a dense bincount scratch.
DENSE_CELLS_CAP = 1 << 23


def count_sorted(
    keys: np.ndarray,
    weights: np.ndarray,
    dense_size: int,
    dense_cap: int = DENSE_CELLS_CAP,
) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, per-key weight sums), dense or by np.unique."""
    if len(keys) == 0:
        return keys, np.empty(0)
    if 0 < dense_size <= dense_cap:
        dense = np.bincount(keys, weights=weights, minlength=dense_size)
        ukeys = np.nonzero(dense)[0]
        return ukeys, dense[ukeys]
    ukeys, inverse = np.unique(keys, return_inverse=True)
    return ukeys, np.bincount(inverse, weights=weights)


class OracleJleState(VectorJleState):
    """:class:`VectorJleState` with the set-granular Δ kernels.

    Everything but the initial Δ, :meth:`_delta_contrib` and
    :meth:`flip` is inherited.
    """

    dense_cap = DENSE_CELLS_CAP

    def __init__(self, problem, params, dense_cap: int = DENSE_CELLS_CAP):
        self.dense_cap = dense_cap
        super().__init__(problem, params)

    def _set_pair_lists(self, sets, local, upids, mult, good, goodcount):
        """Per-set (component, count) lists over good member paths,
        sorted by (set local id, comp); endpoint components count the
        set's whole good-member total."""
        n_comps = np.int64(self.n_comps)
        gl = local[good]
        gp = upids[good]
        lens = self.path_len[gp]
        keys = np.repeat(gl, lens) * n_comps + self.path_comps[
            _expand_slices(self.path_off[gp], lens)
        ]
        wts = np.repeat(mult[good], lens)
        ukeys, cnts = count_sorted(
            keys, wts, len(sets) * self.n_comps, self.dense_cap
        )
        has_e = (self.set_elen[sets] > 0) & (goodcount > 0)
        if np.any(has_e):
            esel = np.nonzero(has_e)[0]
            elens = self.set_elen[sets[esel]]
            eidx = _expand_slices(self.set_eoff[sets[esel]], elens)
            ekeys = np.repeat(esel, elens) * n_comps + self.set_ecomps[eidx]
            ecnts = np.repeat(goodcount[esel], elens)
            pos = np.searchsorted(ukeys, ekeys)
            n = len(ukeys) + len(ekeys)
            at = pos + np.arange(len(ekeys), dtype=np.int64)
            rest = np.ones(n, dtype=bool)
            rest[at] = False
            merged_keys = np.empty(n, dtype=np.int64)
            merged_cnts = np.empty(n)
            merged_keys[at] = ekeys
            merged_cnts[at] = ecnts
            merged_keys[rest] = ukeys
            merged_cnts[rest] = cnts
            return merged_keys, merged_cnts
        return ukeys, cnts

    def _pairs_to_flows(self, n_local_sets, flow_set_local, keys, cnts):
        """Expand per-set pair lists to flow-major (fl, comp, cnt)."""
        n_comps = np.int64(self.n_comps)
        bounds = np.searchsorted(
            keys, np.arange(n_local_sets + 1, dtype=np.int64) * n_comps
        )
        lens = np.diff(bounds)[flow_set_local]
        fl = np.repeat(np.arange(len(flow_set_local), dtype=np.int64), lens)
        idx = _expand_slices(bounds[flow_set_local], lens)
        return fl, (keys % n_comps)[idx], cnts[idx]

    def _initial_delta(self):
        if self.problem.n_flows == 0 or self.n_sets == 0:
            return np.zeros(self.n_comps, dtype=np.float64)
        sets = np.arange(self.n_sets, dtype=np.int64)
        local, upids, mult = self.set_instances(sets)
        good = np.ones(len(upids), dtype=bool)
        keys, cnts = self._set_pair_lists(
            sets, local, upids, mult, good, self.set_w
        )
        fl, comp, cnt = self._pairs_to_flows(
            self.n_sets, self.set_of_flow, keys, cnts
        )
        contrib = self.wt[fl] * self.nll(cnt, fl)
        return np.bincount(comp, weights=contrib, minlength=self.n_comps).astype(
            np.float64
        )

    def _delta_contrib(self, flows, dw):
        out = np.zeros(self.n_comps, dtype=np.float64)
        flows = np.asarray(flows, dtype=np.int64)
        if len(flows) == 0 or self.n_sets == 0:
            return out, 0.0
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        local, upids, mult = self.set_instances(aff_sets)
        nf = self._path_nfailed[upids] + self._set_e_nfailed[aff_sets][local]
        failed = nf > 0
        b_set = self._set_b[aff_sets]
        good_count = self.set_w[aff_sets] - b_set
        b = b_set[fsl].astype(np.float64)
        base = self.nll(b, flows)
        base_ll = float(np.dot(dw, base))
        if not np.any(good_count > 0):
            return out, base_ll
        keys, cnts = self._set_pair_lists(
            aff_sets, local, upids, mult, ~failed, good_count
        )
        fl, comps_u, cnt = self._pairs_to_flows(len(aff_sets), fsl, keys, cnts)
        contrib = dw[fl] * (self.nll(b[fl] + cnt, flows[fl]) - base[fl])
        out += np.bincount(comps_u, weights=contrib, minlength=self.n_comps)
        return out, base_ll

    def flip(self, comp):
        if not 0 <= comp < self.n_comps:
            raise InferenceError(f"component id {comp} out of range")
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
            local, upids, mult = self.set_instances(aff_sets)
            has = self._membership(comp, aff_sets, local, upids)
            nf_old = (
                self._path_nfailed[upids] + self._set_e_nfailed[aff_sets][local]
            )
            nf_new = nf_old + step * has
            old_failed = nf_old > 0
            new_failed = nf_new > 0

            b_old_set = np.bincount(
                local, weights=mult * old_failed, minlength=len(aff_sets)
            )
            b_new_set = np.bincount(
                local, weights=mult * new_failed, minlength=len(aff_sets)
            )
            b_old = b_old_set[fsl]
            b_new = b_new_set[fsl]
            wt = self.wt[affected]
            base_old = self.nll(b_old, affected)
            base_new = self.nll(b_new, affected)

            good_old_count = self.set_w[aff_sets] - b_old_set
            if np.any(good_old_count > 0):
                keys, cnts = self._set_pair_lists(
                    aff_sets, local, upids, mult, ~old_failed, good_old_count
                )
                fl, comps_u, cnt = self._pairs_to_flows(
                    len(aff_sets), fsl, keys, cnts
                )
                contrib = wt[fl] * (
                    self.nll(b_old[fl] + cnt, affected[fl]) - base_old[fl]
                )
                self.delta -= np.bincount(
                    comps_u, weights=contrib, minlength=self.n_comps
                )
            good_new_count = self.set_w[aff_sets] - b_new_set
            if np.any(good_new_count > 0):
                keys, cnts = self._set_pair_lists(
                    aff_sets, local, upids, mult, ~new_failed, good_new_count
                )
                fl, comps_u, cnt = self._pairs_to_flows(
                    len(aff_sets), fsl, keys, cnts
                )
                contrib = wt[fl] * (
                    self.nll(b_new[fl] + cnt, affected[fl]) - base_new[fl]
                )
                self.delta += np.bincount(
                    comps_u, weights=contrib, minlength=self.n_comps
                )

            self._set_b[aff_sets] = b_new_set.astype(np.int64)

        self._path_nfailed[paths_of_comp] += step
        if len(esets_of_comp):
            self._set_e_nfailed[esets_of_comp] += step
        if adding:
            self.hypothesis.add(comp)
        else:
            self.hypothesis.discard(comp)
            change = -float(self.delta[comp] + self.prior_gain[comp])
        self.ll += change
        self.flips += 1
        return change
