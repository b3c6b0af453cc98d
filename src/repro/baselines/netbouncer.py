"""NetBouncer baseline (Tan et al., NSDI 2019) - Figure 5 of that paper.

NetBouncer solves for per-link *success* probabilities ``x_l`` from
per-path success ratios ``y_p`` by minimizing the regularized least
squares objective

    sum_p (y_p - prod_{l in p} x_l)^2  +  lam * sum_l x_l (1 - x_l)

via coordinate descent: fixing all other coordinates, the objective is a
quadratic in ``x_l`` with the closed-form minimizer

    x_l = ( sum_p y_p q_p - lam/2 ) / ( sum_p q_p^2 - lam ),
    q_p = prod_{l' in p, l' != l} x_{l'}

clipped to [0, 1].  The ``x(1-x)`` term pushes coordinates toward {0,1},
which is NetBouncer's noise-suppression trick.

A link is reported failed when its estimated drop rate ``1 - x_l``
exceeds ``drop_threshold``; a device is reported failed when at least a
``device_frac`` fraction of its observed links failed (the paper
calibrates "NetBouncer's threshold for the number of problematic flows
crossing a device" for the device-failure experiment).  Those three
knobs match the paper's "NetBouncer has 3 [parameters]".

Like 007, NetBouncer consumes exact-path flows only.

Implementation notes: flows aggregate into per-link-path success ratios
with whole-array passes over the problem CSRs (one Python step per
problem set, not per flow), and one ``np.unique`` numbers the links.
Everything of a coordinate step but ``x`` is fixed for the whole
descent, so ``localize`` builds it once, as a per-link plan: the link
slots of the link's member paths (its own slots redirected to a
constant 1.0 slot after the last link), the member segment starts, the
members' ``y`` and a term buffer seeded with ``(-lam/2, -lam)``.  A
sweep step then gathers ``x`` over the slots, takes every member's
``q`` with one ``np.multiply.reduceat``, writes ``y q`` and ``q q``
into the buffer with one multiply, and folds both rows left to right
with one row-wise ``add.accumulate``; the concave case prices its two
boundary candidates with the same fold.  Links still update one at a
time in ascending order, members in ascending path order, so estimates
match the per-path scalar loops of ``tests/oracles/netbouncer.py`` bit
for bit.  The device rule walks the component indexes (``comp ->
paths``, ``comp -> flows``, endpoint columns) instead of the object
views, so compressed problems never expand.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..core.problem import _expand_slices
from ..errors import InferenceError
from ..types import Prediction
from .base import exact_flow_components


def _row_folds(terms: np.ndarray) -> List[float]:
    """Left-to-right sum of each row of ``terms`` (the scalar-loop order).

    Column 0 holds each fold's seed, so row ``r`` yields
    ``terms[r, 0] + terms[r, 1] + ...`` added one term at a time.
    """
    return np.add.accumulate(terms, axis=1)[:, -1].tolist()


class NetBouncer:
    """NetBouncer's regularized least-squares link estimator."""

    name = "netbouncer"

    def __init__(
        self,
        regularization: float = 0.005,
        drop_threshold: float = 3e-3,
        device_frac: float = 0.5,
        max_sweeps: int = 50,
        tol: float = 1e-9,
    ) -> None:
        if not 0.0 <= regularization < math.inf:
            raise InferenceError("regularization must be finite and non-negative")
        if not 0.0 < drop_threshold < 1.0:
            raise InferenceError("drop_threshold must be in (0, 1)")
        if not 0.0 < device_frac <= 1.0:
            raise InferenceError("device_frac must be in (0, 1]")
        if max_sweeps < 1:
            raise InferenceError("max_sweeps must be >= 1")
        self._lam = regularization
        self._drop_threshold = drop_threshold
        self._device_frac = device_frac
        self._max_sweeps = max_sweeps
        self._tol = tol

    # ------------------------------------------------------------------
    def _aggregate(self, problem):
        """Group exact flows into per-(link-)path success ratios.

        Returns (per-path link counts, the paths' link ids concatenated
        in first-seen path order, y array).  Flows of one problem set
        share their components, so grouping visits only each set's
        first valid flow and merges sets whose link tuples coincide.
        """
        flows, comps, off = exact_flow_components(problem)
        sent = problem.packets_sent[flows]
        local = np.repeat(np.arange(len(flows), dtype=np.int64), np.diff(off))
        link_rows = comps < problem.n_links
        l_comp = comps[link_rows]
        lcounts = np.bincount(local[link_rows], minlength=len(flows))
        valid = np.flatnonzero((lcounts > 0) & (sent > 0))
        if len(valid) == 0:
            return valid, valid, np.empty(0)  # no paths
        loff = np.zeros(len(flows) + 1, dtype=np.int64)
        np.cumsum(lcounts, out=loff[1:])

        _, first, set_rank = np.unique(
            problem._set_of_flow[flows[valid]],
            return_index=True,
            return_inverse=True,
        )
        group_of_set = np.empty(len(first), dtype=np.int64)
        group_index: Dict[Tuple[int, ...], int] = {}
        reps: List[int] = []  # per path, the flow it was first seen on
        l_comp_list = l_comp.tolist()
        loff_list = loff.tolist()
        # Sets in the order of their first valid flow.
        for u in np.argsort(first).tolist():
            i = int(valid[first[u]])
            links = tuple(l_comp_list[loff_list[i]:loff_list[i + 1]])
            gid = group_index.setdefault(links, len(reps))
            if gid == len(reps):
                reps.append(i)
            group_of_set[u] = gid
        group_ids = group_of_set[set_rank]

        wt = problem.weights[flows]
        bad = problem.bad_packets[flows]
        good = np.bincount(
            group_ids, weights=(wt * (sent - bad))[valid], minlength=len(reps)
        )
        total = np.bincount(
            group_ids, weights=(wt * sent)[valid], minlength=len(reps)
        )
        reps = np.asarray(reps, dtype=np.int64)
        plen = lcounts[reps]
        return plen, l_comp[_expand_slices(loff[reps], plen)], good / total

    def _plan(
        self, plen: np.ndarray, slots: np.ndarray, y: np.ndarray, n_links: int
    ) -> list:
        """Per link, everything of its coordinate step but ``x``.

        ``slots`` holds the paths' link indices concatenated.  Entry
        ``li`` is ``(flat, starts, yq, terms)`` over the link's ``m``
        member paths in ascending path order: their link slots, with
        link ``li``'s own slots replaced by ``n_links`` (the constant
        1.0 slot of ``x``); each member's segment start in ``flat``; a
        ``(2, m)`` array with the members' ``y`` in row 0 (row 1 takes
        the current ``q``); and a ``(2, m + 1)`` term buffer whose
        column 0 seeds the ``num``/``den`` folds.
        """
        plo = np.zeros(len(plen) + 1, dtype=np.int64)
        np.cumsum(plen, out=plo[1:])
        path_of = np.repeat(np.arange(len(plen), dtype=np.int64), plen)
        # (link, member path) pairs by link, then ascending path.
        order = np.argsort(slots, kind="stable")
        link_of_pair = slots[order]
        members = path_of[order]
        bounds = np.searchsorted(
            link_of_pair, np.arange(n_links + 1, dtype=np.int64)
        ).tolist()
        seg = plen[members]
        seg_off = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(seg, out=seg_off[1:])
        flat = slots[_expand_slices(plo[members], seg)]
        flat[flat == np.repeat(link_of_pair, seg)] = n_links
        ym = y[members]
        seeds = (-self._lam / 2.0, -self._lam)

        plan = []
        for li in range(n_links):
            a, b = bounds[li], bounds[li + 1]
            lo, hi = int(seg_off[a]), int(seg_off[b])
            yq = np.empty((2, b - a))
            yq[0] = ym[a:b]
            terms = np.empty((2, b - a + 1))
            terms[:, 0] = seeds
            plan.append((flat[lo:hi], seg_off[a:b] - lo, yq, terms))
        return plan

    # ------------------------------------------------------------------
    def localize(self, problem) -> Prediction:
        plen, raw_links, y = self._aggregate(problem)
        if not len(plen):
            return Prediction.empty()

        links, slots = np.unique(raw_links, return_inverse=True)
        plan = self._plan(plen, slots, y, len(links))
        # Slot len(links) stays 1.0: the plan points each link's own
        # slots there, so the left-to-right product skips the link.
        x = np.ones(len(links) + 1)
        for _ in range(self._max_sweeps):
            max_move = 0.0
            for li, (flat, starts, yq, terms) in enumerate(plan):
                q = np.multiply.reduceat(x[flat], starts)
                yq[1] = q
                np.multiply(yq, q, out=terms[:, 1:])
                num, den = _row_folds(terms)
                if den > 1e-12:
                    new = min(1.0, max(0.0, num / den))
                elif den < -1e-12:
                    # Regularizer dominates: the quadratic is concave, so
                    # the minimum is at a boundary; pick the better one.
                    new = self._boundary_min(yq[0], q)
                else:
                    continue
                max_move = max(max_move, abs(new - x[li]))
                x[li] = new
            if max_move < self._tol:
                break

        links = links.tolist()
        drop = (1.0 - x[:-1]).tolist()
        failed_links = frozenset(
            link for link, d in zip(links, drop) if d > self._drop_threshold
        )

        predicted = set(failed_links)
        predicted |= self._failed_devices(problem, failed_links)
        scores = dict(zip(links, drop))
        return Prediction(components=frozenset(predicted), scores=scores)

    @staticmethod
    def _boundary_min(ym: np.ndarray, q: np.ndarray) -> float:
        """Evaluate the per-coordinate objective at x_l in {0, 1}.

        The regularizer ``lam * x (1 - x)`` is 0 at both endpoints, so
        each candidate costs its squared residuals (``ym`` at 0,
        ``ym - q`` at 1); 0 wins unless 1 is strictly lower.
        """
        terms = np.zeros((2, len(q) + 1))
        terms[0, 1:] = ym
        np.subtract(ym, q, out=terms[1, 1:])
        np.multiply(terms, terms, out=terms)
        at0, at1 = _row_folds(terms)
        return 1.0 if at1 < at0 else 0.0

    def _failed_devices(self, problem, failed_links: frozenset) -> set:
        """Blame a device when enough of its observed links failed.

        A device's observed links are the links co-occurring with it on
        any path: its kernel paths' link comps plus the endpoint links
        of every set containing it (endpoint comps sit on all member
        paths, including the device-bearing ones).
        """
        out: set = set()
        n_links = problem.n_links
        path_lens = np.diff(problem.path_off)
        set_elens = np.diff(problem._set_eoff)
        for device in problem.observed_components:
            if device < n_links:
                continue
            dev_pids = problem.comp_path_ids(device)
            lens = path_lens[dev_pids]
            pcomps = problem.path_comps[
                _expand_slices(problem.path_off[dev_pids], lens)
            ]
            flows = problem.comp_flows(device)
            aff_sets = np.unique(problem._set_of_flow[flows])
            e_lens = set_elens[aff_sets]
            e_links = problem._set_ecomps[
                _expand_slices(problem._set_eoff[aff_sets], e_lens)
            ]
            observed = set(pcomps[pcomps < n_links].tolist())
            observed.update(e_links.tolist())
            if not observed:
                continue
            failed_here = observed & failed_links
            if len(failed_here) / len(observed) >= self._device_frac:
                out.add(device)
        return out
