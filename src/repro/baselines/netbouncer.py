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
with whole-array passes over the problem CSRs; each coordinate-descent
step computes all of a link's path products with one masked
``np.multiply.reduceat`` (excluded coordinates read as an exact 1.0
factor), and the per-link boundary scan of the concave case prices both
endpoints vectorized.  Scalar accumulations are reproduced with
``cumsum`` folds, so estimates match the historical per-path Python
loops bit for bit.  The device rule walks the component indexes
(``comp -> paths``, ``comp -> flows``, endpoint columns) instead of the
object views, so compressed problems never expand.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.problem import _expand_slices
from ..errors import InferenceError
from ..types import Prediction
from .base import exact_flow_components


def _seq_sum(terms: np.ndarray, init: float) -> float:
    """Left-to-right ``init + t1 + t2 + ...`` (the scalar-loop order)."""
    if len(terms) == 0:
        return init
    return float(np.cumsum(np.concatenate(([init], terms)))[-1])


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
        if regularization < 0.0:
            raise InferenceError("regularization must be non-negative")
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

        Returns (paths as link tuples in first-seen order, y array).
        Flows of one problem set share their components, so grouping
        runs per distinct set and only merges sets whose link tuples
        coincide.
        """
        flows, comps, off = exact_flow_components(problem)
        if len(flows) == 0:
            return [], np.empty(0)
        sent = problem.packets_sent[flows]
        bad = problem.bad_packets[flows]
        wt = problem.weights[flows]
        local = np.repeat(np.arange(len(flows), dtype=np.int64), np.diff(off))
        link_rows = comps < problem.n_links
        l_local = local[link_rows]
        l_comp = comps[link_rows]
        lcounts = np.bincount(l_local, minlength=len(flows))
        loff = np.zeros(len(flows) + 1, dtype=np.int64)
        np.cumsum(lcounts, out=loff[1:])

        valid = (lcounts > 0) & (sent > 0)
        sets = problem._set_of_flow[flows]
        group_of_set: Dict[int, int] = {}
        group_index: Dict[Tuple[int, ...], int] = {}
        paths: List[Tuple[int, ...]] = []
        group_ids = np.full(len(flows), -1, dtype=np.int64)
        l_comp_list = l_comp.tolist()
        for i in np.nonzero(valid)[0].tolist():
            sid = int(sets[i])
            gid = group_of_set.get(sid)
            if gid is None:
                links = tuple(l_comp_list[loff[i]:loff[i + 1]])
                gid = group_index.get(links)
                if gid is None:
                    gid = len(paths)
                    group_index[links] = gid
                    paths.append(links)
                group_of_set[sid] = gid
            group_ids[i] = gid

        sel = group_ids >= 0
        good = np.bincount(
            group_ids[sel],
            weights=(wt * (sent - bad))[sel],
            minlength=len(paths),
        )
        total = np.bincount(
            group_ids[sel], weights=(wt * sent)[sel], minlength=len(paths)
        )
        return paths, good / total

    # ------------------------------------------------------------------
    def localize(self, problem) -> Prediction:
        paths, y = self._aggregate(problem)
        if not paths:
            return Prediction.empty()

        links = sorted({link for path in paths for link in path})
        link_index = {link: i for i, link in enumerate(links)}
        # Path -> link-index CSR (member order preserved).
        plen = np.fromiter(
            (len(p) for p in paths), dtype=np.int64, count=len(paths)
        )
        plo = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(plen, out=plo[1:])
        pl_flat = np.fromiter(
            (link_index[l] for path in paths for l in path),
            dtype=np.int64,
            count=int(plo[-1]),
        )
        # link index -> member paths (ascending), via a stable sort.
        path_of = np.repeat(np.arange(len(paths), dtype=np.int64), plen)
        order = np.argsort(pl_flat, kind="stable")
        pol_vals = path_of[order]
        pol_bounds = np.searchsorted(
            pl_flat[order], np.arange(len(links) + 1, dtype=np.int64)
        )

        x = np.ones(len(links))
        lam = self._lam
        for _ in range(self._max_sweeps):
            max_move = 0.0
            for li in range(len(links)):
                members = pol_vals[pol_bounds[li]:pol_bounds[li + 1]]
                if not len(members):
                    continue
                seg_lens = plen[members]
                idx = _expand_slices(plo[members], seg_lens)
                flat = pl_flat[idx]
                vals = x[flat]
                # The excluded coordinate reads as an exact 1.0 factor,
                # so the left-to-right fold equals the skip-one loop.
                vals[flat == li] = 1.0
                starts = np.zeros(len(members), dtype=np.int64)
                np.cumsum(seg_lens[:-1], out=starts[1:])
                q = np.multiply.reduceat(vals, starts)
                ym = y[members]
                num = _seq_sum(ym * q, -lam / 2.0)
                den = _seq_sum(q * q, -lam)
                if den > 1e-12:
                    new = min(1.0, max(0.0, num / den))
                elif den < -1e-12:
                    # Regularizer dominates: the quadratic is concave, so
                    # the minimum is at a boundary; pick the better one.
                    new = self._boundary_min(ym, q)
                else:
                    continue
                max_move = max(max_move, abs(new - x[li]))
                x[li] = new
            if max_move < self._tol:
                break

        drop = 1.0 - x
        failed_links = frozenset(
            links[i] for i in range(len(links)) if drop[i] > self._drop_threshold
        )

        predicted = set(failed_links)
        predicted |= self._failed_devices(problem, failed_links)
        scores = {links[i]: float(drop[i]) for i in range(len(links))}
        return Prediction(components=frozenset(predicted), scores=scores)

    def _boundary_min(self, ym: np.ndarray, q: np.ndarray) -> float:
        """Evaluate the per-coordinate objective at x_l in {0, 1}."""
        best_val = None
        best_x = 1.0
        for candidate in (0.0, 1.0):
            resid = ym - candidate * q
            val = _seq_sum(
                resid * resid, 0.0
            ) + self._lam * candidate * (1.0 - candidate)
            if best_val is None or val < best_val:
                best_val = val
                best_x = candidate
        return best_x

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
