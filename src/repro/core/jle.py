"""Joint Likelihood Exploration (JLE) - reference engine.

This is a direct, readable implementation of the paper's Algorithm 2.
:class:`JleState` maintains, for a current hypothesis ``H``:

* per-path failed-component counts (``path_nfailed``),
* per-flow failed-path counts (``flow_b``),
* the Δ array: for every component ``l`` not in ``H``,
  ``Δ[l] = LL(H ∪ {l}) − LL(H)`` (data term only; priors are added by
  :meth:`gain`).

Flipping a component updates all of these by touching only the flows
that intersect the flipped component (Theorem 1 of the paper): for each
such flow the engine recomputes the Algorithm-2 counters
``(paths_failed, good-path counts per component)`` before and after the
flip and applies the difference-of-differences update (Eq. 2).

Flips are involutive: ``flip(c); flip(c)`` restores the exact state,
which is what lets Sherlock's JLE-accelerated recursion (Algorithm 3)
explore without snapshotting.

The vectorized twin of this engine lives in
:mod:`repro.core.flock_fast`; property tests assert they agree.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..errors import InferenceError
from .model import evidence_scores, normalized_flow_ll
from .params import FlockParams
from .problem import InferenceProblem


class JleState:
    """Incrementally-maintained hypothesis state with a JLE Δ array."""

    def __init__(self, problem: InferenceProblem, params: FlockParams) -> None:
        self._problem = problem
        self._params = params
        self._scores = evidence_scores(
            problem.bad_packets, problem.packets_sent, params
        )
        self._w: List[int] = [len(fp) for fp in problem.flow_paths]
        self._weights = problem.weights
        self.path_nfailed: List[int] = [0] * problem.n_paths
        self.flow_b: List[int] = [0] * problem.n_flows
        self.hypothesis: Set[int] = set()
        self.ll: float = 0.0
        self.flips: int = 0
        self.delta = np.zeros(problem.n_components)
        self._prior_gain = np.empty(problem.n_components)
        link_gain = params.link_prior_gain
        device_gain = params.device_prior_gain
        self._prior_gain[: problem.n_links] = link_gain
        self._prior_gain[problem.n_links:] = device_gain
        self._compute_initial_delta()

    @property
    def problem(self) -> InferenceProblem:
        return self._problem

    @property
    def params(self) -> FlockParams:
        return self._params

    @property
    def hypotheses_scanned(self) -> int:
        """Neighbor hypotheses whose likelihood the Δ array exposes.

        Each Δ array state prices all ``n`` single-flip neighbors of the
        current hypothesis, so a run that performed ``flips`` flips has
        effectively scanned ``(flips + 1) * n`` hypotheses.
        """
        return (self.flips + 1) * self._problem.n_components

    # ------------------------------------------------------------------
    # Δ array construction (ComputeInitialDelta of Algorithm 2)
    # ------------------------------------------------------------------
    def _compute_initial_delta(self) -> None:
        problem = self._problem
        nll = normalized_flow_ll
        for flow, path_ids in enumerate(problem.flow_paths):
            counts: Dict[int, int] = {}
            for pid in path_ids:
                for comp in problem.path_table.components(pid):
                    counts[comp] = counts.get(comp, 0) + 1
            s = float(self._scores[flow])
            w = self._w[flow]
            wt = float(self._weights[flow])
            for comp, cnt in counts.items():
                self.delta[comp] += wt * nll(cnt, w, s)

    # ------------------------------------------------------------------
    # Gains
    # ------------------------------------------------------------------
    def _check_comp(self, comp: int) -> None:
        if not 0 <= comp < self._problem.n_components:
            raise InferenceError(f"component id {comp} out of range")

    def gain(self, comp: int) -> float:
        """Posterior log-gain of flipping ``comp`` (data Δ + prior)."""
        self._check_comp(comp)
        if comp in self.hypothesis:
            return self.removal_delta(comp) - float(self._prior_gain[comp])
        return float(self.delta[comp] + self._prior_gain[comp])

    def addition_gains(self, candidates: np.ndarray) -> np.ndarray:
        """Vector of gains for adding each candidate (members masked -inf)."""
        gains = self.delta[candidates] + self._prior_gain[candidates]
        if self.hypothesis:
            member = np.fromiter(
                (c in self.hypothesis for c in candidates),
                dtype=bool,
                count=len(candidates),
            )
            gains[member] = -np.inf
        return gains

    def removal_delta(self, comp: int) -> float:
        """Data-term Δ of removing a hypothesis member, computed directly.

        The Δ array holds *addition* gains (Algorithm 2's counters count
        only good paths, so members read as 0); removal gains are cheap
        to compute on demand because only flows intersecting ``comp``
        contribute - the same JLE locality argument.
        """
        self._check_comp(comp)
        if comp not in self.hypothesis:
            raise InferenceError(f"component {comp} is not in the hypothesis")
        problem = self._problem
        nll = normalized_flow_ll
        total = 0.0
        for flow in problem.flows_by_comp.get(comp, ()):
            b_old = self.flow_b[flow]
            b_new = 0
            for pid in problem.flow_paths[flow]:
                nf = self.path_nfailed[pid]
                if comp in problem.path_component_sets[pid]:
                    nf -= 1
                if nf > 0:
                    b_new += 1
            s = float(self._scores[flow])
            w = self._w[flow]
            total += float(self._weights[flow]) * (
                nll(b_new, w, s) - nll(b_old, w, s)
            )
        return total

    # ------------------------------------------------------------------
    # Flip (UpdateDeltaArr of Algorithm 2, generalized to both directions)
    # ------------------------------------------------------------------
    def flip(self, comp: int) -> float:
        """Flip ``comp`` in/out of the hypothesis; returns the LL change."""
        problem = self._problem
        self._check_comp(comp)
        adding = comp not in self.hypothesis
        if adding:
            change = float(self.delta[comp] + self._prior_gain[comp])
        else:
            change = self.removal_delta(comp) - float(self._prior_gain[comp])

        nll = normalized_flow_ll
        step = 1 if adding else -1
        new_flow_b: Dict[int, int] = {}
        for flow in problem.flows_by_comp.get(comp, ()):
            b_old = 0
            b_new = 0
            old_counts: Dict[int, int] = {}
            new_counts: Dict[int, int] = {}
            for pid in problem.flow_paths[flow]:
                nf = self.path_nfailed[pid]
                contains = comp in problem.path_component_sets[pid]
                nf_new = nf + step if contains else nf
                failed_old = nf > 0
                failed_new = nf_new > 0
                if failed_old:
                    b_old += 1
                if failed_new:
                    b_new += 1
                comps = problem.path_table.components(pid)
                if not failed_old:
                    for c in comps:
                        old_counts[c] = old_counts.get(c, 0) + 1
                if not failed_new:
                    for c in comps:
                        new_counts[c] = new_counts.get(c, 0) + 1
            s = float(self._scores[flow])
            w = self._w[flow]
            wt = float(self._weights[flow])
            base_old = nll(b_old, w, s)
            base_new = nll(b_new, w, s)
            touched = set(old_counts) | set(new_counts)
            for c in touched:
                d_old = nll(b_old + old_counts.get(c, 0), w, s) - base_old
                d_new = nll(b_new + new_counts.get(c, 0), w, s) - base_new
                self.delta[c] += wt * (d_new - d_old)
            new_flow_b[flow] = b_new

        for pid in problem.paths_by_comp.get(comp, ()):
            self.path_nfailed[pid] += step
        for flow, b in new_flow_b.items():
            self.flow_b[flow] = b
        if adding:
            self.hypothesis.add(comp)
        else:
            self.hypothesis.discard(comp)
        self.ll += change
        self.flips += 1
        return change
