"""Greedy MLE search *without* JLE - the "greedy only" ablation.

Fig. 4c of the paper separates Flock's two optimizations; this module is
the arm that keeps greedy search but prices each candidate hypothesis
individually: "If we had used just Greedy without JLE (computing
likelihood of each hypothesis individually), the runtime would be
O(n + mT + (K-1)nDT)" (section 4.1).

Like Sherlock, it reuses LL(H) and updates only the flows intersecting
the candidate link - but it redoes that work for *every* candidate in
*every* iteration, which is exactly the O(n) factor JLE removes.  It
returns the same hypothesis as Flock by construction.

Production runs the vectorized twin,
:class:`repro.core.flock_fast.VectorGreedyWithoutJle`; this pure-Python
transcription is the oracle it is tested against.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.model import evidence_scores
from repro.core.params import DEFAULT_PER_PACKET, FlockParams
from repro.core.problem import InferenceProblem
from repro.types import Prediction

from .model import normalized_flow_ll
from .problem import n_paths, path_component_sets


class GreedyWithoutJle:
    """Greedy search pricing each neighbor hypothesis from scratch."""

    name = "flock-greedy-only"

    def __init__(
        self,
        params: FlockParams = DEFAULT_PER_PACKET,
        max_failures: Optional[int] = None,
    ) -> None:
        self._params = params
        self._max_failures = max_failures

    def localize(self, problem: InferenceProblem) -> Prediction:
        params = self._params
        scores = evidence_scores(
            problem.bad_packets, problem.packets_sent, params
        )
        widths = [len(fp) for fp in problem.flow_paths]
        weights = problem.weights
        path_nfailed = [0] * n_paths(problem)
        path_sets = path_component_sets(problem)
        flow_b = [0] * problem.n_flows

        hypothesis = set()
        ll = 0.0
        scanned = 0
        chosen_scores: Dict[int, float] = {}
        candidates = list(problem.observed_components)
        cap = self._max_failures if self._max_failures is not None else len(candidates)

        def candidate_gain(comp: int) -> float:
            """LL(H + comp) - LL(H), computed directly over flows(comp)."""
            total = 0.0
            for flow in problem.flows_by_comp[comp]:
                b = flow_b[flow]
                b_new = b
                for pid in problem.flow_paths[flow]:
                    if path_nfailed[pid] == 0 and comp in path_sets[pid]:
                        b_new += 1
                if b_new != b:
                    s = float(scores[flow])
                    w = widths[flow]
                    total += float(weights[flow]) * (
                        normalized_flow_ll(b_new, w, s)
                        - normalized_flow_ll(b, w, s)
                    )
            return total + params.prior_gain(problem.is_device(comp))

        while len(hypothesis) < cap:
            best_comp = -1
            best_gain = 0.0
            for comp in candidates:
                if comp in hypothesis:
                    continue
                scanned += 1
                gain = candidate_gain(comp)
                if gain > best_gain:
                    best_gain = gain
                    best_comp = comp
            if best_comp < 0:
                break
            # Commit: update per-path and per-flow failure counts.
            for pid in problem.paths_by_comp.get(best_comp, ()):
                path_nfailed[pid] += 1
            for flow in problem.flows_by_comp[best_comp]:
                b = 0
                for pid in problem.flow_paths[flow]:
                    if path_nfailed[pid] > 0:
                        b += 1
                flow_b[flow] = b
            hypothesis.add(best_comp)
            ll += best_gain
            chosen_scores[best_comp] = best_gain

        return Prediction(
            components=frozenset(hypothesis),
            scores=chosen_scores,
            log_likelihood=ll,
            hypotheses_scanned=scanned,
        )
