"""Sherlock's "Ferret" inference (Bahl et al., SIGCOMM 2007), on
Flock's PGM, with and without JLE acceleration.

For a fair comparison the paper runs Ferret "on the same PGM as Flock"
(section 6.1): the algorithm exhaustively scores every hypothesis with
at most ``K`` concurrent failures and returns the maximum-likelihood
one.  That is ``O(n^K)`` hypotheses; Sherlock prices each one by
updating only the flows the flipped links intersect, giving
``O(n^K D T)`` overall (section 4.1 / appendix C).

Algorithm 3 of the paper shows JLE shaving another factor of ``n``: a
recursion carries a Δ array that prices all ``n`` single-link
extensions of the current branch at once, so flips are only needed down
to depth ``K-1`` - the bottom level is read straight out of the array.
That is ``O(n^(K-1))`` flips at ``O(D T)`` each.  Flips are involutive,
so the recursion explores by flip/descend/unflip without copying state.

Both variants price every flow individually on Flock's vectorized
substrate (:mod:`repro.core.flock_fast`), so runtime comparisons with
Flock share constant factors.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

import numpy as np

from ..errors import InferenceError
from ..types import Prediction
from ..core.flock_fast import (
    VectorArrays,
    VectorJleState,
    addition_upper_bounds,
)
from ..core.params import DEFAULT_PER_PACKET, FlockParams
from ..core.problem import InferenceProblem


class SherlockFerret:
    """Exhaustive <=K-failure MLE search (optionally JLE-accelerated).

    Parameters
    ----------
    params:
        PGM hyperparameters (shared with Flock).
    max_failures:
        ``K``; Sherlock "can not detect K > 2 failures" in practice but
        the implementation accepts any K.
    use_jle:
        When True, run Algorithm 3 (JLE-accelerated recursion); when
        False, price every hypothesis individually.

    The candidates are every observed component, as in Sherlock.
    """

    name = "sherlock"

    def __init__(
        self,
        params: FlockParams = DEFAULT_PER_PACKET,
        max_failures: int = 2,
        use_jle: bool = False,
    ) -> None:
        if max_failures < 1:
            raise InferenceError("max_failures must be >= 1")
        self._params = params
        self._k = max_failures
        self._use_jle = use_jle

    def localize(self, problem: InferenceProblem) -> Prediction:
        candidates = tuple(problem.observed_components)
        if not candidates:
            return Prediction.empty()
        if self._use_jle:
            return self._localize_jle(problem, candidates)
        return self._localize_plain(problem, candidates)

    # ------------------------------------------------------------------
    # Plain Ferret: price every hypothesis independently.
    # ------------------------------------------------------------------
    def _localize_plain(
        self, problem: InferenceProblem, candidates: Tuple[int, ...]
    ) -> Prediction:
        price = VectorArrays(problem, self._params).hypothesis_ll
        best_h: Tuple[int, ...] = ()
        best_ll = 0.0  # the empty hypothesis scores 0 by normalization
        scanned = 1
        for size in range(1, self._k + 1):
            for hypothesis in combinations(candidates, size):
                scanned += 1
                ll = price(hypothesis)
                if ll > best_ll:
                    best_ll = ll
                    best_h = hypothesis
        return Prediction(
            components=frozenset(best_h),
            log_likelihood=best_ll,
            hypotheses_scanned=scanned,
        )

    # ------------------------------------------------------------------
    # Algorithm 3: ExploreBranch with a JLE Δ array.
    # ------------------------------------------------------------------
    def _localize_jle(
        self, problem: InferenceProblem, candidates: Tuple[int, ...]
    ) -> Prediction:
        state = VectorJleState(problem, self._params)
        cand = np.asarray(candidates, dtype=np.int64)
        best_h: List[Tuple[int, ...]] = [()]
        best_ll = [0.0]
        scanned = [1]

        # Branch-and-bound pruning on the shared upper-bound array:
        # adding comp to *any* hypothesis gains at most ub[comp] (data
        # bound max(0, s) per flow, plus the prior and a float-rounding
        # slack), so a branch whose optimistic extension cannot strictly
        # beat the incumbent is skipped without flipping.
        ubpos = np.maximum(addition_upper_bounds(problem, self._params), 0.0)
        ubpos_cand = ubpos[cand]
        suffix_max = np.zeros(len(cand) + 1)
        if len(cand):
            suffix_max[:-1] = np.maximum.accumulate(ubpos_cand[::-1])[::-1]

        def consider_leaves(start: int) -> None:
            """Price all extensions H + {cand[i]}, i >= start, via Δ."""
            remaining = cand[start:]
            if len(remaining) == 0:
                return
            if state.ll + suffix_max[start] <= best_ll[0]:
                return
            gains = state.addition_gains(remaining)
            scanned[0] += len(remaining)
            idx = int(np.argmax(gains))
            leaf_ll = state.ll + float(gains[idx])
            if leaf_ll > best_ll[0]:
                best_ll[0] = leaf_ll
                best_h[0] = tuple(sorted(state.hypothesis)) + (
                    int(remaining[idx]),
                )

        def explore(start: int) -> None:
            if state.ll > best_ll[0]:
                best_ll[0] = state.ll
                best_h[0] = tuple(sorted(state.hypothesis))
            if len(state.hypothesis) == self._k - 1:
                # The Δ array already prices every leaf below this
                # branch - no flips needed at the bottom level.
                consider_leaves(start)
                return
            budget = self._k - len(state.hypothesis)
            for i in range(start, len(cand)):
                if state.ll + budget * suffix_max[i] <= best_ll[0]:
                    # suffix_max is non-increasing, so no later branch
                    # of this loop can improve either.
                    break
                if (
                    state.ll + ubpos_cand[i] + (budget - 1) * suffix_max[i + 1]
                    <= best_ll[0]
                ):
                    continue
                comp = int(cand[i])
                scanned[0] += 1
                state.flip(comp)
                explore(i + 1)
                state.flip(comp)

        explore(0)
        return Prediction(
            components=frozenset(best_h[0]),
            log_likelihood=float(best_ll[0]),
            hypotheses_scanned=scanned[0],
        )
