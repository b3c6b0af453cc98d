"""Algorithm 3 (ExploreBranch) over the Algorithm-2 state, unpruned.

:class:`repro.baselines.sherlock.SherlockFerret` runs the same recursion
on :class:`repro.core.flock_fast.VectorJleState` with branch-and-bound
pruning; this literal form explores every branch of at most ``K - 1``
flips and reads the bottom level straight out of the Δ array, so a
test can check that the pruned search reaches the same maximum.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import FlockParams
from repro.core.problem import InferenceProblem
from repro.types import Prediction

from .jle import JleState


def ferret_jle(
    problem: InferenceProblem, params: FlockParams, max_failures: int
) -> Prediction:
    """The best hypothesis of at most ``max_failures`` components."""
    state = JleState(problem, params)
    cand = np.asarray(problem.observed_components, dtype=np.int64)
    best = [(), 0.0]  # the empty hypothesis scores 0 by normalization

    def explore(start: int) -> None:
        if state.ll > best[1]:
            best[:] = [tuple(sorted(state.hypothesis)), state.ll]
        if len(state.hypothesis) == max_failures - 1:
            remaining = cand[start:]
            if len(remaining):
                gains = state.addition_gains(remaining)
                idx = int(np.argmax(gains))
                if state.ll + float(gains[idx]) > best[1]:
                    best[:] = [
                        tuple(sorted(state.hypothesis)) + (int(remaining[idx]),),
                        state.ll + float(gains[idx]),
                    ]
            return
        for i in range(start, len(cand)):
            comp = int(cand[i])
            state.flip(comp)
            explore(i + 1)
            state.flip(comp)

    explore(0)
    return Prediction(components=frozenset(best[0]), log_likelihood=float(best[1]))
