"""Flock inference: greedy MLE search accelerated by JLE (Algorithm 1).

The greedy loop: "We start from the no-failure hypothesis and extend it
one link at a time ... we set H := H ∪ {l*} where l* is the link
offering the biggest improvement ... When no added link failure improves
the log likelihood of the current hypothesis H, the search terminates."

Priors (section 3.2) fold into the improvement test: adding component
``c`` changes the posterior by ``Δ[c] + ln(ρ_c/(1−ρ_c))``, so the search
stops when every candidate's combined gain is non-positive.

The Δ-array bookkeeping is
:class:`repro.core.flock_fast.VectorJleState`, a NumPy CSR
vectorization of Algorithm 2's update rule that prices every flow
individually.  The literal Algorithm-2 transcription it is tested
against lives in ``tests/oracles/jle.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import InferenceError
from ..types import Prediction
from .flock_fast import VectorJleState, greedy_local_search
from .params import DEFAULT_PER_PACKET, FlockParams
from .problem import InferenceProblem


class FlockInference:
    """Greedy + JLE maximum-likelihood fault localization.

    Parameters
    ----------
    params:
        Model hyperparameters (``pg``, ``pb``, ``rho``).
    max_failures:
        Optional safety cap on hypothesis size.  Flock's inference does
        not need to know the true failure count (section 4.1); this cap
        exists only to bound adversarial inputs.
    min_gain:
        The greedy loop continues while the best combined gain exceeds
        this (0.0 reproduces the paper's stopping rule exactly).
    """

    name = "flock"

    def __init__(
        self,
        params: FlockParams = DEFAULT_PER_PACKET,
        max_failures: Optional[int] = None,
        min_gain: float = 0.0,
    ) -> None:
        if max_failures is not None and max_failures < 0:
            raise InferenceError("max_failures must be non-negative")
        self._params = params
        self._max_failures = max_failures
        self._min_gain = min_gain

    @property
    def params(self) -> FlockParams:
        return self._params

    def localize(
        self,
        problem: InferenceProblem,
        warm_state: Optional[object] = None,
    ) -> Prediction:
        """Run greedy+JLE MLE search and return the inferred failed set.

        ``warm_state`` optionally supplies an already-rebased
        :class:`~repro.core.flock_fast.VectorJleState` carrying the
        previous window's hypothesis (see :meth:`VectorJleState
        .rebase`); the search then runs as a local search (additions
        *and* removals) from that hypothesis instead of growing from
        empty - the steady-state fast path of the streaming monitor.
        """
        if warm_state is not None:
            if warm_state.problem is not problem:
                raise InferenceError(
                    "warm_state must be built on the problem being localized"
                )
            return greedy_local_search(
                warm_state,
                np.asarray(problem.observed_components, dtype=np.int64),
                max_failures=self._max_failures,
                min_gain=self._min_gain,
            )
        state = VectorJleState(problem, self._params)
        candidates = np.asarray(problem.observed_components, dtype=np.int64)
        if len(candidates) == 0:
            return Prediction.empty()

        cap = self._max_failures
        if cap is None:
            cap = len(candidates)
        scores = {}
        while len(state.hypothesis) < cap:
            gains = state.addition_gains(candidates)
            best_idx = int(np.argmax(gains))
            best_gain = float(gains[best_idx])
            if not best_gain > self._min_gain:
                break
            chosen = int(candidates[best_idx])
            state.flip(chosen)
            scores[chosen] = best_gain

        return Prediction(
            components=frozenset(state.hypothesis),
            scores=scores,
            log_likelihood=float(state.ll),
            hypotheses_scanned=state.hypotheses_scanned,
        )
