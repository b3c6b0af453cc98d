"""Gibbs sampling over Flock's PGM, accelerated with JLE.

Section 3.3: "Using JLE, we were able to accelerate ... Gibbs sampling
for Flock ... by multiple orders of magnitude.  We ended up using Greedy
for Flock because ... for Gibbs sampling, it's hard to bound the number
of iterations required for convergence."

Each Gibbs step resamples one component's failed/not-failed bit from its
conditional posterior given all the others; the log-odds of that
conditional is exactly the JLE flip gain (data Δ + prior), so a step
costs only O(flows(comp) * T) on the incrementally-maintained
:class:`~repro.core.flock_fast.VectorJleState`, which prices every flow
individually.
After burn-in, per-component marginal inclusion frequencies are
thresholded into a prediction.

Sweeps run *batched*: between flips the JLE state is constant, so the
flip gains of a whole sweep segment are one vectorized gather from the
Δ array, the accept probabilities one vectorized sigmoid, and the
segment's first state change is found with a single argmax instead of
a Python-level step loop.  Removal gains (the only per-step kernel
work) are memoized until the next flip invalidates them, since they are
pure functions of the chain state.  The batched chain visits the
identical (component, uniform) sequence as the one-step-at-a-time
chain, so predictions match it step for step (the sequential chain is
the oracle in ``tests/oracles/gibbs.py``)."""

from __future__ import annotations

import numpy as np

from ..errors import InferenceError
from ..types import Prediction
from .flock_fast import VectorJleState
from .params import DEFAULT_PER_PACKET, FlockParams
from .problem import InferenceProblem


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid, two-branch form per element."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class GibbsInference:
    """MCMC fault localization via Gibbs sampling with JLE flip gains."""

    name = "flock-gibbs"

    def __init__(
        self,
        params: FlockParams = DEFAULT_PER_PACKET,
        sweeps: int = 30,
        burn_in: int = 10,
        threshold: float = 0.5,
        seed: int = 0,
    ) -> None:
        if burn_in < 0:
            raise InferenceError("burn_in must be non-negative")
        if sweeps <= burn_in:
            raise InferenceError("sweeps must exceed burn_in")
        if not 0.0 < threshold <= 1.0:
            raise InferenceError("threshold must be in (0, 1]")
        self._params = params
        self._sweeps = sweeps
        self._burn_in = burn_in
        self._threshold = threshold
        self._seed = seed

    @property
    def params(self) -> FlockParams:
        return self._params

    def localize(
        self,
        problem: InferenceProblem,
        initial_state: VectorJleState = None,
    ) -> Prediction:
        """Sample the chain and threshold marginals into a prediction.

        ``initial_state`` optionally warm-starts the chain from a
        rebased :class:`VectorJleState` (previous window's hypothesis
        and Δ).  The warm chain initializes at that hypothesis instead
        of the empty one, so it is a *different* Markov chain than a
        cold run - marginals agree at convergence (enough kept sweeps)
        but not step for step.
        """
        rng = np.random.default_rng(self._seed)
        if initial_state is None:
            state = VectorJleState(problem, self._params)
        else:
            if initial_state.problem is not problem:
                raise InferenceError(
                    "initial_state must be built on the problem being "
                    "localized"
                )
            state = initial_state
        candidates = np.asarray(problem.observed_components, dtype=np.int64)
        if not len(candidates):
            return Prediction.empty()

        # Array state: hypothesis membership and per-sweep inclusion
        # counts accumulate as whole-array operations; only the flip
        # chain itself is sequential (it is the Markov chain).
        in_hyp = np.zeros(problem.n_components, dtype=bool)
        for comp in state.hypothesis:
            in_hyp[comp] = True
        inclusion = np.zeros(problem.n_components, dtype=np.int64)
        # Removal gains are pure functions of the chain state, so they
        # stay valid until the next flip.
        removal_cache: dict = {}

        def removal_gain(comp: int) -> float:
            gain = removal_cache.get(comp)
            if gain is None:
                gain = state.removal_gain(comp)
                removal_cache[comp] = gain
            return gain

        kept_samples = 0
        for sweep in range(self._sweeps):
            order = rng.permutation(len(candidates))
            # One uniform per candidate, pre-drawn: the generator fills
            # arrays element-wise, so the stream matches the historical
            # per-step rng.random() calls exactly.
            draws = rng.random(len(candidates))
            self._run_sweep(
                state, candidates, order, draws, in_hyp,
                removal_gain, removal_cache,
            )
            if sweep >= self._burn_in:
                kept_samples += 1
                inclusion[in_hyp] += 1

        counts = inclusion[candidates]
        marginals = {
            int(comp): count / kept_samples
            for comp, count in zip(candidates.tolist(), counts.tolist())
        }
        predicted = frozenset(
            comp for comp, p in marginals.items() if p >= self._threshold
        )
        return Prediction(
            components=predicted,
            scores=marginals,
            log_likelihood=float(state.ll),
            hypotheses_scanned=state.flips * 1,
        )

    @staticmethod
    def _run_sweep(
        state, candidates, order, draws, in_hyp, removal_gain, removal_cache
    ) -> None:
        """One sweep, vectorized between flips.

        While no flip happens the state - and hence every step's flip
        gain - is constant, so the whole remaining segment's decisions
        are computed at once and only the first state change is applied
        before rescanning the tail.
        """
        comps_in_order = candidates[order]
        n = len(order)
        pos = 0
        while pos < n:
            seg = comps_in_order[pos:]
            member = in_hyp[seg]
            log_odds = state.delta[seg] + state.prior_gain[seg]
            if np.any(member):
                for j in np.nonzero(member)[0].tolist():
                    log_odds[j] = -removal_gain(int(seg[j]))
            p_failed = _sigmoid_vec(log_odds)
            flips = (draws[pos:] < p_failed) != member
            if not flips.any():
                return
            j = int(np.argmax(flips))
            comp = int(seg[j])
            state.flip(comp)
            in_hyp[comp] = not in_hyp[comp]
            removal_cache.clear()
            pos += j + 1
