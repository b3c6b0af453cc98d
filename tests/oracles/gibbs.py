"""The one-step-at-a-time Gibbs chain.

:class:`repro.core.gibbs.GibbsInference` vectorizes each sweep between
flips.  :class:`SequentialGibbs` swaps in the historical sweep that
resamples one component per Python step, so a test can require the
batched chain to visit the identical (component, uniform) sequence.
"""

from __future__ import annotations

import numpy as np

from repro.core.gibbs import GibbsInference, _sigmoid_vec


class SequentialGibbs(GibbsInference):
    """:class:`GibbsInference` with the sequential sweep."""

    @staticmethod
    def _run_sweep(
        state, candidates, order, draws, in_hyp, removal_gain, removal_cache
    ) -> None:
        for step, idx in enumerate(order.tolist()):
            comp = int(candidates[idx])
            if in_hyp[comp]:
                # gain of removing; P(failed | rest) via the reverse flip
                log_odds_failed = -state.removal_gain(comp)
            else:
                log_odds_failed = state.gain(comp)
            p_failed = float(_sigmoid_vec(np.asarray([log_odds_failed]))[0])
            want_failed = draws[step] < p_failed
            if want_failed != in_hyp[comp]:
                state.flip(comp)
                in_hyp[comp] = want_failed
