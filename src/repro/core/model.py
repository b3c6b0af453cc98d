"""Likelihood math of Flock's 3-layer Bayesian PGM (paper section 3.2).

The probability of a flow observing ``r`` bad packets out of ``t`` sent,
over a path set of ``w`` paths of which a hypothesis fails ``b``, is
(paper Eq. 1, with the paths grouped by failed/not-failed):

    P[F=(r,t) | H] = (b/w) * pb^r (1-pb)^(t-r) + ((w-b)/w) * pg^r (1-pg)^(t-r)

All schemes work with the log likelihood *normalized by the no-failure
hypothesis* ("We normalize all likelihoods by the likelihood of the
no-failure hypothesis ... to cancel out any flow whose path set does not
include any failed links").  Dividing by ``pg^r (1-pg)^(t-r)`` leaves a
quantity that depends on the flow only through its *evidence score*

    s = r*ln(pb/pg) + (t-r)*ln((1-pb)/(1-pg))

and on the hypothesis only through ``b``:

    nll(b; w, s) = ln( (w-b)/w + (b/w) * e^s )
                 = logaddexp( ln((w-b)/w), ln(b/w) + s )

``nll(0) = 0`` and ``nll(w) = s`` exactly.  This is the memoization that
powers JLE: "the effect on a flow's likelihood depends only on the
number of failed paths, not the specific failed links."
"""

from __future__ import annotations

import math

import numpy as np

from .params import FlockParams

_sum = np.add.reduce


def evidence_scores(
    r: np.ndarray, t: np.ndarray, params: FlockParams
) -> np.ndarray:
    """Per-flow evidence scores ``s`` over aligned ``r``/``t`` arrays.

    Positive when a flow's loss pattern is better explained by a bad
    path, negative when better explained by a good path.
    """
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    gain = math.log(params.pb / params.pg)
    penalty = math.log((1.0 - params.pb) / (1.0 - params.pg))
    return r * gain + (t - r) * penalty


def evidence_exp(s: np.ndarray) -> np.ndarray:
    """Per-flow ``exp(s)``, precomputed once for the fast nll kernel.

    Overflows to ``inf`` for extreme positive scores; the fast kernel
    falls back to ``logaddexp`` on those rows.
    """
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(s, dtype=np.float64))


def normalized_flow_ll_fast(
    b: np.ndarray, w: np.ndarray, s: np.ndarray, es: np.ndarray
) -> np.ndarray:
    """``nll(b; w, s)`` over aligned arrays, with ``exp(s)`` hoisted out.

    Evaluates ``log(((w-b) + b*e^s) / w)`` in one full-array pass - one
    log per element instead of two logs plus a logaddexp - using the
    caller's precomputed ``es = exp(s)`` (per-flow, so the hot kernels
    pay the transcendental once per problem instead of once per pair).
    ``b == 0`` rows come out exactly 0 (``log(w/w)``), ``b >= w`` rows
    are patched to exactly ``s``, and rows whose ``es`` overflowed take
    the logaddexp path.  Agrees with the direct logaddexp form
    (``tests/oracles/model.py``) to ulp-level accuracy.

    All four arguments must be aligned 1-D arrays (no broadcasting).
    """
    b = np.asarray(b, dtype=np.float64)
    d = w - b
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.log((d + b * es) / w)
        total = _sum(out)
    # The common call has every row finite, which one sum tells: a sum
    # of finite logs cannot overflow.  Its b >= w rows (d <= 0) then
    # take s in place, with no mask scans.
    if math.isfinite(total):
        np.copyto(out, s, where=d <= 0)
        return out
    # Non-finite rows are the overflow cases: b == 0 with es == inf
    # (0*inf = NaN; the exact value is 0), and b > 0 where es or the
    # product b*es overflowed (out = inf; take the logaddexp path).
    nonfinite = ~np.isfinite(out)
    if nonfinite.any():
        out[nonfinite & (b <= 0)] = 0.0
        fix = nonfinite & (b > 0) & (b < w)
        if fix.any():
            bf = b[fix]
            wf = w[fix]
            out[fix] = np.logaddexp(
                np.log((wf - bf) / wf), np.log(bf / wf) + s[fix]
            )
    full = b >= w
    if full.any():
        out[full] = s[full]
    return out
