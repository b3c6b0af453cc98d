"""Scalar likelihood math and the brute-force hypothesis evaluator.

The production kernels price flows through the vectorized
:func:`repro.core.model.normalized_flow_ll_fast`; the functions here are
the obviously-correct one-flow-at-a-time forms of the same quantities
(see :mod:`repro.core.model` for the derivation), kept so that tests
can check the kernels against a direct evaluation of paper Eq. 1.
"""

from __future__ import annotations

import math
from typing import Iterable, Set

import numpy as np

from repro.core.model import evidence_scores
from repro.core.params import FlockParams
from repro.errors import InferenceError

from .problem import path_component_sets


def evidence_score(r: int, t: int, params: FlockParams) -> float:
    """Per-flow evidence score ``s`` (scalar).

    Positive when the flow's loss pattern is better explained by a bad
    path, negative when better explained by a good path.
    """
    if not 0 <= r <= t:
        raise InferenceError(f"need 0 <= r <= t, got r={r}, t={t}")
    return r * math.log(params.pb / params.pg) + (t - r) * math.log(
        (1.0 - params.pb) / (1.0 - params.pg)
    )


def _logaddexp(x: float, y: float) -> float:
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def normalized_flow_ll(b: int, w: int, s: float) -> float:
    """Normalized log likelihood of one flow with ``b`` of ``w`` paths failed."""
    if w <= 0:
        raise InferenceError("a flow must have at least one path")
    if b <= 0:
        return 0.0
    if b >= w:
        return s
    return _logaddexp(math.log((w - b) / w), math.log(b / w) + s)


def normalized_flow_ll_vec(
    b: np.ndarray, w: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`normalized_flow_ll` over aligned arrays."""
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros(np.broadcast(b, w, s).shape)
    full = b >= w
    mid = (b > 0) & ~full
    if np.any(full):
        out[full] = np.broadcast_to(s, out.shape)[full]
    if np.any(mid):
        bm = b[mid]
        wm = np.broadcast_to(w, out.shape)[mid]
        sm = np.broadcast_to(s, out.shape)[mid]
        out[mid] = np.logaddexp(np.log((wm - bm) / wm), np.log(bm / wm) + sm)
    return out


def normalized_flow_ll_fast_reference(
    b: np.ndarray, w: np.ndarray, s: np.ndarray, es: np.ndarray
) -> np.ndarray:
    """The earlier body of :func:`repro.core.model.normalized_flow_ll_fast`,
    which checked every call for non-finite and ``b >= w`` rows with
    element masks; the production kernel must match it bit for bit."""
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.log(((w - b) + b * es) / w)
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


class LikelihoodModel:
    """Full-hypothesis likelihood evaluation over an inference problem.

    The slow, obviously-correct evaluator the JLE engines' incremental
    bookkeeping is validated against.
    """

    def __init__(self, problem, params: FlockParams) -> None:
        self._problem = problem
        self._params = params
        self._scores = evidence_scores(problem.bad_packets, problem.packets_sent, params)
        self._path_sets = None  # full-path component sets, on first use

    @property
    def params(self) -> FlockParams:
        return self._params

    def flow_score(self, flow: int) -> float:
        return float(self._scores[flow])

    def flow_ll(self, flow: int, hypothesis: Set[int]) -> float:
        """Normalized log likelihood contribution of one flow (unweighted)."""
        problem = self._problem
        if self._path_sets is None:
            self._path_sets = path_component_sets(problem)
        b = 0
        path_ids = problem.flow_paths[flow]
        for pid in path_ids:
            if self._path_sets[pid] & hypothesis:
                b += 1
        return normalized_flow_ll(b, len(path_ids), float(self._scores[flow]))

    def log_likelihood(
        self, hypothesis: Iterable[int], include_prior: bool = True
    ) -> float:
        """Normalized log likelihood of a hypothesis (sum over all flows).

        Only flows intersecting the hypothesis contribute (normalization
        cancels the rest), so the cost is O(|flows touching H| * T).
        """
        problem = self._problem
        hyp = set(hypothesis)
        total = 0.0
        if hyp:
            touched: Set[int] = set()
            for comp in hyp:
                touched.update(problem.flows_by_comp.get(comp, ()))
            for flow in touched:
                total += problem.weights[flow] * self.flow_ll(flow, hyp)
        if include_prior:
            for comp in hyp:
                total += self._params.prior_gain(problem.is_device(comp))
        return total
