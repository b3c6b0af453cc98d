"""Per-link drop-rate assignment.

Section 6.3: "Like [54], we set drop rates on all non-failed links
between 0 - 0.01% chosen independently and uniformly at random to model
occasional drops on good links."  Section 7.1: failed links get a drop
rate "chosen uniformly at random between 0.1% and 1%".
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from ..errors import SimulationError
from ..topology.base import Topology

#: Paper defaults (fractions, not percentages).
GOOD_LINK_MAX_RATE = 1e-4
FAILED_LINK_MIN_RATE = 1e-3
FAILED_LINK_MAX_RATE = 1e-2


class DropRatePlan:
    """Ground-truth per-link packet drop probabilities."""

    def __init__(self, topology: Topology, rates: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != (topology.n_links,):
            raise SimulationError(
                f"expected {topology.n_links} rates, got shape {rates.shape}"
            )
        if np.any(rates < 0.0) or np.any(rates > 1.0):
            raise SimulationError("drop rates must be probabilities")
        self._topo = topology
        self._rates = rates
        # Per-plan memo of path drop probabilities for the scalar API.
        # A plan is immutable (``with_rates`` returns a fresh plan), so
        # the cache is valid for the plan's lifetime - i.e. per
        # injection.  The columnar simulator computes all path
        # survivals in one vectorized pass instead
        # (:func:`repro.simulation.flowsim._path_survivals`, whose
        # complement is asserted bit-identical to this scalar fold);
        # the memo serves scalar callers, which may price the same path
        # many times per trace.
        self._path_prob_cache: Dict[Tuple[int, ...], float] = {}

    @property
    def rates(self) -> np.ndarray:
        """Read-only view of per-link drop probabilities."""
        view = self._rates.view()
        view.flags.writeable = False
        return view

    def rate(self, link: int) -> float:
        return float(self._rates[link])

    def with_rates(self, overrides: Dict[int, float]) -> "DropRatePlan":
        """A copy with some links' rates replaced."""
        rates = self._rates.copy()
        for link, rate in overrides.items():
            if not 0 <= link < len(rates):
                raise SimulationError(f"no link with id {link}")
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"rate for link {link} not a probability")
            rates[link] = rate
        return DropRatePlan(self._topo, rates)

    def path_drop_probability(self, nodes: Iterable[int]) -> float:
        """Drop probability of a node-sequence path: 1 - prod(1 - p_l).

        Repeated link traversals (probe bounce paths) multiply twice, as
        a real bounced packet crosses the link twice.  Memoized per
        path for the plan's lifetime.
        """
        key = tuple(nodes)
        cached = self._path_prob_cache.get(key)
        if cached is not None:
            return cached
        survive = 1.0
        for u, v in zip(key, key[1:]):
            survive *= 1.0 - self._rates[self._topo.link_id(u, v)]
        prob = 1.0 - survive
        self._path_prob_cache[key] = prob
        return prob


def good_link_rates(
    topology: Topology,
    rng: np.random.Generator,
    max_rate: float = GOOD_LINK_MAX_RATE,
) -> DropRatePlan:
    """Baseline plan: every link gets a benign rate in [0, max_rate]."""
    if not 0.0 <= max_rate <= 1.0:
        raise SimulationError("max_rate must be a probability")
    rates = rng.uniform(0.0, max_rate, size=topology.n_links)
    return DropRatePlan(topology, rates)


def fail_links(
    plan: DropRatePlan,
    links: Iterable[int],
    rng: np.random.Generator,
    min_rate: float = FAILED_LINK_MIN_RATE,
    max_rate: float = FAILED_LINK_MAX_RATE,
) -> DropRatePlan:
    """Mark links as failed with drop rates in [min_rate, max_rate]."""
    if not 0.0 <= min_rate <= max_rate <= 1.0:
        raise SimulationError("need 0 <= min_rate <= max_rate <= 1")
    overrides = {
        link: float(rng.uniform(min_rate, max_rate)) for link in links
    }
    return plan.with_rates(overrides)
