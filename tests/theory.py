"""Theory companions (test-side): traffic skew, the Theorem 2 condition, and the
Theorem 3 NP-hardness gadget.

* Definition 3: traffic ``T`` is ``eps``-skewed when
  ``T({l1,l2}) / T({l1}) <= eps`` for all link pairs.  Theorem 2: with
  ``(1/alpha)``-skewed traffic, greedy recovers the exact failed set
  when there are at most ``alpha/2`` failures, every link carries enough
  packets, and ``5*pg < pb < 0.05``.
* Theorem 3 reduces minimum vertex cover to adversarial MLE inference;
  :func:`vertex_cover_gadget` builds that instance as a stress test for
  the inference engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

from oracles.telemetry import FlowRecord
from repro.core.params import FlockParams
from repro.errors import InferenceError
from repro.topology.base import Topology
from repro.types import FlowObservation

# ----------------------------------------------------------------------
# Traffic skew (Definition 3)
# ----------------------------------------------------------------------


def traffic_skew(
    topology: Topology, records: Sequence[FlowRecord]
) -> float:
    """Measured skew ``eps`` of a trace: max over link pairs of
    ``T({l1,l2}) / T({l1})`` using each flow's actual path.

    Returns 0.0 when no two links share a flow (perfectly spread
    traffic).
    """
    single: Dict[int, int] = {}
    pair: Dict[Tuple[int, int], int] = {}
    for record in records:
        links = sorted(
            {topology.link_id(u, v) for u, v in zip(record.path, record.path[1:])}
        )
        t = record.packets_sent
        for link in links:
            single[link] = single.get(link, 0) + t
        for a, b in combinations(links, 2):
            pair[(a, b)] = pair.get((a, b), 0) + t
    eps = 0.0
    for (a, b), t_pair in pair.items():
        eps = max(eps, t_pair / single[a], t_pair / single[b])
    return eps


def max_recoverable_failures(eps: float) -> float:
    """Theorem 2's failure budget ``alpha / 2`` with ``alpha = 1/eps``."""
    if eps <= 0.0:
        return math.inf
    return 1.0 / (2.0 * eps)


@dataclass(frozen=True)
class Theorem2Report:
    """Outcome of checking Theorem 2's sufficient condition on a trace."""

    eps: float
    alpha: float
    n_failures: int
    failures_ok: bool
    hyperparams_ok: bool
    rates_separated: bool
    min_link_packets: int


def check_theorem2(
    topology: Topology,
    records: Sequence[FlowRecord],
    params: FlockParams,
    failed_links: Iterable[int],
    link_drop_rates: Dict[int, float],
    good_rate_bound: float,
) -> Theorem2Report:
    """Evaluate Theorem 2's sufficient condition on a concrete trace.

    ``rates_separated`` checks the drop probabilities are < pg on good
    links and > pb on failed links; ``hyperparams_ok`` checks
    ``5*pg < pb < 0.05``.
    """
    failed = set(failed_links)
    eps = traffic_skew(topology, records)
    alpha = math.inf if eps <= 0 else 1.0 / eps
    budget = max_recoverable_failures(eps)
    hyper_ok = (5.0 * params.pg < params.pb) and (params.pb < 0.05)
    rates_ok = all(
        link_drop_rates.get(link, 0.0) > params.pb for link in failed
    ) and good_rate_bound < params.pg

    per_link: Dict[int, int] = {}
    for record in records:
        for u, v in zip(record.path, record.path[1:]):
            link = topology.link_id(u, v)
            per_link[link] = per_link.get(link, 0) + record.packets_sent
    min_packets = min(per_link.values()) if per_link else 0

    return Theorem2Report(
        eps=eps,
        alpha=alpha,
        n_failures=len(failed),
        failures_ok=len(failed) <= budget,
        hyperparams_ok=hyper_ok,
        rates_separated=rates_ok,
        min_link_packets=min_packets,
    )


# ----------------------------------------------------------------------
# Theorem 3 gadget (NP-hardness of adversarial inference)
# ----------------------------------------------------------------------


def observation_for_score(
    target_s: float, params: FlockParams, path: Tuple[int, ...], max_packets: int = 4096
) -> FlowObservation:
    """Build an exact-path observation whose evidence score approximates
    ``target_s``.

    The evidence score is ``s = r*g + (t-r)*h`` with ``g = ln(pb/pg) > 0``
    and ``h = ln((1-pb)/(1-pg)) < 0``; any target is reachable to within
    one quantum by choosing integer ``(r, t)``.
    """
    g = math.log(params.pb / params.pg)
    h = math.log((1.0 - params.pb) / (1.0 - params.pg))
    best: Tuple[float, int, int] = (math.inf, 0, 1)
    if target_s >= 0:
        for r in range(1, max_packets):
            # choose t - r >= 0 to bring the score near the target
            extra = max(0, int(round((target_s - r * g) / h)))
            s = r * g + extra * h
            err = abs(s - target_s)
            if err < best[0]:
                best = (err, r, r + extra)
            if r * g > target_s + abs(h) * 2 and err > best[0]:
                break
    else:
        for t in range(1, max_packets):
            s = t * h
            err = abs(s - target_s)
            if err < best[0]:
                best = (err, 0, t)
            if s < target_s and err > best[0]:
                break
    _, r, t = best
    return FlowObservation(path_set=(path,), packets_sent=t, bad_packets=r)


def vertex_cover_gadget(
    edges: Sequence[Tuple[int, int]],
    params: FlockParams,
    cost_scale: float = 10.0,
    epsilon: float = 0.05,
) -> Tuple[List[FlowObservation], int]:
    """Build the Theorem 3 reduction instance for a vertex-cover graph.

    Components ``0..n_vertices-1`` are "vertex links".  For each graph
    edge ``(u, v)`` there is an edge-flow traversing ``{u, v}`` whose
    likelihood strongly prefers at least one endpoint failed
    (``1 + alpha_f = 1/C``, i.e. evidence score ``+ln C``); each vertex
    link also carries a link-flow lightly preferring it healthy
    (``1 + alpha_f = 1 + eps``, score ``-ln(1+eps)``).  The MLE is then a
    minimum vertex cover.  Returns (observations, n_components).
    """
    if not edges:
        raise InferenceError("the gadget needs at least one edge")
    n_vertices = max(max(u, v) for u, v in edges) + 1
    observations: List[FlowObservation] = []
    edge_score = math.log(cost_scale)
    link_score = -math.log1p(epsilon)
    for u, v in edges:
        if u == v:
            raise InferenceError("vertex-cover graphs must be simple")
        observations.append(
            observation_for_score(edge_score, params, (min(u, v), max(u, v)))
        )
    for vertex in range(n_vertices):
        observations.append(
            observation_for_score(link_score, params, (vertex,))
        )
    return observations, n_vertices
