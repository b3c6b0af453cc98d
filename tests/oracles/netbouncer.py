"""NetBouncer (Tan et al., NSDI 2019) as literal per-path scalar loops.

:class:`repro.baselines.netbouncer.NetBouncer` runs the same coordinate
descent from a per-link plan of numpy arrays.  This form reads the
problem's object views, aggregates exact flows into link paths one
flow at a time and updates each link with plain Python float folds, so
a test can require both to agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.problem import InferenceProblem
from repro.types import Prediction


def _link_paths(
    problem: InferenceProblem,
) -> Tuple[List[Tuple[int, ...]], List[float]]:
    """Exact flows grouped by link tuple, in first-seen order: the
    tuples and their weighted packet success ratios ``y``."""
    table = problem.path_table
    paths: List[Tuple[int, ...]] = []
    index: Dict[Tuple[int, ...], int] = {}
    good: List[float] = []
    total: List[float] = []
    for flow in problem.exact_flow_indices().tolist():
        (pid,) = problem.flow_paths[flow]
        links = tuple(
            sorted(c for c in table.components(pid) if c < problem.n_links)
        )
        sent = int(problem.packets_sent[flow])
        if not links or sent <= 0:
            continue
        bad = int(problem.bad_packets[flow])
        weight = int(problem.weights[flow])
        if links not in index:
            index[links] = len(paths)
            paths.append(links)
            good.append(0.0)
            total.append(0.0)
        g = index[links]
        good[g] += float(weight * (sent - bad))
        total[g] += float(weight * sent)
    return paths, [g / t for g, t in zip(good, total)]


def _objective_at(y: List[float], qs: List[float], x: float, lam: float) -> float:
    """The link's coordinate objective ``sum (y - x q)^2 + lam x (1 - x)``."""
    val = 0.0
    for yp, q in zip(y, qs):
        resid = yp - x * q
        val += resid * resid
    return val + lam * x * (1.0 - x)


def netbouncer_drops(
    problem: InferenceProblem,
    regularization: float,
    max_sweeps: int,
    tol: float,
    branches: Optional[Dict[str, int]] = None,
) -> Dict[int, float]:
    """Per observed link, its estimated drop rate ``1 - x_l``.

    ``branches``, when given, counts the link steps that took the
    interior (``"convex"``), boundary (``"concave"``) and flat
    (``"skip"``) branch.
    """
    paths, y = _link_paths(problem)
    links = sorted({link for path in paths for link in path})
    members = {
        link: [p for p, path in enumerate(paths) if link in path]
        for link in links
    }
    x = {link: 1.0 for link in links}
    lam = regularization
    for _ in range(max_sweeps):
        max_move = 0.0
        for link in links:
            num = -lam / 2.0
            den = -lam
            ym: List[float] = []
            qs: List[float] = []
            for p in members[link]:
                q = 1.0
                for other in paths[p]:
                    if other != link:
                        q *= x[other]
                num += y[p] * q
                den += q * q
                ym.append(y[p])
                qs.append(q)
            if den > 1e-12:
                branch = "convex"
                new = min(1.0, max(0.0, num / den))
            elif den < -1e-12:
                # Concave: the minimum sits at a boundary; 0 wins ties.
                branch = "concave"
                at0 = _objective_at(ym, qs, 0.0, lam)
                at1 = _objective_at(ym, qs, 1.0, lam)
                new = 1.0 if at1 < at0 else 0.0
            else:
                branch = "skip"
            if branches is not None:
                branches[branch] = branches.get(branch, 0) + 1
            if branch == "skip":
                continue
            max_move = max(max_move, abs(new - x[link]))
            x[link] = new
        if max_move < tol:
            break
    return {link: 1.0 - x[link] for link in links}


def netbouncer_localize(
    problem: InferenceProblem,
    regularization: float = 0.005,
    drop_threshold: float = 3e-3,
    device_frac: float = 0.5,
    max_sweeps: int = 50,
    tol: float = 1e-9,
    branches: Optional[Dict[str, int]] = None,
) -> Prediction:
    """Failed links by threshold, plus every device at least
    ``device_frac`` of whose observed links failed.  A device observes
    the links of every full path (of any flow) that crosses it."""
    drops = netbouncer_drops(problem, regularization, max_sweeps, tol, branches)
    if not drops:
        return Prediction.empty()
    failed = {link for link, d in drops.items() if d > drop_threshold}
    observed: Dict[int, set] = {}
    for comps in problem.path_table:
        path_links = {c for c in comps if c < problem.n_links}
        for comp in comps:
            if comp >= problem.n_links:
                observed.setdefault(comp, set()).update(path_links)
    predicted = set(failed)
    for device, seen in observed.items():
        if seen and len(seen & failed) / len(seen) >= device_frac:
            predicted.add(device)
    return Prediction(components=frozenset(predicted), scores=drops)
