"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure or table of the paper at "ci"
scale, prints the rows (so ``pytest benchmarks/ --benchmark-only`` output
can be eyeballed against the paper), and asserts the figure's headline
*shape* - who wins, roughly by how much - rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.eval.harness import build_problem
from repro.eval.reporting import render_result
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting
from repro.simulation import SilentLinkDrops
from repro.telemetry import TelemetryConfig
from repro.topology import fat_tree


@pytest.fixture(scope="session")
def drop_problem():
    """A mid-size A1+A2+P problem for the kernel micro-benchmarks."""
    topo = fat_tree(6)
    routing = EcmpRouting(topo)
    trace = make_trace(
        topo, routing,
        SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2),
        seed=99, n_passive=8000, n_probes=1000,
    )
    return build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))


@pytest.fixture()
def show(capsys):
    """Print an experiment result table, bypassing pytest capture."""

    def _show(result, columns=None):
        with capsys.disabled():
            print()
            print(render_result(result, columns))

    return _show
