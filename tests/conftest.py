"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.telemetry import build_observations
from repro.core.problem import InferenceProblem
from repro.routing.ecmp import EcmpRouting
from repro.simulation.failures import SilentLinkDrops
from repro.telemetry.inputs import TelemetryConfig
from repro.topology import fat_tree, testbed, three_tier_clos
from repro.eval.scenarios import make_trace


@pytest.fixture(scope="session")
def small_fat_tree():
    return fat_tree(4)


@pytest.fixture(scope="session")
def small_clos():
    return three_tier_clos(
        pods=2, tors_per_pod=2, aggs_per_pod=2,
        core_groups=2, cores_per_group=1, hosts_per_tor=2,
    )


@pytest.fixture(scope="session")
def testbed_topo():
    return testbed()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ft_routing(small_fat_tree):
    return EcmpRouting(small_fat_tree)


@pytest.fixture(scope="session")
def drop_trace(small_fat_tree, ft_routing):
    """A deterministic silent-drop trace on the small fat tree.

    Failed links get solidly-detectable drop rates (>= 0.4%; the paper's
    Fig. 3 shows all schemes degrade below that) so localization tests
    can assert exact recovery.
    """
    return make_trace(
        small_fat_tree,
        ft_routing,
        SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2),
        seed=99,
        n_passive=2500,
        n_probes=400,
    )


@pytest.fixture(scope="session")
def drop_problem(drop_trace):
    """An A1+A2+P inference problem built from the drop trace."""
    topo = drop_trace.topology
    obs = build_observations(
        drop_trace.records,
        topo,
        drop_trace.routing,
        TelemetryConfig.from_spec("A1+A2+P"),
        np.random.default_rng(5),
    )
    return InferenceProblem.from_observations(
        obs, n_components=topo.n_components, n_links=topo.n_links
    )
