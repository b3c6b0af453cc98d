"""Tests for the InferenceProblem representation."""

import numpy as np
import pytest

from oracles.problem import n_paths, uncompressed_from_batch
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.types import FlowObservation, TelemetryKind


def obs(path_set, t, r, kind=TelemetryKind.PASSIVE):
    return FlowObservation(
        path_set=path_set, packets_sent=t, bad_packets=r, kind=kind
    )


class TestConstruction:
    def test_grouping_preserves_totals(self):
        observations = [obs(((0, 1),), 100, 2)] * 5 + [obs(((2,),), 10, 0)] * 3
        problem = InferenceProblem.from_observations(observations, 3, 3)
        assert problem.total_flows == 8
        assert problem.n_flows == 2
        assert sorted(problem.weights.tolist()) == [3, 5]

    def test_different_counts_not_grouped(self):
        observations = [obs(((0,),), 100, 2), obs(((0,),), 100, 3)]
        problem = InferenceProblem.from_observations(observations, 1, 1)
        assert problem.n_flows == 2

    def test_path_interning_shared(self):
        observations = [obs(((0, 1),), 10, 0), obs(((0, 1), (2,)), 10, 0)]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        assert n_paths(problem) == 2  # (0,1) interned once

    def test_component_bounds_checked(self):
        with pytest.raises(InferenceError):
            InferenceProblem.from_observations([obs(((7,),), 1, 0)], 3, 3)

    def test_exact_flags(self):
        observations = [obs(((0,),), 1, 0), obs(((0,), (1,)), 1, 0)]
        problem = InferenceProblem.from_observations(observations, 2, 2)
        by_width = {len(problem.flow_paths[i]): bool(problem.exact[i])
                    for i in range(2)}
        assert by_width == {1: True, 2: False}
        assert len(problem.exact_flow_indices()) == 1

    def test_pathset_multiplicity_preserved(self):
        # Two ECMP node-paths mapping to the same component set must
        # keep w=2 (the flow's fan-out matters in Eq. 1).
        observations = [obs(((0, 1), (0, 1)), 10, 1)]
        problem = InferenceProblem.from_observations(observations, 2, 2)
        assert problem.flow_pathset_size(0) == 2
        assert n_paths(problem) == 1


class TestIndexes:
    def test_flows_by_comp(self):
        observations = [
            obs(((0, 1),), 10, 0),
            obs(((1, 2),), 10, 0),
            obs(((2,),), 10, 0),
        ]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        assert len(problem.flows_by_comp[1]) == 2
        assert len(problem.flows_by_comp[0]) == 1

    def test_paths_by_comp(self):
        observations = [obs(((0, 1), (1, 2)), 10, 0)]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        assert len(problem.paths_by_comp[1]) == 2
        assert len(problem.paths_by_comp[0]) == 1

    def test_comps_by_flow_union(self):
        observations = [obs(((0, 1), (1, 2)), 10, 0)]
        problem = InferenceProblem.from_observations(observations, 3, 3)
        assert problem.comps_by_flow[0] == (0, 1, 2)

    def test_observed_components(self):
        observations = [obs(((0, 2),), 10, 0)]
        problem = InferenceProblem.from_observations(observations, 5, 5)
        assert problem.observed_components == (0, 2)

    def test_observed_components_matches_unique(self, drop_trace):
        from repro.eval.harness import build_problem
        from repro.telemetry import TelemetryConfig
        from repro.telemetry.inputs import build_observation_batch

        telemetry = TelemetryConfig.from_spec("A1+A2+P")
        compressed = build_problem(drop_trace, telemetry)
        batch = build_observation_batch(
            drop_trace.batch, telemetry, np.random.default_rng(0)
        )
        topo = drop_trace.topology
        uncompressed = uncompressed_from_batch(
            batch, topo.n_components, topo.n_links
        )
        assert len(compressed._set_ecomps) and not len(uncompressed._set_ecomps)
        for problem in (compressed, uncompressed):
            want = tuple(np.unique(problem._set_union_comps).tolist())
            assert want
            assert problem.observed_components == want
        empty = InferenceProblem.from_observations([], 5, 5)
        assert empty.observed_components == ()

    def test_is_device(self):
        problem = InferenceProblem.from_observations(
            [obs(((0, 3),), 1, 0)], n_components=5, n_links=2
        )
        assert not problem.is_device(0)
        assert problem.is_device(3)

    def test_describe_mentions_counts(self):
        problem = InferenceProblem.from_observations(
            [obs(((0,),), 1, 0)], 1, 1
        )
        text = problem.describe()
        assert "flows=1" in text
