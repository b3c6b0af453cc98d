"""Tests for trace generation and the scheme-running harness."""

import numpy as np
import pytest

from oracles.telemetry import records_of
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.errors import ExperimentError
from repro.eval.harness import (
    SchemeSetup,
    build_problem,
    evaluate,
    evaluate_many,
    run_on_trace,
)
from repro.eval.scenarios import (
    SKEWED,
    UNIFORM,
    make_matrix,
    make_trace,
    make_trace_batch,
)
from repro.simulation import LinkFlap, SilentLinkDrops
from repro.simulation.failures import PER_FLOW
from repro.telemetry import TelemetryConfig
from repro.topology import fat_tree


class TestScenarios:
    def test_make_trace_deterministic(self, small_fat_tree, ft_routing):
        kwargs = dict(n_passive=500, n_probes=100)
        a = make_trace(small_fat_tree, ft_routing,
                       SilentLinkDrops(n_failures=1), seed=5, **kwargs)
        b = make_trace(small_fat_tree, ft_routing,
                       SilentLinkDrops(n_failures=1), seed=5, **kwargs)
        assert a.ground_truth == b.ground_truth
        assert records_of(a.batch) == records_of(b.batch)

    def test_trace_counts(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing, SilentLinkDrops(n_failures=1),
            seed=6, n_passive=300, n_probes=50,
        )
        records = records_of(trace.batch)
        probes = [r for r in records if r.is_probe]
        assert len(records) == 350
        assert len(probes) == 50

    def test_batch_alternates_traffic(self, small_fat_tree, ft_routing):
        traces = make_trace_batch(
            small_fat_tree, ft_routing,
            [SilentLinkDrops(n_failures=1)] * 4,
            base_seed=9, n_passive=200, n_probes=0,
        )
        patterns = [t.meta["traffic"] for t in traces]
        assert patterns == [UNIFORM, SKEWED, UNIFORM, SKEWED]

    def test_unknown_traffic_pattern(self, small_fat_tree, rng):
        with pytest.raises(ExperimentError):
            make_matrix(small_fat_tree, "bimodal", rng)


class TestHarness:
    def test_build_problem_counts(self, drop_trace):
        problem = build_problem(drop_trace, TelemetryConfig.from_spec("INT"))
        assert problem.total_flows == len(drop_trace.batch)

    def test_per_flow_trace_overrides_analysis(self, small_fat_tree, ft_routing):
        trace = make_trace(
            small_fat_tree, ft_routing, LinkFlap(n_links=1),
            seed=8, n_passive=400, n_probes=0,
        )
        assert trace.analysis == PER_FLOW
        problem = build_problem(trace, TelemetryConfig.from_spec("INT"))
        # Per-flow analysis: every observation is a single-packet bit.
        assert problem.packets_sent.max() == 1

    def test_run_on_trace_scores_prediction(self, drop_trace):
        setup = SchemeSetup(
            name="Flock",
            localizer=FlockInference(DEFAULT_PER_PACKET),
            telemetry=TelemetryConfig.from_spec("A1+A2+P"),
        )
        result = run_on_trace(setup, drop_trace)
        assert result.metrics.precision == 1.0
        assert result.metrics.recall == 1.0
        assert result.inference_seconds > 0

    def test_evaluate_many_labels(self, drop_trace):
        setups = [
            SchemeSetup(
                name="Flock",
                localizer=FlockInference(DEFAULT_PER_PACKET),
                telemetry=TelemetryConfig.from_spec(spec),
            )
            for spec in ("A2", "INT")
        ]
        summaries = evaluate_many(setups, [drop_trace])
        assert set(summaries) == {"Flock (A2)", "Flock (INT)"}
        for summary in summaries.values():
            assert summary.accuracy.n_traces == 1

    def test_evaluate_many_rejects_duplicate_labels(self, drop_trace):
        setups = [
            SchemeSetup(
                name="Flock",
                localizer=FlockInference(DEFAULT_PER_PACKET),
                telemetry=TelemetryConfig.from_spec("A2"),
            )
            for _ in range(2)
        ]
        with pytest.raises(ExperimentError, match="duplicate"):
            evaluate_many(setups, [drop_trace])

    def test_summary_separates_build_and_inference_time(self, drop_trace):
        setup = SchemeSetup(
            name="Flock",
            localizer=FlockInference(DEFAULT_PER_PACKET),
            telemetry=TelemetryConfig.from_spec("A1+A2+P"),
        )
        summary = evaluate(setup, [drop_trace])
        result = summary.per_trace[0]
        assert summary.mean_build_seconds == result.build_seconds
        assert summary.mean_inference_seconds == result.inference_seconds
        assert summary.mean_build_seconds > 0
