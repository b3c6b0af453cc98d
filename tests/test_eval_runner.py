"""Tests for the parallel experiment runner (process pool, cache, errors)."""

import numpy as np
import pytest

from repro.baselines.b007 import Vote007
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET, FlockParams
from repro.errors import ExperimentError, InferenceError
from repro.eval.harness import SchemeSetup, evaluate, evaluate_many
from repro.eval.runner import (
    RunnerConfig,
    RunnerStats,
    _run_trace_unit,
    attach_trace,
    detach_traces,
    run_grid,
)
from repro.eval.scenarios import make_trace_batch
from repro.simulation.failures import SilentLinkDrops
from repro.telemetry.inputs import TelemetryConfig


class FailingLocalizer:
    """Raises inside the worker; must be picklable for the process pool."""

    def localize(self, problem):
        raise InferenceError("boom in worker")


@pytest.fixture(scope="module")
def traces(small_fat_tree, ft_routing):
    return make_trace_batch(
        small_fat_tree,
        ft_routing,
        [SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2)] * 3,
        base_seed=21,
        n_passive=600,
        n_probes=120,
    )


def suite():
    """A small grid with telemetry-spec sharing: 5 setups, 3 specs."""
    return [
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A1+A2+P")),
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A2")),
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("INT")),
        SchemeSetup("007", Vote007(threshold=0.6),
                    TelemetryConfig.from_spec("A2")),
        SchemeSetup("Flock tuned",
                    FlockInference(FlockParams(pg=3e-4, pb=4e-3, rho=5e-4)),
                    TelemetryConfig.from_spec("INT")),
    ]


class TestWorldShipping:
    """The process pool ships the shared PathSpace once per worker
    (pool initializer), not once per task."""

    def test_detached_payload_excludes_path_space(self, traces):
        import pickle

        worlds, payloads = detach_traces(traces)
        assert len(worlds) == 1  # one (topology, routing) pair
        for clone, original in zip(payloads, traces):
            assert clone is not original
            assert clone.topology is None
            assert clone.routing is None
            assert clone.batch.space is None
            payload = pickle.dumps(clone)
            # The per-task payload must not carry the interning space.
            assert b"PathSpace" not in payload
        # ... while the once-per-worker world does.
        assert b"PathSpace" in pickle.dumps(worlds)
        # Detaching leaves the originals untouched.
        for original in traces:
            assert original.batch.space is not None
            assert original.routing is not None

    def test_attach_restores_results(self, traces):
        worlds, payloads = detach_traces(traces)
        setups = suite()
        expected, _, _ = _run_trace_unit(setups, traces[0], use_cache=True)
        clone = attach_trace(payloads[0], worlds)
        got, _, _ = _run_trace_unit(setups, clone, use_cache=True)
        for a, b in zip(expected, got):
            assert a.prediction.components == b.prediction.components
            assert a.metrics == b.metrics

    def test_attach_is_noop_for_regular_traces(self, traces):
        assert attach_trace(traces[0]) is traces[0]


class TestExecutorEquivalence:
    def test_matches_serial_trace_for_trace(self, traces):
        serial = run_grid(suite(), traces, RunnerConfig())
        parallel = run_grid(suite(), traces, RunnerConfig(jobs=2))
        assert set(serial) == set(parallel)
        for label, expected in serial.items():
            got = parallel[label]
            assert got.accuracy == expected.accuracy
            assert len(got.per_trace) == len(expected.per_trace)
            for a, b in zip(expected.per_trace, got.per_trace):
                assert a.prediction.components == b.prediction.components
                assert a.metrics == b.metrics
                assert a.prediction.log_likelihood == b.prediction.log_likelihood
                # Problems are not shipped back over IPC.
                assert a.problem is not None
                assert b.problem is None

    def test_evaluate_many_jobs_shorthand(self, traces):
        serial = evaluate_many(suite(), traces)
        parallel = evaluate_many(suite(), traces, jobs=2)
        for label, expected in serial.items():
            assert parallel[label].accuracy == expected.accuracy

    def test_cache_does_not_change_metrics(self, traces):
        cached = run_grid(suite(), traces, RunnerConfig())
        uncached = run_grid(suite(), traces, RunnerConfig(cache=False))
        for label, expected in cached.items():
            assert uncached[label].accuracy == expected.accuracy


class TestProblemCache:
    def test_shared_specs_hit_cache(self, traces):
        stats = RunnerStats()
        run_grid(suite(), traces, RunnerConfig(), stats)
        n = len(traces)
        # 5 setups over 3 distinct specs: 2 hits per trace.
        assert stats.traces_run == n
        assert stats.problems_built == 3 * n
        assert stats.cache_hits == 2 * n

    def test_shared_problem_is_same_object_in_serial(self, traces):
        summaries = run_grid(suite(), traces, RunnerConfig())
        a2_flock = summaries["Flock (A2)"].per_trace
        a2_007 = summaries["007 (A2)"].per_trace
        for ra, rb in zip(a2_flock, a2_007):
            assert ra.problem is rb.problem
            assert ra.build_seconds == rb.build_seconds

    def test_no_cache_builds_every_problem(self, traces):
        stats = RunnerStats()
        run_grid(suite(), traces, RunnerConfig(cache=False), stats)
        assert stats.problems_built == 5 * len(traces)
        assert stats.cache_hits == 0


class TestFailurePropagation:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_worker_failure_raises(self, traces, jobs):
        setups = [
            SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                        TelemetryConfig.from_spec("A2")),
            SchemeSetup("broken", FailingLocalizer(),
                        TelemetryConfig.from_spec("A2")),
        ]
        config = RunnerConfig(jobs=jobs)
        with pytest.raises(InferenceError, match="boom in worker"):
            run_grid(setups, traces, config)


class TestValidation:
    def test_duplicate_labels_rejected(self, traces):
        dup = [
            SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                        TelemetryConfig.from_spec("A2")),
            SchemeSetup("Flock",
                        FlockInference(FlockParams(pg=3e-4, pb=4e-3, rho=5e-4)),
                        TelemetryConfig.from_spec("A2")),
        ]
        with pytest.raises(ExperimentError, match="duplicate"):
            evaluate_many(dup, traces)

    def test_bad_jobs(self):
        with pytest.raises(ExperimentError):
            RunnerConfig(jobs=0)

    def test_resolve_defaults(self):
        assert RunnerConfig.resolve() == RunnerConfig()
        assert RunnerConfig.resolve(jobs=1) == RunnerConfig()
        assert RunnerConfig.resolve(jobs=3).jobs == 3
        explicit = RunnerConfig(jobs=5)
        assert RunnerConfig.resolve(explicit, jobs=9) is explicit


class TestSummaries:
    def test_mean_build_and_inference_seconds(self, traces):
        setup = SchemeSetup(
            "Flock", FlockInference(DEFAULT_PER_PACKET),
            TelemetryConfig.from_spec("A1+A2+P"),
        )
        summary = evaluate(setup, traces)
        assert summary.mean_build_seconds > 0
        assert summary.mean_inference_seconds > 0
        expected_build = float(
            np.mean([r.build_seconds for r in summary.per_trace])
        )
        assert summary.mean_build_seconds == pytest.approx(expected_build)

    def test_empty_traces(self):
        setup = SchemeSetup(
            "Flock", FlockInference(DEFAULT_PER_PACKET),
            TelemetryConfig.from_spec("A2"),
        )
        summary = evaluate(setup, [])
        assert summary.per_trace == []
        assert summary.mean_build_seconds == 0.0
        assert summary.mean_inference_seconds == 0.0
        assert summary.accuracy.n_traces == 0
