"""Parallel evaluation runner vs the legacy serial rebuild-per-scheme path.

Two workloads at ``ci`` preset:

* the Fig. 2 scheme grid (8 schemes over 5 distinct telemetry specs),
  where the per-trace problem cache removes 3 redundant builds per
  trace and the shared path memo removes repeated path lookups;
* a Fig. 8a-style calibration fan-out (16 Flock settings sharing one
  telemetry spec), where the legacy path rebuilt the identical problem
  16 times per trace - the trial-fan-out case the runner exists for.

Both must produce bit-identical metrics serially and on the process
pool; the fan-out must also show a multiple-x wall-clock win over
legacy serial.
"""

import time

from repro.core.flock import FlockInference
from repro.core.params import FlockParams
from repro.eval.experiments import silent_drop_traces, standard_scheme_suite
from repro.eval.harness import SchemeSetup
from repro.eval.runner import RunnerConfig, RunnerStats, run_grid
from repro.eval.spec import ExperimentResult
from repro.telemetry.inputs import TelemetryConfig

from _common import run_once


def _grid_seconds(setups, traces, config, stats=None):
    t0 = time.perf_counter()
    summaries = run_grid(setups, traces, config, stats)
    return time.perf_counter() - t0, summaries


def _comparison_rows(timings):
    legacy = timings["legacy (serial, no cache)"]
    return [
        {"runner": name, "seconds": seconds, "speedup": legacy / seconds}
        for name, seconds in timings.items()
    ]


def test_scheme_grid_cache_and_equivalence(show):
    """Fig. 2 grid: cache counts are exact, serial and pooled runs
    bit-identical."""
    setups = standard_scheme_suite()
    traces = silent_drop_traces("ci", seed=7, n_traces=4)
    run_grid(setups, traces[:1], RunnerConfig())  # warm-up

    legacy_stats = RunnerStats()
    legacy_seconds, legacy = _grid_seconds(
        setups, traces, RunnerConfig(cache=False), legacy_stats
    )
    cached_stats = RunnerStats()
    cached_seconds, cached = _grid_seconds(
        setups, traces, RunnerConfig(), cached_stats
    )
    process_seconds, processed = _grid_seconds(
        setups, traces, RunnerConfig(jobs=2)
    )
    show(
        ExperimentResult(
            experiment="parallel-eval/scheme-grid",
            description="Fig. 2 grid wall-clock by runner configuration",
            rows=_comparison_rows({
                "legacy (serial, no cache)": legacy_seconds,
                "serial + problem cache": cached_seconds,
                "process pool (2) + cache": process_seconds,
            }),
        )
    )

    # 8 schemes over 5 distinct telemetry specs -> 3 redundant builds
    # per trace, all eliminated by the cache.
    n = len(traces)
    assert legacy_stats.problems_built == 8 * n
    assert cached_stats.problems_built == 5 * n
    assert cached_stats.cache_hits == 3 * n

    # Every configuration must agree bit-for-bit on the metrics.
    for label, summary in legacy.items():
        for other in (cached, processed):
            assert other[label].accuracy == summary.accuracy, label


def test_calibration_fanout_speedup(benchmark, show):
    """16 Flock settings, one telemetry spec: the cache wins outright."""
    telemetry = TelemetryConfig.from_spec("A1+A2+P")
    setups = [
        SchemeSetup(
            f"Flock pg={pg:.0e} pb={pb:.0e}",
            FlockInference(FlockParams(pg=pg, pb=pb, rho=5e-4)),
            telemetry,
        )
        for pg in (1e-4, 3e-4, 5e-4, 7e-4)
        for pb in (2e-3, 4e-3, 6e-3, 1e-2)
    ]
    traces = silent_drop_traces("ci", seed=7, n_traces=4)
    run_grid(setups, traces[:1], RunnerConfig())  # warm-up

    legacy_seconds, legacy = _grid_seconds(
        setups, traces, RunnerConfig(cache=False)
    )
    stats = RunnerStats()
    cached_seconds, cached = run_once(
        benchmark, _grid_seconds, setups, traces, RunnerConfig(), stats
    )
    show(
        ExperimentResult(
            experiment="parallel-eval/calibration-fanout",
            description="16-setting parameter sweep, legacy vs cached runner",
            rows=_comparison_rows({
                "legacy (serial, no cache)": legacy_seconds,
                "serial + problem cache": cached_seconds,
            }),
        )
    )

    # One build per trace instead of sixteen...
    n = len(traces)
    assert stats.problems_built == n
    assert stats.cache_hits == 15 * n
    # ...with identical metrics...
    for label, summary in legacy.items():
        assert cached[label].accuracy == summary.accuracy, label
    # ...and a wall-clock win far beyond timer noise (measured 4-7x on
    # a single-core CI box; assert a conservative 2x).
    assert cached_seconds * 2 < legacy_seconds, (
        f"cached runner ({cached_seconds:.2f}s) should be >=2x faster "
        f"than legacy serial ({legacy_seconds:.2f}s) on a shared-spec sweep"
    )
