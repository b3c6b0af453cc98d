"""Tests for the end-to-end benchmark: each workload at tiny sizes, the
metric names against BENCHMARK.json, span arithmetic, the compare rule
and the prediction checker.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import math

import pytest

import compare
import run
import workloads
from spans import (
    Tracer,
    layer_table,
    root_time,
    self_times,
    unattributed_share,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _ci_fabric():
    from repro.eval.experiments import standard_topology

    return standard_topology("ci")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload once, tiny, traced - shared by the tests below."""
    runs = {}
    sizes = {
        "diagnose-paper": dict(
            fabric=_ci_fabric, n_passive=3000, n_probes=300,
            setup_passive=500, setup_probes=50, op_seconds=1.0, setups=2,
        ),
        "stream-paper": dict(
            fabric=_ci_fabric, flows_per_chunk=400, probes_per_chunk=40,
            window=3, period_s=0.05, warmup=3, onset=1, setups=2,
        ),
        "fleet-ci": dict(
            preset="tiny", round_seconds=1.0,
            mix=(("fig2c", {"n_traces": 1}), ("fig8a", {"n_traces": 1})),
        ),
    }
    for name, kwargs in sizes.items():
        if name in workloads.NEEDS_WORKDIR:
            kwargs["workdir"] = tmp_path_factory.mktemp(name)
        tracer = Tracer()
        workloads.install_spans(tracer)
        try:
            outcome = workloads.WORKLOADS[name](3, 1.0, tracer, **kwargs)
        finally:
            tracer.restore()
        runs[name] = (outcome, tracer)
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_tiny_and_checks_pass(tiny_runs, name):
    outcome, tracer = tiny_runs[name]
    assert outcome.errors == []
    assert outcome.failed == 0
    assert outcome.attempted >= 1
    assert outcome.setup_s and all(s > 0 for s in outcome.setup_s)
    metrics = run.e2e_metrics(outcome)
    assert all(value > 0 for value in metrics.values()), metrics
    # At tiny sizes fixed per-call costs outside the spans weigh more
    # than in the measured runs, which run.py holds under 5%.
    assert tracer.spans and unattributed_share(tracer.spans) < 0.2


def test_untraced_run_needs_no_tracer(tmp_path):
    outcome = workloads.stream(
        5, 0.2, None, workdir=tmp_path, fabric=_ci_fabric,
        flows_per_chunk=400, probes_per_chunk=40, window=3, period_s=0.05,
        warmup=3, onset=1, setups=1,
    )
    assert outcome.errors == [] and outcome.attempted == 4


def test_metric_names_match_benchmark_json(tiny_runs):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_METRICS
    for outcome, tracer in tiny_runs.values():
        assert set(run.e2e_metrics(outcome)) == set(run.E2E_METRICS)
        assert set(run.layer_metrics(outcome, tracer)) == set(run.PER_LAYER_METRICS)
        # Every layer span the wrappers open is reported as a share.
        layers = {s.name for s in tracer.spans if s.parent is not None}
        assert layers <= set(run.LAYER_SPANS)


def test_workload_layers_are_the_ones_it_claims(tiny_runs):
    def shares(name):
        outcome, tracer = tiny_runs[name]
        return run.layer_metrics(outcome, tracer)

    diagnose, stream, fleet = (shares(n) for n in run.WORKLOADS)
    assert diagnose["core.problem.share"] > 0 and diagnose["core.window.share"] == 0
    assert stream["core.window.share"] > 0 and stream["core.problem.share"] == 0
    assert stream["core.flock_fast.rebase.share"] > 0
    assert stream["eval.stream.checkpoint_bytes"] > 0
    assert fleet["simulation.share"] > 0 and fleet["eval.broker.share"] > 0
    assert fleet["eval.fleet.payload_bytes"] > 0


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_span_self_time_arithmetic():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.active = True
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    assert self_times(tracer.spans) == [3, 2, 1, 4]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert root_time(tracer.spans) == 10
    assert unattributed_share(tracer.spans) == pytest.approx(0.3)
    table = layer_table(tracer.spans)
    assert table["a"]["share"] == pytest.approx(0.2)
    assert table["b"]["total_s"] == 4 and table["a"]["total_s"] == 3


class _Target:
    @classmethod
    def build(cls, n):
        return n + 1

    @staticmethod
    def double(n):
        return 2 * n

    def call(self, n):
        return self.build(self.double(n))


def test_wrap_records_nesting_and_restores():
    originals = {k: vars(_Target)[k] for k in ("build", "double", "call")}
    tracer = Tracer()
    tracer.wrap(_Target, "call", "call", lambda a, k, r: {"calls": 1})
    tracer.wrap(_Target, "build", lambda a, k: f"build.{a[1]}")
    tracer.wrap(_Target, "double", "double")
    assert _Target().call(1) == 3 and tracer.spans == []  # inactive
    tracer.active = True
    assert _Target().call(2) == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("call", None), ("double", 0), ("build.4", 0),
    ]
    assert tracer.counters["calls"] == 1
    tracer.restore()
    assert {k: vars(_Target)[k] for k in originals} == originals


def _seeded(values):
    return dict(enumerate(values))


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]


@pytest.mark.parametrize("factor, better, expected", [
    (0.80, "lower", "improved"),
    (1.20, "lower", "worse"),
    (1.02, "lower", "unchanged"),
    (1.20, "higher", "improved"),
    (0.80, "higher", "worse"),
])
def test_compare_rule(factor, better, expected):
    base = _seeded(BASE)
    change = _seeded([v * factor for v in BASE])
    assert compare.verdict(base, change, better, 0.1)["verdict"] == expected


def test_compare_wide_spread_is_unresolved_unless_every_run_wins():
    base = _seeded([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    change = _seeded([v * 1.05 for v in base.values()])
    assert compare.verdict(base, change, "lower", 0.1)["verdict"] == "unresolved"
    # Every change run beats every base run, but the medians differ by
    # less than the base's quartile distance: no regression, no gain.
    faster = _seeded([v / 20 for v in base.values()])
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "unchanged"


def test_compare_gain_needs_no_more_failures():
    base = _seeded(BASE)
    change = _seeded([v * 0.8 for v in BASE])
    result = compare.verdict(base, change, "lower", 0.1, base_failed=0, change_failed=1)
    assert result["verdict"] == "unchanged"


def test_compare_gain_needs_ten_pairs():
    base = _seeded(BASE[:9])
    change = _seeded([v * 0.8 for v in BASE[:9]])
    result = compare.verdict(base, change, "lower", 0.1)
    assert result["pairs"] == 9 and result["verdict"] == "unresolved"
    # A single pair has no quartile distance, so any gain would pass.
    one = compare.verdict({1: 1.0}, {1: 0.5}, "lower", 0.1)
    assert one["verdict"] == "unresolved"
    # Too few pairs still shows a regression.
    assert compare.verdict(base, _seeded([v * 1.2 for v in BASE[:9]]),
                           "lower", 0.1)["verdict"] == "worse"


def _record(seed, value):
    return {
        "workload": "fleet-ci", "trace": 0, "seed": seed,
        "result": {"failed": 0, "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}},
    }


def test_compare_reads_result_records():
    base = [_record(s, 10.0 + 0.01 * s) for s in range(10)]
    change = [_record(s, 13.0 + 0.01 * s) for s in range(10)]
    rows = compare.compare(base, change, BENCHMARK)
    assert [(w, m, v["verdict"]) for w, m, v in rows] == [("fleet-ci", "ops_per_s", "improved")]


def test_compare_refuses_a_repeated_seed_on_one_side():
    base = [_record(s, 10.0) for s in range(10)]
    twice = base + [_record(3, 11.0)]
    with pytest.raises(ValueError, match="seed 3"):
        compare.compare(twice, base, BENCHMARK)
    with pytest.raises(ValueError, match="seed 3"):
        compare.compare(base, twice, BENCHMARK)


def test_checker_rejects_a_corrupted_prediction():
    from repro.eval.harness import build_problem
    from repro.eval.scenarios import make_trace
    from repro.eval.schemes import make_setup
    from repro.routing import EcmpRouting
    from repro.simulation.failures import SilentLinkDrops
    from repro.types import Prediction

    topology = _ci_fabric()
    trace = make_trace(
        topology, EcmpRouting(topology), SilentLinkDrops(n_failures=1),
        seed=2, n_passive=400, n_probes=40,
    )
    scheme = make_setup("flock")
    problem = build_problem(trace, scheme.telemetry)
    prediction = scheme.localizer.localize(problem)
    assert workloads.check_prediction(prediction, problem) == []

    stray = Prediction(components=prediction.components | {topology.n_components + 7},
                       log_likelihood=prediction.log_likelihood)
    assert "unobserved" in workloads.check_prediction(stray, problem)[0]
    broken = Prediction(components=prediction.components, log_likelihood=math.nan)
    assert "not finite" in workloads.check_prediction(broken, problem)[0]
