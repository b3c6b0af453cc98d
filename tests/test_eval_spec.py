"""Registry-wide spec tests: every registered experiment must run at
the tiny preset, and every experiment not flagged unshardable must
collect bit-identically in metrics from private shard brokers (2 shards
== serial), including the two-phase table1 eval phase fed by a saved
calibrate-phase result."""

import pytest

from repro.errors import ExperimentError
from repro.eval import fleet
from repro.eval.reporting import save_result
from repro.eval.spec import (
    ExperimentSpec,
    GridPoint,
    ProbeRef,
    ScenarioSpec,
    SchemeRef,
    TopologySpec,
    TraceSpec,
    build_experiment_spec,
    experiment_names,
    get_experiment,
    run_experiment,
    run_spec,
    shardable_experiment_names,
)
from repro.eval.units import plan_units

#: Columns whose values are wall-clock measurements: fresh on every
#: run, so excluded from the bit-identical comparison (the *metrics*
#: columns must match exactly).
TIMING_COLUMNS = frozenset({"seconds", "build_seconds", "hypotheses_per_second"})


def drop_timings(rows):
    return [
        {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
        for row in rows
    ]


@pytest.fixture(scope="module")
def calibration_file(tmp_path_factory):
    """A saved tiny-preset table1-calibrate result feeding table1-eval."""
    path = tmp_path_factory.mktemp("table1") / "calibration.json"
    save_result(run_experiment("table1-calibrate", preset="tiny"), path)
    return str(path)


def experiment_overrides(name, calibration_file):
    if name in ("table1", "table1-eval"):
        return {"calibration": calibration_file}
    return {}


def collect_shards(name, n_shards, overrides, workdir):
    """Run every shard into its own broker file, then collect the files
    (in reverse order: collection must not depend on it)."""
    paths = []
    for index in range(n_shards):
        path = workdir / f"{name}-s{index}.db"
        fleet.submit(
            path, name, preset="tiny", overrides=overrides,
            shard=(index, n_shards),
        )
        fleet.work(path, wait=False)
        paths.append(path)
    return fleet.collect(*reversed(paths))


@pytest.mark.parametrize("name", experiment_names())
def test_registry_experiment_runs_and_shards(name, calibration_file, tmp_path):
    """Serial tiny run for every experiment; serial == 2-shard collect
    for every shardable one (one shard where the tiny preset has a
    single work unit)."""
    overrides = experiment_overrides(name, calibration_file)
    serial = run_experiment(name, preset="tiny", overrides=overrides)
    assert serial.experiment == name
    assert serial.rows, f"{name} produced no rows at the tiny preset"
    if not get_experiment(name).shardable:
        return
    spec = build_experiment_spec(name, preset="tiny", overrides=overrides)
    n_shards = min(2, len(plan_units(spec)[1]))
    collected = collect_shards(name, n_shards, overrides, tmp_path)
    assert drop_timings(collected.rows) == drop_timings(serial.rows)


def test_spec_builders_are_deterministic(calibration_file):
    """Two builds of the same (name, preset, seed, overrides) must be
    identical - sharding relies on every worker and the collector seeing
    the same grid-call sequence."""
    for name in shardable_experiment_names():
        overrides = experiment_overrides(name, calibration_file)
        a = build_experiment_spec(name, preset="tiny", overrides=overrides)
        b = build_experiment_spec(name, preset="tiny", overrides=overrides)
        assert a.points == b.points, name


class TestSpecValidation:
    def test_point_needs_schemes_or_probe(self):
        with pytest.raises(ExperimentError, match="scheme suite or a probe"):
            GridPoint(topology=TopologySpec("standard", {"preset": "tiny"}))

    def test_point_rejects_schemes_and_probe(self):
        with pytest.raises(ExperimentError, match="scheme suite or a probe"):
            GridPoint(
                topology=TopologySpec("standard", {"preset": "tiny"}),
                trace=TraceSpec(seeds=(1,)),
                schemes=(SchemeRef("flock"),),
                probe=ProbeRef("scan-rate"),
            )

    def test_scheme_point_needs_trace(self):
        with pytest.raises(ExperimentError, match="needs a trace spec"):
            GridPoint(
                topology=TopologySpec("standard", {"preset": "tiny"}),
                schemes=(SchemeRef("flock"),),
            )

    def test_traffic_length_must_match_seeds(self):
        with pytest.raises(ExperimentError, match="does not match"):
            TraceSpec(seeds=(1, 2), traffic=("uniform",))

    def test_sampled_scenario_needs_seed(self):
        spec = ScenarioSpec("silent-link-drops", sampled={"n_failures": (1, 3)})
        with pytest.raises(ExperimentError, match="sample_seed"):
            spec.build(2)

    def test_unknown_metric(self):
        with pytest.raises(ExperimentError, match="unknown metric"):
            ExperimentSpec(name="x", description="", metrics=("speed",))

    def test_unknown_topology(self):
        spec = ExperimentSpec(
            name="x",
            description="",
            points=[
                GridPoint(
                    topology=TopologySpec("moebius-strip"),
                    trace=TraceSpec(seeds=(1,)),
                    scenario=ScenarioSpec("no-failure"),
                    schemes=(SchemeRef("flock"),),
                )
            ],
        )
        with pytest.raises(ExperimentError, match="unknown topology"):
            run_spec(spec)

    def test_unknown_probe(self):
        spec = ExperimentSpec(
            name="x",
            description="",
            points=[
                GridPoint(
                    topology=TopologySpec("fig6-example"),
                    probe=ProbeRef("warp-core"),
                )
            ],
        )
        with pytest.raises(ExperimentError, match="unknown probe"):
            run_spec(spec)

    def test_sampled_scenarios_reproduce(self):
        spec = ScenarioSpec(
            "silent-link-drops", sampled={"n_failures": (1, 9)}, sample_seed=7
        )
        a = spec.build(6)
        b = spec.build(6)
        assert a == b
        assert {s.n_failures for s in a} <= set(range(1, 9))


class TestAdHocSpec:
    def test_custom_spec_runs_end_to_end(self):
        """A spec assembled from registry parts (no builder) evaluates."""
        spec = ExperimentSpec(
            name="adhoc",
            description="two schemes on a tiny drop workload",
            points=[
                GridPoint(
                    topology=TopologySpec("fat-tree", {"k": 4}),
                    key={"case": "drops"},
                    scenario=ScenarioSpec(
                        "silent-link-drops",
                        params={"n_failures": 2, "min_rate": 4e-3,
                                "max_rate": 1e-2},
                    ),
                    trace=TraceSpec(seeds=(5, 6), n_passive=800, n_probes=120),
                    schemes=(
                        SchemeRef("flock"),
                        SchemeRef("007", spec="A2"),
                    ),
                )
            ],
        )
        result = run_spec(spec)
        assert [row["scheme"] for row in result.rows] == \
            ["Flock (A1+A2+P)", "007 (A2)"]
        assert all(row["case"] == "drops" for row in result.rows)
        assert all(0.0 <= row["fscore"] <= 1.0 for row in result.rows)
