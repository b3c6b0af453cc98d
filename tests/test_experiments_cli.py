"""Tests for the registries (schemes, scenarios, experiments),
reporting, and the CLI."""

import pytest

from oracles.greedy_nojle import GreedyWithoutJle
from repro.cli import build_parser, main, parse_overrides
from repro.core.params import DEFAULT_PER_PACKET
from repro.errors import ExperimentError, InferenceError, SimulationError
from repro.eval.experiments import (
    omit_grid_seeds,
    standard_scheme_suite,
    standard_topology,
)
from repro.eval.reporting import (
    format_table,
    load_result,
    render_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.eval.schemes import (
    build_localizer,
    get_scheme,
    make_setup,
    scheme_names,
)
from repro.eval.spec import (
    ExperimentResult,
    build_experiment_spec,
    default_experiment_names,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
    shardable_experiment_names,
)
from repro.simulation.failures import (
    LinkFlap,
    SilentLinkDrops,
    make_scenario,
    scenario_names,
)


class TestFig6:
    def test_flock_pinpoints_failed_link(self):
        result = run_experiment("fig6")
        by_scheme = {row["scheme"]: row for row in result.rows}
        assert by_scheme["Flock"]["correct_only"]
        assert by_scheme["Flock"]["predicted"] == ["I2<->D2"]
        # 007 votes concentrate on the shared middle link - wrong.
        assert not by_scheme["007"]["correct_only"]

    def test_fig6_is_registered(self):
        # The worked example is a first-class registry experiment, not
        # a CLI special case.
        assert "fig6" in experiment_names()
        assert not get_experiment("fig6").shardable


class TestSchemeRegistry:
    def test_registry_covers_paper_schemes(self):
        names = scheme_names()
        for name in (
            "flock", "flock-greedy", "sherlock", "sherlock-jle",
            "netbouncer", "007",
        ):
            assert name in names

    def test_build_localizer_applies_defaults_and_overrides(self):
        flock = build_localizer("flock")
        assert flock.params.pg == get_scheme("flock").defaults["pg"]
        custom = build_localizer("flock", pg=1e-4, pb=2e-3, rho=1e-3)
        assert custom.params.rho == 1e-3

    def test_make_setup_uses_default_spec(self):
        setup = make_setup("netbouncer")
        assert setup.labeled() == "NetBouncer (INT)"
        setup = make_setup("007", spec="A2")
        assert setup.labeled() == "007 (A2)"

    def test_make_setup_label_override(self):
        setup = make_setup("flock", spec="A2", label="Flock custom")
        assert setup.labeled() == "Flock custom (A2)"

    def test_unknown_scheme(self):
        with pytest.raises(ExperimentError, match="unknown scheme"):
            build_localizer("nope")

    def test_bad_parameters_fail_loudly(self):
        with pytest.raises(ExperimentError, match="cannot construct"):
            build_localizer("007", bogus_knob=1)

    def test_greedy_only_engines_agree(self, drop_problem):
        fast = build_localizer("flock-greedy")
        ref = GreedyWithoutJle(DEFAULT_PER_PACKET)
        assert fast.localize(drop_problem).components == \
            ref.localize(drop_problem).components

    def test_greedy_only_refuses_negative_max_failures(self):
        # The same refusal as ``flock`` (test_core_flock.py).
        with pytest.raises(
            InferenceError, match="max_failures must be non-negative"
        ):
            build_localizer("flock-greedy", max_failures=-1)


class TestScenarioRegistry:
    def test_registry_covers_paper_scenarios(self):
        names = scenario_names()
        for name in (
            "silent-link-drops", "silent-device-failure",
            "queue-misconfig", "link-flap", "no-failure",
        ):
            assert name in names

    def test_make_scenario_parameterized(self):
        scenario = make_scenario("silent-link-drops", n_failures=3)
        assert scenario == SilentLinkDrops(n_failures=3)
        assert isinstance(make_scenario("link-flap"), LinkFlap)

    def test_unknown_scenario(self):
        with pytest.raises(SimulationError, match="unknown scenario"):
            make_scenario("meteor-strike")

    def test_bad_parameters_fail_loudly(self):
        with pytest.raises(SimulationError, match="cannot construct"):
            make_scenario("link-flap", n_devices=2)


class TestExperimentRegistry:
    def test_registry_covers_figures(self):
        names = experiment_names()
        for name in (
            "fig2", "fig3", "fig4a", "fig4c", "fig5", "fig6",
            "table1", "table1-calibrate", "table1-eval", "scan-rate",
        ):
            assert name in names

    def test_shardable_experiments(self):
        shardable = shardable_experiment_names()
        assert "fig2" in shardable and "fig5" in shardable
        # table1's eval phase shards through the two-phase split.
        assert "table1-calibrate" in shardable
        assert "table1-eval" in shardable
        # The combined table1's build-time calibration would repeat per
        # worker; fig4c, scan-rate, and fig6 are probe-only.
        for name in ("table1", "fig4c", "scan-rate", "fig6"):
            assert name not in shardable

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("fig99")

    def test_table1_phases_excluded_from_run_all(self):
        # The combined table1 covers both phases; listing the phases in
        # 'run all' would redo the calibrate-grid sweep twice more.
        names = default_experiment_names()
        assert "table1" in names
        assert "table1-calibrate" not in names
        assert "table1-eval" not in names

    def test_user_registration_does_not_mask_builtins(self):
        # Registering in this process must coexist with the built-ins.
        try:
            register_experiment("user-exp", description="test entry")(
                lambda preset, seed, ov: None
            )
            assert "fig2" in experiment_names()
            assert "user-exp" in experiment_names()
        finally:
            from repro.eval import spec as spec_module

            spec_module._EXPERIMENTS.pop("user-exp", None)

    def test_user_registration_before_builtin_load(self):
        # In a fresh interpreter, a user registration made *before* the
        # first registry access must not stop the built-in experiments
        # and topologies from loading (the lazy-load guard is a flag,
        # not dict emptiness).
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.eval.spec import register_experiment, "
            "experiment_names, resolve_topology\n"
            "register_experiment('mine', description='x')("
            "lambda preset, seed, ov: None)\n"
            "names = experiment_names()\n"
            "assert 'fig2' in names and 'mine' in names, names\n"
            "assert resolve_topology('fat-tree', k=4).n_links > 0\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_override_fails_loudly(self):
        with pytest.raises(ExperimentError, match="does not support overrides"):
            build_experiment_spec("fig2", preset="tiny", overrides={"bogus": 1})

    def test_scheme_restriction_filters_suite(self):
        spec = build_experiment_spec("fig2", preset="tiny", scheme="netbouncer")
        refs = [ref for point in spec.points for ref in point.schemes]
        assert refs and all(ref.scheme == "netbouncer" for ref in refs)

    def test_scheme_restriction_injects_unlisted_scheme(self):
        # fig2's paper grid has no Sherlock column; --scheme sherlock
        # still evaluates it on fig2's workload at registry defaults.
        spec = build_experiment_spec("fig2", preset="tiny", scheme="sherlock")
        refs = [ref for point in spec.points for ref in point.schemes]
        assert refs and all(ref.scheme == "sherlock" for ref in refs)

    def test_override_changes_spec(self):
        spec = build_experiment_spec(
            "fig2", preset="tiny", overrides={"n_traces": 2}
        )
        assert all(len(point.trace.seeds) == 2 for point in spec.points)


class TestExperimentPlumbing:
    def test_standard_topology_presets(self):
        tiny = standard_topology("tiny")
        ci = standard_topology("ci")
        assert tiny.n_links < ci.n_links < 200
        with pytest.raises(ExperimentError):
            standard_topology("huge")

    def test_scheme_suite_covers_paper_grid(self):
        labels = {s.labeled() for s in standard_scheme_suite()}
        assert "Flock (INT)" in labels
        assert "Flock (A1+A2+P)" in labels
        assert "NetBouncer (INT)" in labels
        assert "007 (A2)" in labels

    def test_omit_grid_seeds_are_index_based(self):
        # The old float-value derivation truncated (int(0.29*100) == 28)
        # and collapsed fraction 0.0 onto the bare experiment seed for
        # both the topology RNG and the trace batch.
        seed = 31
        pairs = [omit_grid_seeds(seed, i) for i in range(8)]
        all_seeds = [s for pair in pairs for s in pair]
        assert len(set(all_seeds)) == len(all_seeds)
        topo0, base0 = pairs[0]
        assert topo0 != seed  # fraction 0.0 no longer reuses the bare seed
        assert base0 == seed  # trace seeds still anchored at the base
        for (topo_seed, base_seed), (_, next_base) in zip(pairs, pairs[1:]):
            # Each grid point owns a disjoint block: trace seeds
            # (base..base+n) and the topology seed stay inside it.
            assert base_seed < topo_seed < next_base

    def test_result_series_filter(self):
        result = ExperimentResult(
            experiment="x", description="",
            rows=[{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 2}],
        )
        assert len(result.series(a=1)) == 2
        assert result.series(a=2, b=2) == [{"a": 2, "b": 2}]


class TestReporting:
    def test_format_table(self):
        text = format_table([{"x": 1.23456, "ok": True}, {"x": 2, "ok": False}])
        assert "x" in text and "ok" in text
        assert "yes" in text and "no" in text

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_render_result_includes_notes(self):
        result = ExperimentResult(
            experiment="demo", description="d", rows=[{"v": 1}],
            notes="paper says so",
        )
        text = render_result(result)
        assert "demo" in text and "paper says so" in text

    def test_result_json_round_trip(self, tmp_path):
        result = ExperimentResult(
            experiment="demo", description="d",
            rows=[{"scheme": "Flock (A2)", "fscore": 1 / 3}],
            notes="n",
        )
        back = result_from_dict(result_to_dict(result))
        assert back == result
        path = save_result(result, tmp_path / "r.json")
        assert load_result(path) == result

    def test_result_json_rejects_wrong_format(self):
        with pytest.raises(ExperimentError):
            result_from_dict({"format": "nope"})

    def test_result_json_rejects_missing_experiment(self):
        with pytest.raises(ExperimentError, match="missing its 'experiment'"):
            result_from_dict({"format": "flock-result-v1"})

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"format": "flock-result-v1", "experiment": "x", "rows": [3]},
            {"format": "flock-result-v1", "experiment": "x", "rows": "oops"},
        ],
    )
    def test_result_json_rejects_malformed_structure(self, payload):
        with pytest.raises(ExperimentError):
            result_from_dict(payload)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig6" in out
        assert "flock" in out and "netbouncer" in out
        assert "silent-link-drops" in out and "link-flap" in out

    def test_list_sections(self, capsys):
        assert main(["list", "--schemes"]) == 0
        out = capsys.readouterr().out
        assert "schemes:" in out
        assert "experiments:" not in out and "scenarios:" not in out

    def test_run_fig6(self, capsys):
        assert main(["run", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "Flock" in out

    def test_run_rejects_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_rejects_unknown_scheme(self, capsys):
        assert main(["run", "fig6", "--scheme", "nope"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_run_rejects_unknown_override(self, capsys):
        assert main(["run", "fig6", "--set", "bogus=1"]) == 2
        assert "does not support overrides" in capsys.readouterr().err

    def test_run_rejects_empty_sampled_range(self, capsys):
        # fig2 samples 1..max_failures failed links per trace; a bound
        # below 1 leaves nothing to sample from.
        for bound in ("-1", "0"):
            assert main(["run", "fig2", "--preset", "tiny",
                         "--set", f"max_failures={bound}"]) == 2
            err = capsys.readouterr().err
            assert "repro-flock: error:" in err
            assert "'n_failures' from the empty range" in err

    def test_run_all_rejects_per_experiment_flags(self, capsys):
        # --scheme/--set/--shards validate against a single builder;
        # with 'all' they would die partway through with partial output.
        assert main(["run", "all", "--scheme", "flock"]) == 2
        assert "single experiment" in capsys.readouterr().err
        assert main(["run", "all", "--set", "n_traces=4"]) == 2
        assert "single experiment" in capsys.readouterr().err
        assert main(["run", "all", "--shards", "2"]) == 2
        assert "single experiment" in capsys.readouterr().err

    def test_parse_overrides(self):
        parsed = parse_overrides(
            ["n_traces=4", "fractions=[0.0, 0.1]", "calibration=cal.json"]
        )
        assert parsed == {
            "n_traces": 4,
            "fractions": [0.0, 0.1],
            "calibration": "cal.json",
        }

    def test_parse_overrides_rejects_bare_key(self):
        with pytest.raises(ExperimentError, match="KEY=VAL"):
            parse_overrides(["n_traces"])

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])
