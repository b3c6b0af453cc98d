"""Tests for static shards over the fleet: a shard is a private broker
file holding a balanced contiguous slice of an experiment's work units,
and ``fleet.collect`` folds the shard files into the full result.  Also
the wire codec the brokers store results in, shard determinism (any
shard count, any collect order, subprocess shards, the process
pool), collect validation, and the ``run --shards`` CLI path."""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.b007 import Vote007
from repro.cli import main
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.errors import ExperimentError
from repro.eval import fleet
from repro.eval.broker import Broker, plan_fingerprint
from repro.eval.harness import SchemeSetup, evaluate
from repro.eval.metrics import TraceMetrics
from repro.eval.reporting import load_result
from repro.eval import runner as runner_module
from repro.eval.runner import GridHook, RunnerConfig
from repro.eval.scenarios import make_trace_batch
from repro.eval.serialize import (
    SCHEMA_VERSION,
    eval_summary_from_wire,
    eval_summary_to_wire,
    payload_checksum,
    prediction_from_wire,
    prediction_to_wire,
    trace_metrics_from_wire,
    trace_metrics_to_wire,
    trace_result_from_wire,
    trace_result_to_wire,
)
from repro.eval.spec import build_experiment_spec, run_experiment, run_spec
from repro.eval.units import (
    CallPlan,
    SingleUnitRecorder,
    UnitReplayer,
    WorkUnit,
    assemble_calls,
    plan_units,
)
from repro.simulation.failures import SilentLinkDrops
from repro.telemetry.inputs import TelemetryConfig
from repro.types import Prediction

REPO_ROOT = Path(__file__).resolve().parent.parent

META = {"experiment": "fig2", "preset": "tiny", "seed": None,
        "scheme": None, "overrides": {}}


@pytest.fixture(scope="module")
def traces(small_fat_tree, ft_routing):
    return make_trace_batch(
        small_fat_tree,
        ft_routing,
        [SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2)] * 5,
        base_seed=33,
        n_passive=600,
        n_probes=120,
    )


def suite():
    return [
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A1+A2+P")),
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A2")),
        SchemeSetup("007", Vote007(threshold=0.6),
                    TelemetryConfig.from_spec("A2")),
    ]


def run_shards(workdir, n_shards, runner=None, experiment="fig2", **submit):
    """Submit and drain every shard of a tiny-preset experiment, each
    into its own broker file; return the files in shard order."""
    paths = []
    for index in range(n_shards):
        path = Path(workdir) / f"{experiment}-s{index}of{n_shards}.db"
        fleet.submit(
            path, experiment, preset="tiny", shard=(index, n_shards), **submit
        )
        fleet.work(path, runner=runner, wait=False)
        paths.append(path)
    return paths


class RecordEveryTrace(GridHook):
    """Record side of a serial run: executes every trace of every grid
    call and keeps ``(labels, [results of trace 0, 1, ...])`` per call."""

    def __init__(self):
        self.calls = []

    def plan_call(self, labels, n_traces):
        return range(n_traces)

    def select_call(self, labels, n_traces):
        self.calls.append((list(labels), [None] * n_traces))
        return range(n_traces)

    def record(self, trace_idx, results):
        self.calls[-1][1][trace_idx] = list(results)


def assembled_calls(paths):
    """The per-call records ``fleet.collect`` replays from ``paths``."""
    unit_results = []
    for path in paths:
        with Broker.open(path) as broker:
            plan = broker.plan()
            unit_results.extend(broker.results())
    return assemble_calls(plan, unit_results)


def assert_metrics_identical(serial, serial_calls, paths):
    """Collected rows equal the serial run's, and so, trace by trace,
    do every collected prediction and TraceMetrics (timings are fresh
    per run)."""
    assert fleet.collect(*paths).rows == serial.rows
    replayer = UnitReplayer(assembled_calls(paths))
    for labels, expected in serial_calls:
        got = replayer.replay_call(labels, len(expected))
        assert [idx for idx, _ in got] == list(range(len(expected)))
        for (idx, results), want in zip(got, expected):
            assert len(results) == len(want) == len(labels)
            for label, a, b in zip(labels, want, results):
                assert a.prediction == b.prediction, (label, idx)
                assert a.metrics == b.metrics, (label, idx)
    replayer.assert_exhausted()


def tampered_copy(path, workdir, sql, *params):
    """A copy of a broker file with one SQL statement applied."""
    copy = Path(workdir) / f"tampered-{Path(path).name}"
    shutil.copy(path, copy)
    conn = sqlite3.connect(copy)
    conn.execute(sql, params)
    conn.commit()
    conn.close()
    return copy


def rewrite_first_payload(path, workdir, corrupt):
    """A copy of a broker file whose first stored unit payload went
    through ``corrupt`` and was re-checksummed - a structurally wrong
    payload that passes the checksum audit (another checkout's wire
    layout, a hand edit).  ``corrupt`` edits the decoded payload in
    place; a value it returns replaces the payload instead."""
    conn = sqlite3.connect(path)
    unit_id, payload = conn.execute(
        "SELECT unit_id, payload FROM results ORDER BY unit_id LIMIT 1"
    ).fetchone()
    conn.close()
    doc = json.loads(payload)
    replacement = corrupt(doc)
    text = json.dumps(doc if replacement is None else replacement)
    return tampered_copy(
        path, workdir,
        "UPDATE results SET payload = ?, checksum = ? WHERE unit_id = ?",
        text, payload_checksum(text), unit_id,
    )


@pytest.fixture(scope="module")
def serial():
    return run_experiment("fig2", preset="tiny")


@pytest.fixture(scope="module")
def serial_calls(serial):
    """Every trace's results of a serial fig2 run, per grid call."""
    hook = RecordEveryTrace()
    recorded = run_experiment(
        "fig2", preset="tiny", runner=RunnerConfig(shard=hook)
    )
    assert recorded.rows == serial.rows
    return hook.calls


@pytest.fixture
def pool_count(monkeypatch):
    """How many process pools the grids open (one per pooled call)."""
    opened = []
    make_pool = runner_module._make_pool

    def counting(*args, **kwargs):
        opened.append(args)
        return make_pool(*args, **kwargs)

    monkeypatch.setattr(runner_module, "_make_pool", counting)
    return opened


@pytest.fixture(scope="module")
def shard_files(tmp_path_factory):
    """Two finished shard brokers of fig2 at the tiny preset."""
    return run_shards(tmp_path_factory.mktemp("shards"), 2)


class TestShardBounds:
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5, 16, 17])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_contiguous_balanced_cover(self, n_items, n_shards):
        bounds = [
            fleet._shard_range(n_items, index, n_shards)
            for index in range(n_shards)
        ]
        assert len(bounds) == n_shards
        assert bounds[0][0] == 0 and bounds[-1][1] == n_items
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ExperimentError, match="count must be >= 1"):
            fleet._shard_range(4, 0, 0)
        with pytest.raises(ExperimentError, match=r"index must be in \[0, 2\)"):
            fleet._shard_range(4, 2, 2)
        with pytest.raises(ExperimentError, match=r"index must be in \[0, 2\)"):
            fleet._shard_range(4, -1, 2)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_submit_enqueues_its_slice(self, tmp_path, n_shards):
        # fig2 has 8 one-trace units at the tiny preset, 4 per grid call.
        _, units = plan_units(build_experiment_spec("fig2", preset="tiny"))
        for index in range(n_shards):
            path = tmp_path / f"s{index}.db"
            fleet.submit(path, "fig2", preset="tiny", shard=(index, n_shards))
            with Broker.open(path) as broker:
                row = broker.resolve_experiment(None)
                part = broker.enqueued_units(row.id)
                # The stored call plan is the full plan, not the slice.
                assert len(broker.plan()) == 2
            start, stop = fleet._shard_range(len(units), index, n_shards)
            # The slice's traces, merged into one unit per grid call.
            assert [
                (unit.call_index, trace, unit.seeds[trace - unit.start])
                for unit in part for trace in range(unit.start, unit.stop)
            ] == [(u.call_index, u.start, u.seeds[0]) for u in units[start:stop]]
            assert len({unit.call_index for unit in part}) == len(part)

    def test_empty_slice_rejected(self, tmp_path):
        # fig4d evaluates one trace at the tiny preset: a second shard
        # would hold nothing, and must say so instead of exiting 0.
        with pytest.raises(ExperimentError, match="shard 1 of 2 covers no"):
            fleet.submit(tmp_path / "e.db", "fig4d", preset="tiny",
                         shard=(1, 2))
        assert not (tmp_path / "e.db").exists()


class TestCodec:
    def test_trace_metrics_round_trip(self):
        metrics = TraceMetrics(precision=1 / 3, recall=2 / 7)
        wire = json.loads(json.dumps(trace_metrics_to_wire(metrics)))
        assert trace_metrics_from_wire(wire) == metrics

    @pytest.mark.parametrize("scores", [None, {}, {3: 0.1 + 0.2, 41: -7.25}])
    def test_prediction_round_trip(self, scores):
        prediction = Prediction(
            components=frozenset({3, 41}),
            scores=scores,
            log_likelihood=-123.456789012345,
            hypotheses_scanned=9001,
        )
        wire = json.loads(json.dumps(prediction_to_wire(prediction)))
        assert prediction_from_wire(wire) == prediction

    def test_empty_prediction_round_trip(self):
        wire = json.loads(json.dumps(prediction_to_wire(Prediction.empty())))
        assert prediction_from_wire(wire) == Prediction.empty()

    def test_trace_result_drops_problem(self, traces):
        setup = suite()[0]
        summary = evaluate(setup, traces[:1])
        result = summary.per_trace[0]
        assert result.problem is not None
        wire = json.loads(json.dumps(trace_result_to_wire(result)))
        back = trace_result_from_wire(wire)
        assert back.problem is None
        assert back.prediction == result.prediction
        assert back.metrics == result.metrics
        assert back.build_seconds == result.build_seconds
        assert back.inference_seconds == result.inference_seconds

    def test_eval_summary_round_trip(self, traces):
        setup = suite()[0]
        summary = evaluate(setup, traces[:2])
        wire = json.loads(json.dumps(eval_summary_to_wire(summary)))
        back = eval_summary_from_wire(wire)
        assert back.setup_label == summary.setup_label
        assert back.accuracy == summary.accuracy
        assert back.mean_inference_seconds == summary.mean_inference_seconds
        assert back.mean_build_seconds == summary.mean_build_seconds
        for a, b in zip(summary.per_trace, back.per_trace):
            assert a.prediction == b.prediction
            assert a.metrics == b.metrics

    @pytest.mark.parametrize(
        "decoder",
        [trace_metrics_from_wire, prediction_from_wire,
         trace_result_from_wire, eval_summary_from_wire],
    )
    def test_malformed_payloads_rejected(self, decoder):
        with pytest.raises(ExperimentError):
            decoder({"nope": 1})

    @pytest.mark.parametrize(
        "payload",
        [
            ["0.5", 0.5],                     # string where number expected
            [0.5, True],                      # bool is not a metric
        ],
    )
    def test_non_numeric_metrics_rejected(self, payload):
        with pytest.raises(ExperimentError, match="must be a number"):
            trace_metrics_from_wire(payload)

    def test_non_numeric_result_fields_rejected(self):
        good = trace_result_to_wire(
            # A minimal hand-built result, no evaluation needed.
            trace_result_from_wire({
                "v": SCHEMA_VERSION,
                "p": {"c": [], "s": None, "ll": 0.0, "hs": 0},
                "m": [1.0, 1.0], "b": 0.1, "i": 0.2,
            })
        )
        bad = dict(good)
        bad["b"] = "0.1"
        with pytest.raises(ExperimentError, match="build_seconds"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], hs="many")
        with pytest.raises(ExperimentError, match="hypotheses_scanned"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], c=["x"])
        with pytest.raises(ExperimentError, match="component id"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], s=[[1]])
        with pytest.raises(ExperimentError, match="pairs"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], s=[[1, "x"]])
        with pytest.raises(ExperimentError, match="score value"):
            trace_result_from_wire(bad)

    def test_non_numeric_summary_fields_rejected(self):
        good = {"v": SCHEMA_VERSION, "label": "x (A2)", "t": [],
                "a": [1.0, 1.0, 1.0, 1], "mi": 0.1, "mb": 0.2}
        assert eval_summary_from_wire(good).setup_label == "x (A2)"
        for key, value in (("mi", "0.1"), ("label", 3), ("t", "oops")):
            with pytest.raises(ExperimentError):
                eval_summary_from_wire({**good, key: value})


class TestShardDeterminism:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7])
    def test_any_shard_count_matches_serial(
        self, tmp_path, serial, serial_calls, n_shards
    ):
        # n_shards=7 over fig2's 8 tiny-preset units gives 1-trace shards.
        paths = run_shards(tmp_path, n_shards)
        assert_metrics_identical(serial, serial_calls, paths)
        assert_metrics_identical(serial, serial_calls, paths[::-1])

    def test_any_merge_order_matches_serial(
        self, tmp_path, serial, serial_calls
    ):
        paths = run_shards(tmp_path, 3)
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
            assert_metrics_identical(
                serial, serial_calls, [paths[i] for i in order]
            )

    def test_subprocess_shards_match_serial(
        self, tmp_path, serial, serial_calls
    ):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "run", "fig2",
                 "--preset", "tiny", "--shards", "2",
                 "--shard-index", str(index), "--out", f"s{index}.db"],
                cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for index in range(2)
        ]
        for worker in workers:
            _, err = worker.communicate(timeout=600)
            assert worker.returncode == 0, err
        assert_metrics_identical(
            serial, serial_calls, [tmp_path / "s1.db", tmp_path / "s0.db"]
        )

    def test_shard_results_are_json_serializable(self, shard_files):
        conn = sqlite3.connect(shard_files[0])
        payloads = [
            json.loads(text)
            for (text,) in conn.execute("SELECT payload FROM results")
        ]
        conn.close()
        # Shard 0 of 2 is call 0's four traces, merged into one unit.
        assert len(payloads) == 1
        for payload in payloads:
            assert payload["v"] == SCHEMA_VERSION
            assert [idx for idx, _ in payload["u"]] == [0, 1, 2, 3]
            assert all(results for _, results in payload["u"])

    def test_composes_with_process_executor(
        self, tmp_path, serial, serial_calls, pool_count
    ):
        # Each shard's one-call slice is one unit, so its grid really
        # uses the pool.
        paths = run_shards(
            tmp_path, 2, runner=RunnerConfig(jobs=2)
        )
        assert len(pool_count) == 2
        assert_metrics_identical(serial, serial_calls, paths)

    def test_cli_shards_compose_with_process_executor(
        self, tmp_path, serial, serial_calls, pool_count, capsys
    ):
        paths = [tmp_path / "s0.db", tmp_path / "s1.db"]
        for index, path in enumerate(paths):
            assert main([
                "run", "fig2", "--preset", "tiny", "--shards", "2",
                "--shard-index", str(index), "--out", str(path),
                "--jobs", "2",
            ]) == 0
        assert len(pool_count) == 2
        assert "1 of 1 work unit(s) done" in capsys.readouterr().out
        assert_metrics_identical(serial, serial_calls, paths)


class TestMergeValidation:
    def test_empty_merge_rejected(self):
        with pytest.raises(ExperimentError, match="at least one broker file"):
            fleet.collect()

    def test_incomplete_shard_set_rejected(self, shard_files):
        with pytest.raises(ExperimentError, match="incomplete unit coverage"):
            fleet.collect(shard_files[0])

    def test_duplicated_shard_rejected(self, shard_files, tmp_path):
        # A byte-for-byte copy under another name: only the coverage
        # check can tell it from the missing shard 1.
        copy = tmp_path / "copy.db"
        shutil.copy(shard_files[0], copy)
        with pytest.raises(ExperimentError, match="incomplete unit coverage"):
            fleet.collect(shard_files[0], copy)

    def test_mismatched_meta_rejected(self, shard_files, tmp_path):
        other = tampered_copy(
            shard_files[1], tmp_path, "UPDATE experiments SET meta = ?",
            json.dumps({**META, "seed": 999}),
        )
        with pytest.raises(ExperimentError, match="disagree on 'seed'"):
            fleet.collect(shard_files[0], other)
        other = tampered_copy(
            shard_files[1], tmp_path, "UPDATE experiments SET meta = ?",
            json.dumps({**META, "overrides": {"n_traces": 4}}),
        )
        with pytest.raises(ExperimentError, match="disagree on 'overrides'"):
            fleet.collect(shard_files[0], other)

    def test_shard_meta_recorded_only_on_shards(self, shard_files, tmp_path):
        # A shard's file names its slice; a whole-fleet submission keeps
        # the identity meta (and so the plan fingerprint) it always had.
        for index, path in enumerate(shard_files):
            with Broker.open(path) as broker:
                assert broker.experiment_meta() == {**META, "shard": [index, 2]}
        whole = tmp_path / "whole.db"
        fleet.submit(whole, "fig2", preset="tiny")
        with Broker.open(whole) as broker:
            row = broker.resolve_experiment(None)
            assert row.meta == META
            plan = broker.plan(row.name)
            units = broker.enqueued_units(row.id)
            assert row.plan_hash == plan_fingerprint(META, plan, units)

    def test_shard_set_errors_name_the_shards(self, shard_files, tmp_path):
        s0, s1 = shard_files
        copy = tmp_path / "copy.db"
        shutil.copy(s0, copy)
        with pytest.raises(
            ExperimentError,
            match=r"missing shard index\(es\) 1 of 2; shard index\(es\) 0 "
                  r"given twice",
        ):
            fleet.collect(s0, copy)
        third = tmp_path / "third.db"
        fleet.submit(third, "fig2", preset="tiny", shard=(2, 3))
        fleet.work(third, wait=False)
        with pytest.raises(ExperimentError, match=r"do not come from one "
                           r"split.*\(shard 2 of 3\)"):
            fleet.collect(s0, third)
        unsharded = tampered_copy(
            s1, tmp_path, "UPDATE experiments SET meta = ?", json.dumps(META)
        )
        with pytest.raises(ExperimentError, match=r"do not come from one "
                           r"split.*\(a whole fleet\)"):
            fleet.collect(s0, unsharded)
        for bad in ("x", [1, 1], [0, 2, 1], [0.0, 2]):
            tampered = tampered_copy(
                s1, tmp_path, "UPDATE experiments SET meta = ?",
                json.dumps({**META, "shard": bad}),
            )
            with pytest.raises(ExperimentError, match="malformed shard meta"):
                fleet.collect(s0, tampered)

    def test_coverage_gap_rejected(self, shard_files, tmp_path):
        # Shard 0 of 2 covers units 0-3, shard 2 of 3 units 6-7: the
        # units 4-5 of neither file leave call 1 short.
        third = run_shards(tmp_path, 3)[2]
        with pytest.raises(ExperimentError, match="incomplete unit coverage"):
            fleet.collect(shard_files[0], third)

    def test_wrong_format_rejected(self, shard_files, tmp_path):
        bad = tampered_copy(
            shard_files[0], tmp_path,
            "UPDATE meta SET value = ? WHERE key = 'format'",
            json.dumps("something-else"),
        )
        with pytest.raises(ExperimentError, match="not a flock-broker"):
            fleet.collect(bad, shard_files[1])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.__delitem__("u"),
            lambda p: p.update(u="zero"),
            lambda p: p.update(v=SCHEMA_VERSION + 1),
            lambda p: p.update(u={"not": "a list"}),
            lambda p: p["u"].append(["bad-idx", []]),
            lambda p: p["u"].append([0]),
            lambda p: p["u"].append([0, 5]),
            lambda p: p["u"][0][1].__setitem__(0, {"nope": 1}),
        ],
    )
    def test_structurally_malformed_payload_rejected(
        self, shard_files, tmp_path, corrupt
    ):
        # Malformed stored results must fail as ExperimentError (clean
        # CLI error), never TypeError/KeyError.
        tampered = rewrite_first_payload(shard_files[0], tmp_path, corrupt)
        with pytest.raises(ExperimentError):
            fleet.collect(tampered, shard_files[1])

    def test_non_dict_payload_rejected(self, shard_files, tmp_path):
        tampered = rewrite_first_payload(
            shard_files[0], tmp_path, lambda p: ["not", "a", "dict"]
        )
        with pytest.raises(ExperimentError, match="malformed unit result"):
            fleet.collect(tampered, shard_files[1])

    def test_zero_trace_merge_rejected(self, tmp_path):
        # A broker refuses to journal an experiment without work units,
        # and one edited down to zero-trace grid calls must still refuse
        # to report metrics instead of claiming a vacuous perfect score.
        with pytest.raises(ExperimentError, match="no work units"):
            Broker.create(tmp_path / "empty.db", META,
                          [CallPlan(labels=("x (A2)",), n_traces=0)], [])
        path = tmp_path / "z.db"
        Broker.create(path, META, [CallPlan(labels=("x (A2)",), n_traces=1)],
                      [WorkUnit(0, 0, 1)]).close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM units")
        conn.execute("UPDATE experiments SET plan = ?",
                     (json.dumps([{"labels": ["x (A2)"], "n": 0}]),))
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="no evaluated traces"):
            fleet.collect(path)

    def test_replay_shape_mismatch_rejected(self, shard_files, tmp_path):
        # Both files agree on a plan that is not the live spec's grid.
        plan = json.dumps([{"labels": ["Other (A2)"], "n": 4}] * 2)
        tampered = [
            tampered_copy(path, tmp_path, "UPDATE experiments SET plan = ?", plan)
            for path in shard_files
        ]
        with pytest.raises(ExperimentError, match="shard replay mismatch"):
            fleet.collect(*tampered)

    @pytest.fixture
    def calls(self, shard_files):
        return assembled_calls(shard_files)

    def test_replay_exhaustion_rejected(self, calls):
        spec = build_experiment_spec("fig2", preset="tiny")
        config = RunnerConfig(shard=UnitReplayer(calls))
        run_spec(spec, config)
        with pytest.raises(ExperimentError, match="replay exhausted"):
            run_spec(spec, config)

    def test_unconsumed_calls_rejected(self, calls):
        # The opposite direction: the files recorded more grid calls
        # than the (since-edited) driver replays; silence would mean a
        # complete-looking but partial collected result.
        replayer = UnitReplayer(calls + [calls[0]])
        run_spec(
            build_experiment_spec("fig2", preset="tiny"),
            RunnerConfig(shard=replayer),
        )
        with pytest.raises(ExperimentError, match="replay incomplete"):
            replayer.assert_exhausted()

    def test_nested_sharding_rejected(self, shard_files):
        nested = RunnerConfig(shard=SingleUnitRecorder(
            WorkUnit(0, 0, 1), [CallPlan(labels=("a",), n_traces=1)]
        ))
        with pytest.raises(ExperimentError, match="cannot nest"):
            fleet.collect(*shard_files, runner=nested)


class TestCliValidation:
    def test_shards_requires_index_and_out(self, capsys):
        assert main(["run", "fig2", "--shards", "2"]) == 2
        assert "requires --shard-index" in capsys.readouterr().err

    def test_shard_flags_require_shards(self, capsys):
        assert main(["run", "fig2", "--shard-index", "0"]) == 2
        assert "only valid with --shards" in capsys.readouterr().err

    def test_unshardable_experiment_rejected(self, capsys, tmp_path):
        code = main([
            "run", "table1", "--shards", "2", "--shard-index", "0",
            "--out", str(tmp_path / "s.json"),
        ])
        assert code == 2
        assert "cannot be sharded" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_empty_shard_slice_rejected(self, capsys, tmp_path):
        code = main([
            "run", "fig4d", "--preset", "tiny", "--shards", "2",
            "--shard-index", "1", "--out", str(tmp_path / "s1.db"),
        ])
        assert code == 2
        assert "shard 1 of 2 covers no work units" in capsys.readouterr().err

    def test_shard_command_resumes(self, capsys, tmp_path):
        # A shard whose units were submitted but never run (a crashed
        # shard command) is finished by re-running the command; a rerun
        # of a finished shard does nothing; another plan is refused.
        path = tmp_path / "s0.db"
        fleet.submit(path, "fig2", preset="tiny", shard=(0, 2))
        argv = ["run", "fig2", "--preset", "tiny", "--shards", "2",
                "--shard-index", "0", "--out", str(path)]
        assert main(argv) == 0
        assert "1 of 1 work unit(s) done, 1 by this run" in (
            capsys.readouterr().out
        )
        assert main(argv) == 0
        assert "1 of 1 work unit(s) done, 0 by this run" in (
            capsys.readouterr().out
        )
        assert main(argv + ["--seed", "5"]) == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_failed_shard_exits_2(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("unit blew up")

        monkeypatch.setattr(fleet, "run_spec", broken)
        path = tmp_path / "s0.db"
        assert main(["run", "fig2", "--preset", "tiny", "--shards", "2",
                     "--shard-index", "0", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert "shard 1/2 of fig2 did not finish: 1 failed" in err
        assert f"fleet status {path}" in err
        with Broker.open(path) as broker:
            assert broker.counts().failed == 1

    def test_shard_leased_elsewhere_exits_2(self, capsys, tmp_path):
        # Another process of the same shard command holds the only
        # unit: this one has nothing to run and must not report success.
        path = tmp_path / "s0.db"
        fleet.submit(path, "fig2", preset="tiny", shard=(0, 2))
        with Broker.open(path) as broker:
            assert broker.claim("other-worker") is not None
        assert main(["run", "fig2", "--preset", "tiny", "--shards", "2",
                     "--shard-index", "0", "--out", str(path)]) == 2
        assert "0 failed, 0 pending and 1 leased of 1" in (
            capsys.readouterr().err
        )

    def test_merge_rejects_non_shard_file(self, capsys, tmp_path):
        # A JSON shard document from before shards became broker files
        # cannot be collected.
        legacy = tmp_path / "s0.json"
        legacy.write_text(json.dumps({
            "format": "flock-shard-v1", "shard_index": 0, "n_shards": 1,
            "calls": [], "experiment": "fig2", "preset": "ci", "seed": None,
        }))
        assert main(["fleet", "collect", str(legacy)]) == 2
        assert "is not a broker database" in capsys.readouterr().err

    def test_merge_rejects_unshardable_experiment_fast(self, capsys, tmp_path):
        # A hand-made broker naming a no-runner experiment must fail
        # before any (possibly minutes-long) re-execution starts.
        path = tmp_path / "fig4c.db"
        Broker.create(path, {**META, "experiment": "fig4c"},
                      [CallPlan(labels=("a",), n_traces=1)],
                      [WorkUnit(0, 0, 1)]).close()
        assert main(["fleet", "collect", str(path)]) == 2
        assert "not shardable" in capsys.readouterr().err

    def test_merge_rejects_unreadable_file(self, capsys, tmp_path):
        # The CLI contract: package errors print `repro-flock: error:`
        # and exit 2, never a traceback.
        garbled = tmp_path / "garbled.db"
        garbled.write_text("not a database at all")
        assert main(["fleet", "collect", str(garbled)]) == 2
        assert "is not a broker database" in capsys.readouterr().err
        assert main(["fleet", "collect", str(tmp_path / "missing.db")]) == 2
        assert "does not exist" in capsys.readouterr().err
        binary = tmp_path / "binary.db"
        binary.write_bytes(b"\xff\xfe\x00\x01")
        assert main(["fleet", "collect", str(binary)]) == 2
        assert "is not a broker database" in capsys.readouterr().err

    def test_collect_rejects_bad_shard_sets(self, capsys, tmp_path, shard_files):
        s0, s1 = (str(path) for path in shard_files)
        assert main(["fleet", "collect", s0]) == 2  # shard 1 missing
        assert "incomplete unit coverage" in capsys.readouterr().err
        assert main(["fleet", "collect", s0, s1, s0]) == 2
        assert "duplicate broker file" in capsys.readouterr().err
        seeded = tmp_path / "seeded.db"
        assert main(["run", "fig2", "--preset", "tiny", "--seed", "5",
                     "--shards", "2", "--shard-index", "1",
                     "--out", str(seeded)]) == 0
        assert main(["fleet", "collect", s0, str(seeded)]) == 2
        assert "disagree on 'seed'" in capsys.readouterr().err
        overridden = tmp_path / "overridden.db"
        assert main(["run", "fig2", "--preset", "tiny", "--set", "n_traces=2",
                     "--shards", "2", "--shard-index", "1",
                     "--out", str(overridden)]) == 0
        assert main(["fleet", "collect", s0, str(overridden)]) == 2
        assert "disagree on 'overrides'" in capsys.readouterr().err
        unfinished = tmp_path / "unfinished.db"
        fleet.submit(unfinished, "fig2", preset="tiny", shard=(1, 2))
        assert main(["fleet", "collect", s0, str(unfinished)]) == 2
        assert "unfinished fleet" in capsys.readouterr().err

    def test_collect_names_the_missing_shard(self, capsys, shard_files):
        # One file of a two-shard split: the error names the shard that
        # is absent, not only the grid call it leaves short.
        s0, s1 = (str(path) for path in shard_files)
        assert main(["fleet", "collect", s0]) == 2
        err = capsys.readouterr().err
        assert "missing shard index(es) 1 of 2" in err
        assert f"{s0} (shard 0 of 2)" in err
        assert "Traceback" not in err
        assert main(["fleet", "collect", s1]) == 2
        assert "missing shard index(es) 0 of 2" in capsys.readouterr().err


class TestCliEndToEnd:
    """The acceptance path: fig2 split into 2 OS-process shards, each
    its own broker file, collected via the CLI in reverse order,
    bit-identical (metrics) to the serial run."""

    def _cli(self, *argv, cwd):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_fig2_two_process_shards_merge_bit_identical(self, tmp_path):
        for index in range(2):
            out = self._cli(
                "run", "fig2", "--preset", "ci",
                "--shards", "2", "--shard-index", str(index),
                "--out", f"s{index}.db",
                cwd=tmp_path,
            )
            assert f"shard {index + 1}/2 of fig2" in out
        self._cli(
            "fleet", "collect", "s1.db", "s0.db", "--out", "merged.json",
            cwd=tmp_path,
        )
        merged = load_result(tmp_path / "merged.json")
        serial = run_experiment("fig2", preset="ci")
        assert merged.experiment == "fig2"
        assert merged.rows == serial.rows
