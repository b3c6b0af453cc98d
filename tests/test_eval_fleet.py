"""Tests for the work-unit layer, SQLite broker, and fleet evaluation:
unit planning, lease lifecycle (expiry, bounded retries, stale
completions), worker crash-resume, bit-identical collection, and the
``fleet`` CLI."""

import json
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.eval import fleet
from repro.eval.broker import Broker
from repro.eval.reporting import load_result
from repro.eval.serialize import (
    SCHEMA_VERSION,
    trace_result_from_wire,
    trace_result_to_wire,
)
from repro.eval.spec import build_experiment_spec, run_experiment
from repro.eval.units import (
    CallPlan,
    SingleUnitRecorder,
    WorkUnit,
    assemble_calls,
    plan_calls,
    plan_units,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

PLAN = [CallPlan(labels=("a", "b"), n_traces=3), CallPlan(labels=("a",), n_traces=2)]
UNITS = [
    WorkUnit(0, 0, 2, seeds=(7, 8)),
    WorkUnit(0, 2, 3, seeds=(9,)),
    WorkUnit(1, 0, 2, seeds=(1, 2)),
]
META = {"experiment": "fig2", "preset": "tiny", "seed": None,
        "scheme": None, "overrides": {}}


def make_broker(path, lease_seconds=10.0, max_attempts=3, units=UNITS):
    return Broker.create(
        path, META, PLAN, units,
        lease_seconds=lease_seconds, max_attempts=max_attempts,
    )


class TestUnitModel:
    def test_plan_units_chunks_each_call(self):
        spec = build_experiment_spec("fig2", preset="tiny")
        plan, units = plan_units(spec, unit_traces=3)
        assert [p.n_traces for p in plan] == [4, 4]
        assert [(u.call_index, u.start, u.stop) for u in units] == [
            (0, 0, 3), (0, 3, 4), (1, 0, 3), (1, 3, 4),
        ]
        # Unit seeds are the covered slice of the point's trace seeds.
        seeds = [s for u in units[:2] for s in u.seeds]
        assert len(seeds) == 4 and len(set(seeds)) == 4
        assert plan == plan_calls(spec)

    def test_unit_traces_validation(self):
        spec = build_experiment_spec("fig2", preset="tiny")
        with pytest.raises(ExperimentError, match="unit_traces must be >= 1"):
            plan_units(spec, unit_traces=0)

    def test_work_unit_validation(self):
        with pytest.raises(ExperimentError, match="call_index"):
            WorkUnit(-1, 0, 1)
        with pytest.raises(ExperimentError, match="start < stop"):
            WorkUnit(0, 2, 2)

    def test_single_unit_recorder_rejects_out_of_plan_units(self):
        with pytest.raises(ExperimentError, match="plan has 2 grid call"):
            SingleUnitRecorder(WorkUnit(5, 0, 1), PLAN)
        with pytest.raises(ExperimentError, match="exceeds call"):
            SingleUnitRecorder(WorkUnit(0, 0, 9), PLAN)

    def test_single_unit_recorder_rejects_plan_mismatch(self):
        rec = SingleUnitRecorder(WorkUnit(0, 0, 2), PLAN)
        with pytest.raises(ExperimentError, match="shape mismatch"):
            rec.select_call(["other"], 3)
        rec = SingleUnitRecorder(WorkUnit(0, 0, 2), PLAN)
        rec.select_call(["a", "b"], 3)
        rec.select_call(["a"], 2)
        with pytest.raises(ExperimentError, match="more grid calls"):
            rec.select_call(["a"], 2)

    def test_unit_payload_requires_full_execution(self):
        rec = SingleUnitRecorder(WorkUnit(0, 0, 2), PLAN)
        rec.select_call(["a", "b"], 3)
        rec.record(0, [])
        rec.select_call(["a"], 2)
        with pytest.raises(ExperimentError, match="unit execution incomplete"):
            rec.unit_payload()

    def test_unit_payload_accepts_completion_order(self):
        # The process pool records a unit's traces as they
        # finish; the payload is still the unit's full range, in order.
        rec = SingleUnitRecorder(WorkUnit(0, 0, 2), PLAN)
        rec.select_call(["a", "b"], 3)
        rec.record(1, [])
        rec.record(0, [])
        rec.select_call(["a"], 2)
        assert [entry[0] for entry in rec.unit_payload()["u"]] == [0, 1]

    def test_assemble_calls_requires_exact_coverage(self):
        results = [(WorkUnit(0, 0, 2), [[0, []], [1, []]])]
        with pytest.raises(ExperimentError, match="incomplete unit coverage"):
            assemble_calls(PLAN, results)

    def test_assemble_calls_rejects_unknown_call(self):
        with pytest.raises(ExperimentError, match="plan has 2 grid call"):
            assemble_calls(PLAN, [(WorkUnit(7, 0, 1), [[0, []]])])


def sample_trace_result():
    from repro.eval.harness import TraceResult
    from repro.eval.metrics import TraceMetrics
    from repro.types import Prediction

    return TraceResult(
        prediction=Prediction.empty(),
        metrics=TraceMetrics(precision=0.5, recall=0.25),
        build_seconds=0.01,
        inference_seconds=0.02,
        problem=None,
    )


class TestSchemaVersion:
    def test_wire_payloads_carry_version(self):
        wire = trace_result_to_wire(sample_trace_result())
        assert wire["v"] == SCHEMA_VERSION
        assert trace_result_from_wire(json.loads(json.dumps(wire)))

    def test_version_mismatch_rejected(self):
        wire = trace_result_to_wire(sample_trace_result())
        wire["v"] = 999
        with pytest.raises(ExperimentError, match="wire schema v999"):
            trace_result_from_wire(wire)

    def test_missing_version_rejected(self):
        wire = trace_result_to_wire(sample_trace_result())
        del wire["v"]  # every writer stamps it, so this one is foreign
        with pytest.raises(ExperimentError, match="no wire schema version"):
            trace_result_from_wire(wire)

    def test_stale_broker_rejected(self, tmp_path):
        path = tmp_path / "b.db"
        make_broker(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="wire schema v999"):
            Broker.open(path)


class TestBroker:
    def test_meta_roundtrip(self, tmp_path):
        path = tmp_path / "b.db"
        with make_broker(path, lease_seconds=5.0, max_attempts=2) as broker:
            assert broker.experiment_meta() == META
            assert broker.plan() == PLAN
            assert broker.lease_seconds == 5.0
            assert broker.max_attempts == 2
        with Broker.open(path) as broker:
            assert broker.counts().pending == 3

    def test_create_refuses_existing_and_invalid(self, tmp_path):
        path = tmp_path / "b.db"
        make_broker(path).close()
        with pytest.raises(ExperimentError, match="already exists"):
            make_broker(path)
        with pytest.raises(ExperimentError, match="no work units"):
            make_broker(tmp_path / "c.db", units=[])
        with pytest.raises(ExperimentError, match="lease_seconds must be > 0"):
            make_broker(tmp_path / "d.db", lease_seconds=0)
        with pytest.raises(ExperimentError, match="max_attempts must be >= 1"):
            make_broker(tmp_path / "e.db", max_attempts=0)

    def test_open_rejects_missing_and_non_broker(self, tmp_path):
        with pytest.raises(ExperimentError, match="does not exist"):
            Broker.open(tmp_path / "nope.db")
        bogus = tmp_path / "bogus.db"
        bogus.write_text("not sqlite at all, definitely not a database")
        with pytest.raises(ExperimentError, match="not a broker database"):
            Broker.open(bogus)

    def test_claim_leases_in_unit_order(self, tmp_path):
        with make_broker(tmp_path / "b.db") as broker:
            first = broker.claim("w0", now=100.0)
            assert first.unit == UNITS[0]
            assert first.attempt == 1
            assert first.lease_expires == 110.0
            assert broker.claim("w0", now=100.0).unit == UNITS[1]
            assert broker.claim("w1", now=100.0).unit == UNITS[2]
            assert broker.claim("w1", now=100.0) is None
            assert broker.counts().leased == 3

    def test_expired_lease_is_reclaimed(self, tmp_path):
        with make_broker(tmp_path / "b.db", lease_seconds=10.0) as broker:
            first = broker.claim("w0", now=100.0)
            # Within the lease the unit is not claimable by anyone else.
            others = [broker.claim("w1", now=105.0) for _ in range(2)]
            assert all(o.unit != first.unit for o in others)
            assert broker.claim("w1", now=105.0) is None
            # Past expiry it goes back to pending and re-leases.
            again = broker.claim("w1", now=111.0)
            assert again.unit == first.unit
            assert again.attempt == 2

    def test_stale_completion_discarded(self, tmp_path):
        with make_broker(tmp_path / "b.db", lease_seconds=10.0) as broker:
            first = broker.claim("w0", now=100.0)
            again = broker.claim("w1", now=111.0)
            assert again.unit_id == first.unit_id
            # The original worker wakes up late: its completion is dropped.
            assert not broker.complete(
                first.unit_id, "w0", {"v": SCHEMA_VERSION, "u": []}, now=112.0
            )
            assert broker.counts().done == 0
            assert broker.complete(
                again.unit_id, "w1", {"v": SCHEMA_VERSION, "u": []}, now=115.0
            )
            assert broker.counts().done == 1
            assert len(broker.results()) == 1

    def test_lease_expiry_attempts_are_bounded(self, tmp_path):
        with make_broker(
            tmp_path / "b.db", lease_seconds=10.0, max_attempts=2
        ) as broker:
            unit_id = broker.claim("w0", now=0.0).unit_id
            assert broker.claim("w1", now=20.0).unit_id == unit_id
            # Second lease also expires; attempts exhausted -> failed.
            later = broker.claim("w2", now=40.0)
            assert later is None or later.unit_id != unit_id
            counts = broker.counts()
            assert counts.failed == 1
            (failed_id, error), = broker.errors()
            assert failed_id == unit_id
            assert "lease expired after 2 attempt" in error

    def test_fail_retries_then_fails_permanently(self, tmp_path):
        with make_broker(tmp_path / "b.db", max_attempts=2) as broker:
            leased = broker.claim("w0", now=0.0)
            assert broker.fail(leased.unit_id, "w0", "boom", now=1.0) == "pending"
            leased = broker.claim("w0", now=2.0)
            assert broker.fail(leased.unit_id, "w0", "boom", now=3.0) == "failed"
            assert broker.counts().failed == 1
            # A worker that lost its lease cannot fail the unit either.
            assert broker.fail(leased.unit_id, "other", "x", now=4.0) is None

    def test_retry_failed_requeues(self, tmp_path):
        with make_broker(tmp_path / "b.db", max_attempts=1) as broker:
            leased = broker.claim("w0", now=0.0)
            assert broker.fail(leased.unit_id, "w0", "boom", now=1.0) == "failed"
            assert broker.counts().failed == 1
            assert broker.retry_failed() == 1
            counts = broker.counts()
            assert counts.failed == 0 and counts.pending == 3
            assert broker.errors() == []
            # The re-queued unit leases again with a fresh attempt budget.
            again = broker.claim("w1", now=2.0)
            assert again.unit_id == leased.unit_id
            assert again.attempt == 1
            # Nothing failed -> nothing to retry; done work is untouched.
            assert broker.retry_failed() == 0
            assert broker.complete(
                again.unit_id, "w1", {"v": SCHEMA_VERSION, "u": []}, now=3.0
            )
            assert broker.retry_failed() == 0
            assert broker.counts().done == 1

    def test_completion_times_ascending(self, tmp_path):
        with make_broker(tmp_path / "b.db") as broker:
            assert broker.completion_times() == []
            stamps = (10.0, 12.5, 11.0)  # finish out of order
            for now in stamps:
                leased = broker.claim("w0", now=now)
                assert broker.complete(
                    leased.unit_id, "w0",
                    {"v": SCHEMA_VERSION, "u": []}, now=now,
                )
            assert broker.completion_times() == sorted(stamps)

    def test_next_lease_expiry(self, tmp_path):
        with make_broker(tmp_path / "b.db", lease_seconds=10.0) as broker:
            assert broker.next_lease_expiry() is None
            broker.claim("w0", now=100.0)
            broker.claim("w0", now=103.0)
            assert broker.next_lease_expiry() == 110.0


class TestFleetEvaluation:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_experiment("fig2", preset="tiny")

    @pytest.mark.parametrize("unit_traces", [1, 3])
    def test_fleet_matches_serial_bit_identical(
        self, tmp_path, serial, unit_traces
    ):
        path = tmp_path / "b.db"
        report = fleet.submit(
            path, "fig2", preset="tiny", unit_traces=unit_traces
        )
        assert report.n_calls == 2
        # Two workers drain the broker cooperatively.
        first = fleet.work(path, worker_id="w0",
                           max_units=report.n_units // 2, wait=False)
        second = fleet.work(path, worker_id="w1", wait=False)
        assert first.completed + second.completed == report.n_units
        result = fleet.collect(path)
        assert result.rows == serial.rows

    def test_submit_refuses_unshardable_and_duplicate(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot be fleet-evaluated"):
            fleet.submit(tmp_path / "b.db", "table1", preset="tiny")
        fleet.submit(tmp_path / "b.db", "fig2", preset="tiny")
        with pytest.raises(ExperimentError, match="already exists"):
            fleet.submit(tmp_path / "b.db", "fig2", preset="tiny")

    def test_worker_rejects_mismatched_plan(self, tmp_path):
        path = tmp_path / "b.db"
        fleet.submit(path, "fig2", preset="tiny")
        conn = sqlite3.connect(path)
        plan = json.loads(
            conn.execute("SELECT plan FROM experiments WHERE id=1").fetchone()[0]
        )
        plan[0]["n"] += 1  # the submitter's checkout planned a different grid
        conn.execute(
            "UPDATE experiments SET plan=? WHERE id=1", (json.dumps(plan),)
        )
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="matching checkouts"):
            fleet.work(path, worker_id="w0")

    def test_failing_units_exhaust_retries_and_block_collect(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "b.db"
        fleet.submit(
            path, "fig2", preset="tiny", unit_traces=4, max_attempts=2
        )

        def explode(*args, **kwargs):
            raise ExperimentError("induced unit failure")

        monkeypatch.setattr(fleet, "run_spec", explode)
        report = fleet.work(path, worker_id="w0", wait=False)
        assert report.completed == 0
        state = fleet.status(path)
        assert state["counts"]["failed"] == 2
        assert all("induced unit failure" in err for _, err in state["errors"])
        monkeypatch.undo()
        with pytest.raises(ExperimentError, match="failed permanently"):
            fleet.collect(path)

    def test_collect_refuses_unfinished_fleet(self, tmp_path):
        path = tmp_path / "b.db"
        fleet.submit(path, "fig2", preset="tiny", unit_traces=4)
        with pytest.raises(ExperimentError, match="unfinished fleet"):
            fleet.collect(path)
        fleet.work(path, worker_id="w0", max_units=1, wait=False)
        with pytest.raises(ExperimentError, match="1 leased|pending"):
            fleet.collect(path)

    def test_status_counts(self, tmp_path):
        path = tmp_path / "b.db"
        fleet.submit(path, "fig2", preset="tiny", unit_traces=2)
        assert fleet.status(path)["counts"] == {
            "pending": 4, "leased": 0, "done": 0, "failed": 0,
        }
        fleet.work(path, worker_id="w0", max_units=3, wait=False)
        state = fleet.status(path, detail=True)
        assert state["counts"] == {
            "pending": 1, "leased": 0, "done": 3, "failed": 0,
        }
        assert [row["status"] for row in state["units"]] == [
            "done", "done", "done", "pending",
        ]

    def test_status_progress_and_eta(self, tmp_path):
        path = tmp_path / "b.db"
        fleet.submit(path, "fig2", preset="tiny", unit_traces=2)
        progress = fleet.status(path)["progress"]
        assert progress == {
            "done": 0, "total": 4, "remaining": 4,
            "rate_per_s": None, "eta_s": None,
        }
        fleet.work(path, worker_id="w0", max_units=3, wait=False)
        progress = fleet.status(path)["progress"]
        assert progress["done"] == 3
        assert progress["remaining"] == 1
        if progress["rate_per_s"] is not None:
            assert progress["rate_per_s"] > 0
            assert progress["eta_s"] == pytest.approx(
                1 / progress["rate_per_s"]
            )

    def test_progress_rate_windowed(self):
        from repro.eval.broker import FleetCounts

        counts = FleetCounts(pending=4, leased=2, done=40, failed=0)
        # Older completions (one per 100s) fall outside the window; the
        # last PROGRESS_WINDOW completions arrive one per second.
        times = [float(i) * 100 for i in range(20)]
        times += [2000.0 + i for i in range(fleet.PROGRESS_WINDOW)]
        progress = fleet._progress(counts, times)
        assert progress["remaining"] == 6
        assert progress["rate_per_s"] == pytest.approx(1.0)
        assert progress["eta_s"] == pytest.approx(6.0)
        # A single completion cannot produce a rate.
        single = fleet._progress(counts, [5.0])
        assert single["rate_per_s"] is None and single["eta_s"] is None

    def test_fleet_retry_requeues_failed_units(self, tmp_path):
        path = tmp_path / "b.db"
        fleet.submit(
            path, "fig2", preset="tiny", unit_traces=2, max_attempts=1
        )
        with Broker.open(path) as broker:
            leased = broker.claim("w0")
            assert broker.fail(
                leased.unit_id, "w0", "transient breakage"
            ) == "failed"
        with pytest.raises(ExperimentError, match="failed"):
            fleet.collect(path)
        assert fleet.retry(path) == 1
        assert fleet.retry(path) == 0
        # After the fix, the fleet drains and collects normally.
        fleet.work(path, worker_id="w1", wait=False)
        result = fleet.collect(path)
        assert result is not None

    def test_worker_rejects_nested_shard(self, tmp_path):
        from repro.eval.runner import RunnerConfig

        path = tmp_path / "b.db"
        fleet.submit(path, "fig2", preset="tiny")
        nested = RunnerConfig(shard=SingleUnitRecorder(WorkUnit(0, 0, 1), PLAN))
        with pytest.raises(ExperimentError, match="cannot nest"):
            fleet.work(path, runner=nested)
        with pytest.raises(ExperimentError, match="cannot nest"):
            fleet.collect(path, runner=nested)


class TestCrashResume:
    """A worker SIGKILLed mid-unit must not lose the fleet: its lease
    expires, a surviving worker re-runs the unit, and the collected
    result is bit-identical to serial."""

    VICTIM = """
import sys, time
from repro.eval import fleet

def stall(leased):
    print(f"claimed {leased.unit_id}", flush=True)
    time.sleep(600)

fleet.work(sys.argv[1], worker_id="victim", on_claim=stall)
"""

    def test_sigkill_mid_unit_resumes_and_matches_serial(self, tmp_path):
        path = tmp_path / "b.db"
        report = fleet.submit(
            path, "fig2", preset="tiny", unit_traces=2, lease_seconds=3.0
        )
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        victim = subprocess.Popen(
            [sys.executable, "-c", self.VICTIM, str(path)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = victim.stdout.readline()  # blocks until a unit is leased
            assert line.startswith("claimed ")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert fleet.status(path)["counts"]["leased"] == 1
        # The survivor waits out the dead worker's lease and drains all.
        survivor = fleet.work(path, worker_id="survivor")
        assert survivor.completed == report.n_units
        state = fleet.status(path, detail=True)
        assert state["counts"] == {
            "pending": 0, "leased": 0, "done": 4, "failed": 0,
        }
        attempts = {row["id"]: row["attempts"] for row in state["units"]}
        killed = int(line.split()[1])
        assert attempts[killed] == 2  # victim's claim + survivor's re-run
        result = fleet.collect(path)
        serial = run_experiment("fig2", preset="tiny")
        assert result.rows == serial.rows


class TestFleetCli:
    def test_cli_flow_matches_serial(self, tmp_path, capsys):
        broker = str(tmp_path / "b.db")
        out = str(tmp_path / "out.json")
        assert main(["fleet", "submit", broker, "fig2", "--preset", "tiny",
                     "--unit-traces", "2"]) == 0
        assert "4 work unit(s) over 2 grid call(s)" in capsys.readouterr().out
        assert main(["fleet", "status", broker]) == 0
        assert "4 pending" in capsys.readouterr().out
        assert main(["fleet", "work", broker, "--worker-id", "w0",
                     "--max-units", "2", "--no-wait"]) == 0
        assert main(["fleet", "work", broker, "--worker-id", "w1",
                     "--no-wait"]) == 0
        capsys.readouterr()
        assert main(["fleet", "collect", broker, "--out", out]) == 0
        assert "fig2" in capsys.readouterr().out
        serial = run_experiment("fig2", preset="tiny")
        assert load_result(out).rows == serial.rows

    def test_submit_validates_values(self, tmp_path, capsys):
        broker = str(tmp_path / "b.db")
        assert main(["fleet", "submit", broker, "fig2", "--preset", "tiny",
                     "--unit-traces", "0"]) == 2
        assert "unit_traces must be >= 1, got 0" in capsys.readouterr().err
        assert main(["fleet", "submit", broker, "fig2", "--preset", "tiny",
                     "--lease-seconds", "-1"]) == 2
        assert "lease_seconds must be > 0" in capsys.readouterr().err
        assert main(["fleet", "submit", broker, "fig2", "--preset", "tiny",
                     "--max-attempts", "0"]) == 2
        assert "max_attempts must be >= 1, got 0" in capsys.readouterr().err
        assert main(["fleet", "submit", broker, "table1",
                     "--preset", "tiny"]) == 2
        assert "cannot be fleet-evaluated" in capsys.readouterr().err

    def test_work_validates_values(self, tmp_path, capsys):
        broker = str(tmp_path / "b.db")
        assert main(["fleet", "submit", broker, "fig2",
                     "--preset", "tiny"]) == 0
        capsys.readouterr()
        assert main(["fleet", "work", broker, "--max-units", "0"]) == 2
        assert "--max-units must be >= 1, got 0" in capsys.readouterr().err
        assert main(["fleet", "work", broker, "--jobs", "0"]) == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err
        assert main(["fleet", "work", str(tmp_path / "missing.db")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_broker_of_the_previous_simulator_stream_is_refused(
        self, tmp_path, capsys
    ):
        # Schema v2 units were simulated with the per-group RNG stream;
        # mixing them with this checkout's draws must fail loudly.
        broker = str(tmp_path / "b.db")
        assert main(["fleet", "submit", broker, "fig2",
                     "--preset", "tiny"]) == 0
        capsys.readouterr()
        conn = sqlite3.connect(broker)
        conn.execute(
            "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        for args in (["work", broker, "--no-wait"], ["collect", broker]):
            assert main(["fleet"] + args) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro-flock: error: ")
            assert (
                f"wire schema v2 but this checkout speaks v{SCHEMA_VERSION}"
                in err
            )


class TestCliValidation:
    """CLI-boundary validation: bad counts and indices fail with errors
    naming the offending value, never tracebacks."""

    def test_shard_count_and_index_validated(self, capsys):
        assert main(["run", "fig2", "--shards", "0",
                     "--shard-index", "0", "--out", "x.json"]) == 2
        assert "shard count must be >= 1, got 0" in capsys.readouterr().err
        assert main(["run", "fig2", "--shards", "2",
                     "--shard-index", "5", "--out", "x.json"]) == 2
        assert "shard index must be in [0, 2), got 5" in capsys.readouterr().err
        assert main(["run", "fig2", "--shards", "2",
                     "--shard-index", "-1", "--out", "x.json"]) == 2
        assert "shard index must be in [0, 2), got -1" in capsys.readouterr().err

    def test_negative_jobs_validated(self, capsys):
        assert main(["run", "fig2", "--preset", "tiny", "--jobs", "-2"]) == 2
        assert "jobs must be >= 1, got -2" in capsys.readouterr().err

    def test_merge_rejects_duplicate_shard_files(self, tmp_path, capsys):
        shard = tmp_path / "s0.db"
        fleet.submit(shard, "fig2", preset="tiny", shard=(0, 2))
        assert main(["fleet", "collect", str(shard), str(shard)]) == 2
        err = capsys.readouterr().err
        assert "duplicate broker file" in err and "s0.db" in err
        # The same file under two spellings is still a duplicate.
        alias = tmp_path / "sub" / ".." / "s0.db"
        assert main(["fleet", "collect", str(shard), str(alias)]) == 2
        assert "duplicate broker file" in capsys.readouterr().err
