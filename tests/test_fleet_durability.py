"""Durable-fleet tests: the v3 multi-experiment broker (v1 and v2 files
are rejected), journaled crash-safe submission and resume,
priority-then-FIFO scheduling across experiments, the collect-time
checksum audit, and the chaos soaks that close the loop."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.errors import ExperimentError, FleetError
from repro.eval import chaos, fleet
from repro.eval.broker import Broker
from repro.eval.spec import run_experiment


def submit(path, **kwargs):
    kwargs.setdefault("preset", "tiny")
    kwargs.setdefault("unit_traces", 2)
    return fleet.submit(path, "fig2", **kwargs)


def drain(path, **kwargs):
    return fleet.work(path, worker_id="drainer", wait=False, **kwargs)


class Boom(Exception):
    """Stand-in for a submitter dying mid-enqueue (SIGKILL-shaped:
    not a ReproError, escapes fleet.submit with the journal open)."""


def crash_submit(path, kill_after=0, **kwargs):
    """Run a submission that dies after ``kill_after`` batches."""

    def bomb(batch_index, enqueued):
        if batch_index >= kill_after:
            raise Boom(f"killed after batch {batch_index}")

    with pytest.raises(Boom):
        submit(path, on_batch=bomb, batch_size=2, **kwargs)


@pytest.fixture(scope="module")
def serial_rows():
    return run_experiment("fig2", preset="tiny").rows


class TestFormatLifecycle:
    @pytest.mark.parametrize("fmt", ["flock-broker-v1", "flock-broker-v2"])
    def test_outdated_format_is_rejected_with_resubmit_guidance(
        self, tmp_path, fmt
    ):
        path = tmp_path / "fleet.db"
        submit(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'format'",
            (json.dumps(fmt),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="resubmit the fleet"):
            Broker.open(path)


class TestJournaledSubmit:
    def test_crash_leaves_journal_open_and_resume_completes(
        self, tmp_path, serial_rows
    ):
        path = tmp_path / "fleet.db"
        crash_submit(path)
        with Broker.open(path) as broker:
            row = broker.resolve_experiment(None)
            assert not row.ready
            enqueued = len(broker.enqueued_units(row.id))
            assert 0 < enqueued < row.n_units
            # Workers never claim from an open journal.
            assert broker.claim("eager") is None
        # Collect refuses while the journal is open.
        with pytest.raises(FleetError, match="journal is still open"):
            fleet.collect(path)
        # A plain re-submit fails loudly with the recovery hint.
        with pytest.raises(FleetError, match="--if-exists resume"):
            submit(path)
        report = submit(path, if_exists="resume")
        assert report.resumed
        with Broker.open(path) as broker:
            row = broker.resolve_experiment(None)
            assert report.n_enqueued == row.n_units - enqueued
        drain(path)
        assert fleet.collect(path).rows == serial_rows

    def test_resume_refuses_a_different_plan(self, tmp_path):
        path = tmp_path / "fleet.db"
        crash_submit(path)
        with pytest.raises(FleetError, match="plan fingerprint"):
            submit(path, if_exists="resume", seed=999)

    def test_resume_of_ready_experiment_is_a_noop(self, tmp_path):
        path = tmp_path / "fleet.db"
        first = submit(path)
        report = submit(path, if_exists="resume")
        assert report.resumed and report.n_enqueued == 0
        with Broker.open(path) as broker:
            assert broker.counts().pending == first.n_units

    def test_existing_experiment_fails_by_default(self, tmp_path):
        path = tmp_path / "fleet.db"
        submit(path)
        with pytest.raises(FleetError, match="--if-exists resume"):
            submit(path)

    def test_if_exists_validation(self, tmp_path):
        with pytest.raises(ExperimentError, match="if_exists"):
            submit(tmp_path / "fleet.db", if_exists="maybe")


class TestMultiExperiment:
    @pytest.fixture()
    def two_experiments(self, tmp_path):
        path = tmp_path / "fleet.db"
        lo = submit(path, name="fig2-lo", priority=0)
        hi = submit(path, name="fig2-hi", priority=5, seed=104)
        return path, lo, hi

    def test_priority_then_fifo_claims(self, two_experiments):
        path, lo, hi = two_experiments
        with Broker.open(path) as broker:
            order = []
            while True:
                leased = broker.claim("scheduler-test")
                if leased is None:
                    break
                order.append(leased.experiment)
            assert order[:hi.n_units] == ["fig2-hi"] * hi.n_units
            assert order[hi.n_units:] == ["fig2-lo"] * lo.n_units

    def test_worker_filter_and_per_experiment_collect(
        self, two_experiments, serial_rows
    ):
        path, lo, hi = two_experiments
        report = drain(path, experiment="fig2-lo")
        assert report.completed == lo.n_units
        with Broker.open(path) as broker:
            assert broker.counts("fig2-hi").pending == hi.n_units
        with pytest.raises(ExperimentError, match="unfinished"):
            fleet.collect(path, experiment="fig2-hi")
        drain(path)
        assert fleet.collect(path, experiment="fig2-lo").rows == serial_rows
        hi_rows = fleet.collect(path, experiment="fig2-hi").rows
        assert hi_rows == run_experiment("fig2", preset="tiny", seed=104).rows

    def test_ambiguous_experiment_must_be_named(self, two_experiments):
        path, _, _ = two_experiments
        with pytest.raises(FleetError, match="--experiment"):
            fleet.collect(path)

    def test_unknown_worker_experiment_fails_fast(self, two_experiments):
        path, _, _ = two_experiments
        with pytest.raises(FleetError):
            fleet.work(path, worker_id="lost", wait=False, experiment="nope")

    def test_status_json_cli(self, two_experiments, capsys):
        path, lo, hi = two_experiments
        assert main(["fleet", "status", str(path), "--json"]) == 0
        state = json.loads(capsys.readouterr().out)
        assert state["counts"]["pending"] == lo.n_units + hi.n_units
        by_name = {e["name"]: e for e in state["experiments"]}
        assert by_name["fig2-hi"]["priority"] == 5
        assert by_name["fig2-hi"]["state"] == "ready"
        assert by_name["fig2-lo"]["counts"]["pending"] == lo.n_units


class TestCollectAudit:
    def test_collect_refuses_tampered_results(self, tmp_path, serial_rows):
        path = tmp_path / "fleet.db"
        submit(path)
        drain(path)
        conn = sqlite3.connect(path)
        unit_id, payload = conn.execute(
            "SELECT unit_id, payload FROM results ORDER BY unit_id"
        ).fetchone()
        conn.execute(
            "UPDATE results SET payload = ? WHERE unit_id = ?",
            (payload.replace('"', "'", 1), unit_id),
        )
        conn.commit()
        conn.close()
        with pytest.raises(FleetError, match="failed their checksum"):
            fleet.collect(path)
        # The audit re-queued the damaged unit; a healthy worker heals it.
        with Broker.open(path) as broker:
            assert broker.counts().pending == 1
        drain(path)
        assert fleet.collect(path).rows == serial_rows


class TestChaosClosesTheLoop:
    def test_submitter_kill_soak_drains_identical(self, tmp_path, serial_rows):
        spec = chaos.ChaosSpec(
            crash_at_claim=0, crash_mid_unit=0, stall=0, db_locked=0,
            corrupt=0, max_clock_skew=0, submit_crash=1.0,
        )
        report = chaos.run_chaos_soak(
            seed=3, spec=spec, workdir=tmp_path, serial_rows=serial_rows,
        )
        assert report.ok and report.events.get("submit_crash") == 1

    def test_multi_experiment_soak(self, tmp_path):
        report = chaos.run_multi_soak(
            seed=1, spec=chaos.LIGHT, workdir=tmp_path,
        )
        assert report.ok
        assert report.first_claimed == "fig2-hi"

    def test_stream_crash_resume_soak(self, tmp_path):
        report = chaos.run_stream_soak(
            seed=0, spec=chaos.LIGHT, workdir=tmp_path,
        )
        assert report.ok and report.crash_cycle is not None
