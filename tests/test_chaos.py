"""Chaos-hardening tests: retry policy, lease heartbeats, checksummed
results, the seeded fault-injection soak, and stream degradation.

The robustness contract under test: under any seeded chaos schedule the
fleet drains and ``collect`` is bit-identical to a serial run; a unit
that outlives its lease completes exactly once when heartbeats renew
it and zero times when they don't; corrupted payloads are detected and
re-queued, never folded; and a budgeted ``StreamMonitor`` degrades
gracefully instead of falling behind.
"""

import sqlite3
import time

import pytest

from repro.core.gibbs import GibbsInference
from repro.errors import ChaosError, ExperimentError, FleetError, ReproError
from repro.eval import chaos, fleet
from repro.eval.broker import Broker, FleetCounts
from repro.eval.chaos import ChaosPolicy, ChaosSpec, WorkerCrash
from repro.eval.experiments import standard_topology
from repro.eval.harness import SchemeSetup
from repro.eval.schemes import make_setup
from repro.eval.serialize import (
    SCHEMA_VERSION,
    encode_unit_payload,
    payload_checksum,
)
from repro.eval.spec import run_experiment
from repro.eval.stream import StreamMonitor
from repro.retry import RetryPolicy
from repro.routing.ecmp import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_delays_are_bounded_and_deterministic(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5,
            jitter=0.5, seed=7,
        )
        a = [next_delay for next_delay, _ in zip(
            policy.delays(policy.make_rng()), range(5))]
        b = [next_delay for next_delay, _ in zip(
            policy.delays(policy.make_rng()), range(5))]
        assert a == b  # same seed, same schedule
        for k, delay in enumerate(a):
            nominal = min(0.1 * 2.0 ** k, 0.5)
            assert nominal * 0.5 <= delay <= nominal * 1.5

    def test_transient_errors_retry_then_succeed(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        policy = RetryPolicy(attempts=5, base_delay=0.01, seed=0)
        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_budget_exhaustion_raises_the_original_error(self):
        def always():
            raise sqlite3.OperationalError("database is locked")

        policy = RetryPolicy(attempts=3, base_delay=0.0, seed=0)
        with pytest.raises(sqlite3.OperationalError):
            policy.call(always, sleep=lambda s: None)

    def test_non_transient_errors_raise_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("not transient")

        policy = RetryPolicy(attempts=5, base_delay=0.0, seed=0)
        with pytest.raises(ValueError):
            policy.call(broken, sleep=lambda s: None)
        assert len(calls) == 1

    def test_repro_errors_never_retry_even_when_type_matches(self):
        calls = []

        def misconfigured():
            calls.append(1)
            raise ExperimentError("a real bug, not contention")

        policy = RetryPolicy(
            attempts=5, base_delay=0.0, transient=(Exception,), seed=0
        )
        with pytest.raises(ExperimentError):
            policy.call(misconfigured, sleep=lambda s: None)
        assert len(calls) == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Broker hardening: renew, late reports, checksums, reap bookkeeping


def _submit(tmp_path, **kwargs):
    kwargs.setdefault("preset", "tiny")
    kwargs.setdefault("unit_traces", 4)
    path = tmp_path / "broker.db"
    fleet.submit(path, "fig2", **kwargs)
    return path


class TestBrokerHardening:
    def test_renew_extends_a_live_lease(self, tmp_path):
        path = _submit(tmp_path, lease_seconds=10.0)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            assert leased.lease_expires == 110.0
            assert broker.renew(leased.unit_id, "w0", now=105.0) == 115.0

    def test_renew_by_a_non_holder_is_refused(self, tmp_path):
        path = _submit(tmp_path, lease_seconds=10.0)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            assert broker.renew(leased.unit_id, "w1", now=105.0) is None

    def test_late_renew_is_discarded_and_the_unit_reaped(self, tmp_path):
        path = _submit(tmp_path, lease_seconds=10.0)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            assert broker.renew(leased.unit_id, "w0", now=200.0) is None
            row = broker.unit_rows()[leased.unit_id - 1]
            assert row["status"] == "pending"
            assert row["worker"] is None
            assert row["lease_expires"] is None

    def test_late_completion_discarded_without_an_intervening_claim(
        self, tmp_path
    ):
        path = _submit(tmp_path, lease_seconds=10.0)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            wire, checksum = encode_unit_payload({"v": SCHEMA_VERSION})
            assert not broker.complete(
                leased.unit_id, "w0", now=150.0, wire=wire, checksum=checksum
            )
            row = broker.unit_rows()[leased.unit_id - 1]
            assert row["status"] == "pending"
            assert broker.counts().done == 0

    def test_late_failure_report_is_discarded(self, tmp_path):
        path = _submit(tmp_path, lease_seconds=10.0)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            assert broker.fail(
                leased.unit_id, "w0", "slow crash", now=150.0
            ) is None
            row = broker.unit_rows()[leased.unit_id - 1]
            assert row["status"] == "pending"

    def test_reap_clears_worker_and_lease_on_the_failed_path(self, tmp_path):
        # Satellite: an attempts-exhausted reap must not leak stale
        # lease bookkeeping into the failed row.
        path = _submit(tmp_path, lease_seconds=10.0, max_attempts=1)
        with Broker.open(path) as broker:
            leased = broker.claim("w0", now=100.0)
            broker.claim("w1", now=200.0)  # reaps w0's expired lease
            row = broker.unit_rows()[leased.unit_id - 1]
            assert row["status"] == "failed"
            assert row["worker"] is None
            assert row["lease_expires"] is None
            assert "lease expired" in row["error"]
            assert "w0" in row["error"]
            broker.retry_failed()
            row = broker.unit_rows()[leased.unit_id - 1]
            assert row["status"] == "pending"
            assert row["error"] is None
            assert row["attempts"] == 0

    def test_v1_broker_files_are_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT INTO meta VALUES ('format', '\"flock-broker-v1\"')"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="resubmit"):
            Broker.open(path)


class TestChecksummedResults:
    def _drain(self, path):
        return fleet.work(
            path, worker_id="w0", wait=False, heartbeat_seconds=0
        )

    def _tamper(self, path):
        conn = sqlite3.connect(path)
        unit_id, payload = conn.execute(
            "SELECT unit_id, payload FROM results ORDER BY unit_id LIMIT 1"
        ).fetchone()
        conn.execute(
            "UPDATE results SET payload = ? WHERE unit_id = ?",
            (payload[:-2] + "]}" if payload.endswith("}}") else payload + " ",
             unit_id),
        )
        conn.commit()
        conn.close()
        return unit_id

    def test_corruption_is_detected_requeued_and_healed(self, tmp_path):
        path = _submit(tmp_path)
        self._drain(path)
        unit_id = self._tamper(path)

        with Broker.open(path) as broker:
            with pytest.raises(FleetError, match="checksum"):
                broker.results()

        with pytest.raises(FleetError, match="re-queued"):
            fleet.collect(path)
        with Broker.open(path) as broker:
            row = broker.unit_rows()[unit_id - 1]
            assert row["status"] == "pending"

        self._drain(path)
        collected = fleet.collect(path)
        assert collected.rows == run_experiment("fig2", preset="tiny").rows

    def test_verify_results_passes_clean_brokers(self, tmp_path):
        path = _submit(tmp_path)
        self._drain(path)
        with Broker.open(path) as broker:
            assert broker.verify_results() == []

    def test_payload_checksum_is_stable(self):
        text, checksum = encode_unit_payload({"a": 1})
        assert checksum == payload_checksum(text)
        assert payload_checksum(text + " ") != checksum


# ---------------------------------------------------------------------------
# Heartbeats: long units under short leases


class TestHeartbeats:
    def test_long_unit_completes_exactly_once_with_heartbeats(
        self, tmp_path, monkeypatch
    ):
        # Acceptance: a unit running ~3x the lease completes exactly
        # once (never re-queued, never double-counted) because the
        # worker's heartbeat ticker keeps renewing the lease.
        path = _submit(tmp_path, lease_seconds=1.0)
        real_run_spec = fleet.run_spec
        slowed = []

        def slow_once(*args, **kwargs):
            if not slowed:
                slowed.append(1)
                time.sleep(3.0)
            return real_run_spec(*args, **kwargs)

        monkeypatch.setattr(fleet, "run_spec", slow_once)
        report = fleet.work(path, worker_id="w0", wait=False)
        assert report.stale == 0
        assert report.failed == 0
        assert report.renewed >= 2
        with Broker.open(path) as broker:
            counts = broker.counts()
            assert counts.done == counts.total
            assert all(r["attempts"] == 1 for r in broker.unit_rows())
        collected = fleet.collect(path)
        assert collected.rows == run_experiment("fig2", preset="tiny").rows

    def test_without_heartbeats_the_late_completion_is_discarded(
        self, tmp_path, monkeypatch
    ):
        path = _submit(tmp_path, lease_seconds=0.5, max_attempts=1)
        real_run_spec = fleet.run_spec
        slowed = []

        def slow_once(*args, **kwargs):
            if not slowed:
                slowed.append(1)
                time.sleep(1.5)
            return real_run_spec(*args, **kwargs)

        monkeypatch.setattr(fleet, "run_spec", slow_once)
        report = fleet.work(
            path, worker_id="w0", wait=False, heartbeat_seconds=0
        )
        assert report.stale >= 1
        with Broker.open(path) as broker:
            assert broker.counts().failed >= 1


# ---------------------------------------------------------------------------
# Worker error reporting (traceback-grade error column)


class TestWorkerErrors:
    def test_unit_failures_store_the_full_traceback(
        self, tmp_path, monkeypatch
    ):
        path = _submit(tmp_path, max_attempts=1)

        def explode(*args, **kwargs):
            raise ValueError("boom from deep inside a unit")

        monkeypatch.setattr(fleet, "run_spec", explode)
        report = fleet.work(
            path, worker_id="w0", wait=False, heartbeat_seconds=0
        )
        assert report.failed >= 1
        state = fleet.status(path, detail=True)
        failed = [r for r in state["units"] if r["status"] == "failed"]
        assert failed
        for row in failed:
            assert "Traceback (most recent call last)" in row["error"]
            assert "ValueError: boom from deep inside a unit" in row["error"]
        assert state["errors"]

        # fleet retry clears the stored errors with the attempt budget.
        fleet.retry(path)
        state = fleet.status(path, detail=True)
        assert all(r["error"] is None for r in state["units"])


# ---------------------------------------------------------------------------
# Fleet status progress guard (ETA derivation)


class TestProgressGuard:
    COUNTS = FleetCounts(pending=2, leased=1, done=3, failed=0)

    def test_fewer_than_two_completions_reports_null_rate(self):
        for times in ([], [5.0]):
            progress = fleet._progress(self.COUNTS, times)
            assert progress["rate_per_s"] is None
            assert progress["eta_s"] is None

    def test_identical_timestamps_report_null_rate(self):
        progress = fleet._progress(self.COUNTS, [5.0, 5.0, 5.0])
        assert progress["rate_per_s"] is None
        assert progress["eta_s"] is None

    def test_measurable_span_reports_rate_and_eta(self):
        progress = fleet._progress(self.COUNTS, [0.0, 1.0, 2.0])
        assert progress["rate_per_s"] == pytest.approx(1.0)
        assert progress["eta_s"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# The chaos subsystem itself


class TestChaosPolicy:
    def test_spec_validation(self):
        with pytest.raises(ChaosError):
            ChaosSpec(crash_at_claim=1.5)
        with pytest.raises(ChaosError):
            ChaosSpec(db_locked=-0.1)
        with pytest.raises(ChaosError):
            ChaosSpec(max_burst=0)

    def test_worker_clock_skew_is_fixed_per_worker(self):
        policy = ChaosPolicy(seed=3, spec=ChaosSpec(max_clock_skew=2.0))
        clock_a = policy.worker_clock("a")
        clock_b = policy.worker_clock("b")
        skew_a = clock_a() - policy.clock.now()
        assert abs(skew_a) <= 2.0
        policy.clock.advance(10.0)
        assert clock_a() - policy.clock.now() == pytest.approx(skew_a)
        assert clock_b() - policy.clock.now() != pytest.approx(skew_a)

    def test_corrupt_wire_changes_the_checksum(self):
        policy = ChaosPolicy(seed=0, spec=ChaosSpec(corrupt=1.0))
        wire, checksum = encode_unit_payload({"k": [1, 2, 3]})
        damaged = policy.corrupt_wire(None, wire)
        assert damaged != wire
        assert payload_checksum(damaged) != checksum

    def test_arrival_bursts_cover_the_stream(self):
        policy = ChaosPolicy(seed=5, spec=ChaosSpec(burst=0.5))
        schedule = policy.arrival_bursts(20)
        assert sum(schedule) == 20
        assert all(n >= 1 for n in schedule)
        again = ChaosPolicy(seed=5, spec=ChaosSpec(burst=0.5))
        assert again.arrival_bursts(20) == schedule

    def test_hooks_raise_worker_crash_when_scheduled(self):
        policy = ChaosPolicy(seed=0, spec=ChaosSpec(crash_at_claim=1.0))
        with pytest.raises(WorkerCrash):
            policy.on_claim(
                type("L", (), {"unit_id": 1})()
            )
        assert policy.events["crash_at_claim"] == 1


class TestChaosSoak:
    def test_soaks_drain_bit_identical_across_seeds(self, tmp_path):
        # Randomized soak: several seeds, two profiles, one shared
        # serial baseline.  strict=True means any non-draining or
        # diverging soak raises ChaosError and fails the test.
        serial = run_experiment("fig2", preset="tiny").rows
        reports = []
        for seed, spec in ((1, chaos.DEFAULT), (1, chaos.HEAVY),
                           (4, chaos.HEAVY)):
            reports.append(chaos.run_chaos_soak(
                seed=seed, spec=spec, workdir=tmp_path,
                serial_rows=serial, strict=True,
            ))
        assert all(r.ok for r in reports)
        # The schedules must actually exercise the hardening: across
        # these seeds every fault class fires at least once.
        fired = {}
        for report in reports:
            for name, count in report.events.items():
                fired[name] = fired.get(name, 0) + count
        for fault in ("crash_at_claim", "crash_mid_unit", "stall",
                      "db_locked", "corrupt"):
            assert fired.get(fault, 0) > 0, f"{fault} never fired"
        assert any(r.corrupt_requeued for r in reports)
        assert any(r.crashes for r in reports)

    def test_soak_is_deterministic_per_seed(self, tmp_path):
        serial = run_experiment("fig2", preset="tiny").rows
        first = chaos.run_chaos_soak(
            seed=2, spec=chaos.HEAVY, workdir=tmp_path / "a",
            serial_rows=serial,
        )
        second = chaos.run_chaos_soak(
            seed=2, spec=chaos.HEAVY, workdir=tmp_path / "b",
            serial_rows=serial,
        )
        assert first == second

    def test_soak_requires_a_workdir(self):
        with pytest.raises(ChaosError):
            chaos.run_chaos_soak(workdir=None)


# ---------------------------------------------------------------------------
# Stream degradation


def _stream_fixture(n_chunks=6):
    topology = standard_topology("tiny")
    routing = EcmpRouting(topology)
    scenario = make_scenario("gray-drift")
    chunks = list(replay_stream(
        topology, routing, scenario, seed=5, n_chunks=n_chunks,
        flows_per_chunk=120, probes_per_chunk=40,
        onset_chunk=min(2, n_chunks - 1),
    ))
    return topology, chunks


def _gibbs_setup():
    base = make_setup("flock")
    return SchemeSetup(
        name="gibbs",
        localizer=GibbsInference(
            base.localizer.params, sweeps=8, burn_in=2, seed=0
        ),
        telemetry=base.telemetry,
    )


class TickClock:
    """A fake monotonic clock advancing a fixed tick per reading."""

    def __init__(self, tick: float) -> None:
        self.t = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.t += self.tick
        return self.t


class TestStreamDegradation:
    def test_budget_must_be_positive(self):
        topology, _ = _stream_fixture(1)
        with pytest.raises(ExperimentError):
            StreamMonitor(topology, cycle_budget=0.0)

    def test_over_budget_cycles_carry_the_previous_hypothesis(self):
        topology, chunks = _stream_fixture(4)
        # Every clock reading advances 1s against a 0.5s budget: the
        # first cycle localizes (nothing to carry), the rest carry.
        monitor = StreamMonitor(
            topology, scheme="flock", window=3,
            cycle_budget=0.5, clock=TickClock(1.0),
        )
        reports = monitor.run(chunks)
        assert reports[0].degrade_reason is None
        for report in reports[1:]:
            assert report.degraded
            assert report.degrade_reason == "carried"
            assert report.prediction == reports[0].prediction
            assert report.budget_seconds == 0.5
        assert monitor.degraded_cycles == len(chunks) - 1

    def test_gibbs_falls_back_to_warm_greedy_past_half_budget(self):
        topology, chunks = _stream_fixture(3)
        # elapsed-at-localize is ~3 ticks; budget 5 puts every cycle
        # past half budget but under it: the Gibbs chain is swapped
        # for a warm greedy pass instead of being skipped.
        monitor = StreamMonitor(
            topology, setup=_gibbs_setup(), window=3,
            cycle_budget=5.0, clock=TickClock(1.0),
        )
        reports = monitor.run(chunks)
        for report in reports:
            assert report.degraded
            assert report.degrade_reason == "greedy"

    def test_within_budget_cycles_are_not_degraded(self):
        topology, chunks = _stream_fixture(3)
        monitor = StreamMonitor(
            topology, scheme="flock", window=3, cycle_budget=1e9
        )
        reports = monitor.run(chunks)
        assert all(not r.degraded for r in reports)
        assert all(r.degrade_reason is None for r in reports)
        assert monitor.degraded_cycles == 0

    def test_pump_sheds_and_coalesces_backlog(self):
        topology, chunks = _stream_fixture(6)
        monitor = StreamMonitor(topology, scheme="flock", window=3)
        report = monitor.pump(chunks)
        # 6 chunks against a window of 3: 3 shed, 2 folded without
        # localizing, the newest gets the one localization.
        assert report.cycle == chunks[-1].index
        assert report.shed_chunks == 3
        assert report.coalesced_chunks == 2
        assert report.degraded
        assert monitor.degraded_cycles == 1

    def test_pump_rejects_an_empty_backlog(self):
        topology, _ = _stream_fixture(1)
        monitor = StreamMonitor(topology)
        with pytest.raises(ExperimentError):
            monitor.pump([])

    def test_run_with_a_burst_schedule(self):
        topology, chunks = _stream_fixture(6)
        monitor = StreamMonitor(topology, scheme="flock", window=4)
        reports = monitor.run(chunks, arrivals=[1, 2, 3])
        assert len(reports) == 3
        assert reports[0].coalesced_chunks == 0
        assert reports[1].coalesced_chunks == 1
        assert reports[2].coalesced_chunks == 2
        assert [r.shed_chunks for r in reports] == [0, 0, 0]

    def test_run_rejects_a_schedule_that_does_not_cover_the_stream(self):
        topology, chunks = _stream_fixture(4)
        monitor = StreamMonitor(topology)
        with pytest.raises(ExperimentError):
            monitor.run(chunks, arrivals=[1, 1])

    def test_degraded_cycles_still_maintain_the_window(self):
        # A carried cycle must keep folding chunks so the next full
        # cycle sees the correct window, not a stale one.
        topology, chunks = _stream_fixture(4)
        budgeted = StreamMonitor(
            topology, scheme="flock", window=3,
            cycle_budget=0.5, clock=TickClock(1.0),
        )
        budgeted.run(chunks[:-1])
        # Lift the budget for the last cycle: its window must match an
        # unbudgeted monitor that folded every chunk.
        budgeted.cycle_budget = None
        final = budgeted.step(chunks[-1])
        reference = StreamMonitor(topology, scheme="flock", window=3)
        expected = reference.run(chunks)[-1]
        assert final.grouped_flows == expected.grouped_flows
        assert final.raw_flows == expected.raw_flows
