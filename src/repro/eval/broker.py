"""SQLite work-unit broker: the fleet's queue and results database.

One broker file holds any number of submitted *experiments*, each
decomposed into :class:`~repro.eval.units.WorkUnit` rows (the
*keyfields*: experiment metadata + each unit's grid call and trace
range) and a shared ``results`` table of wire-codec payloads keyed by
unit id (the *resultfields*).  Workers on any machine open the same
file, lease units, and write results back; because a unit's inputs and
outputs are both rows, retries and resumption are free - re-running a
worker against a half-finished broker just drains what's left.

Unit lifecycle::

    pending --claim--> leased --complete--> done
       ^                 |
       |   lease expired | or fail(), attempts < max_attempts
       +-----------------+
                         |
                         | attempts >= max_attempts
                         v
                       failed

* **Experiments**: the ``experiments`` table journals each submission
  (identity meta, call plan, plan fingerprint, scheduling priority,
  per-experiment lease/attempt budgets).  Units are namespaced by
  ``experiment_id``; a claim drains ready experiments by **priority
  (descending), then unit id (FIFO)**, so one broker file serves a
  whole evaluation campaign and urgent experiments jump the queue.
* **Journaled enqueue**: a submission is two-phase - the experiment
  row is written first in ``'enqueueing'`` state (the journal entry,
  carrying the planned unit count and the plan fingerprint), units are
  inserted in batches, and only :meth:`~Broker.finish_enqueue` flips
  the row to ``'ready'``.  Workers never claim from an
  ``'enqueueing'`` experiment, so a submitter killed mid-enqueue
  strands nothing: re-running the same submission sees the journal
  row, verifies the fingerprint, and resumes inserting exactly where
  the dead submitter stopped (a *different* plan under the same name
  fails loudly instead).
* **Leases** bound the damage of a crashed worker: a claim holds for
  the experiment's ``lease_seconds``; an expired lease is reaped back
  to ``pending`` on the next broker operation, so the unit is re-run
  by whoever claims next.  A completion, failure report, or
  :meth:`~Broker.renew` from a worker that lost its lease - including
  one whose lease expired but was not yet reaped - is discarded
  (results are deterministic, but exactly-one-writer keeps the results
  table unambiguous).
* **Heartbeats**: a worker executing a unit longer than its lease
  renews mid-unit via :meth:`~Broker.renew` (the fleet worker runs a
  background ticker; see ``heartbeat_seconds``).  Renewal extends the
  lease from *now*, and a late renewal after expiry is discarded
  exactly like a late completion, so a stalled worker cannot
  resurrect a lease another worker may already hold.
* **Checksummed results**: every stored payload carries a checksum
  computed by the worker *before* the payload went on the wire;
  :meth:`~Broker.verify_results` (run by ``fleet collect``) detects
  transport/storage corruption and re-queues the unit instead of
  letting garbage fold into the experiment result.
* **Bounded retries**: every claim counts as an attempt; a unit whose
  lease expires (or whose execution raises) after the experiment's
  ``max_attempts`` claims moves to ``failed`` with the error recorded,
  and :func:`~repro.eval.fleet.collect` refuses to assemble a result
  until someone intervenes.
* **Schema safety**: the broker stores the wire-codec
  :data:`~repro.eval.serialize.SCHEMA_VERSION` and each experiment's
  submitted :class:`~repro.eval.units.CallPlan` sequence; opening a
  broker from a checkout speaking a different wire version fails
  loudly, and workers additionally validate their live grid against
  the stored plan before any result is written.  Files of an older
  format - v1 (no checksums, no renewal) and v2 (single-experiment
  layout) - are rejected with guidance to resubmit.

Concurrency: WAL journal mode plus short ``BEGIN IMMEDIATE``
transactions make claim/complete safe across processes and machines
sharing the file (NFS caveats apply as usual for SQLite; same-host
multi-process is the designed case).  All timestamps come through the
``now`` parameters so tests can drive lease expiry deterministically.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError, FleetError
from .serialize import SCHEMA_VERSION, encode_unit_payload, payload_checksum
from .units import (
    CallPlan,
    WorkUnit,
    call_plans_from_wire,
    call_plans_to_wire,
    unit_payload_entries,
)

BROKER_FORMAT = "flock-broker-v3"

#: Formats this checkout recognizes but no longer speaks (v1 predates
#: result checksums and mid-unit lease renewal; v2 is the
#: single-experiment layout, and every v2 file carries a wire schema
#: older than this checkout's, so its results could not be decoded).
OUTDATED_FORMATS = ("flock-broker-v1", "flock-broker-v2")

#: Experiment-identity keys stored per experiment row: everything that
#: changes the spec.  Broker files collected together must agree on
#: all of them.
EXPERIMENT_META_KEYS = ("experiment", "preset", "seed", "scheme", "overrides")

#: Optional experiment meta of a static shard's broker file:
#: ``[index, count]``.  Not identity (each shard's file differs in it,
#: and its units already differ), so it is stored only when given and
#: stays out of :func:`plan_fingerprint`.
SHARD_META_KEY = "shard"

#: Journal states of an experiment row.  Units are only claimable from
#: ``'ready'`` experiments; ``'enqueueing'`` marks an in-flight (or
#: crashed) submission.
EXPERIMENT_STATES = ("enqueueing", "ready")

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE experiments (
    id            INTEGER PRIMARY KEY,
    name          TEXT NOT NULL UNIQUE,
    meta          TEXT NOT NULL,
    plan          TEXT NOT NULL,
    plan_hash     TEXT NOT NULL,
    priority      INTEGER NOT NULL DEFAULT 0,
    state         TEXT NOT NULL DEFAULT 'enqueueing',
    n_units       INTEGER NOT NULL,
    lease_seconds REAL NOT NULL,
    max_attempts  INTEGER NOT NULL,
    created_at    REAL NOT NULL
);
CREATE TABLE units (
    id            INTEGER PRIMARY KEY,
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    unit_index    INTEGER NOT NULL,
    call_index    INTEGER NOT NULL,
    start         INTEGER NOT NULL,
    stop          INTEGER NOT NULL,
    seeds         TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    worker        TEXT,
    lease_expires REAL,
    error         TEXT,
    UNIQUE (experiment_id, unit_index)
);
CREATE INDEX units_by_status ON units(status, id);
CREATE TABLE results (
    unit_id      INTEGER PRIMARY KEY REFERENCES units(id),
    payload      TEXT NOT NULL,
    checksum     TEXT NOT NULL,
    worker       TEXT NOT NULL,
    completed_at REAL NOT NULL
);
"""

STATUSES = ("pending", "leased", "done", "failed")


def plan_fingerprint(
    meta: Dict[str, object],
    plan: Sequence[CallPlan],
    units: Sequence[WorkUnit],
) -> str:
    """Stable fingerprint of one submission's full identity.

    Covers the experiment meta, the grid-call plan, and the exact unit
    decomposition (so the same experiment submitted with a different
    ``unit_traces`` is a *different* plan).  A crashed-and-rerun
    ``fleet submit`` may resume enqueueing only when fingerprints
    match; anything else fails loudly.
    """
    doc = {
        "meta": {key: meta.get(key) for key in EXPERIMENT_META_KEYS},
        "plan": call_plans_to_wire(plan),
        "units": [
            [u.call_index, u.start, u.stop, list(u.seeds)] for u in units
        ],
    }
    return payload_checksum(json.dumps(doc, sort_keys=True))


@dataclass(frozen=True)
class FleetCounts:
    """Live unit-lifecycle counts (``repro-flock fleet status``)."""

    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.leased + self.done + self.failed

    @property
    def finished(self) -> bool:
        return self.pending == 0 and self.leased == 0

    def as_dict(self) -> Dict[str, int]:
        return {status: getattr(self, status) for status in STATUSES}


@dataclass(frozen=True)
class ExperimentRow:
    """One experiment's journal row (identity + scheduling + state)."""

    id: int
    name: str
    meta: Dict[str, object]
    plan_hash: str
    priority: int
    state: str
    n_units: int
    lease_seconds: float
    max_attempts: int
    created_at: float

    @property
    def ready(self) -> bool:
        return self.state == "ready"


@dataclass(frozen=True)
class LeasedUnit:
    """One claimed unit: the work plus its lease bookkeeping."""

    unit_id: int
    unit: WorkUnit
    attempt: int
    lease_expires: float
    experiment_id: int = 1
    experiment: str = ""
    lease_seconds: float = 0.0


def _encode_meta(value) -> str:
    return json.dumps(value)


def _validate_budgets(lease_seconds: float, max_attempts: int) -> None:
    if lease_seconds <= 0:
        raise ExperimentError(
            f"lease_seconds must be > 0, got {lease_seconds}"
        )
    if max_attempts < 1:
        raise ExperimentError(
            f"max_attempts must be >= 1, got {max_attempts}"
        )


_EXPERIMENT_COLUMNS = (
    "id, name, meta, plan_hash, priority, state, n_units, "
    "lease_seconds, max_attempts, created_at"
)


def _experiment_row(row) -> ExperimentRow:
    return ExperimentRow(
        id=row[0], name=row[1], meta=json.loads(row[2]), plan_hash=row[3],
        priority=row[4], state=row[5], n_units=row[6],
        lease_seconds=row[7], max_attempts=row[8], created_at=row[9],
    )


class Broker:
    """A multi-experiment work-unit queue + results database.

    Construct via :meth:`create_empty` / :meth:`create` (submitter) or
    :meth:`open` (workers, status, collector).  Usable as a context
    manager; every public method is one short transaction, so a single
    ``Broker`` instance can be shared across a worker's whole run but
    not across threads.
    """

    def __init__(
        self,
        path: Path,
        connection: sqlite3.Connection,
        fault_hook: Optional[Callable[[str], None]] = None,
    ):
        self.path = path
        self._conn = connection
        #: Test/chaos seam: called with the operation name at the top of
        #: every lifecycle method, *before* any transaction opens, so it
        #: can raise ``sqlite3.OperationalError`` to simulate the
        #: transient lock contention :class:`~repro.retry.RetryPolicy`
        #: is expected to absorb.
        self.fault_hook = fault_hook

    def _fault(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    # -- construction --------------------------------------------------

    @staticmethod
    def _connect(path: Path) -> sqlite3.Connection:
        conn = sqlite3.connect(str(path), timeout=30.0, isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @classmethod
    def create_empty(cls, path, now: Optional[float] = None) -> "Broker":
        """Initialize a new broker file with no experiments yet."""
        path = Path(path)
        if path.exists():
            raise ExperimentError(
                f"broker file {path} already exists; open it to add "
                "experiments, or submit to a fresh path"
            )
        conn = cls._connect(path)
        try:
            conn.execute("BEGIN IMMEDIATE")
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    conn.execute(statement)
            rows = {
                "format": BROKER_FORMAT,
                "schema_version": SCHEMA_VERSION,
                "created_at": now if now is not None else time.time(),
            }
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [(key, _encode_meta(value)) for key, value in rows.items()],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.close()
            raise
        return cls(path, conn)

    @classmethod
    def create(
        cls,
        path,
        meta: Dict[str, object],
        plan: Sequence[CallPlan],
        units: Sequence[WorkUnit],
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        now: Optional[float] = None,
        name: Optional[str] = None,
        priority: int = 0,
    ) -> "Broker":
        """Initialize a new broker file holding one ready experiment.

        Convenience over :meth:`create_empty` + the journaled enqueue
        API; the experiment is named after ``meta['experiment']``
        unless ``name`` says otherwise.
        """
        _validate_budgets(lease_seconds, max_attempts)
        broker = cls.create_empty(path, now=now)
        try:
            experiment_id = broker.begin_experiment(
                name if name is not None else str(meta.get("experiment")),
                meta, plan, n_units=len(units), priority=priority,
                lease_seconds=lease_seconds, max_attempts=max_attempts,
                now=now, plan_hash=plan_fingerprint(meta, plan, units),
            )
            broker.enqueue_units(experiment_id, units, start_index=0)
            broker.finish_enqueue(experiment_id)
        except BaseException:
            broker.close()
            raise
        return broker

    @classmethod
    def open(
        cls, path, fault_hook: Optional[Callable[[str], None]] = None
    ) -> "Broker":
        """Open an existing broker, validating format + wire schema."""
        path = Path(path)
        if not path.exists():
            raise ExperimentError(f"broker file {path} does not exist")
        try:
            conn = cls._connect(path)
        except sqlite3.DatabaseError as exc:
            raise ExperimentError(
                f"{path} is not a broker database: {exc}"
            ) from None
        try:
            try:
                rows = dict(conn.execute("SELECT key, value FROM meta"))
            except sqlite3.DatabaseError as exc:
                raise ExperimentError(
                    f"{path} is not a broker database: {exc}"
                ) from None
            fmt = json.loads(rows.get("format", "null"))
            if fmt in OUTDATED_FORMATS:
                raise ExperimentError(
                    f"broker {path} was created as {fmt} by an older "
                    f"checkout; this checkout speaks {BROKER_FORMAT} "
                    "(result checksums + lease renewal) - resubmit the "
                    "fleet to a fresh broker file"
                )
            version = json.loads(rows.get("schema_version", "null"))
            if version != SCHEMA_VERSION:
                raise ExperimentError(
                    f"broker {path} speaks wire schema v{version!r} but this "
                    f"checkout speaks v{SCHEMA_VERSION}; run the fleet on "
                    "matching checkouts"
                )
            if fmt != BROKER_FORMAT:
                raise ExperimentError(
                    f"{path} is not a {BROKER_FORMAT} database (format={fmt!r})"
                )
        except BaseException:
            conn.close()
            raise
        return cls(path, conn, fault_hook=fault_hook)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- experiments (journaled submission) ----------------------------

    def begin_experiment(
        self,
        name: str,
        meta: Dict[str, object],
        plan: Sequence[CallPlan],
        n_units: int,
        priority: int = 0,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        now: Optional[float] = None,
        plan_hash: Optional[str] = None,
    ) -> int:
        """Phase one of a submission: write the experiment journal row.

        The row lands in ``'enqueueing'`` state with the plan, the
        submission fingerprint (``plan_hash``, computed by the caller
        over the full unit decomposition via :func:`plan_fingerprint`),
        the planned ``n_units`` (so a resumed submission knows when it
        is done), and the scheduling knobs.  No units exist yet and
        none are claimable until :meth:`finish_enqueue`.  Returns the
        new experiment id; a name collision raises (the caller decides
        whether that means resume or error).
        """
        self._fault("begin_experiment")
        if not name or not isinstance(name, str):
            raise FleetError(f"experiment name must be a non-empty string, got {name!r}")
        if n_units < 1:
            raise ExperimentError(
                "refusing to journal an experiment with no work units"
            )
        _validate_budgets(lease_seconds, max_attempts)
        unknown = sorted(
            set(meta) - set(EXPERIMENT_META_KEYS) - {SHARD_META_KEY}
        )
        if unknown:
            raise ExperimentError(f"unknown broker meta keys: {unknown}")
        full_meta = {key: meta.get(key) for key in EXPERIMENT_META_KEYS}
        if meta.get(SHARD_META_KEY) is not None:
            full_meta[SHARD_META_KEY] = list(meta[SHARD_META_KEY])
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            exists = self._conn.execute(
                "SELECT 1 FROM experiments WHERE name = ?", (name,)
            ).fetchone()
            if exists:
                raise FleetError(
                    f"experiment {name!r} already exists in {self.path}"
                )
            cursor = self._conn.execute(
                "INSERT INTO experiments (name, meta, plan, plan_hash, "
                "priority, state, n_units, lease_seconds, max_attempts, "
                "created_at) VALUES (?, ?, ?, ?, ?, 'enqueueing', ?, ?, ?, ?)",
                (
                    name, json.dumps(full_meta),
                    json.dumps(call_plans_to_wire(plan)),
                    plan_hash if plan_hash is not None else "",
                    int(priority), int(n_units), float(lease_seconds),
                    int(max_attempts),
                    now if now is not None else time.time(),
                ),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return cursor.lastrowid

    def enqueue_units(
        self,
        experiment_id: int,
        units: Sequence[WorkUnit],
        start_index: int,
    ) -> None:
        """Phase two of a submission: insert one batch of units.

        ``start_index`` is the position of ``units[0]`` in the full
        decomposition; the ``(experiment_id, unit_index)`` uniqueness
        constraint turns an accidental double-insert (two racing
        resumed submitters) into a loud error instead of duplicate
        work.  Only ``'enqueueing'`` experiments accept units.
        """
        self._fault("enqueue_units")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT state FROM experiments WHERE id = ?",
                (experiment_id,),
            ).fetchone()
            if row is None:
                raise ExperimentError(
                    f"unknown experiment id {experiment_id}"
                )
            if row[0] != "enqueueing":
                raise FleetError(
                    f"experiment id {experiment_id} is {row[0]!r}; units "
                    "can only be enqueued while the submission journal "
                    "is open"
                )
            self._conn.executemany(
                "INSERT INTO units (experiment_id, unit_index, call_index, "
                "start, stop, seeds) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        experiment_id, start_index + offset, u.call_index,
                        u.start, u.stop, json.dumps(list(u.seeds)),
                    )
                    for offset, u in enumerate(units)
                ],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def finish_enqueue(self, experiment_id: int) -> None:
        """Phase three: verify the unit count and open for claiming."""
        self._fault("finish_enqueue")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT state, n_units FROM experiments WHERE id = ?",
                (experiment_id,),
            ).fetchone()
            if row is None:
                raise ExperimentError(
                    f"unknown experiment id {experiment_id}"
                )
            state, n_units = row
            if state == "ready":
                self._conn.execute("COMMIT")
                return
            (inserted,) = self._conn.execute(
                "SELECT COUNT(*) FROM units WHERE experiment_id = ?",
                (experiment_id,),
            ).fetchone()
            if inserted != n_units:
                raise FleetError(
                    f"cannot finish enqueueing experiment id "
                    f"{experiment_id}: {inserted} of {n_units} planned "
                    "unit(s) inserted"
                )
            self._conn.execute(
                "UPDATE experiments SET state = 'ready' WHERE id = ?",
                (experiment_id,),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def experiments(self) -> List[ExperimentRow]:
        """All experiment rows, highest priority first, then id."""
        rows = self._conn.execute(
            f"SELECT {_EXPERIMENT_COLUMNS} FROM experiments "
            "ORDER BY priority DESC, id"
        ).fetchall()
        return [_experiment_row(r) for r in rows]

    def experiment(self, name: str) -> Optional[ExperimentRow]:
        row = self._conn.execute(
            f"SELECT {_EXPERIMENT_COLUMNS} FROM experiments WHERE name = ?",
            (name,),
        ).fetchone()
        return None if row is None else _experiment_row(row)

    def _sole_experiment(self) -> ExperimentRow:
        rows = self.experiments()
        if not rows:
            raise FleetError(f"broker {self.path} holds no experiments")
        if len(rows) > 1:
            names = ", ".join(sorted(r.name for r in rows))
            raise FleetError(
                f"broker {self.path} holds {len(rows)} experiments "
                f"({names}); pass --experiment to pick one"
            )
        return rows[0]

    def resolve_experiment(self, name: Optional[str]) -> ExperimentRow:
        """``name`` when given (must exist), else the sole experiment."""
        if name is None:
            return self._sole_experiment()
        row = self.experiment(name)
        if row is None:
            known = ", ".join(sorted(r.name for r in self.experiments()))
            raise FleetError(
                f"broker {self.path} has no experiment {name!r}"
                + (f"; known: {known}" if known else " (broker is empty)")
            )
        return row

    def enqueued_units(self, experiment_id: int) -> List[WorkUnit]:
        """The experiment's inserted units in ``unit_index`` order
        (a resumed submission verifies its prefix against these)."""
        rows = self._conn.execute(
            "SELECT call_index, start, stop, seeds FROM units "
            "WHERE experiment_id = ? ORDER BY unit_index",
            (experiment_id,),
        ).fetchall()
        return [
            WorkUnit(r[0], r[1], r[2], seeds=tuple(json.loads(r[3])))
            for r in rows
        ]

    # -- metadata ------------------------------------------------------

    def meta(self) -> Dict[str, object]:
        """The broker-global meta rows, JSON-decoded."""
        return {
            key: json.loads(value)
            for key, value in self._conn.execute("SELECT key, value FROM meta")
        }

    def experiment_meta(
        self, experiment: Optional[str] = None
    ) -> Dict[str, object]:
        """One experiment's identity meta (sole experiment by default)."""
        return dict(self.resolve_experiment(experiment).meta)

    def plan(self, experiment: Optional[str] = None) -> List[CallPlan]:
        row = self.resolve_experiment(experiment)
        (wire,) = self._conn.execute(
            "SELECT plan FROM experiments WHERE id = ?", (row.id,)
        ).fetchone()
        return call_plans_from_wire(json.loads(wire))

    @property
    def lease_seconds(self) -> float:
        return float(self._sole_experiment().lease_seconds)

    @property
    def max_attempts(self) -> int:
        return int(self._sole_experiment().max_attempts)

    # -- lifecycle -----------------------------------------------------

    def _reap_unit(
        self, unit_id: int, attempts: int, worker, max_attempts: int
    ) -> str:
        """Within an open transaction: recycle one expired lease.

        Lease bookkeeping (``worker``/``lease_expires``) is cleared on
        both paths so a stale holder can never leak into the next
        attempt; an exhausted unit keeps the expiry diagnosis in
        ``error``.  Returns the unit's new status.
        """
        if attempts >= max_attempts:
            self._conn.execute(
                "UPDATE units SET status = 'failed', worker = NULL, "
                "lease_expires = NULL, error = ? WHERE id = ?",
                (
                    f"lease expired after {attempts} attempt(s); "
                    f"last worker: {worker}",
                    unit_id,
                ),
            )
            return "failed"
        self._conn.execute(
            "UPDATE units SET status = 'pending', worker = NULL, "
            "lease_expires = NULL WHERE id = ?",
            (unit_id,),
        )
        return "pending"

    def _reap_expired(self, now: float) -> int:
        """Within an open transaction: recycle expired leases.

        Expired units with attempts left go back to ``pending``; the
        rest move to ``failed`` with the expiry recorded.  Attempt
        budgets are per experiment.
        """
        expired = self._conn.execute(
            "SELECT u.id, u.attempts, u.worker, e.max_attempts "
            "FROM units u JOIN experiments e ON e.id = u.experiment_id "
            "WHERE u.status = 'leased' AND u.lease_expires < ?",
            (now,),
        ).fetchall()
        for unit_id, attempts, worker, max_attempts in expired:
            self._reap_unit(unit_id, attempts, worker, max_attempts)
        return len(expired)

    def _unit_lease_row(self, unit_id: int):
        """One unit's lease state joined with its experiment's budgets."""
        row = self._conn.execute(
            "SELECT u.status, u.worker, u.lease_expires, u.attempts, "
            "e.lease_seconds, e.max_attempts "
            "FROM units u JOIN experiments e ON e.id = u.experiment_id "
            "WHERE u.id = ?",
            (unit_id,),
        ).fetchone()
        if row is None:
            raise ExperimentError(f"unknown unit id {unit_id}")
        return row

    def claim(
        self,
        worker: str,
        now: Optional[float] = None,
        experiment: Optional[str] = None,
    ) -> Optional[LeasedUnit]:
        """Atomically lease the next claimable unit (reaping expired
        leases first).

        Eligible units come from ``'ready'`` experiments only, ordered
        by experiment priority (descending) then unit id (FIFO), so
        higher-priority experiments drain first and ties interleave in
        submission order.  ``experiment`` restricts the claim to one
        experiment by name.  Returns ``None`` when nothing is
        claimable.
        """
        self._fault("claim")
        now = now if now is not None else time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._reap_expired(now)
            query = (
                "SELECT u.id, u.call_index, u.start, u.stop, u.seeds, "
                "u.attempts, e.id, e.name, e.lease_seconds "
                "FROM units u JOIN experiments e ON e.id = u.experiment_id "
                "WHERE u.status = 'pending' AND e.state = 'ready' "
            )
            params: Tuple = ()
            if experiment is not None:
                query += "AND e.name = ? "
                params = (experiment,)
            row = self._conn.execute(
                query + "ORDER BY e.priority DESC, u.id LIMIT 1", params
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return None
            (
                unit_id, call_index, start, stop, seeds, attempts,
                experiment_id, experiment_name, lease_seconds,
            ) = row
            expires = now + lease_seconds
            self._conn.execute(
                "UPDATE units SET status = 'leased', attempts = ?, "
                "worker = ?, lease_expires = ?, error = NULL WHERE id = ?",
                (attempts + 1, worker, expires, unit_id),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        unit = WorkUnit(call_index, start, stop, seeds=tuple(json.loads(seeds)))
        return LeasedUnit(
            unit_id=unit_id, unit=unit, attempt=attempts + 1,
            lease_expires=expires, experiment_id=experiment_id,
            experiment=experiment_name, lease_seconds=lease_seconds,
        )

    def complete(
        self,
        unit_id: int,
        worker: str,
        payload: Optional[Dict] = None,
        now: Optional[float] = None,
        wire: Optional[str] = None,
        checksum: Optional[str] = None,
    ) -> bool:
        """Mark a leased unit done and store its result payload.

        The payload may arrive as an object (``payload``, encoded and
        checksummed here) or pre-encoded (``wire`` + ``checksum``, the
        fleet worker's path: the checksum is computed over the payload
        *before* it crosses any wire, so corruption in transit is
        detectable by :meth:`verify_results`).

        Returns ``False`` (and stores nothing) when the worker no
        longer holds the unit's lease - it stalled past expiry (the
        late completion is discarded and the lease reaped, whether or
        not anyone re-claimed it yet) or the unit was re-leased - so
        exactly one result row ever exists per unit.
        """
        self._fault("complete")
        if wire is None:
            if payload is None:
                raise FleetError(
                    "complete() needs either a payload object or a "
                    "pre-encoded wire + checksum"
                )
            wire, checksum = encode_unit_payload(payload)
        elif checksum is None:
            raise FleetError("pre-encoded completions must carry a checksum")
        now = now if now is not None else time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            status, holder, lease_expires, attempts, _, max_attempts = (
                self._unit_lease_row(unit_id)
            )
            if status != "leased" or holder != worker:
                self._conn.execute("COMMIT")
                return False
            if lease_expires is not None and lease_expires < now:
                # Late completion: the lease already ran out, so the
                # unit may be (or be about to be) someone else's.
                self._reap_unit(unit_id, attempts, holder, max_attempts)
                self._conn.execute("COMMIT")
                return False
            self._conn.execute(
                "UPDATE units SET status = 'done', lease_expires = NULL "
                "WHERE id = ?",
                (unit_id,),
            )
            self._conn.execute(
                "INSERT INTO results "
                "(unit_id, payload, checksum, worker, completed_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (unit_id, wire, checksum, worker, now),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return True

    def renew(
        self, unit_id: int, worker: str, now: Optional[float] = None
    ) -> Optional[float]:
        """Extend a held lease (the worker heartbeat).

        Returns the new expiry when the worker still holds a live
        lease.  A renewal after expiry is discarded exactly like a late
        completion - the unit is reaped (re-queued or failed) and
        ``None`` comes back, telling the worker its result will be
        stale.  ``None`` also means the unit moved on (completed,
        re-leased, failed).
        """
        self._fault("renew")
        now = now if now is not None else time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            status, holder, lease_expires, attempts, lease_seconds, max_attempts = (
                self._unit_lease_row(unit_id)
            )
            if status != "leased" or holder != worker:
                self._conn.execute("COMMIT")
                return None
            if lease_expires is not None and lease_expires < now:
                self._reap_unit(unit_id, attempts, holder, max_attempts)
                self._conn.execute("COMMIT")
                return None
            expires = now + lease_seconds
            self._conn.execute(
                "UPDATE units SET lease_expires = ? WHERE id = ?",
                (expires, unit_id),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return expires

    def fail(
        self,
        unit_id: int,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Record a failed execution attempt for a leased unit.

        Returns the unit's new status (``'pending'`` while retries
        remain, ``'failed'`` once attempts are exhausted), or ``None``
        when the worker no longer held the lease (including a lease
        that expired un-reaped - the late failure report is discarded
        like a late completion).
        """
        self._fault("fail")
        now = now if now is not None else time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            status, holder, lease_expires, attempts, _, max_attempts = (
                self._unit_lease_row(unit_id)
            )
            if status != "leased" or holder != worker:
                self._conn.execute("COMMIT")
                return None
            if lease_expires is not None and lease_expires < now:
                self._reap_unit(unit_id, attempts, holder, max_attempts)
                self._conn.execute("COMMIT")
                return None
            new_status = "failed" if attempts >= max_attempts else "pending"
            self._conn.execute(
                "UPDATE units SET status = ?, worker = NULL, "
                "lease_expires = NULL, error = ? WHERE id = ?",
                (new_status, error, unit_id),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return new_status

    def _experiment_filter(
        self, experiment: Optional[str], column: str = "u.experiment_id"
    ) -> Tuple[str, Tuple]:
        """(SQL clause, params) restricting a unit query by experiment."""
        if experiment is None:
            return "", ()
        row = self.resolve_experiment(experiment)
        return f"AND {column} = ? ", (row.id,)

    def retry_failed(self, experiment: Optional[str] = None) -> int:
        """Re-queue permanently-failed units after a fix.

        Failed units go back to ``pending`` with their attempt budget
        and error reset, so the ordinary lease lifecycle (and its
        bounded retries) applies afresh.  Returns how many units were
        re-queued.  Completed work is untouched - a failed unit never
        has a results row.
        """
        clause, params = self._experiment_filter(
            experiment, column="experiment_id"
        )
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            failed = [
                unit_id
                for (unit_id,) in self._conn.execute(
                    "SELECT id FROM units WHERE status = 'failed' "
                    + clause + "ORDER BY id",
                    params,
                )
            ]
            self._conn.executemany(
                "UPDATE units SET status = 'pending', attempts = 0, "
                "worker = NULL, lease_expires = NULL, error = NULL "
                "WHERE id = ?",
                [(unit_id,) for unit_id in failed],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return len(failed)

    def verify_results(self) -> List[int]:
        """Checksum-audit stored payloads; re-queue corrupted units.

        Recomputes each result row's checksum over the stored payload
        text.  A mismatch means the payload was damaged between the
        worker's serialization and here (wire corruption, torn write,
        bit rot); the result row is deleted and the unit re-queued as
        ``pending`` - its attempt budget intact, since the *work*
        didn't fail - so the fleet simply re-runs it.  Returns the
        re-queued unit ids.  ``fleet collect`` runs this before
        folding anything.
        """
        self._fault("verify_results")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            corrupt = [
                unit_id
                for unit_id, payload, checksum in self._conn.execute(
                    "SELECT unit_id, payload, checksum FROM results "
                    "ORDER BY unit_id"
                )
                if payload_checksum(payload) != checksum
            ]
            for unit_id in corrupt:
                self._conn.execute(
                    "DELETE FROM results WHERE unit_id = ?", (unit_id,)
                )
                self._conn.execute(
                    "UPDATE units SET status = 'pending', worker = NULL, "
                    "lease_expires = NULL, error = NULL WHERE id = ?",
                    (unit_id,),
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return corrupt

    # -- introspection -------------------------------------------------

    def counts(self, experiment: Optional[str] = None) -> FleetCounts:
        self._fault("counts")
        clause, params = self._experiment_filter(
            experiment, column="experiment_id"
        )
        rows = dict(
            self._conn.execute(
                "SELECT status, COUNT(*) FROM units WHERE 1=1 "
                + clause + "GROUP BY status",
                params,
            )
        )
        return FleetCounts(**{status: rows.get(status, 0) for status in STATUSES})

    def next_lease_expiry(self) -> Optional[float]:
        """Earliest outstanding lease expiry (workers sleep until it)."""
        self._fault("next_lease_expiry")
        row = self._conn.execute(
            "SELECT MIN(lease_expires) FROM units WHERE status = 'leased'"
        ).fetchone()
        return row[0]

    def unit_rows(
        self, experiment: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Every unit's full row (``fleet status`` detail view)."""
        clause, params = self._experiment_filter(experiment)
        rows = self._conn.execute(
            "SELECT u.id, u.call_index, u.start, u.stop, u.seeds, u.status, "
            "u.attempts, u.worker, u.lease_expires, u.error, e.name "
            "FROM units u JOIN experiments e ON e.id = u.experiment_id "
            "WHERE 1=1 " + clause + "ORDER BY u.id",
            params,
        ).fetchall()
        return [
            {
                "id": r[0], "call_index": r[1], "start": r[2], "stop": r[3],
                "seeds": json.loads(r[4]), "status": r[5], "attempts": r[6],
                "worker": r[7], "lease_expires": r[8], "error": r[9],
                "experiment": r[10],
            }
            for r in rows
        ]

    def errors(
        self, experiment: Optional[str] = None
    ) -> List[Tuple[int, str]]:
        """(unit id, error) for units that failed permanently."""
        clause, params = self._experiment_filter(
            experiment, column="experiment_id"
        )
        return [
            (unit_id, error)
            for unit_id, error in self._conn.execute(
                "SELECT id, error FROM units WHERE status = 'failed' "
                + clause + "ORDER BY id",
                params,
            )
        ]

    def completion_times(
        self, experiment: Optional[str] = None
    ) -> List[float]:
        """Ascending wall-clock completion times of done units."""
        clause, params = self._experiment_filter(experiment)
        return [
            t
            for (t,) in self._conn.execute(
                "SELECT r.completed_at FROM results r "
                "JOIN units u ON u.id = r.unit_id WHERE 1=1 "
                + clause + "ORDER BY r.completed_at",
                params,
            )
        ]

    def results(
        self, experiment: Optional[str] = None
    ) -> List[Tuple[WorkUnit, List]]:
        """Completed units with their recorded wire entries, unit order.

        Every payload is checksum-verified on the way out (defense in
        depth behind :meth:`verify_results`, which re-queues instead of
        raising); a mismatch here means the database changed under us.
        """
        clause, params = self._experiment_filter(experiment)
        rows = self._conn.execute(
            "SELECT u.call_index, u.start, u.stop, u.seeds, r.payload, "
            "r.checksum "
            "FROM results r JOIN units u ON u.id = r.unit_id WHERE 1=1 "
            + clause + "ORDER BY r.unit_id",
            params,
        ).fetchall()
        out = []
        for call_index, start, stop, seeds, payload, checksum in rows:
            if payload_checksum(payload) != checksum:
                raise FleetError(
                    f"result payload for unit covering call {call_index} "
                    f"traces [{start}, {stop}) fails its checksum; run "
                    "verify_results()/'fleet collect' to re-queue it"
                )
            unit = WorkUnit(
                call_index, start, stop, seeds=tuple(json.loads(seeds))
            )
            entries = unit_payload_entries(json.loads(payload))
            out.append((unit, entries))
        return out
