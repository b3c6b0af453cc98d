#!/usr/bin/env python
"""Run a two-worker evaluation fleet against a SQLite work-unit broker.

The fleet is the one path of distributed evaluation: a submitter
decomposes an experiment into work units (contiguous trace ranges of
each grid call) in a broker database, any number of worker processes
lease and execute units, and a collector folds the stored wire results
into the full :class:`~repro.eval.spec.ExperimentResult` -
bit-identical in metrics to a serial ``repro-flock run``.  Nobody
pre-assigns ranges: workers can start late, die, or be added mid-run,
and the broker's lease lifecycle keeps every unit owned by exactly one
live worker at a time.  A static split (``run --shards N --shard-index
I --out sI.db``) is the same path: each shard submits its slice of the
units to its own broker file, and ``collect`` folds the files.

This demo submits fig2 at the tiny preset, drains it with two worker
OS processes running concurrently, prints the broker's lifecycle
counts, verifies the collected metrics against a serial run, and then
does the same with two static shards collected in reverse order.

Run:  PYTHONPATH=src python examples/fleet_demo.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from repro.eval import fleet
from repro.eval.spec import run_experiment

EXPERIMENT, PRESET = "fig2", "tiny"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        broker = Path(tmp) / "fleet.db"

        report = fleet.submit(
            broker, EXPERIMENT, preset=PRESET, unit_traces=2,
            lease_seconds=60.0,
        )
        print(f"submitted {report.experiment} ({report.preset}): "
              f"{report.n_units} work unit(s) over {report.n_calls} "
              f"grid call(s)")

        # Two workers race for units; each could equally run on another
        # machine sharing the broker file.
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "fleet", "work",
                 str(broker), "--worker-id", f"demo-{i}"],
            )
            for i in range(2)
        ]
        for proc in workers:
            proc.wait()
            if proc.returncode != 0:
                raise SystemExit(f"worker exited with {proc.returncode}")

        counts = fleet.status(broker)["counts"]
        print(f"broker after drain: " +
              ", ".join(f"{v} {k}" for k, v in counts.items()))

        result = fleet.collect(broker)
        serial = run_experiment(EXPERIMENT, preset=PRESET)
        assert result.rows == serial.rows, "fleet result diverged from serial"
        print(f"collected {len(result.rows)} row(s); "
              "metrics bit-identical to the serial run")

        # Two static shards: each its own broker file and worker.
        shards = [Path(tmp) / f"s{index}.db" for index in range(2)]
        for index, path in enumerate(shards):
            fleet.submit(path, EXPERIMENT, preset=PRESET, shard=(index, 2))
            fleet.work(path, wait=False)
        sharded = fleet.collect(*reversed(shards))
        assert sharded.rows == serial.rows, "shard result diverged from serial"
        print("collected 2 shard files in reverse order; "
              "metrics bit-identical to the serial run")


if __name__ == "__main__":
    main()
