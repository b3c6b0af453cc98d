"""Command-line experiment runner: ``repro-flock`` / ``python -m repro``.

Examples::

    repro-flock list
    repro-flock list --schemes --scenarios
    repro-flock run fig2 --preset ci
    repro-flock run fig2 --preset ci --jobs 4
    repro-flock run fig2 --scheme flock --set n_traces=4
    repro-flock run fig4c --preset paper --seed 3
    repro-flock run all --preset ci --jobs 8
    repro-flock stream gray-drift --preset ci --window 4 --cycle 12

Experiments, schemes, and failure scenarios all resolve through
registries (:mod:`repro.eval.spec`, :mod:`repro.eval.schemes`,
:mod:`repro.simulation.failures`); ``list`` enumerates them.  ``run``
accepts ``--scheme NAME`` to evaluate a single registry scheme on an
experiment's workload and repeatable ``--set key=val`` overrides that
are passed to the experiment's spec builder (unknown keys fail loudly).

Distributed evaluation runs through a SQLite broker of leased work
units (:mod:`repro.eval.fleet`) - workers can start at any time, on any
machine sharing the broker file, and a crashed worker's units are
re-leased when their lease expires::

    repro-flock fleet submit fig2.db fig2 --preset ci --unit-traces 4
    repro-flock fleet work fig2.db        # x N processes / machines
    repro-flock fleet status fig2.db
    repro-flock fleet collect fig2.db --out fig2.json

A static split is sugar over the same path: each shard submits its
balanced contiguous slice of the units to its own broker file and
drains it, and ``fleet collect`` folds the files (in any order)::

    repro-flock run fig2 --preset ci --shards 2 --shard-index 0 --out s0.db
    repro-flock run fig2 --preset ci --shards 2 --shard-index 1 --out s1.db
    repro-flock fleet collect s0.db s1.db --out fig2.json

The collected metrics are bit-identical to a serial ``run`` with the
same preset, seed, and overrides.  ``--shards`` composes with
``--jobs``: a shard enqueues its slice as one unit per
grid call, so the pool runs each call's traces (parallelism *within* a
shard).  A shard whose units failed or are still leased elsewhere exits
2, and so does a ``fleet collect`` missing a shard's file (the error
names the missing ``--shard-index`` values).  ``table1`` runs as two
phases: ``table1-calibrate`` sweeps the parameter grid (itself
shardable), and ``table1-eval`` - pointed at the calibrate result via
``--set calibration=PATH``, or recomputing it per worker otherwise -
evaluates the chosen operating points and collects bit-identically.  The combined ``table1`` experiment refuses
``--shards`` because its build-time calibration dominates and would be
repeated per worker.

Cost model: every worker (and the collector) re-runs the experiment's
spec builder, and each worker pays trace generation for every grid
point its units touch - only problem building and inference are
divided.  Distribution pays off when inference dominates, which holds
for the accuracy experiments at paper scale; it cannot help
experiments with fewer work units than shards (``fig4d`` evaluates one
trace per grid call), and a shard whose slice holds no unit is refused.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Dict, List, Optional

from .errors import ExperimentError, ReproError
from .eval import experiments
from .eval.reporting import print_result, save_result
from .eval.runner import RunnerConfig
from .eval.schemes import get_scheme, scheme_names
from .eval.spec import (
    default_experiment_names,
    experiment_names,
    get_experiment,
    run_experiment,
)
from .simulation.failures import scenario_description, scenario_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flock",
        description="Flock (PACMNET 2023) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser(
        "list", help="list registered experiments, schemes, and scenarios"
    )
    lister.add_argument(
        "--experiments", action="store_true", help="list experiments"
    )
    lister.add_argument("--schemes", action="store_true", help="list schemes")
    lister.add_argument(
        "--scenarios", action="store_true", help="list failure scenarios"
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="a registered experiment name (see 'list'), or 'all'",
    )
    run.add_argument("--preset", choices=experiments.PRESETS, default="ci")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--scheme", default=None, metavar="NAME",
        help="evaluate only this registry scheme on the experiment's workload",
    )
    run.add_argument(
        "--set", action="append", dest="overrides", default=[],
        metavar="KEY=VAL",
        help="override a spec-builder knob (repeatable); unknown keys fail",
    )
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for scheme evaluation (default: serial)",
    )
    run.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run one shard of an N-way split: submit this shard's "
             "work units to its own broker file and drain them "
             "(requires --shard-index and --out)",
    )
    run.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="which shard [0, N) this worker executes",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help="this shard's broker file; 'fleet collect' folds the N "
             "files (re-running the command resumes the shard)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="queue-backed distributed evaluation (SQLite work-unit broker)",
    )
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)

    fsubmit = fsub.add_parser(
        "submit", help="decompose an experiment into work units in a broker"
    )
    fsubmit.add_argument("broker", help="path for the new broker database")
    fsubmit.add_argument("experiment", help="a shardable experiment name")
    fsubmit.add_argument("--preset", choices=experiments.PRESETS, default="ci")
    fsubmit.add_argument("--seed", type=int, default=None)
    fsubmit.add_argument(
        "--scheme", default=None, metavar="NAME",
        help="evaluate only this registry scheme on the experiment's workload",
    )
    fsubmit.add_argument(
        "--set", action="append", dest="overrides", default=[],
        metavar="KEY=VAL",
        help="override a spec-builder knob (repeatable); unknown keys fail",
    )
    fsubmit.add_argument(
        "--unit-traces", type=int, default=1, metavar="T",
        help="traces per work unit (default: 1; larger units amortize "
             "per-unit overhead, smaller units retry more cheaply)",
    )
    fsubmit.add_argument(
        "--lease-seconds", type=float, default=60.0, metavar="S",
        help="how long a claimed unit stays leased before it is "
             "re-queued (default: 60)",
    )
    fsubmit.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="claims per unit before it is marked failed (default: 3)",
    )
    fsubmit.add_argument(
        "--name", default=None, metavar="NAME",
        help="experiment name inside the broker (default: the registry "
             "experiment name); one broker holds many named experiments",
    )
    fsubmit.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="scheduling priority; workers drain higher priorities first "
             "(default: 0)",
    )
    fsubmit.add_argument(
        "--if-exists", choices=("fail", "resume"), default="fail",
        help="what a re-run against an existing experiment name does: "
             "'fail' (default; never silently double-enqueue) or "
             "'resume' (finish an interrupted submission with the same "
             "plan; a different plan still fails)",
    )

    fwork = fsub.add_parser(
        "work", help="pull and execute work units until the broker drains"
    )
    fwork.add_argument("broker", help="path to an existing broker database")
    fwork.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="drain only this experiment (default: all, by priority)",
    )
    fwork.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable worker identity (default: hostname-pid)",
    )
    fwork.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help="process at most N units, then exit (default: drain)",
    )
    fwork.add_argument(
        "--no-wait", action="store_true",
        help="exit when nothing is claimable instead of waiting out "
             "other workers' leases",
    )
    fwork.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for scheme evaluation within each unit",
    )
    fwork.add_argument(
        "--heartbeat-seconds", type=float, default=None, metavar="S",
        help="mid-unit lease renewal interval (default: a third of the "
             "broker's lease; <= 0 disables heartbeats)",
    )

    fstatus = fsub.add_parser(
        "status", help="show a broker's unit-lifecycle counts"
    )
    fstatus.add_argument("broker", help="path to an existing broker database")
    fstatus.add_argument(
        "--units", action="store_true", help="also list every unit's row"
    )
    fstatus.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="show only this experiment (default: all)",
    )
    fstatus.add_argument(
        "--json", action="store_true",
        help="emit the full status (per-experiment counts, ETA, unit "
             "errors) as one JSON object for external monitors",
    )

    fretry = fsub.add_parser(
        "retry", help="re-queue permanently-failed units after a fix"
    )
    fretry.add_argument("broker", help="path to an existing broker database")
    fretry.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="re-queue only this experiment's failed units (default: all)",
    )

    fcollect = fsub.add_parser(
        "collect",
        help="fold finished broker files (one fleet, or one file per "
             "shard) into the experiment result",
    )
    fcollect.add_argument(
        "brokers", nargs="+", metavar="broker",
        help="path(s) to finished broker databases of one experiment",
    )
    fcollect.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="which experiment to collect (default: the broker's sole "
             "experiment; required when it holds several)",
    )
    fcollect.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the collected ExperimentResult as JSON",
    )

    dataset = sub.add_parser(
        "dataset", help="generate the six-scenario telemetry dataset"
    )
    dataset.add_argument("output_dir")
    dataset.add_argument("--seed", type=int, default=2023)
    dataset.add_argument("--flows", type=int, default=4000)
    dataset.add_argument("--probes", type=int, default=600)

    stream = sub.add_parser(
        "stream",
        help="replay a scenario as a chunk stream and monitor it live",
    )
    stream.add_argument(
        "scenario", nargs="?", default=None,
        help="a registered failure scenario (see 'list'); omitted "
             "when resuming from a checkpoint",
    )
    stream.add_argument("--preset", choices=experiments.PRESETS, default="ci")
    stream.add_argument("--seed", type=int, default=61)
    stream.add_argument(
        "--window", type=int, default=4, metavar="N",
        help="sliding window size in chunks (default: 4)",
    )
    stream.add_argument(
        "--cycle", "--cycles", type=int, default=12, dest="cycles",
        metavar="M", help="number of monitor cycles to run (default: 12)",
    )
    stream.add_argument(
        "--flows", type=int, default=500, metavar="F",
        help="passive flows per chunk (default: 500)",
    )
    stream.add_argument(
        "--probes", type=int, default=100, metavar="P",
        help="probes per chunk (default: 100)",
    )
    stream.add_argument(
        "--scheme", default="flock", metavar="NAME",
        help="registry scheme to localize with (default: flock)",
    )
    stream.add_argument(
        "--onset", type=int, default=None, metavar="C",
        help="chunk index the incident turns on at (default: cycles // 3)",
    )
    stream.add_argument(
        "--clear", type=int, default=None, metavar="C",
        help="chunk index the incident clears at (default: never)",
    )
    stream.add_argument(
        "--no-warm", action="store_true",
        help="cold-localize every cycle instead of warm-starting",
    )
    stream.add_argument(
        "--cycle-budget", type=float, default=None, metavar="S",
        help="per-cycle wall-clock budget in seconds; over-budget "
             "cycles degrade gracefully (warm greedy fallback, then "
             "carrying the previous hypothesis) instead of falling "
             "behind the stream",
    )
    stream.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint to PATH as cycles complete "
             "(atomic write, checksummed)",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence in cycles (default: every cycle)",
    )
    stream.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a crashed run from a checkpoint file; the "
             "scenario and stream parameters come from the checkpoint "
             "and the remaining cycles reproduce the uninterrupted "
             "run bit for bit",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection soak against the fleet "
             "(virtual clock; asserts bit-identical collection)",
    )
    chaos.add_argument(
        "--experiment", default="fig2", metavar="NAME",
        help="a shardable experiment to soak (default: fig2)",
    )
    chaos.add_argument(
        "--preset", choices=experiments.PRESETS, default="tiny"
    )
    chaos.add_argument(
        "--seeds", type=int, default=3, metavar="N",
        help="number of consecutive chaos seeds to soak (default: 3)",
    )
    chaos.add_argument(
        "--base-seed", type=int, default=0, metavar="S",
        help="first chaos seed (default: 0)",
    )
    chaos.add_argument(
        "--profile", choices=("light", "default", "heavy"),
        default="default",
        help="fault-probability profile (default: default)",
    )
    chaos.add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="virtual workers per soak (default: 3)",
    )
    chaos.add_argument(
        "--unit-traces", type=int, default=2, metavar="T",
        help="traces per work unit (default: 2)",
    )
    chaos.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="S",
        help="virtual lease length (default: 30)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=10, metavar="N",
        help="claims per unit before failed (default: 10; chaos burns "
             "attempts on purpose)",
    )
    chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep broker files here (default: a temp dir)",
    )
    return parser


def parse_overrides(pairs: List[str]) -> Dict[str, object]:
    """Parse repeated ``--set key=val`` flags into builder overrides.

    Values parse as Python literals (``4``, ``0.5``, ``[4, 8]``) and
    fall back to the raw string (``--set calibration=cal.json``).
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ExperimentError(
                f"--set expects KEY=VAL, got {pair!r}"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _run_one(name: str, args, runner: Optional[RunnerConfig] = None) -> None:
    print_result(
        run_experiment(
            name,
            preset=args.preset,
            seed=args.seed,
            runner=runner,
            scheme=args.scheme,
            overrides=parse_overrides(args.overrides),
        )
    )


def _runner_from_args(args) -> Optional[RunnerConfig]:
    if args.jobs is None:
        return None
    return RunnerConfig(jobs=args.jobs)


def _error_headline(error: str) -> str:
    """The exception line of a stored unit error (errors are full
    tracebacks since broker v2; status lines want one line)."""
    lines = [line for line in error.strip().splitlines() if line.strip()]
    return lines[-1] if lines else error


def _fleet(args) -> int:
    """Dispatch the ``fleet`` subcommands (submit/work/status/collect)."""
    from .eval import fleet

    if args.fleet_command == "submit":
        report = fleet.submit(
            args.broker,
            args.experiment,
            preset=args.preset,
            seed=args.seed,
            scheme=args.scheme,
            overrides=parse_overrides(args.overrides),
            unit_traces=args.unit_traces,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
            name=args.name,
            priority=args.priority,
            if_exists=args.if_exists,
        )
        verb = "resumed" if report.resumed else "submitted"
        named = (
            f" as {report.name!r}" if report.name != report.experiment else ""
        )
        print(
            f"{verb} {report.experiment} ({report.preset}){named}: "
            f"{report.n_units} work unit(s) over {report.n_calls} grid "
            f"call(s) -> {report.path}"
            + (
                f" ({report.n_enqueued} newly enqueued)"
                if report.resumed else ""
            )
        )
        return 0
    if args.fleet_command == "work":
        if args.max_units is not None and args.max_units < 1:
            raise ExperimentError(
                f"--max-units must be >= 1, got {args.max_units}"
            )
        report = fleet.work(
            args.broker,
            worker_id=args.worker_id,
            runner=_runner_from_args(args),
            max_units=args.max_units,
            wait=not args.no_wait,
            experiment=args.experiment,
            heartbeat_seconds=args.heartbeat_seconds,
        )
        line = (
            f"worker {report.worker}: {report.completed} unit(s) completed, "
            f"{report.failed} failed, {report.stale} stale"
        )
        if report.renewed:
            line += f", {report.renewed} lease renewal(s)"
        if report.io_retries:
            line += f", {report.io_retries} I/O retr(ies)"
        print(line)
        return 0
    if args.fleet_command == "status":
        state = fleet.status(
            args.broker, detail=args.units, experiment=args.experiment
        )
        if args.json:
            print(json.dumps(state, indent=2))
            return 0
        for exp in state["experiments"]:
            counts = exp["counts"]
            total = sum(counts.values())
            scheme = f", scheme {exp['scheme']}" if exp.get("scheme") else ""
            prio = f", priority {exp['priority']}" if exp["priority"] else ""
            journal = "" if exp["state"] == "ready" else f" [{exp['state']}]"
            named = (
                f"{exp['name']}: " if exp["name"] != exp["experiment"] else ""
            )
            print(
                f"{named}{exp['experiment']} "
                f"({exp['preset']}{scheme}{prio}){journal}: "
                f"{total} unit(s): "
                + ", ".join(f"{v} {k}" for k, v in counts.items())
            )
            progress = exp["progress"]
            if progress["total"]:
                pct = 100.0 * progress["done"] / progress["total"]
                line = (
                    f"progress {progress['done']}/{progress['total']} "
                    f"unit(s) ({pct:.0f}%)"
                )
                if progress["rate_per_s"] is not None:
                    line += f", {progress['rate_per_s']:.2f} unit/s"
                    if progress["remaining"]:
                        line += f", ETA ~{progress['eta_s']:.0f}s"
                print(line)
            for unit_id, error in exp["errors"]:
                print(f"  unit {unit_id} failed: {_error_headline(error)}")
        if args.units:
            for row in state["units"]:
                holder = f" worker={row['worker']}" if row["worker"] else ""
                line = (
                    f"  unit {row['id']}: call {row['call_index']} traces "
                    f"[{row['start']}, {row['stop']}) {row['status']} "
                    f"attempts={row['attempts']}{holder}"
                )
                if row["error"]:
                    line += f" error={_error_headline(row['error'])}"
                print(line)
        return 0
    if args.fleet_command == "retry":
        requeued = fleet.retry(args.broker, experiment=args.experiment)
        print(f"re-queued {requeued} failed unit(s)")
        return 0
    if args.fleet_command == "collect":
        result = fleet.collect(*args.brokers, experiment=args.experiment)
        print_result(result)
        if args.out:
            print(f"\nwrote collected result to {save_result(result, args.out)}")
        return 0
    raise ExperimentError(f"unknown fleet command {args.fleet_command!r}")


def _chaos(args) -> int:
    """Seeded fault-injection soaks: fleet under chaos vs. serial."""
    import tempfile

    from .errors import ChaosError
    from .eval import chaos

    spec = chaos.PROFILES[args.profile]
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    print(
        f"chaos soak: {args.experiment} ({args.preset}), "
        f"{args.seeds} seed(s) from {args.base_seed}, "
        f"profile {args.profile}, {args.workers} virtual worker(s)"
    )

    def _soak(workdir):
        reports = chaos.run_chaos_suite(
            experiment=args.experiment,
            preset=args.preset,
            seeds=seeds,
            spec=spec,
            workdir=workdir,
            n_workers=args.workers,
            unit_traces=args.unit_traces,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
            strict=False,
            echo=lambda line: print(f"  {line}"),
        )
        from .eval.spec import run_experiment

        serial_lo = run_experiment(args.experiment, preset=args.preset).rows
        for seed in seeds:
            serial_hi = run_experiment(
                args.experiment, preset=args.preset, seed=101 + seed,
            ).rows
            report = chaos.run_multi_soak(
                experiment=args.experiment,
                preset=args.preset,
                seed=seed,
                spec=spec,
                workdir=workdir,
                n_workers=args.workers,
                unit_traces=args.unit_traces,
                lease_seconds=args.lease_seconds,
                max_attempts=args.max_attempts,
                serial_rows_pair=(serial_lo, serial_hi),
                strict=False,
            )
            print(f"  {report.summary()}")
            reports.append(report)
        for seed in seeds:
            report = chaos.run_stream_soak(
                preset=args.preset,
                seed=seed,
                spec=spec,
                workdir=workdir,
                strict=False,
            )
            print(f"  {report.summary()}")
            reports.append(report)
        return reports

    if args.workdir is not None:
        reports = _soak(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            reports = _soak(workdir)
    faults = sum(sum(r.events.values()) for r in reports)
    ok = sum(1 for r in reports if r.ok)
    print(
        f"{ok}/{len(reports)} soak(s) drained bit-identical to serial "
        f"under {faults} injected fault(s)"
    )
    if ok != len(reports):
        raise ChaosError(
            f"{len(reports) - ok} of {len(reports)} chaos soak(s) failed"
        )
    return 0


def _list(args) -> int:
    sections = []
    if args.experiments:
        sections.append("experiments")
    if args.schemes:
        sections.append("schemes")
    if args.scenarios:
        sections.append("scenarios")
    if not sections:
        sections = ["experiments", "schemes", "scenarios"]
    width = 20
    if "experiments" in sections:
        print("experiments:")
        for name in experiment_names():
            entry = get_experiment(name)
            flags = []
            if not entry.shardable:
                flags.append("not shardable")
            if not entry.include_in_all:
                flags.append("not in 'run all'")
            suffix = f"  [{'; '.join(flags)}]" if flags else ""
            print(f"  {name:<{width}} {entry.description}{suffix}")
    if "schemes" in sections:
        if "experiments" in sections:
            print()
        print("schemes:")
        for name in scheme_names():
            entry = get_scheme(name)
            print(
                f"  {name:<{width}} {entry.description} "
                f"(default input: {entry.default_spec})"
            )
    if "scenarios" in sections:
        if len(sections) > 1:
            print()
        print("scenarios:")
        for name in scenario_names():
            print(f"  {name:<{width}} {scenario_description(name)}")
    return 0


def _stream(args) -> int:
    """Replay a chunked incident and print per-cycle detections."""
    from .errors import CheckpointError
    from .eval.serialize import decode_stream_checkpoint
    from .eval.stream import StreamMonitor, incident_latencies
    from .routing.ecmp import EcmpRouting
    from .simulation.failures import make_scenario
    from .simulation.stream import replay_stream

    def generate(meta, seed):
        scenario = make_scenario(meta["scenario"])
        topology = experiments.standard_topology(meta["preset"])
        routing = EcmpRouting(topology)
        chunks = replay_stream(
            topology,
            routing,
            scenario,
            seed=seed,
            n_chunks=meta["cycles"],
            flows_per_chunk=meta["flows"],
            probes_per_chunk=meta["probes"],
            onset_chunk=meta["onset"],
            clear_chunk=meta["clear"],
        )
        return topology, list(chunks)

    if args.resume is not None:
        try:
            with open(args.resume, "r", encoding="utf-8") as handle:
                payload = decode_stream_checkpoint(handle.read())
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {args.resume}: {exc}"
            ) from None
        meta = payload["meta"]
        for key in ("scenario", "preset", "cycles", "flows", "probes",
                    "onset", "clear"):
            if key not in meta:
                raise CheckpointError(
                    f"checkpoint {args.resume} has no {key!r} in its "
                    "stream metadata; it was not written by "
                    "'repro-flock stream --checkpoint'"
                )
        config = payload.get("config", {})
        topology, chunks = generate(meta, seed=config.get("seed", 0))
        monitor = StreamMonitor.from_checkpoint(
            payload,
            topology,
            chunks,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint or args.resume,
        )
        chunks = [c for c in chunks if c.index >= monitor.cursor]
        scenario_name = meta["scenario"]
        preset = meta["preset"]
        n_cycles = meta["cycles"]
        print(
            f"resuming {scenario_name} on {preset} fabric from "
            f"{args.resume} at cycle {monitor.cursor} "
            f"({monitor.cycles} cycle(s) already done, "
            f"{len(chunks)} remaining)"
        )
    else:
        if args.scenario is None:
            raise CheckpointError(
                "stream needs a scenario (or --resume PATH)"
            )
        onset = args.onset if args.onset is not None else args.cycles // 3
        meta = {
            "scenario": args.scenario,
            "preset": args.preset,
            "cycles": args.cycles,
            "flows": args.flows,
            "probes": args.probes,
            "onset": onset,
            "clear": args.clear,
        }
        topology, chunks = generate(meta, seed=args.seed)
        monitor = StreamMonitor(
            topology,
            scheme=args.scheme,
            window=args.window,
            warm=not args.no_warm,
            seed=args.seed,
            cycle_budget=args.cycle_budget,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
            checkpoint_meta=meta,
        )
        scenario_name = args.scenario
        preset = args.preset
        n_cycles = args.cycles
        mode = "warm" if monitor.warm else "cold"
        budget = (
            f", budget {args.cycle_budget * 1e3:.0f}ms/cycle"
            if args.cycle_budget is not None else ""
        )
        checkpointing = (
            f", checkpointing to {args.checkpoint}"
            if args.checkpoint else ""
        )
        print(
            f"streaming {scenario_name} on {preset} fabric "
            f"({topology.n_links} links): {n_cycles} cycles, "
            f"window {args.window}, scheme {monitor.setup.name} "
            f"({mode}){budget}{checkpointing}"
        )
    reports = []
    for chunk in chunks:
        report = monitor.step(chunk)
        reports.append(report)
        names = sorted(
            topology.component_name(c) for c in report.prediction.components
        )
        mark = "*" if report.detected else (" " if not report.truth else "!")
        ms = (report.build_seconds + report.localize_seconds) * 1e3
        degraded = (
            f"  degraded({report.degrade_reason})" if report.degrade_reason
            else ""
        )
        print(
            f"  cycle {report.cycle:>3} [{mark}] flows={report.raw_flows:>6} "
            f"window={report.grouped_flows:>7} churn={report.churn} "
            f"{ms:7.1f}ms  predicted: "
            f"{', '.join(names) if names else '-'}{degraded}"
        )
    if monitor.cycle_budget is not None:
        print(
            f"{monitor.degraded_cycles} degraded cycle(s) of "
            f"{monitor.cycles} under the "
            f"{monitor.cycle_budget * 1e3:.0f}ms budget"
        )
    for inc in incident_latencies(reports):
        if inc["detected_cycle"] is None:
            print(
                f"incident @ cycle {inc['onset_cycle']}: NOT detected "
                f"(cleared at {inc['clear_cycle']})"
            )
        else:
            print(
                f"incident @ cycle {inc['onset_cycle']}: detected at cycle "
                f"{inc['detected_cycle']} "
                f"(latency {inc['latency_cycles']} cycle(s), "
                f"{inc['latency_seconds']:.1f}s)"
            )
    return 0


def main(argv=None) -> int:
    try:
        return _main(argv)
    except ReproError as exc:
        print(f"repro-flock: error: {exc}", file=sys.stderr)
        return 2


def _main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "dataset":
        from .eval.dataset import generate_suite

        paths = generate_suite(
            args.output_dir, seed=args.seed,
            n_passive=args.flows, n_probes=args.probes,
        )
        for path in paths:
            print(path)
        return 0
    if args.command == "list":
        return _list(args)
    if args.command == "fleet":
        return _fleet(args)
    if args.command == "stream":
        return _stream(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.experiment == "all":
        # Per-experiment flags don't compose with 'all': overrides are
        # validated against one builder's knobs, and probe-only
        # experiments reject --scheme - failing upfront beats dying
        # halfway through with partial output.
        if args.scheme is not None or args.overrides or args.shards is not None:
            raise ExperimentError(
                "--scheme/--set/--shards require a single experiment, not 'all'"
            )
    else:
        get_experiment(args.experiment)  # fail fast on unknown names
    if args.scheme is not None:
        get_scheme(args.scheme)
    runner = _runner_from_args(args)
    if args.shards is not None:
        # A shard is a private fleet: its slice of the units in its own
        # broker file, drained here; 'fleet collect' folds the files.
        from .eval import fleet
        from .eval.broker import Broker

        if args.shard_index is None or args.out is None:
            raise ExperimentError("--shards requires --shard-index and --out")
        report = fleet.submit(
            args.out, args.experiment, preset=args.preset, seed=args.seed,
            scheme=args.scheme, overrides=parse_overrides(args.overrides),
            shard=(args.shard_index, args.shards), if_exists="resume",
        )
        done = fleet.work(
            args.out, runner=runner, wait=False, experiment=report.name
        )
        with Broker.open(report.path) as broker:
            counts = broker.counts(report.name)
        shard = (
            f"shard {args.shard_index + 1}/{args.shards} of {args.experiment}"
        )
        if counts.failed or not counts.finished:
            raise ExperimentError(
                f"{shard} did not finish: {counts.failed} failed, "
                f"{counts.pending} pending and {counts.leased} leased of "
                f"{counts.total} work unit(s) in {report.path}; see "
                f"'repro-flock fleet status {report.path}'"
            )
        print(
            f"{shard} ({args.preset}): {counts.done} of {counts.total} work "
            f"unit(s) done, {done.completed} by this run -> {report.path}"
        )
        return 0
    if args.shard_index is not None or args.out is not None:
        raise ExperimentError("--shard-index/--out are only valid with --shards")
    if args.experiment == "all":
        # The table1 phase experiments are excluded: the combined
        # table1 already runs both phases, and each phase would redo
        # the full calibrate-grid sweep.
        for name in default_experiment_names():
            _run_one(name, args, runner)
        return 0
    _run_one(args.experiment, args, runner)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
