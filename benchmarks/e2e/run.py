#!/usr/bin/env python3
"""End-to-end benchmark of the Flock reproduction, with per-layer traces.

One workload per process::

    python3 benchmarks/e2e/run.py --workload diagnose-paper --seed 1 \\
        --seconds 24 --trace 0

prints ``workload metric value unit`` lines and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (spans wrapped around the program's layer entry points,
a per-layer self-time table, and a failure if the unattributed
remainder reaches 5%).  Without ``--workload`` every workload runs, one
fresh subprocess each, one after another.

``--out R.json`` writes the results with provenance (git sha, machine,
numpy version, seed); ``--spans S.jsonl`` writes the raw spans of a
traced run.  The exit code is non-zero when any correctness check or
operation failed.  Run it from the repository root; it finds ``src/``
itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Files the program writes during a run (brokers, checkpoints) go in a
#: temporary directory under here, inside the checkout.
WORK_ROOT = ROOT / ".bench_build"

WORKLOADS = ("diagnose-paper", "stream-paper", "fleet-ci")

#: End-to-end metrics (name -> unit), reported by every workload.
E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "ops_per_s": "1/s",
}

#: Span names whose self time is reported as ``<name>.share``.
LAYER_SPANS = (
    "telemetry",
    "core.problem",
    "core.window",
    "core.flock_fast.jle_init",
    "core.flock_fast.rebase",
    "core.flock.search",
    "core.flock.localize_warm",
    "eval.stream.checkpoint",
    "simulation",
    "eval.harness.build",
    "eval.harness.score_problem.flock",
    "eval.harness.score_problem.netbouncer",
    "eval.harness.score_problem.007",
    "eval.spec",
    "eval.broker",
    "eval.serialize",
)

#: Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER_METRICS = {
    **{f"{name}.share": "ratio" for name in LAYER_SPANS},
    "unattributed_share": "ratio",
    "trace_overhead_share": "ratio",
    "eval.stream.queue_wait_share": "ratio",
    "core.problem.grouped_flows": "count",
    "core.problem.group_ratio": "ratio",
    "core.flock.hypotheses_scanned": "count",
    "eval.stream.checkpoint_bytes": "B",
    "eval.fleet.payload_bytes": "B",
    "eval.fleet.io_retries": "count",
    "eval.fleet.stale": "count",
}

#: A traced run fails when operations spend this share outside every span.
MAX_UNATTRIBUTED = 0.05


def machine_fingerprint() -> Dict[str, object]:
    """Hashed hostname, CPU model and core count of this machine."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12],
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
    }


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> Dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(),
        "machine": machine_fingerprint(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _p50_p75(values: List[float]):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    _, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return p50, p75


def e2e_metrics(outcome) -> Dict[str, float]:
    p50, p75 = _p50_p75(outcome.latencies)
    return {
        "setup_s": statistics.median(outcome.setup_s) if outcome.setup_s else 0.0,
        "peak_rss_mb": outcome.peak_rss_mb,
        "latency_p50_s": p50,
        "latency_p75_s": p75,
        "ops_per_s": outcome.ops_per_s,
    }


def layer_metrics(outcome, tracer) -> Dict[str, float]:
    from spans import layer_table, root_time, span_cost, unattributed_share

    table = layer_table(tracer.spans)
    counters = tracer.counters
    raw = counters.get("raw_flows", 0.0)
    metrics = {f"{name}.share": table.get(name, {}).get("share", 0.0) for name in LAYER_SPANS}
    base = root_time(tracer.spans) or 1.0
    metrics.update({
        "unattributed_share": unattributed_share(tracer.spans),
        "trace_overhead_share": span_cost() * len(tracer.spans) / base,
        "eval.stream.queue_wait_share": outcome.counts.get("eval.stream.queue_wait_share", 0.0),
        "core.problem.grouped_flows": counters.get("grouped_flows", 0.0),
        "core.problem.group_ratio": counters.get("grouped_flows", 0.0) / raw if raw else 0.0,
        "core.flock.hypotheses_scanned": counters.get("hypotheses_scanned", 0.0),
        "eval.stream.checkpoint_bytes": outcome.counts.get("eval.stream.checkpoint_bytes", 0.0),
        "eval.fleet.payload_bytes": counters.get("payload_bytes", 0.0),
        "eval.fleet.io_retries": outcome.counts.get("eval.fleet.io_retries", 0.0),
        "eval.fleet.stale": outcome.counts.get("eval.fleet.stale", 0.0),
    })
    return metrics


def _pinned_environment() -> None:
    """Measure the default, single-threaded path: no kernel backend
    chosen by environment, one BLAS/OpenMP thread.  Must run before
    numpy is imported."""
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def run_workload(args) -> int:
    _pinned_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - fail before writing anything outside a checkout
    import workloads
    from spans import Tracer, format_table, layer_table

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_spans(tracer)
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix="e2e-") as tmp:
            kwargs = {"workdir": Path(tmp)} if args.workload in workloads.NEEDS_WORKDIR else {}
            outcome = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, tracer, **kwargs
            )
    finally:
        if tracer is not None:
            tracer.restore()

    e2e = e2e_metrics(outcome)
    if tracer is not None:
        layers = layer_metrics(outcome, tracer)
        print(format_table(layer_table(tracer.spans)))
        if layers["unattributed_share"] >= MAX_UNATTRIBUTED:
            outcome.error(
                f"unattributed remainder {layers['unattributed_share']:.1%} "
                f">= {MAX_UNATTRIBUTED:.0%} of operation time"
            )
        reported, units = layers, PER_LAYER_METRICS
    else:
        reported, units = e2e, E2E_METRICS

    for name, unit in units.items():
        print(f"{args.workload} {name} {reported[name]!r} {unit}")
    for name, (value, unit) in outcome.extras.items():
        print(f"{args.workload} {name} {value!r} {unit} (not bounded)")
    print(f"{args.workload} peak_rss_source {outcome.rss_source}")
    for error in outcome.errors:
        print(f"{args.workload} CHECK FAILED: {error}", file=sys.stderr)

    correct = not outcome.errors and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": reported[name], "unit": unit} for name, unit in units.items()
        },
    }
    if args.out:
        record = {
            "workload": args.workload,
            "trace": args.trace,
            **provenance(args),
            "result": result,
            # With tracing on these end-to-end numbers include its overhead.
            "e2e": e2e,
            "extras": {name: value for name, (value, _) in outcome.extras.items()},
            "rss_source": outcome.rss_source,
            "errors": outcome.errors,
        }
        Path(args.out).write_text(json.dumps({"runs": [record]}, indent=1) + "\n")
    if args.spans and tracer is not None:
        tracer.write_jsonl(args.spans)
    print(json.dumps(result))
    return 0 if correct else 1


def _child(args, workload: str, trace: int, out: Path, spans: Optional[str]) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace), "--out", str(out),
    ]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not out.exists():  # crashed before its result line
        print("\n".join(lines), flush=True)
        return {"workload": workload, "trace": trace, "crashed": proc.returncode}
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(out.read_text())["runs"][0]


def run_all(args) -> int:
    """Every workload in a fresh subprocess, one after another."""
    WORK_ROOT.mkdir(exist_ok=True)
    records = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix="e2e-all-") as tmp:
        for workload in WORKLOADS:
            spans = f"{args.spans}.{workload}.jsonl" if args.spans and args.trace else None
            out = Path(tmp) / f"{workload}.json"
            records.append(_child(args, workload, args.trace, out, spans))
    ok = all(record.get("result", {}).get("correct", False) for record in records)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    print("all checks passed" if ok else "FAILED: see the messages above")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, "
                             "each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="nominal measured time; sizes the work of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write results with provenance here")
    parser.add_argument("--spans", help="write the spans of a traced run as JSONL")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
