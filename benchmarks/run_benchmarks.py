#!/usr/bin/env python
"""Benchmark trajectory runner: kernels + trace pipeline -> BENCH_*.json.

Runs the repo's headline performance numbers outside pytest and writes
a machine-readable snapshot (per-benchmark mean/stddev over repeats,
git sha, preset) to ``BENCH_<label>.json`` at the repo root, so perf
PRs carry before/after evidence that CI can re-measure.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --preset tiny
    PYTHONPATH=src python benchmarks/run_benchmarks.py --preset large \
        --label columnar --repeats 3
    PYTHONPATH=src python benchmarks/run_benchmarks.py --preset tiny \
        --check BENCH_ci-smoke.json

``--check`` re-measures and fails (exit 1) when any benchmark shared
with the artifact regresses by more than ``--threshold`` (default 25%);
benchmarks faster than ``--min-seconds`` are skipped as timer noise.

Benchmarks
----------
* ``trace_build_columnar`` - simulate -> telemetry -> InferenceProblem
  through the struct-of-arrays pipeline (FlowBatch / ObservationBatch /
  from_batch), one fresh trace per repeat over a shared PathSpace (the
  runner's steady state).
* ``simulate_columnar`` - trace generation alone (specs + simulator).
* ``kernel_delta_vector`` - JLE delta-array construction.
* ``kernel_flip_vector`` - one JLE flip pair on the vector state.
* ``localize_greedy_fast`` - full Flock greedy+JLE localization.
* ``localize_gibbs`` - Gibbs sampling localization.

Timing semantics (also recorded in the artifact under ``timing``):
each benchmark runs one untimed-for-the-mean *cold* call first (its
wall time is reported as ``cold_s``), then ``repeats`` *warm* calls
whose mean/stddev are reported.  ``cold_s`` may exceed ``mean_s`` —
that is the warmup cost (interning, JIT compilation), not noise — and
``stddev_s`` is null when ``repeats == 1`` (a single sample has no
spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path
from typing import Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

PRESETS = {
    # preset -> (n_passive, n_probes)
    "tiny": (1_200, 200),
    "ci": (4_000, 600),
    "large": (100_000, 5_000),
    # The paper's simulation scale: full paper_simulation_clos fabric,
    # 400K passive flows.
    "paper": (400_000, 20_000),
}

#: Benchmarks excluded per preset (intractable by design at that scale).
PRESET_SKIPS = {
    "paper": {
        "kernel_flip_vector",      # micro-bench; covered by localize_*
    },
}


def machine_fingerprint() -> dict:
    """Identify the benchmarking machine without leaking its hostname.

    Wall-clock benchmark numbers only compare meaningfully on the same
    hardware; the fingerprint (hashed hostname, CPU model, core count)
    lets ``--check`` warn when an artifact from one machine is being
    used to gate another.
    """
    import hashlib
    import os
    import platform
    import socket

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": hashlib.sha256(
            socket.gethostname().encode()
        ).hexdigest()[:12],
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
    }


def check_machine(baseline: dict) -> None:
    """Warn when ``--check`` compares across different machines."""
    recorded = baseline.get("machine")
    if not recorded:
        print("note: baseline artifact has no machine fingerprint "
              "(written by an older runner); timings may not be comparable")
        return
    current = machine_fingerprint()
    diffs = [
        f"{key}: baseline {recorded.get(key)!r} vs here {current[key]!r}"
        for key in ("host", "cpu_model", "cores")
        if recorded.get(key) != current[key]
    ]
    if diffs:
        print("WARNING: baseline artifact was measured on different "
              "hardware; absolute timings are not comparable and the "
              "regression gate may mislead:")
        for diff in diffs:
            print(f"  {diff}")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _timed(fn, repeats: int, warmup: int = 1):
    """Run ``fn(i)`` for warmup + repeats; return (times, cold_times)."""
    cold = []
    for i in range(warmup):
        t0 = time.perf_counter()
        fn(i)
        cold.append(time.perf_counter() - t0)
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        fn(warmup + i)
        times.append(time.perf_counter() - t0)
    return times, cold


#: Explicit warm/cold semantics, embedded in every artifact so a reader
#: of BENCH_*.json does not need the runner source to interpret it.
TIMING_SEMANTICS = {
    "mean_s": "mean over the warm repeats (after one untimed warmup call)",
    "stddev_s": "sample stddev over warm repeats; null when repeats == 1",
    "cold_s": "wall time of the first (cold) call: interning and JIT "
              "warmup included, so cold_s may exceed mean_s",
}


def _stats(times, cold=None):
    entry = {
        "mean_s": statistics.fmean(times),
        "stddev_s": statistics.stdev(times) if len(times) > 1 else None,
        "repeats": len(times),
    }
    if cold:
        entry["cold_s"] = statistics.fmean(cold)
    return entry


def build_benchmarks(preset: str, base_seed: int):
    """Return {name: callable(i)} benchmark closures for the preset."""
    from repro.core.flock_fast import VectorJleState
    from repro.core.gibbs import GibbsInference
    from repro.core.params import DEFAULT_PER_PACKET
    from repro.core.problem import InferenceProblem
    from repro.eval.experiments import standard_topology
    from repro.eval.scenarios import make_trace
    from repro.eval.schemes import build_localizer
    from repro.routing import EcmpRouting
    from repro.simulation import SilentLinkDrops
    from repro.telemetry.inputs import TelemetryConfig, build_observation_batch

    n_passive, n_probes = PRESETS[preset]
    if preset in ("tiny", "paper"):
        topo = standard_topology(preset)
    else:
        topo = standard_topology("ci")
    routing = EcmpRouting(topo)
    telemetry = TelemetryConfig.from_spec("A1+A2+P")
    scenario = SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2)

    def trace_build_columnar(i):
        trace = make_trace(
            topo, routing, scenario, seed=base_seed + i,
            n_passive=n_passive, n_probes=n_probes,
        )
        batch = build_observation_batch(
            trace.batch, telemetry, np.random.default_rng(5)
        )
        return InferenceProblem.from_batch(
            batch, topo.n_components, topo.n_links
        )

    def simulate_columnar(i):
        return make_trace(
            topo, routing, scenario, seed=base_seed + 1000 + i,
            n_passive=n_passive, n_probes=n_probes,
        )

    # A fixed mid-size problem for the kernel micro-benchmarks.
    kernel_problem = trace_build_columnar(10_000)

    def kernel_delta_vector(i):
        return VectorJleState(kernel_problem, DEFAULT_PER_PACKET)

    skips = PRESET_SKIPS.get(preset, set())
    benches = {
        "trace_build_columnar": trace_build_columnar,
        "simulate_columnar": simulate_columnar,
        "kernel_delta_vector": kernel_delta_vector,
    }

    if "kernel_flip_vector" not in skips:
        vector_state = VectorJleState(kernel_problem, DEFAULT_PER_PACKET)
        flip_comp = kernel_problem.observed_components[0]

        def kernel_flip_vector(i):
            vector_state.flip(flip_comp)
            vector_state.flip(flip_comp)

        benches["kernel_flip_vector"] = kernel_flip_vector

    greedy = build_localizer("flock")
    gibbs = GibbsInference(DEFAULT_PER_PACKET, sweeps=12, burn_in=4, seed=0)

    def localize_greedy_fast(i):
        return greedy.localize(kernel_problem)

    def localize_gibbs(i):
        return gibbs.localize(kernel_problem)

    benches["localize_greedy_fast"] = localize_greedy_fast
    benches["localize_gibbs"] = localize_gibbs

    return {name: fn for name, fn in benches.items() if name not in skips}


def check_regressions(
    baseline: dict,
    results: dict,
    threshold: float,
    min_seconds: float,
) -> Tuple[int, int]:
    """Compare fresh results against a committed artifact.

    Returns ``(regressions, compared)``: regressions are benchmarks
    present in both runs whose fresh mean exceeds the baseline mean by
    more than ``threshold``; benchmarks below ``min_seconds`` in the
    baseline are timer noise and are skipped.  Callers must treat
    ``compared == 0`` as a gate failure - comparing nothing validates
    nothing.
    """
    regressions = 0
    compared = 0
    for name, entry in sorted(baseline.get("benchmarks", {}).items()):
        fresh = results.get(name)
        old_mean = entry.get("mean_s")
        if fresh is None or old_mean is None:
            print(f"{name:26s} SKIP (not measured in this run)")
            continue
        if old_mean < min_seconds:
            print(f"{name:26s} SKIP (baseline {old_mean:.4f}s below noise floor)")
            continue
        compared += 1
        new_mean = fresh["mean_s"]
        ratio = new_mean / old_mean
        status = "OK"
        if new_mean > old_mean * (1.0 + threshold):
            status = "REGRESSION"
            regressions += 1
        print(f"{name:26s} {old_mean:8.4f}s -> {new_mean:8.4f}s "
              f"({ratio:5.2f}x)  {status}")
    return regressions, compared


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--label", default=None,
                        help="BENCH_<label>.json (default: the preset)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    parser.add_argument(
        "--check", default=None, metavar="BENCH.json",
        help="re-measure and fail on >threshold regressions vs this "
             "artifact (no new artifact is written)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed mean-time regression fraction for --check",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.005,
        help="baseline means below this are skipped by --check "
             "(timer noise)",
    )
    args = parser.parse_args()

    baseline = None
    if args.check is not None:
        baseline = json.loads(Path(args.check).read_text())
        if args.preset is None:
            args.preset = baseline.get("preset", "ci")
        if args.repeats is None:
            args.repeats = baseline.get("repeats", 3)
    if args.preset is None:
        args.preset = "ci"
    if args.repeats is None:
        args.repeats = 3

    benches = build_benchmarks(args.preset, args.seed)
    results = {}
    for name, fn in benches.items():
        times, cold = _timed(fn, args.repeats)
        results[name] = _stats(times, cold)
        stddev = results[name]["stddev_s"]
        stddev_txt = "n/a" if stddev is None else f"{stddev:.4f}"
        print(f"{name:26s} mean {results[name]['mean_s']:8.4f}s "
              f"(stddev {stddev_txt}, "
              f"cold {results[name]['cold_s']:.4f})")

    if baseline is not None:
        print(f"\nchecking against {args.check} "
              f"(threshold {args.threshold:.0%})")
        check_machine(baseline)
        regressions, compared = check_regressions(
            baseline, results, args.threshold, args.min_seconds
        )
        if regressions:
            print(f"{regressions} of {compared} benchmark(s) regressed")
            return 1
        if compared == 0:
            print("no benchmarks compared - the gate validated nothing "
                  "(preset mismatch, or every baseline below the noise "
                  "floor); failing")
            return 1
        print(f"no regressions across {compared} benchmark(s)")
        return 0

    label = args.label or args.preset
    payload = {
        "label": label,
        "git_sha": _git_sha(),
        "machine": machine_fingerprint(),
        "preset": args.preset,
        "repeats": args.repeats,
        "timing": TIMING_SEMANTICS,
        "benchmarks": results,
    }
    out = Path(args.out_dir) / f"BENCH_{label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
