#!/usr/bin/env python
"""Streaming steady-state cycle benchmark -> BENCH_stream.json.

Measures what one monitor cycle costs once the stream is warm, in two
arms over the identical chunk sequence:

* ``stream_cycle_incremental_warm`` - the streaming path: fold the new
  chunk into the :class:`WindowedProblem` (append + expire + grouped
  merge), rebase the previous cycle's :class:`VectorJleState` with the
  window's flow deltas, and re-localize with the warm local search.
* ``stream_cycle_rebuild_cold`` - the batch path the stream replaces:
  ``InferenceProblem.from_batch`` over the window's full retained rows
  plus a cold Flock localization (full Δ initialization).

Telemetry construction is identical in both arms and excluded from the
timings.  ``derived.stream_cycle_speedup`` (cold mean / warm mean) is
the headline number; the large preset holds a 100K-flow window
(``run_benchmarks.py``'s large preset: 100K passive flows + 5K probes).

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_localize.py --preset large
    PYTHONPATH=src python benchmarks/bench_stream_localize.py --preset tiny \
        --repeats 3 --label stream-smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from collections import deque
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

PRESETS = {
    # preset -> (window_chunks, flows_per_chunk, probes_per_chunk)
    "tiny": (3, 400, 80),
    "ci": (4, 1_000, 150),
    # window totals match run_benchmarks.py's large preset: 100K passive
    # flows + 5K probes retained at steady state.
    "large": (16, 6_250, 313),
}


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _stats(times):
    return {
        "mean_s": statistics.fmean(times),
        "stddev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
        "repeats": len(times),
    }


def run(preset: str, repeats: int, seed: int):
    from repro.core.flock_fast import VectorJleState, greedy_local_search
    from repro.core.problem import InferenceProblem
    from repro.core.window import WindowedProblem
    from repro.eval.experiments import standard_topology
    from repro.eval.schemes import make_setup
    from repro.routing import EcmpRouting
    from repro.simulation import SilentLinkDrops, replay_stream
    from repro.telemetry.inputs import build_observation_batch

    window, flows_per_chunk, probes_per_chunk = PRESETS[preset]
    topo = standard_topology("tiny" if preset == "tiny" else "ci")
    routing = EcmpRouting(topo)
    setup = make_setup("flock")
    localizer = setup.localizer
    scenario = SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2)

    # prefill + contribution-cache warm-up + measured cycles
    n_chunks = 2 * window + repeats
    print(f"simulating {n_chunks} chunks of {flows_per_chunk} flows + "
          f"{probes_per_chunk} probes ({topo.n_links} links)...")
    observations = [
        build_observation_batch(
            chunk.batch, setup.telemetry,
            np.random.default_rng(seed + 0x5EED + chunk.index),
        )
        for chunk in replay_stream(
            topo, routing, scenario, seed=seed, n_chunks=n_chunks,
            flows_per_chunk=flows_per_chunk,
            probes_per_chunk=probes_per_chunk,
        )
    ]

    # Pre-fill the window and localize once so the measured cycles are
    # the stream's steady state (full window, carried hypothesis).
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=window)
    for obs in observations[:window]:
        update = windowed.append(obs)
    state = VectorJleState(update.problem, localizer.params)
    candidates = np.asarray(
        update.problem.observed_components, dtype=np.int64
    )
    greedy_local_search(state, candidates)
    # Chunk-aligned contribution cache, as StreamMonitor keeps it: the
    # pre-filled chunks were priced cold, so their slots start empty.
    # A window of unmeasured warm cycles replaces those empty slots
    # with live contributions - the steady state a long-running stream
    # sits in, where every expiring chunk finds its cached pricing.
    contribs = deque([None] * window)
    for obs in observations[window:2 * window]:
        update = windowed.append(obs)
        state = VectorJleState.rebase(
            update.problem, state,
            update.removed_flows, update.removed_weights,
            update.added_flows, update.added_weights,
            removed_contrib=contribs.popleft(),
        )
        contribs.append(state.added_contrib)
        greedy_local_search(
            state,
            np.asarray(update.problem.observed_components, dtype=np.int64),
        )

    warm_times, cold_times = [], []
    warm_pred = cold_pred = None
    for obs in observations[2 * window:]:
        t0 = time.perf_counter()
        update = windowed.append(obs)
        state = VectorJleState.rebase(
            update.problem, state,
            update.removed_flows, update.removed_weights,
            update.added_flows, update.added_weights,
            removed_contrib=contribs.popleft(),
        )
        contribs.append(state.added_contrib)
        warm_pred = greedy_local_search(
            state,
            np.asarray(update.problem.observed_components, dtype=np.int64),
        )
        warm_times.append(time.perf_counter() - t0)

        retained = windowed.retained_observations()
        t0 = time.perf_counter()
        rebuilt = InferenceProblem.from_batch(
            retained, topo.n_components, topo.n_links
        )
        cold_pred = localizer.localize(rebuilt)
        cold_times.append(time.perf_counter() - t0)

    if warm_pred.components != cold_pred.components:
        print(f"warning: final hypotheses differ (warm "
              f"{sorted(warm_pred.components)}, cold "
              f"{sorted(cold_pred.components)})")

    results = {
        "stream_cycle_incremental_warm": _stats(warm_times),
        "stream_cycle_rebuild_cold": _stats(cold_times),
    }
    speedup = (
        results["stream_cycle_rebuild_cold"]["mean_s"]
        / results["stream_cycle_incremental_warm"]["mean_s"]
    )
    derived = {
        "stream_cycle_speedup": speedup,
        "window_chunks": window,
        "window_flows": window * (flows_per_chunk + probes_per_chunk),
        "final_hypothesis_agrees": warm_pred.components
        == cold_pred.components,
    }
    for name, entry in results.items():
        print(f"{name:30s} mean {entry['mean_s']:8.4f}s "
              f"(stddev {entry['stddev_s']:.4f})")
    print(f"steady-state cycle speedup (cold/warm): {speedup:.2f}x")
    return results, derived


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="large")
    parser.add_argument("--repeats", type=int, default=8,
                        help="measured steady-state cycles")
    parser.add_argument("--label", default="stream")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    parser.add_argument("--no-write", action="store_true",
                        help="print results without writing the artifact")
    args = parser.parse_args()

    results, derived = run(args.preset, args.repeats, args.seed)
    if args.no_write:
        return 0
    payload = {
        "label": args.label,
        "git_sha": _git_sha(),
        "preset": args.preset,
        "repeats": args.repeats,
        "benchmarks": results,
        "derived": derived,
    }
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
