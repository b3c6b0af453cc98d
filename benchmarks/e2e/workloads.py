"""The three end-to-end workloads, their correctness checks, and the
entry points the traced run wraps.

Every workload builds its inputs from ``seed`` with the program's own
generators (untimed), sets up several times and keeps the median as
``setup_s``, resets the RSS high-water mark, then measures a fixed amount
of work derived only from ``seconds`` - the same on every commit, so a
faster program finishes sooner instead of doing more.  The sizes are
keyword arguments so that tests can run each workload tiny.

* ``diagnose-paper`` - closed loop, one caller: cold diagnoses of fresh
  telemetry on the paper's 2496-link fabric (telemetry, ``from_batch``,
  JLE initialisation, greedy search).  Never touches ``core.window``.
* ``stream-paper`` - open loop, one chunk every ``period_s``: the
  sliding-window monitor on the same fabric (window splice, Δ rebase,
  warm local search, checkpoints).  Never calls ``from_batch``.
* ``fleet-ci`` - closed loop, one in-process worker: seven experiments
  drained from a SQLite broker (simulation, every baseline scheme,
  broker writes, payload encoding), then collected.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from spans import Tracer

clock = time.perf_counter


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Correctness failures (empty when every check passed).
    errors: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Per-operation latency, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Operations completed per second of the time spent on them.
    ops_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    rss_source: str = ""
    #: Workload-specific results, name -> (value, unit); reported, not bounded.
    extras: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer counts measured by every run, traced or not.
    counts: Dict[str, float] = field(default_factory=dict)

    def error(self, message: str) -> None:
        self.errors.append(message)

    def op_failed(self, what: str) -> None:
        self.failed += 1
        self.error(f"{what} raised:\n{traceback.format_exc()}")


# ----------------------------------------------------------------------
# Peak memory
# ----------------------------------------------------------------------


def _vm_hwm_kb() -> Optional[int]:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def reset_peak_rss() -> str:
    """Reset the RSS high-water mark; returns the source peaks come from.

    ``VmHWM`` after writing 5 to ``/proc/self/clear_refs``; where that
    is not allowed, the process-lifetime ``ru_maxrss`` (which then also
    counts input generation and set-up).
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return "ru_maxrss (lifetime, not reset)"
    return "VmHWM" if _vm_hwm_kb() is not None else "ru_maxrss (lifetime, not reset)"


def peak_rss_mb(source: str) -> float:
    if source == "VmHWM":
        return _vm_hwm_kb() / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def check_prediction(prediction, problem) -> List[str]:
    """Problems with one prediction: components the problem never
    observed, or a log-likelihood that is not finite."""
    errors = []
    observed = set(int(c) for c in problem.observed_components)
    stray = sorted(int(c) for c in prediction.components if int(c) not in observed)
    if stray:
        errors.append(f"predicted unobserved component(s) {stray[:5]}")
    if not math.isfinite(prediction.log_likelihood):
        errors.append(f"log-likelihood {prediction.log_likelihood!r} is not finite")
    return errors


# ----------------------------------------------------------------------
# Span wiring for the traced run
# ----------------------------------------------------------------------


def install_spans(tracer: Tracer) -> None:
    """Wrap the program's layer entry points (from outside: no file
    under ``src/`` changes)."""
    from repro.core.flock import FlockInference
    from repro.core.flock_fast import VectorJleState
    from repro.core.problem import InferenceProblem
    from repro.core.window import WindowedProblem
    from repro.eval import fleet, harness, spec, stream
    from repro.eval.broker import Broker

    def problem_counts(args, kwargs, problem):  # from_batch(cls, obs, ...)
        return {"grouped_flows": problem.n_flows, "raw_flows": len(args[1])}

    def window_counts(args, kwargs, update):  # append(self, obs)
        raw = sum(len(obs) for obs in args[0].retained_chunk_observations())
        return {"grouped_flows": update.problem.n_flows, "raw_flows": raw}

    def localize_name(args, kwargs):
        warm = kwargs.get("warm_state", args[2] if len(args) > 2 else None)
        return "core.flock.localize_warm" if warm is not None else "core.flock.search"

    def score_name(args, kwargs):
        return f"eval.harness.score_problem.{args[0].localizer.name}"

    tracer.wrap(stream, "build_observation_batch", "telemetry")
    tracer.wrap(harness, "build_observation_batch", "telemetry")
    tracer.wrap(InferenceProblem, "from_batch", "core.problem", problem_counts)
    tracer.wrap(WindowedProblem, "append", "core.window", window_counts)
    tracer.wrap(VectorJleState, "__init__", "core.flock_fast.jle_init")
    tracer.wrap(VectorJleState, "rebase", "core.flock_fast.rebase")
    tracer.wrap(
        FlockInference, "localize", localize_name,
        lambda a, k, p: {"hypotheses_scanned": p.hypotheses_scanned},
    )
    tracer.wrap(stream.StreamMonitor, "save_checkpoint", "eval.stream.checkpoint")
    tracer.wrap(spec, "make_trace", "simulation")
    tracer.wrap(harness, "timed_build", "eval.harness.build")
    tracer.wrap(harness, "score_problem", score_name)
    tracer.wrap(Broker, "claim", "eval.broker")
    tracer.wrap(Broker, "complete", "eval.broker")
    tracer.wrap(
        fleet, "encode_unit_payload", "eval.serialize",
        lambda a, k, r: {"payload_bytes": len(r[0])},
    )
    tracer.wrap(fleet, "run_spec", "eval.spec")


def _spans_for(tracer: Optional[Tracer]) -> Tracer:
    """The tracer operation spans open on: the caller's, or one that is
    never activated (its spans pass straight through)."""
    return tracer if tracer is not None else Tracer()


# ----------------------------------------------------------------------
# diagnose-paper
# ----------------------------------------------------------------------


def diagnose(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    *,
    fabric: Optional[Callable] = None,
    n_passive: int = 50_000,
    n_probes: int = 2_500,
    setup_passive: int = 2_500,
    setup_probes: int = 125,
    op_seconds: float = 2.7,
    setups: int = 3,
) -> Outcome:
    """Cold Flock diagnoses of fresh traces, one caller.

    Each set-up builds the fabric, routing and the default ``flock``
    scheme (A1+A2+P telemetry, no kernel backend named) and diagnoses
    one small trace cold.  The last set-up then diagnoses one untimed
    full-size warm-up trace, and about ``seconds / op_seconds`` traces
    (rounded to an even count) of ``n_passive`` passive flows +
    ``n_probes`` A1 probes (1/8 of the paper's volume), with 3 silent
    link drops and traffic alternating uniform/skewed (section 6.3), are
    each timed FlowBatch -> Prediction.  ``op_seconds`` is about one
    such diagnosis on a 2.0 GHz Xeon core, so the timed work lasts about
    ``seconds``.  Traces are simulated with
    the whole-batch ("vectorized") RNG, which is 2-3x faster to generate
    than the default per-group stream and keeps the untimed part short.
    """
    from repro.eval.harness import build_problem
    from repro.eval.metrics import evaluate_prediction
    from repro.eval.scenarios import SKEWED, UNIFORM, make_trace
    from repro.eval.schemes import make_setup
    from repro.routing import EcmpRouting
    from repro.simulation.failures import SilentLinkDrops
    from repro.topology import paper_simulation_clos

    fabric = fabric or paper_simulation_clos
    traced, tracer = tracer is not None, _spans_for(tracer)
    out = Outcome()
    scenario = SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2)
    # Even, so that half the timed traces are uniform and half skewed.
    n_traces = 2 * max(1, round(seconds / (2 * op_seconds)))
    trace_seeds = np.random.default_rng(seed).integers(0, 2**31, setups + 1 + n_traces)

    for i in range(setups):
        t0 = clock()
        topology = fabric()
        routing = EcmpRouting(topology)
        scheme = make_setup("flock")
        built = clock() - t0
        trace = make_trace(
            topology, routing, scenario, seed=int(trace_seeds[i]),
            n_passive=setup_passive, n_probes=setup_probes, rng_mode="vectorized",
        )
        t0 = clock()
        problem = build_problem(trace, scheme.telemetry)
        prediction = scheme.localizer.localize(problem)
        out.setup_s.append(built + clock() - t0)
        out.errors.extend(check_prediction(prediction, problem))
        del trace, problem

    warmup, *traces = [
        make_trace(
            topology, routing, scenario, seed=int(trace_seeds[setups + i]),
            n_passive=n_passive, n_probes=n_probes,
            traffic=UNIFORM if i % 2 == 0 else SKEWED, rng_mode="vectorized",
        )
        for i in range(1 + n_traces)
    ]
    problem = build_problem(warmup, scheme.telemetry)
    out.errors.extend(check_prediction(scheme.localizer.localize(problem), problem))
    del warmup, problem
    out.rss_source = reset_peak_rss()
    busy = 0.0
    flows = 0
    fscores = []
    tracer.active = traced
    for i, trace in enumerate(traces):
        out.attempted += 1
        tracer.op = i
        try:
            t0 = clock()
            with tracer.span("diagnose"):
                problem = build_problem(trace, scheme.telemetry)
                prediction = scheme.localizer.localize(problem)
            elapsed = clock() - t0
        except Exception:  # noqa: BLE001 - count it and keep measuring
            out.op_failed(f"diagnosis {i}")
            continue
        out.latencies.append(elapsed)
        busy += elapsed
        flows += trace.n_flows
        out.errors.extend(check_prediction(prediction, problem))
        fscores.append(
            evaluate_prediction(prediction, trace.ground_truth, topology).fscore
        )
        del problem
    tracer.active = False
    out.peak_rss_mb = peak_rss_mb(out.rss_source)
    out.ops_per_s = len(out.latencies) / busy if busy else 0.0
    mean_f = statistics.fmean(fscores) if fscores else 0.0
    out.extras.update(
        fscore=(mean_f, "ratio"),
        flows_per_s=(flows / busy if busy else 0.0, "flows/s"),
    )
    if mean_f < 0.9:
        out.error(f"mean fscore {mean_f:.3f} < 0.9 over {len(fscores)} trace(s)")
    return out


# ----------------------------------------------------------------------
# stream-paper
# ----------------------------------------------------------------------

#: The monitor writes its checkpoint after every this many cycles.
CHECKPOINT_EVERY = 4
#: The drifting link's start and end drop rates.  Steeper than a gray
#: failure at the paper's 0.1-1% because small chunks give the window
#: little evidence per link; at 0.4-1% the drift often went undetected
#: within the measured cycles.
DRIFT = (0.01, 0.02)


def stream(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    *,
    workdir: Path,
    fabric: Optional[Callable] = None,
    flows_per_chunk: int = 500,
    probes_per_chunk: int = 25,
    window: int = 8,
    period_s: float = 0.6,
    warmup: int = 16,
    onset: int = 3,
    setups: int = 3,
) -> Outcome:
    """Paced sliding-window monitoring of a gray drift.

    Each set-up builds the fabric, routing and a warm ``flock`` monitor
    (checkpointing every :data:`CHECKPOINT_EVERY` cycles) and runs its
    cold first cycle.  The last monitor then runs ``warmup`` unpaced
    cycles (fill the window, then replace the cold contribution cache)
    and ``round(seconds / period_s)`` measured cycles, chunk ``i`` due at
    ``start + i * period_s``; latency runs from the due time to the
    :class:`CycleReport`.  The :data:`DRIFT` onset is the ``onset``-th
    measured cycle (0-based).
    """
    from repro.eval.serialize import decode_stream_checkpoint
    from repro.eval.stream import StreamMonitor, incident_latencies
    from repro.routing import EcmpRouting
    from repro.simulation.failures import make_scenario
    from repro.simulation.stream import replay_stream
    from repro.topology import paper_simulation_clos

    fabric = fabric or paper_simulation_clos
    traced, tracer = tracer is not None, _spans_for(tracer)
    out = Outcome()
    n_cycles = max(4, round(seconds / period_s))
    n_chunks = 1 + warmup + n_cycles
    onset_chunk = min(1 + warmup + onset, n_chunks - 1)
    scenario = make_scenario("gray-drift", start_rate=DRIFT[0], end_rate=DRIFT[1])
    checkpoint = workdir / "stream.ckpt"

    for _ in range(setups):
        t0 = clock()
        topology = fabric()
        routing = EcmpRouting(topology)
        built = clock() - t0
        chunks = replay_stream(
            topology, routing, scenario, seed=seed, n_chunks=n_chunks,
            flows_per_chunk=flows_per_chunk, probes_per_chunk=probes_per_chunk,
            chunk_seconds=period_s, onset_chunk=onset_chunk,
        )
        first = next(chunks)
        t0 = clock()
        monitor = StreamMonitor(
            topology, scheme="flock", window=window, warm=True, seed=seed,
            checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=str(checkpoint),
        )
        report = monitor.step(first)
        out.setup_s.append(built + clock() - t0)
        out.errors.extend(check_prediction(report.prediction, monitor.windowed.problem))

    rest = list(chunks)
    for chunk in rest[:warmup]:
        report = monitor.step(chunk)
        out.errors.extend(check_prediction(report.prediction, monitor.windowed.problem))
    measured = rest[warmup:]
    out.rss_source = reset_peak_rss()

    reports = []
    busy = waited = late = 0.0
    tracer.active = traced
    start = clock()
    for i, chunk in enumerate(measured):
        due = start + i * period_s
        now = clock()
        if now < due:
            time.sleep(due - now)
        out.attempted += 1
        tracer.op = i
        try:
            begin = clock()
            with tracer.span("stream.cycle"):
                report = monitor.step(chunk)
            end = clock()
        except Exception:  # noqa: BLE001 - count it and keep measuring
            out.op_failed(f"cycle {chunk.index}")
            continue
        reports.append(report)
        out.latencies.append(end - due)
        busy += end - begin
        waited += begin - due
        late = max(late, begin - due)
        out.errors.extend(check_prediction(report.prediction, monitor.windowed.problem))
    tracer.active = False
    out.peak_rss_mb = peak_rss_mb(out.rss_source)
    out.ops_per_s = len(reports) / busy if busy else 0.0

    incidents = incident_latencies(reports)
    detected = [inc for inc in incidents if inc["detected_cycle"] is not None]
    if not detected:
        out.error(
            f"the drift was never detected in the {n_cycles - onset} measured "
            f"cycle(s) from its onset (incidents: {incidents}); runs shorter "
            "than the benchmark's --seconds may end before detection"
        )
    try:
        payload = decode_stream_checkpoint(checkpoint.read_text(encoding="utf-8"))
    except Exception as exc:  # noqa: BLE001 - any decode failure fails the run
        out.error(f"final checkpoint does not decode: {exc!r}")
    else:
        want = monitor.cycles - monitor.cycles % CHECKPOINT_EVERY
        if payload["cycles"] != want:
            out.error(f"final checkpoint holds cycle {payload['cycles']}, expected {want}")
    out.counts["eval.stream.checkpoint_bytes"] = (
        checkpoint.stat().st_size if checkpoint.exists() else 0
    )
    total_latency = sum(out.latencies)
    out.counts["eval.stream.queue_wait_share"] = waited / total_latency if total_latency else 0.0
    out.extras.update(
        detect_cycles=(
            detected[0]["latency_cycles"] if detected else float("nan"), "cycles"
        ),
        queue_wait_max_s=(late, "s"),
    )
    return out


# ----------------------------------------------------------------------
# fleet-ci
# ----------------------------------------------------------------------

#: (experiment, overrides): seven shardable experiments, two traces per
#: scheme point, so every baseline scheme and scenario family runs.
FLEET_MIX = (
    ("fig2", {"n_traces": 2}),
    ("fig3", {"n_reps": 2}),
    ("fig5", {"n_traces": 2}),
    ("fig2c", {"n_traces": 2}),
    ("fig4b", {"n_traces": 2}),
    ("fig8a", {"n_traces": 2}),
    ("fig5c", {"n_traces": 2}),
)


def fleet(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    *,
    workdir: Path,
    preset: str = "ci",
    mix=FLEET_MIX,
    round_seconds: float = 8.0,
) -> Outcome:
    """Rounds of submit -> drain -> collect against a fresh broker.

    Each of ``round(seconds / round_seconds)`` rounds submits the mix
    (distinct priorities) to a new SQLite broker, drains it with one
    in-process worker (``wait=False``, heartbeats off so the run stays
    single-threaded) and collects every experiment.  Each round has its
    own experiment seed, so a run averages over several draws of the
    mix's sampled scenarios.  Set-up is submit through the first claim;
    an experiment's latency runs from the start of the submission to its
    last unit done (the next claim after it).  After timing, experiment
    ``i`` of the mix collected in round ``i % rounds`` must equal a
    serial ``run_experiment`` with the same preset and seed.
    """
    from repro.eval import fleet as fleet_api
    from repro.eval.spec import run_experiment

    traced, tracer = tracer is not None, _spans_for(tracer)
    out = Outcome()
    n_rounds = max(1, round(seconds / round_seconds))
    # Far apart: an experiment's traces use consecutive seeds from its own.
    round_seeds = [seed * 1000 + 100 * r for r in range(n_rounds)]
    collected: Dict[int, Dict[str, object]] = {}  # round -> experiment -> rows
    drain = units = makespan = 0.0
    retries = stale = 0
    out.rss_source = reset_peak_rss()
    for r, round_seed in enumerate(round_seeds):
        path = workdir / f"broker-{r}.sqlite"
        claims: List[tuple] = []  # (time, experiment) per claim
        t0 = clock()
        for rank, (name, overrides) in enumerate(mix):
            fleet_api.submit(
                path, name, preset=preset, seed=round_seed, overrides=overrides,
                priority=len(mix) - rank,
            )
        tracer.op = r
        tracer.active = traced
        try:
            with tracer.span("fleet.drain"):
                report = fleet_api.work(
                    path, worker_id="bench", wait=False, heartbeat_seconds=0,
                    on_claim=lambda leased: claims.append((clock(), leased.experiment)),
                )
        except Exception:  # noqa: BLE001 - count it and keep measuring
            tracer.active = False
            out.attempted += max(1, len(claims))
            out.op_failed(f"round {r}: worker")
            continue
        t_drained = clock()
        out.attempted += len(claims)
        out.failed += report.failed + report.stale
        retries += report.io_retries
        stale += report.stale
        results = {}
        for name, _ in mix:
            try:
                with tracer.span("fleet.collect"):
                    results[name] = fleet_api.collect(path, experiment=name).rows
            except Exception:  # noqa: BLE001 - count it and keep measuring
                out.op_failed(f"round {r}: collect {name}")
        tracer.active = False
        makespan += clock() - t0
        collected[r] = results
        if not claims:
            out.error(f"round {r}: the worker claimed nothing")
            continue
        out.setup_s.append(claims[0][0] - t0)
        # One worker drains experiments one after another, by priority:
        # an experiment is done when the worker claims past its last unit.
        done = {}
        for (_, name), (t_next, _) in zip(claims, claims[1:] + [(t_drained, None)]):
            done[name] = t_next
        out.latencies.extend(t - t0 for t in done.values())
        drain += t_drained - claims[0][0]
        units += report.completed
    out.peak_rss_mb = peak_rss_mb(out.rss_source)
    out.ops_per_s = units / drain if drain else 0.0
    out.counts["eval.fleet.io_retries"] = retries
    out.counts["eval.fleet.stale"] = stale
    out.extras["makespan_s"] = (makespan / n_rounds, "s")

    # Correctness after timing: serial runs of the same specs.
    for i, (name, overrides) in enumerate(mix):
        r = i % n_rounds
        results = collected.get(r, {})
        if name not in results:
            continue  # its failure is already counted
        serial = run_experiment(
            name, preset=preset, seed=round_seeds[r], overrides=overrides
        ).rows
        if results[name] != serial:
            out.error(f"round {r}: fleet rows for {name} differ from a serial run")
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "diagnose-paper": diagnose,
    "stream-paper": stream,
    "fleet-ci": fleet,
}

#: Workloads that need a scratch directory for files the program writes.
NEEDS_WORKDIR = {"stream-paper", "fleet-ci"}
