"""Streaming tentpole invariants.

The two load-bearing equivalences:

* **Window = rebuild.** After any number of append/expire cycles a
  :class:`WindowedProblem`'s problem - arrays, indexes, and every
  registered scheme's prediction - is bit-identical to a fresh
  ``from_batch`` over the retained observation rows, and its object
  views and predictions to the uncompressed oracle build of them.
* **Warm = cold.** A :meth:`VectorJleState.rebase`-ed state carries
  exactly the Δ array a cold build at the same hypothesis would have,
  and the warm local search lands on the cold greedy hypothesis at
  convergence (fixed seeds).

Plus the stream driver itself: gray-drift schedules, healthy twins,
and replay determinism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.problem import uncompressed_from_batch
from repro.core.flock import FlockInference
from repro.core.flock_fast import VectorJleState, greedy_local_search
from repro.core.gibbs import GibbsInference
from repro.core.problem import InferenceProblem
from repro.core.window import WindowedProblem
from repro.errors import InferenceError, SimulationError
from repro.eval.experiments import standard_topology
from repro.eval.schemes import make_setup, scheme_names
from repro.eval.stream import StreamMonitor, incident_latencies
from repro.routing import EcmpRouting
from repro.simulation.droprate import FAILED_LINK_MIN_RATE, good_link_rates
from repro.simulation.failures import (
    PER_FLOW,
    GrayDrift,
    SilentLinkDrops,
    make_scenario,
    scenario_names,
)
from repro.simulation.stream import healthy_twin, replay_stream
from repro.telemetry.inputs import build_observation_batch

WINDOW = 3
N_CHUNKS = 6


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _stream_chunks(topo, routing, scenario_name="silent-link-drops", seed=17):
    return list(
        replay_stream(
            topo, routing, make_scenario(scenario_name),
            seed=seed, n_chunks=N_CHUNKS,
            flows_per_chunk=150, probes_per_chunk=40,
        )
    )


def _obs_stream(chunks, telemetry, seed=17):
    return [
        build_observation_batch(
            c.batch, telemetry, np.random.default_rng(seed + 0x5EED + c.index)
        )
        for c in chunks
    ]


#: Every kernel-facing array the set stage produces.
KERNEL_ARRAYS = (
    "path_comps", "path_off", "_set_of_flow",
    "_set_ecomps", "_set_eoff", "_iset_of_set",
    "_iset_upids", "_iset_uoff", "_iset_umult",
    "_iu_comps", "_iu_bounds",
    "_set_union_comps", "_set_union_bounds",
)

#: The per-component queries, compared for every component id.
COMP_ACCESSORS = ("comp_path_ids", "comp_eset_ids", "comp_flows")


def _assert_problems_identical(win: InferenceProblem, ref: InferenceProblem):
    assert bool(len(win._set_ecomps)) == bool(len(ref._set_ecomps))
    for name in KERNEL_ARRAYS:
        got, want = getattr(win, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    for name in COMP_ACCESSORS:
        for comp in range(win.n_components):
            got = getattr(win, name)(comp)
            want = getattr(ref, name)(comp)
            assert got.dtype == want.dtype, (name, comp)
            assert np.array_equal(got, want), (name, comp)
    _assert_views_identical(win, ref)


def _assert_views_identical(win: InferenceProblem, ref: InferenceProblem):
    assert win.flow_paths == ref.flow_paths
    assert list(win.path_table) == list(ref.path_table)
    assert np.array_equal(win.bad_packets, ref.bad_packets)
    assert np.array_equal(win.packets_sent, ref.packets_sent)
    assert np.array_equal(win.weights, ref.weights)
    assert np.array_equal(win.exact, ref.exact)
    assert win.kinds == ref.kinds
    assert win.flows_by_comp == ref.flows_by_comp
    assert win.observed_components == ref.observed_components


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("compressed", [True, False])
def test_window_matches_rebuild_for_every_scheme(
    tiny_world, scheme, compressed
):
    """After several append/expire cycles every scheme's prediction on
    the windowed problem is bit-identical to one on a fresh rebuild of
    the retained rows: ``from_batch``, whose problem is identical array
    for array, or the uncompressed oracle build, whose object views
    are."""
    topo, routing = tiny_world
    setup = make_setup(scheme)
    chunks = _stream_chunks(topo, routing)
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=WINDOW)
    rebuild = InferenceProblem.from_batch if compressed else uncompressed_from_batch
    same = _assert_problems_identical if compressed else _assert_views_identical
    for cycle, obs in enumerate(_obs_stream(chunks, setup.telemetry)):
        update = windowed.append(obs)
        rebuilt = rebuild(
            windowed.retained_observations(), topo.n_components, topo.n_links
        )
        same(update.problem, rebuilt)
        if cycle < N_CHUNKS - 1:
            continue  # predictions only checked on the final window
        win_pred = setup.localizer.localize(update.problem)
        ref_pred = setup.localizer.localize(rebuilt)
        assert win_pred.components == ref_pred.components
        assert win_pred.scores == ref_pred.scores
        assert win_pred.log_likelihood == ref_pred.log_likelihood


def _small_chunk_obs(topo, routing, telemetry, seed, n_flows):
    """Observations of one tiny chunk: a handful of flows covers few
    rack pairs, so later chunks keep bringing interior keys the window
    has not seen."""
    (chunk,) = replay_stream(
        topo, routing, make_scenario("silent-link-drops"), seed=seed,
        n_chunks=1, flows_per_chunk=n_flows, probes_per_chunk=n_flows % 5,
    )
    return build_observation_batch(
        chunk.batch, telemetry, np.random.default_rng(seed)
    )


@given(
    seed=st.integers(0, 2**16),
    window=st.integers(1, 5),
    sizes=st.lists(st.integers(1, 30), min_size=2, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_window_equals_rebuild_while_keys_keep_arriving(
    tiny_world, seed, window, sizes
):
    """Property: whatever the window size and however the set-stage
    cache grew mid-stream, every appended window's problem equals a
    from_batch rebuild of the retained rows, array for array."""
    topo = tiny_world[0]
    routing = EcmpRouting(topo)  # a fresh PathSpace per example
    telemetry = make_setup("flock").telemetry
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=window)
    for index, n_flows in enumerate(sizes):
        obs = _small_chunk_obs(topo, routing, telemetry, seed + index, n_flows)
        update = windowed.append(obs)
        rebuilt = InferenceProblem.from_batch(
            windowed.retained_observations(), topo.n_components, topo.n_links
        )
        _assert_problems_identical(update.problem, rebuilt)


def test_set_stage_cache_interns_unions_mid_stream(tiny_world):
    """The space's union memo, which every window build gathers from,
    keeps interning interiors after the first cycle, and every memoized
    union is the sorted union of its members' components."""
    topo = tiny_world[0]
    routing = EcmpRouting(topo)
    space = routing.path_space()
    telemetry = make_setup("flock").telemetry
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=2)
    n_keys = []
    for index in range(6):
        windowed.append(_small_chunk_obs(topo, routing, telemetry, index, 4))
        n_keys.append(space._unions.n_rows)
    assert n_keys[-1] > n_keys[0]
    rows = space._union_row.gather(np.arange(space.n_comp_sets))
    memoized = np.flatnonzero(rows >= 0)
    assert np.array_equal(np.sort(rows[memoized]), np.arange(n_keys[-1]))
    u_flat, u_off = space.comp_set_unions(memoized)
    for key, gsid in enumerate(memoized.tolist()):
        members = space.comp_set(gsid).tolist()
        want = sorted({c for g in members for c in space.comp_path(g)})
        assert u_flat[u_off[key]:u_off[key + 1]].tolist() == want


def test_rebased_state_matches_cold_rebuild(tiny_world):
    """Rebased Δ equals a cold state's Δ at the same hypothesis, every
    cycle, and warm local search lands on the cold greedy answer."""
    topo, routing = tiny_world
    setup = make_setup("flock")
    localizer = setup.localizer
    chunks = _stream_chunks(topo, routing)
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=WINDOW)
    state = None
    for obs in _obs_stream(chunks, setup.telemetry):
        update = windowed.append(obs)
        problem = update.problem
        if state is None:
            state = VectorJleState(problem, localizer.params)
        else:
            state = VectorJleState.rebase(
                problem, state,
                update.removed_flows, update.removed_weights,
                update.added_flows, update.added_weights,
            )
            # cold state walked to the carried hypothesis
            cold = VectorJleState(problem, localizer.params)
            for comp in sorted(state.hypothesis):
                cold.flip(comp)
            np.testing.assert_allclose(
                state.delta, cold.delta, rtol=1e-9, atol=1e-9
            )
            assert state.ll == pytest.approx(cold.ll)
        warm_pred = greedy_local_search(
            state, np.asarray(problem.observed_components, dtype=np.int64)
        )
        cold_pred = localizer.localize(problem)
        assert warm_pred.components == cold_pred.components
        assert warm_pred.log_likelihood == pytest.approx(
            cold_pred.log_likelihood
        )


def test_stream_monitor_warm_agrees_with_cold(tiny_world):
    """The monitor's warm steady-state predictions match a cold monitor
    cycle for cycle (greedy converges to the same hypothesis)."""
    topo, routing = tiny_world
    warm = StreamMonitor(topo, scheme="flock", window=WINDOW, seed=17)
    cold = StreamMonitor(
        topo, scheme="flock", window=WINDOW, warm=False, seed=17
    )
    warm_reports = warm.run(_stream_chunks(topo, routing))
    cold_reports = cold.run(_stream_chunks(topo, routing))
    assert warm.warm and not cold.warm
    for w, c in zip(warm_reports, cold_reports):
        assert w.prediction.components == c.prediction.components
        assert w.grouped_flows == c.grouped_flows


def test_stream_monitor_gibbs_warm_runs(tiny_world):
    """Gibbs accepts the rebased state as its initial chain state."""
    from repro.eval.harness import SchemeSetup
    from repro.telemetry.inputs import TelemetryConfig

    topo, routing = tiny_world
    setup = SchemeSetup(
        "flock-gibbs", GibbsInference(), TelemetryConfig.from_spec("A1+A2+P")
    )
    monitor = StreamMonitor(topo, window=2, seed=17, setup=setup)
    assert monitor.warm
    reports = monitor.run(_stream_chunks(topo, routing)[:3])
    assert len(reports) == 3


def test_detection_latency_of_mid_stream_incident(tiny_world):
    """A flap turning on mid-stream is detected and reported with a
    finite onset latency; churn spikes only at hypothesis changes."""
    topo, routing = tiny_world
    chunks = list(
        replay_stream(
            topo, routing, make_scenario("link-flap"),
            seed=7, n_chunks=N_CHUNKS, flows_per_chunk=150,
            probes_per_chunk=40, onset_chunk=2, clear_chunk=5,
        )
    )
    assert all(not c.injection.ground_truth.failed_components
               for c in chunks[:2])
    assert all(c.injection.ground_truth.failed_components
               for c in chunks[2:5])
    monitor = StreamMonitor(topo, scheme="flock", window=WINDOW, seed=7)
    reports = monitor.run(chunks)
    incidents = incident_latencies(reports)
    assert len(incidents) == 1
    inc = incidents[0]
    assert inc["onset_cycle"] == 2 and inc["clear_cycle"] == 5
    assert inc["detected_cycle"] is not None
    assert inc["latency_cycles"] >= 0
    assert inc["latency_seconds"] == pytest.approx(
        reports[inc["detected_cycle"]].t_end - reports[2].t_start
    )


def test_gray_drift_registered_and_drifts():
    assert "gray-drift" in scenario_names()
    topo = standard_topology("tiny")
    scenario = GrayDrift()
    schedule = scenario.inject_schedule(topo, np.random.default_rng(3), 5)
    assert len(schedule) == 5
    base = good_link_rates(topo, np.random.default_rng(3))
    drifting = np.nonzero(schedule[-1].plan.rates != base.rates)[0]
    assert len(drifting) == scenario.n_links
    rates = np.array([inj.plan.rates[drifting] for inj in schedule])
    assert np.all(np.diff(rates, axis=0) >= 0)  # monotone drift
    np.testing.assert_allclose(rates[0], scenario.start_rate)
    np.testing.assert_allclose(rates[-1], scenario.end_rate)
    # ground truth tracks the failed-rate threshold per step
    for inj, step in zip(schedule, rates):
        expect = {
            int(link) for link, rate in zip(drifting, step)
            if rate >= FAILED_LINK_MIN_RATE
        }
        assert set(inj.ground_truth.failed_links) == expect
        assert set(inj.ground_truth.drop_rates) == expect
    assert not schedule[0].ground_truth.failed_components
    assert schedule[-1].ground_truth.failed_components
    # single-shot inject() is the fully-drifted endpoint
    single = scenario.inject(topo, np.random.default_rng(3))
    assert np.array_equal(single.plan.rates, schedule[-1].plan.rates)


def test_default_schedule_repeats_single_injection(tiny_world):
    topo, _ = tiny_world
    scenario = SilentLinkDrops()
    schedule = scenario.inject_schedule(topo, np.random.default_rng(5), 4)
    assert len(schedule) == 4
    assert all(inj is schedule[0] for inj in schedule)
    assert np.array_equal(
        schedule[0].plan.rates,
        scenario.inject(topo, np.random.default_rng(5)).plan.rates,
    )
    with pytest.raises(SimulationError):
        scenario.inject_schedule(topo, np.random.default_rng(5), 0)


def test_healthy_twin_zeroes_fault_state(tiny_world):
    topo, _ = tiny_world
    injection = make_scenario("link-flap").inject(
        topo, np.random.default_rng(9)
    )
    twin = healthy_twin(injection)
    assert not twin.ground_truth.failed_components
    assert not twin.ground_truth.drop_rates
    assert not twin.flapped_links
    assert twin.analysis == injection.analysis == PER_FLOW
    assert twin.latency_model is injection.latency_model
    for link in injection.flapped_links:
        assert twin.plan.rates[link] == 0.0


def test_replay_stream_is_deterministic(tiny_world):
    topo, routing = tiny_world
    first = _stream_chunks(topo, routing, "gray-drift", seed=23)
    second = _stream_chunks(topo, routing, "gray-drift", seed=23)
    for a, b in zip(first, second):
        assert a.t_start == b.t_start and a.t_end == b.t_end
        assert np.array_equal(a.batch.bad, b.batch.bad)
        assert np.array_equal(a.batch.path_set, b.batch.path_set)
        assert np.array_equal(a.batch.t_start, b.batch.t_start)
        assert np.array_equal(a.injection.plan.rates, b.injection.plan.rates)


def test_warm_state_must_match_problem(tiny_world):
    topo, routing = tiny_world
    setup = make_setup("flock")
    obs = _obs_stream(_stream_chunks(topo, routing), setup.telemetry)
    windowed = WindowedProblem(topo.n_components, topo.n_links, window=2)
    first = windowed.append(obs[0]).problem
    state = VectorJleState(first, setup.localizer.params)
    second = windowed.append(obs[1]).problem
    with pytest.raises(InferenceError):
        setup.localizer.localize(second, warm_state=state)
    with pytest.raises(InferenceError):
        GibbsInference().localize(second, initial_state=state)
