"""Tests for drop-rate plans, failure scenarios, and the flow simulator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.telemetry import records_of
from repro.errors import SimulationError, TrafficError
from repro.eval.experiments import standard_topology
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting, PathSpace
from repro.simulation import (
    DropRatePlan,
    LinkFlap,
    NoFailure,
    QueueMisconfig,
    SilentDeviceFailure,
    SilentLinkDrops,
    empirical_link_loss,
    fail_links,
    good_link_rates,
    simulate_batch,
)
from repro.simulation.failures import (
    PER_FLOW,
    PER_PACKET,
    make_scenario,
    scenario_names,
)
from repro.simulation.flowsim import _path_survivals
from repro.traffic import (
    SpecBatch,
    UniformTraffic,
    a1_probe_batch,
    generate_passive_flow_batch,
)


class TestDropRatePlan:
    def test_validation(self, small_fat_tree):
        with pytest.raises(SimulationError):
            DropRatePlan(small_fat_tree, np.zeros(3))
        with pytest.raises(SimulationError):
            DropRatePlan(
                small_fat_tree, np.full(small_fat_tree.n_links, 1.5)
            )

    def test_good_rates_bounded(self, small_fat_tree, rng):
        plan = good_link_rates(small_fat_tree, rng, max_rate=1e-4)
        assert plan.rates.max() <= 1e-4
        assert plan.rates.min() >= 0.0

    def test_fail_links_overrides(self, small_fat_tree, rng):
        plan = good_link_rates(small_fat_tree, rng)
        failed = [0, 5]
        plan2 = fail_links(plan, failed, rng, 1e-3, 1e-2)
        for link in failed:
            assert 1e-3 <= plan2.rate(link) <= 1e-2
        # Other links untouched.
        assert plan2.rate(1) == plan.rate(1)

    def test_path_drop_probability(self, small_fat_tree):
        rates = np.zeros(small_fat_tree.n_links)
        u, v = small_fat_tree.endpoints(0)
        rates[0] = 0.5
        plan = DropRatePlan(small_fat_tree, rates)
        assert plan.path_drop_probability((u, v)) == pytest.approx(0.5)
        # Bounce path crosses the link twice: 1 - 0.25.
        assert plan.path_drop_probability((u, v, u)) == pytest.approx(0.75)

    def test_rates_read_only(self, small_fat_tree, rng):
        plan = good_link_rates(small_fat_tree, rng)
        with pytest.raises(ValueError):
            plan.rates[0] = 0.9


class TestScenarios:
    def test_silent_link_drops(self, small_fat_tree, rng):
        injection = SilentLinkDrops(n_failures=3).inject(small_fat_tree, rng)
        truth = injection.ground_truth
        assert len(truth.failed_links) == 3
        fabric = set(small_fat_tree.switch_switch_links())
        for link in truth.failed_links:
            assert link in fabric
            assert 1e-3 <= injection.plan.rate(link) <= 1e-2
        assert injection.analysis == PER_PACKET

    def test_device_failure(self, small_fat_tree, rng):
        injection = SilentDeviceFailure(n_devices=2).inject(small_fat_tree, rng)
        truth = injection.ground_truth
        assert len(truth.failed_devices) == 2
        assert not truth.failed_links
        # The affected links got elevated rates.
        assert truth.drop_rates
        for link, rate in truth.drop_rates.items():
            assert rate >= 1e-3

    def test_device_failure_fraction_bounds(self, small_fat_tree):
        scenario = SilentDeviceFailure(
            n_devices=1, min_link_fraction=1.0, max_link_fraction=1.0
        )
        injection = scenario.inject(small_fat_tree, np.random.default_rng(0))
        device = next(iter(injection.ground_truth.failed_devices))
        node = small_fat_tree.component_device(device)
        assert set(injection.ground_truth.drop_rates) == set(
            small_fat_tree.device_links(node)
        )

    def test_queue_misconfig_effective_rate(self, small_fat_tree, rng):
        scenario = QueueMisconfig(n_links=1, utilization=0.6)
        injection = scenario.inject(small_fat_tree, rng)
        link = next(iter(injection.ground_truth.failed_links))
        assert injection.plan.rate(link) == pytest.approx(0.01 * 0.6)

    def test_link_flap(self, small_fat_tree, rng):
        injection = LinkFlap(n_links=1).inject(small_fat_tree, rng)
        assert injection.analysis == PER_FLOW
        assert injection.flapped_links == injection.ground_truth.failed_links
        assert injection.latency_model is not None
        # No drop-rate elevation on flapped links.
        for link in injection.flapped_links:
            assert injection.plan.rate(link) <= 1e-4

    def test_no_failure(self, small_fat_tree, rng):
        injection = NoFailure().inject(small_fat_tree, rng)
        assert not injection.ground_truth.has_failures

    def test_too_many_failures(self, small_fat_tree, rng):
        n_fabric = len(small_fat_tree.switch_switch_links())
        with pytest.raises(SimulationError):
            SilentLinkDrops(n_failures=n_fabric + 1).inject(small_fat_tree, rng)


def _with_plan(topo, rng, rates):
    """A no-failure injection whose drop-rate plan is ``rates``."""
    injection = NoFailure().inject(topo, rng)
    return type(injection)(
        ground_truth=injection.ground_truth, plan=DropRatePlan(topo, rates)
    )


def _passive_and_probes(topo, routing, rng, n_flows, n_probes):
    """Production traffic: factored passive pair sets plus plain probe
    sets, over a fresh path space."""
    space = PathSpace(topo, routing)
    return SpecBatch.concat([
        generate_passive_flow_batch(UniformTraffic(topo), n_flows, rng, space),
        a1_probe_batch(routing, n_probes, rng, space),
    ])


def _plain_pair_sets(space, routing, src, dst):
    """Passive flows whose ECMP sets are interned *plain* (whole member
    lists, as a hand-built batch may): multi-member sets for the
    simulator's plain pricing branch, which production probes reach
    only with one member."""
    n = len(src)
    return SpecBatch(
        space=space, src=src, dst=dst,
        packets=np.full(n, 20, dtype=np.int64),
        path_set=np.fromiter(
            (space.intern_set(routing.host_paths(s, d))
             for s, d in zip(src.tolist(), dst.tolist())),
            dtype=np.int64, count=n,
        ),
        is_probe=np.zeros(n, dtype=bool),
    )


def _path_links(topo, space, pid):
    nodes = space.path_nodes(int(pid))
    return {topo.link_id(u, v) for u, v in zip(nodes, nodes[1:])}


class TestFlowSimulator:
    def test_zero_rates_no_drops(self, small_fat_tree, ft_routing, rng):
        injection = _with_plan(
            small_fat_tree, rng, np.zeros(small_fat_tree.n_links)
        )
        specs = _passive_and_probes(small_fat_tree, ft_routing, rng, 300, 60)
        out = simulate_batch(specs, injection, rng)
        assert len(out) == 360
        assert not out.bad.any()

    def test_total_loss_link(self, small_fat_tree, ft_routing, rng):
        # A link with rate 1.0 makes every flow whose *chosen* path
        # crosses it all-bad, and every other flow clean.
        topo = small_fat_tree
        rates = np.zeros(topo.n_links)
        victim = topo.switch_switch_links()[0]
        rates[victim] = 1.0
        injection = _with_plan(topo, rng, rates)
        produced = _passive_and_probes(topo, ft_routing, rng, 500, 100)
        src, dst = UniformTraffic(topo).sample_pair_arrays(300, rng)
        specs = SpecBatch.concat([
            produced,
            _plain_pair_sets(produced.space, ft_routing, src, dst),
        ])
        out = simulate_batch(specs, injection, rng)
        crosses = np.array([
            victim in _path_links(topo, specs.space, pid)
            for pid in out.chosen_path.tolist()
        ])
        # Both outcomes occur among factored passive sets, pinned
        # probes and plain multi-path sets alike.
        passive, probes = crosses[:len(produced)], crosses[len(produced):]
        probe = produced.is_probe
        for group in (passive[~probe], passive[probe], probes):
            assert group.any() and not group.all()
        assert np.array_equal(out.bad[crosses], out.packets[crosses])
        assert not out.bad[~crosses].any()

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_total_loss_host_link(self, small_fat_tree, ft_routing, rng, side):
        # Factored pair sets price their host links apart from the
        # switch-level middle segment: a dead host link must sink every
        # flow leaving (or entering) that host, whatever middle it took.
        topo = small_fat_tree
        host = topo.hosts[0]
        others = [h for h in topo.hosts if h != host]
        rates = np.zeros(topo.n_links)
        rates[topo.link_id(host, topo.rack_of(host))] = 1.0
        injection = _with_plan(topo, rng, rates)
        # Every flow to or from ``host`` runs in one direction; the
        # background traffic avoids it.
        ends = np.repeat(np.asarray(others, dtype=np.int64), 5)
        hosts = np.full(len(ends), host, dtype=np.int64)
        src, dst = (hosts, ends) if side == "src" else (ends, hosts)
        bg_src, bg_dst = UniformTraffic(topo).sample_pair_arrays(400, rng)
        keep = (bg_src != host) & (bg_dst != host)
        src = np.concatenate([src, bg_src[keep]])
        dst = np.concatenate([dst, bg_dst[keep]])
        space = PathSpace(topo, ft_routing)
        specs = SpecBatch(
            space=space, src=src, dst=dst,
            packets=np.full(len(src), 30, dtype=np.int64),
            path_set=space.pair_sets(src, dst),
            is_probe=np.zeros(len(src), dtype=bool),
        )
        switch_sid, _, _ = space.pair_set_columns(specs.path_set)
        assert (switch_sid >= 0).any()  # factored sets are exercised
        out = simulate_batch(specs, injection, rng)
        touches = (src == host) | (dst == host)
        assert touches.sum() == len(ends)
        assert np.array_equal(out.bad[touches], out.packets[touches])
        assert not out.bad[~touches].any()

    def test_chosen_path_comes_from_spec(self, small_fat_tree, ft_routing, rng):
        specs = _passive_and_probes(small_fat_tree, ft_routing, rng, 100, 30)
        injection = NoFailure().inject(small_fat_tree, rng)
        out = simulate_batch(specs, injection, rng)
        assert np.array_equal(out.src, specs.src)
        assert np.array_equal(out.path_set, specs.path_set)
        for sid, pid in zip(specs.path_set.tolist(), out.chosen_path.tolist()):
            assert pid in specs.space.set_path_ids(sid)

    def test_empirical_rate_tracks_plan(self, small_fat_tree, ft_routing):
        # With heavy probing of a single lossy path, the observed loss
        # rate converges to the planned drop probability.
        topo = small_fat_tree
        rng = np.random.default_rng(7)
        rates = np.zeros(topo.n_links)
        victim = topo.switch_switch_links()[0]
        rates[victim] = 0.02
        injection = _with_plan(topo, rng, rates)
        u, v = topo.endpoints(victim)
        # Build a deterministic flow crossing the victim link.
        host = next(
            h for h in topo.hosts
            if any(n in (u, v) for n, _ in topo.neighbors(h))
        )
        rack = topo.rack_of(host)
        path = (host, u, v) if rack == u else (host, v, u)
        space = PathSpace(topo, ft_routing)
        n = 200
        specs = SpecBatch(
            space=space,
            src=np.full(n, host, dtype=np.int64),
            dst=np.full(n, path[-1], dtype=np.int64),
            packets=np.full(n, 1000, dtype=np.int64),
            path_set=np.full(n, space.intern_set((path,)), dtype=np.int64),
            is_probe=np.ones(n, dtype=bool),
        )
        out = simulate_batch(specs, injection, rng)
        assert out.bad.sum() / out.packets.sum() == pytest.approx(0.02, rel=0.2)

    def test_empirical_link_loss_index(self, drop_trace):
        loss = empirical_link_loss(drop_trace.batch)
        for link, (bad, total) in loss.items():
            assert 0 <= bad
            assert total > 0
        pathless = drop_trace.batch.slice(0, 3)
        pathless = dataclasses.replace(
            pathless, chosen_path=np.array([0, -1, 0])
        )
        with pytest.raises(SimulationError, match="known path"):
            empirical_link_loss(pathless)

    def test_empty_specs(self, small_fat_tree, ft_routing, rng):
        injection = NoFailure().inject(small_fat_tree, rng)
        space = PathSpace(small_fat_tree, ft_routing)
        out = simulate_batch(SpecBatch.empty(space), injection, rng)
        assert len(out) == 0
        assert records_of(out) == []
        assert empirical_link_loss(out) == {}


# --- simulator RNG stream ---------------------------------------------

@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _spec_batch(tiny_world, seed, n_flows=800, n_probes=200):
    topo, routing = tiny_world
    rng = np.random.default_rng(seed)
    injection = SilentLinkDrops(n_failures=2, min_rate=4e-3).inject(topo, rng)
    return _passive_and_probes(topo, routing, rng, n_flows, n_probes), injection


def test_simulation_is_deterministic_per_seed(tiny_world):
    batch, injection = _spec_batch(tiny_world, seed=11)
    a = simulate_batch(batch, injection, np.random.default_rng(5))
    b = simulate_batch(batch, injection, np.random.default_rng(5))
    assert np.array_equal(a.bad, b.bad)
    assert np.array_equal(a.chosen_path, b.chosen_path)
    c = simulate_batch(batch, injection, np.random.default_rng(6))
    assert not np.array_equal(a.bad, c.bad)


def test_simulation_is_valid_and_unbiased(tiny_world):
    """Every chosen path is a member of its flow's set, and the mean
    total of bad packets over many seeds matches its exact expectation.

    The batch mixes factored passive pair sets with plain pinned probe
    sets, so both pricing branches of the simulator run.  A flow of
    ``n`` packets picks one of its set's ``k`` paths uniformly, so its
    bad count is a binomial mixture with mean ``n * mean(p)`` and
    variance ``mean(n p (1 - p)) + n^2 var(p)`` over the member drop
    probabilities ``p``.
    """
    batch, injection = _spec_batch(tiny_world, seed=11)
    space = batch.space
    switch_sid, _, _ = space.pair_set_columns(batch.path_set)
    assert (switch_sid >= 0).any() and (switch_sid < 0).any()
    members = {
        sid: space.set_path_ids(sid)
        for sid in np.unique(batch.path_set).tolist()
    }
    drop = 1.0 - _path_survivals(space, injection.plan)
    n = batch.packets.astype(np.float64)
    mean_p = np.empty(len(batch))
    var_p = np.empty(len(batch))
    within = np.empty(len(batch))
    for i, sid in enumerate(batch.path_set.tolist()):
        p = drop[members[sid]]
        mean_p[i] = p.mean()
        var_p[i] = p.var()
        within[i] = (p * (1.0 - p)).mean()
    expected = float(np.sum(n * mean_p))
    variance = float(np.sum(n * within + n * n * var_p))

    # (set id, member path id) pairs, packed for one isin per draw.
    width = len(drop)
    member_keys = np.concatenate(
        [sid * width + pids for sid, pids in members.items()]
    )
    n_seeds = 200
    totals = np.empty(n_seeds)
    for seed in range(n_seeds):
        out = simulate_batch(batch, injection, np.random.default_rng(seed))
        keys = batch.path_set * width + out.chosen_path
        assert np.isin(keys, member_keys).all()
        totals[seed] = out.bad.sum()
    z = (totals.mean() - expected) / np.sqrt(variance / n_seeds)
    assert expected > 0
    assert abs(z) < 4.0, z


def test_rng_mode_rejects_unknown(tiny_world):
    topo, routing = tiny_world
    scenario = SilentLinkDrops(n_failures=1)
    make_trace(topo, routing, scenario, seed=5, n_passive=10, n_probes=0,
               rng_mode="vectorized")
    with pytest.raises(ValueError, match="rng_mode"):
        make_trace(topo, routing, scenario, seed=5, n_passive=10,
                   n_probes=0, rng_mode="grouped")


@pytest.mark.parametrize("n_passive, n_probes", [(-1, 0), (0, -1), (-5, 10)])
def test_negative_flow_counts_raise(tiny_world, n_passive, n_probes):
    topo, routing = tiny_world
    with pytest.raises(TrafficError, match="non-negative"):
        make_trace(topo, routing, NoFailure(), seed=1,
                   n_passive=n_passive, n_probes=n_probes)


def _link_loss_per_record(topology, records):
    """The per-record definition of :func:`empirical_link_loss`."""
    totals = {}
    for record in records:
        for u, v in zip(record.path, record.path[1:]):
            link = topology.link_id(u, v)
            bad, total = totals.get(link, (0, 0))
            totals[link] = (bad + record.bad_packets,
                            total + record.packets_sent)
    return totals


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_passive=st.integers(0, 300),
    n_probes=st.integers(0, 60),
    scenario=st.sampled_from(scenario_names()),
)
def test_empirical_link_loss_matches_per_record_loop(
    tiny_world, seed, n_passive, n_probes, scenario
):
    topo, routing = tiny_world
    batch = make_trace(
        topo, routing, make_scenario(scenario), seed=seed,
        n_passive=n_passive, n_probes=n_probes,
    ).batch
    got = empirical_link_loss(batch)
    assert got == _link_loss_per_record(topo, records_of(batch))
    assert all(type(v) is int for pair in got.values() for v in pair)
