"""Tests for drop-rate plans, failure scenarios, and the flow simulator."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.eval.experiments import standard_topology
from repro.eval.scenarios import make_trace
from repro.routing import EcmpRouting, PathSpace
from repro.simulation import (
    DropRatePlan,
    FlowLevelSimulator,
    LinkFlap,
    NoFailure,
    QueueMisconfig,
    SilentDeviceFailure,
    SilentLinkDrops,
    empirical_link_loss,
    fail_links,
    good_link_rates,
)
from repro.simulation.failures import PER_FLOW, PER_PACKET
from repro.simulation.flowsim import _path_survivals
from repro.topology import fat_tree
from repro.traffic import (
    FlowSpec,
    SpecBatch,
    UniformTraffic,
    generate_passive_flows,
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


def _simulate(topo, specs, injection, rng):
    """Object specs through the batch simulator, as object records."""
    space = PathSpace(topo, EcmpRouting(topo))
    return FlowLevelSimulator(topo).simulate_batch(
        SpecBatch.from_specs(specs, space), injection, rng
    ).records()


class TestFlowSimulator:
    def test_zero_rates_no_drops(self, small_fat_tree, ft_routing, rng):
        injection = NoFailure().inject(small_fat_tree, rng)
        zero_plan = DropRatePlan(
            small_fat_tree, np.zeros(small_fat_tree.n_links)
        )
        injection = type(injection)(
            ground_truth=injection.ground_truth, plan=zero_plan
        )
        matrix = UniformTraffic(small_fat_tree)
        specs = generate_passive_flows(ft_routing, matrix, 300, rng)
        records = _simulate(small_fat_tree, specs, injection, rng)
        assert all(r.bad_packets == 0 for r in records)

    def test_total_loss_link(self, small_fat_tree, ft_routing, rng):
        # A link with rate 1.0 makes every flow crossing it all-bad.
        topo = small_fat_tree
        rates = np.zeros(topo.n_links)
        victim = topo.switch_switch_links()[0]
        rates[victim] = 1.0
        plan = DropRatePlan(topo, rates)
        injection = NoFailure().inject(topo, rng)
        injection = type(injection)(
            ground_truth=injection.ground_truth, plan=plan
        )
        matrix = UniformTraffic(topo)
        specs = generate_passive_flows(ft_routing, matrix, 500, rng)
        records = _simulate(topo, specs, injection, rng)
        for record in records:
            links = {
                topo.link_id(u, v)
                for u, v in zip(record.path, record.path[1:])
            }
            if victim in links:
                assert record.bad_packets == record.packets_sent
            else:
                assert record.bad_packets == 0

    def test_chosen_path_comes_from_spec(self, small_fat_tree, ft_routing, rng):
        matrix = UniformTraffic(small_fat_tree)
        specs = generate_passive_flows(ft_routing, matrix, 100, rng)
        injection = NoFailure().inject(small_fat_tree, rng)
        records = _simulate(small_fat_tree, specs, injection, rng)
        for spec, record in zip(specs, records):
            assert record.path in spec.paths
            assert record.src == spec.src

    def test_empirical_rate_tracks_plan(self, small_fat_tree, ft_routing):
        # With heavy probing of a single lossy path, the observed loss
        # rate converges to the planned drop probability.
        topo = small_fat_tree
        rng = np.random.default_rng(7)
        rates = np.zeros(topo.n_links)
        victim = topo.switch_switch_links()[0]
        rates[victim] = 0.02
        plan = DropRatePlan(topo, rates)
        injection = NoFailure().inject(topo, rng)
        injection = type(injection)(
            ground_truth=injection.ground_truth, plan=plan
        )
        u, v = topo.endpoints(victim)
        # Build a deterministic flow crossing the victim link.
        host = next(
            h for h in topo.hosts
            if any(n in (u, v) for n, _ in topo.neighbors(h))
        )
        rack = topo.rack_of(host)
        path = (host, u, v) if rack == u else (host, v, u)
        specs = [
            FlowSpec(src=host, dst=path[-1], packets=1000, paths=(path,))
            for _ in range(200)
        ]
        records = _simulate(topo, specs, injection, rng)
        total_bad = sum(r.bad_packets for r in records)
        total = sum(r.packets_sent for r in records)
        assert total_bad / total == pytest.approx(0.02, rel=0.2)

    def test_empirical_link_loss_index(self, drop_trace):
        loss = empirical_link_loss(drop_trace.topology, drop_trace.records)
        for link, (bad, total) in loss.items():
            assert 0 <= bad
            assert total > 0

    def test_empty_specs(self, small_fat_tree, rng):
        injection = NoFailure().inject(small_fat_tree, rng)
        assert _simulate(small_fat_tree, [], injection, rng) == []


# --- simulator RNG stream ---------------------------------------------

@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _spec_batch(tiny_world, seed, n_flows=800):
    topo, routing = tiny_world
    rng = np.random.default_rng(seed)
    injection = SilentLinkDrops(n_failures=2, min_rate=4e-3).inject(topo, rng)
    specs = generate_passive_flows(
        routing, UniformTraffic(topo), n_flows, rng
    )
    space = PathSpace(topo, routing)
    return SpecBatch.from_specs(specs, space), injection


def test_simulation_is_deterministic_per_seed(tiny_world):
    topo, _ = tiny_world
    batch, injection = _spec_batch(tiny_world, seed=11)
    sim = FlowLevelSimulator(topo)
    a = sim.simulate_batch(batch, injection, np.random.default_rng(5))
    b = sim.simulate_batch(batch, injection, np.random.default_rng(5))
    assert np.array_equal(a.bad, b.bad)
    assert np.array_equal(a.chosen_path, b.chosen_path)
    c = sim.simulate_batch(batch, injection, np.random.default_rng(6))
    assert not np.array_equal(a.bad, c.bad)


def test_simulation_is_valid_and_unbiased(tiny_world):
    """Every chosen path is a member of its flow's set, and the mean
    total of bad packets over many seeds matches its exact expectation.

    A flow of ``n`` packets picks one of its set's ``k`` paths
    uniformly, so its bad count is a binomial mixture with mean
    ``n * mean(p)`` and variance ``mean(n p (1 - p)) + n^2 var(p)``
    over the member drop probabilities ``p``.
    """
    topo, _ = tiny_world
    batch, injection = _spec_batch(tiny_world, seed=11)
    sim = FlowLevelSimulator(topo)
    space = batch.space
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
        out = sim.simulate_batch(batch, injection, np.random.default_rng(seed))
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
