"""Tests for trace serialization and the six-scenario dataset."""

import json

import numpy as np
import pytest

from oracles.problem import object_problem
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.core.problem import InferenceProblem
from repro.errors import ExperimentError
from repro.eval.dataset import (
    FORMAT_TAG,
    generate_suite,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.eval.experiments import standard_topology
from repro.eval.harness import build_problem
from repro.eval.scenarios import make_trace
from repro.eval.schemes import make_setup, scheme_names
from repro.routing import EcmpRouting
from repro.simulation.failures import (
    PER_FLOW,
    SilentLinkDrops,
    make_scenario,
    scenario_names,
)
from repro.telemetry import TelemetryConfig
from repro.telemetry.inputs import build_observation_batch
from repro.types import FlowBatch

#: Every array a problem's kernels and views are built from.
PROBLEM_ARRAYS = (
    "path_comps", "path_off", "_set_of_flow",
    "_set_ecomps", "_set_eoff", "_iset_of_set",
    "_iset_upids", "_iset_uoff", "_iset_umult",
    "_iu_comps", "_iu_bounds",
    "bad_packets", "packets_sent", "weights", "exact", "_kind_codes",
)


class TestRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, drop_trace):
        rebuilt = trace_from_dict(trace_to_dict(drop_trace))
        assert rebuilt.ground_truth.failed_links == \
            drop_trace.ground_truth.failed_links
        assert rebuilt.topology.links == drop_trace.topology.links
        assert rebuilt.topology.names == drop_trace.topology.names
        assert len(rebuilt.records) == len(drop_trace.records)
        for a, b in zip(rebuilt.records, drop_trace.records):
            assert (a.src, a.dst, a.packets_sent, a.bad_packets, a.path) == \
                (b.src, b.dst, b.packets_sent, b.bad_packets, b.path)
            assert a.is_probe == b.is_probe
            assert a.rtt_ms == pytest.approx(b.rtt_ms, abs=1e-3)

    def test_file_roundtrip(self, drop_trace, tmp_path):
        path = save_trace(drop_trace, tmp_path / "trace.json")
        rebuilt = load_trace(path)
        assert rebuilt.ground_truth == drop_trace.ground_truth or (
            rebuilt.ground_truth.failed_links
            == drop_trace.ground_truth.failed_links
        )

    def test_rejects_wrong_format(self):
        with pytest.raises(ExperimentError):
            trace_from_dict({"format": "something-else"})

    def test_loaded_trace_drives_inference(self, drop_trace, tmp_path):
        # A consumer of the dataset must be able to localize from the
        # file alone.
        path = save_trace(drop_trace, tmp_path / "trace.json")
        rebuilt = load_trace(path)
        problem = build_problem(rebuilt, TelemetryConfig.from_spec("INT"))
        pred = FlockInference(DEFAULT_PER_PACKET).localize(problem)
        assert pred.components == drop_trace.ground_truth.failed_links


class TestSuiteGeneration:
    def test_generates_six_scenarios(self, tmp_path):
        paths = generate_suite(
            tmp_path / "suite", seed=5, n_passive=300, n_probes=60
        )
        assert len(paths) == 6
        names = sorted(p.stem for p in paths)
        assert names[0].startswith("01_silent_drops_uniform")
        assert names[-1].startswith("06_no_failure")
        for path in paths:
            payload = json.loads(path.read_text())
            assert payload["format"] == FORMAT_TAG
            assert payload["records"]

    def test_scenarios_have_expected_truths(self, tmp_path):
        paths = generate_suite(
            tmp_path / "suite", seed=5, n_passive=200, n_probes=40
        )
        by_name = {p.stem: load_trace(p) for p in paths}
        assert len(by_name["01_silent_drops_uniform"].ground_truth.failed_links) == 3
        assert by_name["03_device_failure"].ground_truth.failed_devices
        assert by_name["05_link_flap"].analysis == "per_flow"
        assert not by_name["06_no_failure"].ground_truth.has_failures


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


@pytest.mark.parametrize("spec", ["P", "A1+A2+P", "INT"])
def test_from_records_keeps_the_simulated_path_sets(tiny_world, spec):
    """A batch rebuilt from a trace's records over a fresh space builds
    the problem the simulated batch builds: passive rows get their host
    pair's ECMP set back, not their chosen path alone."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, SilentLinkDrops(n_failures=2), seed=1,
        n_passive=500, n_probes=100,
    )
    rebuilt = FlowBatch.from_records(
        trace.records, EcmpRouting(topo).path_space()
    )
    telemetry = TelemetryConfig.from_spec(spec)
    want, got = (
        InferenceProblem.from_batch(
            build_observation_batch(batch, telemetry),
            topo.n_components, topo.n_links,
        )
        for batch in (trace.batch, rebuilt)
    )
    if spec == "P":
        assert not want.exact.all()
    for name in PROBLEM_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _five_fields(payload):
    del payload["records"][0][5:]


def _no_topology(payload):
    del payload["topology"]


def _records_not_a_list(payload):
    payload["records"] = 5


def _negative_sent(payload):
    payload["records"][0][2] = -1


def _bad_above_sent(payload):
    row = payload["records"][0]
    row[3] = row[2] + 1


def _unknown_node_id(payload):
    payload["records"][0][6][1] = 10**6


def _two_host_passive_path(payload):
    roles = payload["topology"]["roles"]
    a, b = [node for node, role in enumerate(roles) if role == "host"][:2]
    row = next(r for r in payload["records"] if not r[5])
    row[0], row[1], row[6] = a, b, [a, b]


MALFORMED = {
    "five-field record": _five_fields,
    "no topology": _no_topology,
    "records not a list": _records_not_a_list,
    "negative sent": _negative_sent,
    "bad above sent": _bad_above_sent,
    "unknown node id": _unknown_node_id,
    "passive path between two hosts": _two_host_passive_path,
}


@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_load_rejects_malformed_documents(drop_trace, mutation):
    payload = json.loads(json.dumps(trace_to_dict(drop_trace)))
    trace_from_dict(json.loads(json.dumps(payload)))  # the intact copy loads
    MALFORMED[mutation](payload)
    with pytest.raises(ExperimentError):
        trace_from_dict(payload)


@pytest.fixture(scope="module")
def saved_traces(tiny_world, tmp_path_factory):
    """Per registered scenario: (trace, the trace saved and loaded)."""
    topo, routing = tiny_world
    out = {}
    for name in scenario_names():
        trace = make_trace(
            topo, routing, make_scenario(name), seed=7,
            n_passive=1_200, n_probes=200,
        )
        path = tmp_path_factory.mktemp("suite") / f"{name}.json"
        out[name] = (trace, load_trace(save_trace(trace, path)))
    return out


@pytest.mark.parametrize("scenario_name", scenario_names())
@pytest.mark.parametrize("scheme", scheme_names())
def test_loaded_trace_localizes_like_its_source(
    saved_traces, scenario_name, scheme
):
    """Every scheme localizes a loaded trace bitwise like the trace it
    was saved from.  The file stores RTTs in whole microseconds, so a
    per-flow (RTT-analysed) trace is compared against the object
    pipeline over the loaded records instead."""
    trace, loaded = saved_traces[scenario_name]
    setup = make_setup(scheme)
    got = setup.localizer.localize(build_problem(loaded, setup.telemetry))
    if trace.analysis == PER_FLOW:
        want_problem = object_problem(loaded, setup.telemetry)
    else:
        want_problem = build_problem(trace, setup.telemetry)
    want = setup.localizer.localize(want_problem)
    assert got.components == want.components
    assert got.scores == want.scores
    assert got.log_likelihood == want.log_likelihood
