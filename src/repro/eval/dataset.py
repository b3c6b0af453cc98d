"""Trace serialization and the open evaluation-suite dataset.

The paper's third contribution is "an open evaluation suite for fault
localization, which includes ... telemetry data for six different fault
scenarios from a simulated data center and a hardware testbed".  This
module serializes traces to a portable JSON format (topology + ground
truth + one record per flow) and generates that six-scenario dataset,
so other fault-localization projects can consume the same inputs
without running this package's simulator.

Format (one JSON document per trace):

```
{
  "format": "flock-trace-v1",
  "topology": {"names": [...], "roles": [...], "links": [[u, v], ...]},
  "ground_truth": {"failed_links": [...], "failed_devices": [...],
                    "drop_rates": {"<link>": rate, ...}},
  "analysis": "per_packet" | "per_flow",
  "meta": {...},
  "records": [[src, dst, sent, bad, rtt_us, is_probe, [path...]], ...]
}
```

Records are compact positional arrays, one per row of the trace's
:class:`~repro.types.FlowBatch`: saving reads the batch columns and
loading fills them, with no per-flow object in between.  RTT is stored
in integer microseconds (the same quantization as the wire codec).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..errors import ExperimentError, TopologyError
from ..routing.ecmp import EcmpRouting
from ..simulation.droprate import DropRatePlan
from ..simulation.failures import (
    PER_FLOW,
    PER_PACKET,
    Injection,
    LinkFlap,
    NoFailure,
    QueueMisconfig,
    SilentDeviceFailure,
    SilentLinkDrops,
)
from ..topology.base import Topology
from ..topology.clos import three_tier_clos
from ..topology.leafspine import testbed
from ..types import FlowBatch, GroundTruth
from .scenarios import SKEWED, UNIFORM, Trace, make_trace

FORMAT_TAG = "flock-trace-v1"

#: The positional fields of one serialized flow record.
RECORD_FIELDS = ("src", "dst", "sent", "bad", "rtt_us", "is_probe", "path")


def trace_to_dict(trace: Trace) -> Dict:
    """Serialize a trace (topology, ground truth, records) to a dict.

    Records are written from the batch columns; every row needs its
    exact path, so a batch with a pathless row (``chosen_path`` -1)
    raises :class:`ExperimentError`.
    """
    topo = trace.topology
    truth = trace.ground_truth
    batch = trace.batch
    pathless = np.flatnonzero(batch.chosen_path < 0)
    if len(pathless):
        raise ExperimentError(f"flow {pathless[0]} has no known path")
    path_nodes = batch.space.path_nodes
    return {
        "format": FORMAT_TAG,
        "topology": {
            "names": list(topo.names),
            "roles": list(topo.roles),
            "links": [list(pair) for pair in topo.links],
        },
        "ground_truth": {
            "failed_links": sorted(truth.failed_links),
            "failed_devices": sorted(truth.failed_devices),
            "drop_rates": {str(k): v for k, v in truth.drop_rates.items()},
        },
        "analysis": trace.injection.analysis,
        "seed": trace.seed,
        "meta": dict(trace.meta),
        "records": [
            [src, dst, sent, bad, rtt_us, int(probe), list(path_nodes(pid))]
            for src, dst, sent, bad, rtt_us, probe, pid in zip(
                batch.src.tolist(), batch.dst.tolist(),
                batch.packets.tolist(), batch.bad.tolist(),
                np.rint(batch.rtt_ms * 1000.0).astype(np.int64).tolist(),
                batch.is_probe.tolist(), batch.chosen_path.tolist(),
            )
        ],
    }


def trace_from_dict(payload: Dict) -> Trace:
    """Rebuild a trace from its serialized form.

    The flows load as a :class:`~repro.types.FlowBatch` over the
    rebuilt routing's shared path space (:meth:`FlowBatch.from_flows`).
    The reconstructed ``Injection`` carries the ground truth and
    analysis mode; the drop-rate plan is restored from the recorded
    per-link rates (healthy links read back as rate 0, which is fine -
    consumers of a dataset never re-simulate it).  A malformed document
    raises :class:`ExperimentError` here, before anything is built from
    it.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        found = payload.get("format") if isinstance(payload, dict) else payload
        raise ExperimentError(f"not a {FORMAT_TAG} document: format={found!r}")
    try:
        topo_spec = payload["topology"]
        topology = Topology(
            names=topo_spec["names"],
            roles=topo_spec["roles"],
            links=[tuple(pair) for pair in topo_spec["links"]],
        )
        truth_spec = payload["ground_truth"]
        truth = GroundTruth(
            failed_links=frozenset(truth_spec["failed_links"]),
            failed_devices=frozenset(truth_spec["failed_devices"]),
            drop_rates={int(k): v for k, v in truth_spec["drop_rates"].items()},
        )
        _check_truth(truth, topology)
        rates = np.zeros(topology.n_links)
        for link, rate in truth.drop_rates.items():
            rates[link] = rate
        rows = payload["records"]
    except (KeyError, TypeError, ValueError, IndexError, TopologyError) as exc:
        raise ExperimentError(
            f"malformed {FORMAT_TAG} document: {type(exc).__name__}: {exc}"
        ) from None
    analysis = payload.get("analysis", PER_PACKET)
    if analysis not in (PER_PACKET, PER_FLOW):
        raise ExperimentError(
            f"analysis must be {PER_PACKET!r} or {PER_FLOW!r}, got {analysis!r}"
        )
    seed, meta = payload.get("seed", 0), payload.get("meta", {})
    if type(seed) is not int or not isinstance(meta, dict):
        raise ExperimentError(
            f"'seed' must be an integer and 'meta' an object, got "
            f"{seed!r} and {meta!r}"
        )
    injection = Injection(
        ground_truth=truth,
        plan=DropRatePlan(topology, rates),
        analysis=analysis,
    )
    routing = EcmpRouting(topology)
    return Trace(
        topology=topology,
        routing=routing,
        injection=injection,
        batch=FlowBatch.from_flows(
            routing.path_space(), **_parse_rows(rows, topology)
        ),
        seed=seed,
        meta=meta,
    )


def _check_truth(truth: GroundTruth, topology: Topology) -> None:
    """Failed links and drop-rate keys are link ids in ``[0, n_links)``;
    failed devices are device component ids."""
    n_links = topology.n_links
    links = [
        link for link in (*truth.failed_links, *truth.drop_rates)
        if type(link) is not int or not 0 <= link < n_links
    ]
    if links:
        raise ExperimentError(
            f"ground truth names links outside [0, {n_links}): {links}"
        )
    devices = [
        comp for comp in truth.failed_devices
        if type(comp) is not int or not topology.is_device_component(comp)
    ]
    if devices:
        raise ExperimentError(
            f"failed devices must be device components in [{n_links}, "
            f"{topology.n_components}), got {devices}"
        )


def _parse_rows(rows, topology: Topology) -> Dict[str, List]:
    """The validated flows of a document's ``"records"`` list, as the
    columns of :meth:`FlowBatch.from_flows`.

    Every field is an integer in ``[0, 2**63)``, ``bad <= sent``,
    ``is_probe`` is 0 or 1, and the path is a walk over the topology's
    links from ``src`` to ``dst``; a passive flow runs between two
    distinct hosts.
    """
    if not isinstance(rows, list):
        raise ExperimentError(
            f"'records' must be a list, got {type(rows).__name__}"
        )
    n_nodes = topology.n_nodes
    hosts = set(topology.hosts)
    columns = [[] for _ in RECORD_FIELDS]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(RECORD_FIELDS):
            raise ExperimentError(
                f"record {i}: expected [{', '.join(RECORD_FIELDS)}], got {row!r}"
            )
        src, dst, sent, bad, rtt_us, probe, path = row
        if not isinstance(path, list) or not all(
            type(v) is int for v in (src, dst, sent, bad, rtt_us, probe, *path)
        ):
            raise ExperimentError(
                f"record {i}: fields must be integers and the path a list "
                f"of node ids, got {row!r}"
            )
        if (
            not 0 <= bad <= sent < 2 ** 63 or not 0 <= rtt_us < 2 ** 63
            or probe not in (0, 1)
        ):
            raise ExperimentError(
                f"record {i}: needs 0 <= bad <= sent < 2**63, "
                f"0 <= rtt_us < 2**63 and is_probe 0 or 1, got {row!r}"
            )
        if (
            not path or path[0] != src or path[-1] != dst
            or not all(0 <= v < n_nodes for v in path)
            or not all(topology.has_link(u, v) for u, v in zip(path, path[1:]))
        ):
            raise ExperimentError(
                f"record {i}: path {path} is not a walk over links from "
                f"src {src} to dst {dst}"
            )
        if not probe and (src == dst or src not in hosts or dst not in hosts):
            raise ExperimentError(
                f"record {i}: a passive flow runs between two distinct "
                f"hosts, got src {src} and dst {dst}"
            )
        for column, value in zip(columns, row):
            column.append(value)
    src, dst, sent, bad, rtt_us, probe, paths = columns
    return dict(
        src=src, dst=dst, packets=sent, bad=bad,
        rtt_ms=np.asarray(rtt_us, dtype=np.int64) / 1000.0,
        is_probe=probe, paths=[tuple(p) for p in paths],
    )


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(trace_to_dict(trace), handle)
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace from a JSON file."""
    with Path(path).open() as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ExperimentError(f"{path}: not JSON: {exc}") from None
    return trace_from_dict(payload)


def generate_suite(
    output_dir: Union[str, Path],
    seed: int = 2023,
    n_passive: int = 4000,
    n_probes: int = 600,
) -> List[Path]:
    """Generate the paper's six-scenario telemetry dataset.

    Scenarios (section 6.4 + the healthy control):

    1. silent link drops, uniform traffic (simulated Clos)
    2. silent link drops, skewed traffic (simulated Clos)
    3. silent device failure (simulated Clos)
    4. misconfigured WRED queue (testbed leaf-spine)
    5. link flap / latency, per-flow analysis (testbed leaf-spine)
    6. no failure (false-positive control)
    """
    output_dir = Path(output_dir)
    clos = three_tier_clos(
        pods=4, tors_per_pod=4, aggs_per_pod=2,
        core_groups=2, cores_per_group=2, hosts_per_tor=3,
    )
    clos_routing = EcmpRouting(clos)
    lab = testbed()
    lab_routing = EcmpRouting(lab)

    recipes = [
        ("01_silent_drops_uniform", clos, clos_routing,
         SilentLinkDrops(n_failures=3), UNIFORM, n_probes),
        ("02_silent_drops_skewed", clos, clos_routing,
         SilentLinkDrops(n_failures=3), SKEWED, n_probes),
        ("03_device_failure", clos, clos_routing,
         SilentDeviceFailure(n_devices=1), UNIFORM, n_probes),
        ("04_queue_misconfig", lab, lab_routing,
         QueueMisconfig(n_links=1), UNIFORM, 0),
        ("05_link_flap", lab, lab_routing,
         LinkFlap(n_links=1), UNIFORM, 0),
        ("06_no_failure", clos, clos_routing,
         NoFailure(), UNIFORM, n_probes),
    ]
    paths: List[Path] = []
    for i, (name, topo, routing, scenario, traffic, probes) in enumerate(recipes):
        trace = make_trace(
            topo, routing, scenario, seed=seed + i,
            n_passive=n_passive, n_probes=probes, traffic=traffic,
        )
        paths.append(save_trace(trace, output_dir / f"{name}.json"))
    return paths
