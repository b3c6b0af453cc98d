"""Trace serialization and the open evaluation-suite dataset.

The paper's third contribution is "an open evaluation suite for fault
localization, which includes ... telemetry data for six different fault
scenarios from a simulated data center and a hardware testbed".  This
module serializes traces to a portable JSON format (topology + ground
truth + flow records) and generates that six-scenario dataset, so other
fault-localization projects can consume the same inputs without running
this package's simulator.

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

Records are compact positional arrays; RTT is stored in integer
microseconds (the same quantization as the wire codec).
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
from ..types import FlowBatch, FlowRecord, GroundTruth
from .scenarios import SKEWED, UNIFORM, Trace, make_trace

FORMAT_TAG = "flock-trace-v1"

#: The positional fields of one serialized flow record.
RECORD_FIELDS = ("src", "dst", "sent", "bad", "rtt_us", "is_probe", "path")


def trace_to_dict(trace: Trace) -> Dict:
    """Serialize a trace (topology, ground truth, records) to a dict."""
    topo = trace.topology
    truth = trace.ground_truth
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
            [
                r.src, r.dst, r.packets_sent, r.bad_packets,
                int(round(r.rtt_ms * 1000.0)), int(r.is_probe),
                list(r.path),
            ]
            for r in trace.records
        ],
    }


def trace_from_dict(payload: Dict) -> Trace:
    """Rebuild a trace from its serialized form.

    The flows load as a :class:`~repro.types.FlowBatch` over the
    rebuilt routing's shared path space
    (:meth:`FlowBatch.from_records`).  The reconstructed ``Injection``
    carries the ground truth and analysis mode; the drop-rate plan is
    restored from the recorded per-link rates (healthy links read back
    as rate 0, which is fine - consumers of a dataset never re-simulate
    it).  A malformed document raises :class:`ExperimentError` here,
    before anything is built from it.
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
        rates = np.zeros(topology.n_links)
        for link, rate in truth.drop_rates.items():
            rates[link] = rate
        rows = payload["records"]
    except (KeyError, TypeError, ValueError, IndexError, TopologyError) as exc:
        raise ExperimentError(
            f"malformed {FORMAT_TAG} document: {type(exc).__name__}: {exc}"
        ) from None
    injection = Injection(
        ground_truth=truth,
        plan=DropRatePlan(topology, rates),
        analysis=payload.get("analysis", "per_packet"),
    )
    routing = EcmpRouting(topology)
    records = _parse_records(rows, topology)
    return Trace(
        topology=topology,
        routing=routing,
        injection=injection,
        batch=FlowBatch.from_records(records, routing.path_space()),
        seed=payload.get("seed", 0),
        meta=payload.get("meta", {}),
    )


def _parse_records(rows, topology: Topology) -> List[FlowRecord]:
    """Validated flow records of a document's ``"records"`` list.

    Every field is an integer, ``0 <= bad <= sent``, ``rtt_us >= 0``,
    and the path is a walk over the topology's links from ``src`` to
    ``dst``; a passive flow runs between two distinct hosts.
    """
    if not isinstance(rows, list):
        raise ExperimentError(
            f"'records' must be a list, got {type(rows).__name__}"
        )
    n_nodes = topology.n_nodes
    hosts = set(topology.hosts)
    records: List[FlowRecord] = []
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
        if not 0 <= bad <= sent or rtt_us < 0 or probe not in (0, 1):
            raise ExperimentError(
                f"record {i}: needs 0 <= bad <= sent, rtt_us >= 0 and "
                f"is_probe 0 or 1, got {row!r}"
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
        records.append(FlowRecord(
            src=src, dst=dst, packets_sent=sent, bad_packets=bad,
            rtt_ms=rtt_us / 1000.0, is_probe=bool(probe), path=tuple(path),
        ))
    return records


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
