"""Traffic substrate: matrices, columnar flow specs, and active probes."""

from .flows import SpecBatch, generate_passive_flow_batch, pareto_flow_packets
from .matrix import (
    SKEWED,
    UNIFORM,
    SkewedTraffic,
    TrafficMatrix,
    UniformTraffic,
    make_matrix,
)
from .probes import PROBE_PACKETS, a1_probe_batch

__all__ = [
    "SpecBatch",
    "generate_passive_flow_batch",
    "pareto_flow_packets",
    "TrafficMatrix",
    "UniformTraffic",
    "SkewedTraffic",
    "make_matrix",
    "UNIFORM",
    "SKEWED",
    "a1_probe_batch",
    "PROBE_PACKETS",
]
