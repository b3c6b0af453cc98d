"""Telemetry subsystem: wire records, codec, agent, collector, inputs."""

from .agent import InMemoryTransport, TelemetryAgent, Transport, UdpTransport
from .codec import (
    MAX_RECORDS_PER_MESSAGE,
    decode_message,
    decode_record,
    encode_message,
    encode_record,
)
from .collector import Collector, UdpCollectorServer
from .inputs import (
    ObservationBatch,
    TelemetryConfig,
    batch_from_reports,
    build_observation_batch,
)
from .records import MAX_PATH_NODES, FlowReport

__all__ = [
    "FlowReport",
    "MAX_PATH_NODES",
    "encode_record",
    "decode_record",
    "encode_message",
    "decode_message",
    "MAX_RECORDS_PER_MESSAGE",
    "TelemetryAgent",
    "Transport",
    "InMemoryTransport",
    "UdpTransport",
    "Collector",
    "UdpCollectorServer",
    "TelemetryConfig",
    "ObservationBatch",
    "batch_from_reports",
    "build_observation_batch",
]
