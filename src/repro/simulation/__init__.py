"""Simulation substrate: drop-rate plans, failures, queues, latency, simulator."""

from .droprate import (
    FAILED_LINK_MAX_RATE,
    FAILED_LINK_MIN_RATE,
    GOOD_LINK_MAX_RATE,
    DropRatePlan,
    fail_links,
    good_link_rates,
)
from .failures import (
    PER_FLOW,
    PER_PACKET,
    FailureScenario,
    GrayDrift,
    Injection,
    LinkFlap,
    NoFailure,
    QueueMisconfig,
    SilentDeviceFailure,
    SilentLinkDrops,
)
from .flowsim import empirical_link_loss, simulate_batch, simulate_traffic
from .latency import RTT_BAD_THRESHOLD_MS, LatencyModel, rtt_is_bad
from .queueing import WredConfig, WredQueue, effective_drop_rate
from .stream import StreamChunk, healthy_twin, replay_stream

__all__ = [
    "DropRatePlan",
    "good_link_rates",
    "fail_links",
    "GOOD_LINK_MAX_RATE",
    "FAILED_LINK_MIN_RATE",
    "FAILED_LINK_MAX_RATE",
    "FailureScenario",
    "GrayDrift",
    "Injection",
    "SilentLinkDrops",
    "SilentDeviceFailure",
    "QueueMisconfig",
    "LinkFlap",
    "NoFailure",
    "PER_PACKET",
    "PER_FLOW",
    "simulate_batch",
    "simulate_traffic",
    "empirical_link_loss",
    "LatencyModel",
    "rtt_is_bad",
    "RTT_BAD_THRESHOLD_MS",
    "WredConfig",
    "WredQueue",
    "effective_drop_rate",
    "StreamChunk",
    "healthy_twin",
    "replay_stream",
]
