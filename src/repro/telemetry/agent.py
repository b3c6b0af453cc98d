"""End-host telemetry agent (paper section 5.1).

The agent "periodically actively probes the network and may optionally
passively observe performance of ongoing flows.  Metrics from both
active and passive monitoring are aggregated by flow, and optionally
randomly sampled to reduce volume.  Periodically, the agent sends these
reports to the collector."

Transport is pluggable: an in-memory queue for simulations and tests,
or a UDP socket for the loopback integration path exercised by the
Fig. 7 benchmarks.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Deque, List

import numpy as np

from ..errors import TelemetryError
from ..types import FlowBatch
from .codec import MAX_RECORDS_PER_MESSAGE, encode_message
from .records import FlowReport


class Transport:
    """Abstract one-way message transport from agent to collector."""

    def send(self, message: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class InMemoryTransport(Transport):
    """Collects messages in a local deque (simulation / unit tests)."""

    def __init__(self) -> None:
        self.messages: Deque[bytes] = deque()

    def send(self, message: bytes) -> None:
        self.messages.append(message)

    def drain(self) -> List[bytes]:
        out = list(self.messages)
        self.messages.clear()
        return out


class UdpTransport(Transport):
    """Sends export messages as UDP datagrams."""

    def __init__(self, host: str, port: int) -> None:
        self._addr = (host, port)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send(self, message: bytes) -> None:
        self._sock.sendto(message, self._addr)

    def close(self) -> None:
        self._sock.close()


class TelemetryAgent:
    """Turns flow-batch rows into reports and exports them in batches.

    Parameters
    ----------
    transport:
        Where encoded export messages go.
    reveal_paths:
        Whether passive flows' paths are included in reports (True models
        INT-style monitoring; active probes always know their path).
    sampling_rate:
        Probability of keeping each passive flow ("optionally randomly
        sampled to reduce volume"); probes are never sampled out.
    batch_size:
        Reports per export message; defaults to the UDP-safe maximum.
    """

    def __init__(
        self,
        transport: Transport,
        reveal_paths: bool = False,
        sampling_rate: float = 1.0,
        batch_size: int = MAX_RECORDS_PER_MESSAGE,
        seed: int = 0,
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise TelemetryError("sampling_rate must be in (0, 1]")
        if batch_size < 1:
            raise TelemetryError("batch_size must be >= 1")
        self._transport = transport
        self._reveal_paths = reveal_paths
        self._sampling_rate = sampling_rate
        self._batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        self._pending: List[FlowReport] = []
        self.exported_reports = 0
        self.exported_messages = 0
        self.sampled_out = 0

    def observe(self, batch: FlowBatch) -> None:
        """Ingest a flow batch's rows, in row order, into the pending
        batch.

        Sampling draws one uniform per passive row, in row order, and
        keeps the row when it falls below ``sampling_rate``.  A report
        carries its node path only where it is revealed (probes, and
        every row when ``reveal_paths``); a batch with a pathless row
        (``chosen_path`` -1) is refused, since the agent observes the
        flows it carried.
        """
        pathless = np.flatnonzero(batch.chosen_path < 0)
        if len(pathless):
            raise TelemetryError(f"flow {pathless[0]} has no known path")
        keep = np.ones(len(batch), dtype=bool)
        if self._sampling_rate < 1.0:
            passive = ~batch.is_probe
            keep[passive] = (
                self._rng.random(int(passive.sum())) < self._sampling_rate
            )
            self.sampled_out += len(batch) - int(keep.sum())
        rows = np.flatnonzero(keep)
        reveal = batch.is_probe[rows] | self._reveal_paths
        rtt_us = np.minimum(np.rint(batch.rtt_ms[rows] * 1000.0), 2 ** 32 - 1)
        path_nodes = batch.space.path_nodes
        self._pending.extend(
            FlowReport(
                src=src, dst=dst, packets_sent=sent, retransmissions=bad,
                rtt_us=rtt, is_probe=probe,
                path=path_nodes(pid) if shown else None,
            )
            for src, dst, sent, bad, rtt, probe, pid, shown in zip(
                batch.src[rows].tolist(), batch.dst[rows].tolist(),
                batch.packets[rows].tolist(), batch.bad[rows].tolist(),
                rtt_us.astype(np.int64).tolist(),
                batch.is_probe[rows].tolist(),
                batch.chosen_path[rows].tolist(), reveal.tolist(),
            )
        )
        pending, size = self._pending, self._batch_size
        full = len(pending) - len(pending) % size
        for start in range(0, full, size):
            self._export(pending[start:start + size])
        del pending[:full]

    def flush(self) -> None:
        """Export any partially-filled batch."""
        while self._pending:
            batch = self._pending[: self._batch_size]
            del self._pending[: self._batch_size]
            self._export(batch)

    def _export(self, batch: List[FlowReport]) -> None:
        self._transport.send(encode_message(batch))
        self.exported_reports += len(batch)
        self.exported_messages += 1
