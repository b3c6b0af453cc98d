"""Central telemetry collector (paper section 5.1).

"Flock's inference engine ... (i) collects IPFIX flow reports from
agents and (ii) periodically runs inference on the collected input."

:class:`Collector` is the decode-and-buffer half; a
:class:`UdpCollectorServer` wraps it in a background thread receiving
datagrams on loopback, which is how the Fig. 7 scaling benchmark drives
it.  The drained reports enter inference like any trace:
:func:`repro.telemetry.inputs.batch_from_reports` turns them into a
:class:`~repro.types.FlowBatch`, then
:func:`~repro.telemetry.inputs.build_observation_batch` and
:meth:`~repro.core.problem.InferenceProblem.from_batch` apply.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional

from ..errors import CodecError, TelemetryError
from .codec import decode_message
from .records import FlowReport

#: Receive buffer the server requests for its socket.  An agent flush
#: is a burst of datagrams, which the default buffer (about 208 KiB on
#: common Linux set-ups) drops in part; the kernel caps the request at
#: ``net.core.rmem_max``.
RCVBUF_BYTES = 4 << 20


class Collector:
    """Decodes export messages and buffers the contained reports."""

    def __init__(self) -> None:
        self._reports: List[FlowReport] = []
        self._lock = threading.Lock()
        self.messages_ingested = 0
        self.messages_rejected = 0

    def ingest(self, message: bytes) -> int:
        """Decode one export message; returns the number of reports added.

        Malformed messages are counted and dropped rather than raised -
        a collector must survive a misbehaving agent.
        """
        try:
            reports = decode_message(message)
        except CodecError:
            with self._lock:
                self.messages_rejected += 1
            return 0
        with self._lock:
            self._reports.extend(reports)
            self.messages_ingested += 1
        return len(reports)

    def drain(self) -> List[FlowReport]:
        """Take all buffered reports (the periodic inference pull)."""
        with self._lock:
            out = self._reports
            self._reports = []
        return out

    @property
    def pending_reports(self) -> int:
        with self._lock:
            return len(self._reports)


class UdpCollectorServer:
    """Background UDP receive loop feeding a :class:`Collector`.

    Binds to an ephemeral loopback port by default; ``address`` exposes
    the bound (host, port) for agents to target.
    """

    def __init__(self, collector: Collector, host: str = "127.0.0.1", port: int = 0):
        self._collector = collector
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
        self._sock.bind((host, port))
        self._sock.settimeout(0.1)
        self._running = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self):
        return self._sock.getsockname()

    def start(self) -> None:
        if self._running:
            raise TelemetryError("collector server already running")
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while self._running:
            try:
                message, _ = self._sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            self._collector.ingest(message)

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._sock.close()

    def __enter__(self) -> "UdpCollectorServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
