"""Wire-level flow reports.

The paper's agent "periodically encapsulates the collected flow
statistics (52 bytes per flow) into export IPFIX messages, and sends it
to the collector" (section 5.1).  :class:`FlowReport` is that 52-byte
record: fixed counters plus an optional traced path of up to
:data:`MAX_PATH_NODES` hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import TelemetryError

#: Longest encodable traced path (a 3-tier Clos host-to-host path has 7
#: nodes; 52 = 24-byte fixed part + 7 * 4-byte node ids).
MAX_PATH_NODES = 7

#: Flag bits.
FLAG_PROBE = 0x1
FLAG_HAS_PATH = 0x2


@dataclass(frozen=True)
class FlowReport:
    """One flow's statistics as exported by an agent.

    ``path`` is present when the flow's route is known (active probe or
    INT); otherwise the collector's inference input falls back to the
    ECMP path set for (src, dst).
    """

    src: int
    dst: int
    packets_sent: int
    retransmissions: int
    rtt_us: int
    is_probe: bool = False
    path: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for name in ("src", "dst", "packets_sent", "retransmissions", "rtt_us"):
            value = getattr(self, name)
            if not 0 <= value < 2 ** 32:
                raise TelemetryError(f"{name} must fit in 32 bits, got {value}")
        if self.retransmissions > self.packets_sent:
            raise TelemetryError("retransmissions cannot exceed packets sent")
        if self.path is not None:
            if len(self.path) > MAX_PATH_NODES:
                raise TelemetryError(
                    f"path longer than {MAX_PATH_NODES} nodes cannot be encoded"
                )
            for node in self.path:
                if not 0 <= node < 2 ** 32:
                    raise TelemetryError("path node ids must fit in 32 bits")

    @property
    def flags(self) -> int:
        value = 0
        if self.is_probe:
            value |= FLAG_PROBE
        if self.path is not None:
            value |= FLAG_HAS_PATH
        return value
