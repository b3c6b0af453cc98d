"""Flow generation: Pareto sizes and columnar flow specs.

Section 6.3: "Flow sizes were drawn from a Pareto distribution (mean:
200KB, scale: 1.05) to mimic irregular flow sizes in a typical
datacenter."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import TrafficError
from ..routing.ecmp import EcmpRouting
from ..routing.paths import PathSpace
from .matrix import TrafficMatrix

MSS_BYTES = 1500


@dataclass
class SpecBatch:
    """Flows to be simulated, as aligned columns: endpoints, size in
    packets, ECMP candidate set and probe flag.

    This is the only flow-spec representation.  ``path_set`` holds
    each flow's interned ECMP candidate-set id (resolved against
    ``space``); the simulator picks the actual path per flow from it.
    Batches concatenate (passive flows + probes) with :meth:`concat`,
    preserving order.
    """

    space: PathSpace
    src: np.ndarray
    dst: np.ndarray
    packets: np.ndarray
    path_set: np.ndarray
    is_probe: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    @staticmethod
    def empty(space: PathSpace) -> "SpecBatch":
        zero = np.empty(0, dtype=np.int64)
        return SpecBatch(
            space=space, src=zero, dst=zero.copy(), packets=zero.copy(),
            path_set=zero.copy(), is_probe=np.empty(0, dtype=bool),
        )

    @staticmethod
    def concat(batches: List["SpecBatch"]) -> "SpecBatch":
        if not batches:
            raise TrafficError("cannot concatenate zero spec batches")
        space = batches[0].space
        for other in batches[1:]:
            if other.space is not space:
                raise TrafficError(
                    "spec batches must share one PathSpace to concatenate"
                )
        return SpecBatch(
            space=space,
            src=np.concatenate([b.src for b in batches]),
            dst=np.concatenate([b.dst for b in batches]),
            packets=np.concatenate([b.packets for b in batches]),
            path_set=np.concatenate([b.path_set for b in batches]),
            is_probe=np.concatenate([b.is_probe for b in batches]),
        )


def pareto_flow_packets(
    rng: np.random.Generator,
    n: int,
    mean_bytes: float = 200_000.0,
    shape: float = 1.05,
    max_packets: int = 100_000,
) -> np.ndarray:
    """Sample flow sizes in packets from the paper's Pareto distribution.

    A Pareto with shape ``a`` and scale ``m`` has mean ``a*m/(a-1)``;
    we solve for ``m`` from the requested mean.  Sizes convert to packets
    at ``MSS_BYTES`` per packet and are clipped to ``[1, max_packets]``
    (the heavy 1.05 tail would otherwise occasionally produce flows
    larger than the rest of the trace combined).
    """
    if shape <= 1.0:
        raise TrafficError("pareto shape must be > 1 for a finite mean")
    if mean_bytes <= 0:
        raise TrafficError("mean_bytes must be positive")
    scale = mean_bytes * (shape - 1.0) / shape
    sizes_bytes = scale * (1.0 + rng.pareto(shape, size=n))
    packets = np.ceil(sizes_bytes / MSS_BYTES).astype(np.int64)
    return np.clip(packets, 1, max_packets)


def generate_passive_flow_batch(
    routing: EcmpRouting,
    matrix: TrafficMatrix,
    n_flows: int,
    rng: np.random.Generator,
    space: PathSpace,
) -> SpecBatch:
    """Generate application flows with Pareto sizes and ECMP path sets.

    Host pairs come from ``matrix`` and sizes from the paper's Pareto
    (:func:`pareto_flow_packets` at its defaults), in that RNG order.
    Path sets are resolved once per distinct host pair and interned in
    ``space``.
    """
    if n_flows < 0:
        raise TrafficError("n_flows must be non-negative")
    src, dst = matrix.sample_pair_arrays(n_flows, rng)
    packets = pareto_flow_packets(rng, n_flows)
    if n_flows == 0:
        return SpecBatch.empty(space)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return SpecBatch(
        space=space,
        src=src,
        dst=dst,
        packets=packets,
        path_set=space.pair_sets(src, dst),
        is_probe=np.zeros(n_flows, dtype=bool),
    )
