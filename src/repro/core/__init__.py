"""Flock's core: PGM model, inference problem, and MLE inference engines."""

from .analysis import (
    Theorem2Report,
    check_theorem2,
    max_recoverable_failures,
    traffic_skew,
    vertex_cover_gadget,
)
from .flock import FlockInference
from .gibbs import GibbsInference
from .model import evidence_scores
from .params import DEFAULT_PER_FLOW, DEFAULT_PER_PACKET, FlockParams
from .problem import InferenceProblem

__all__ = [
    "FlockParams",
    "DEFAULT_PER_PACKET",
    "DEFAULT_PER_FLOW",
    "InferenceProblem",
    "FlockInference",
    "GibbsInference",
    "evidence_scores",
    "traffic_skew",
    "max_recoverable_failures",
    "check_theorem2",
    "Theorem2Report",
    "vertex_cover_gadget",
]
