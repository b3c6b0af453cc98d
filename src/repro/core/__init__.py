"""Flock's core: PGM model, inference problem, and MLE inference engines."""

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
]
