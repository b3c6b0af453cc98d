"""Routing substrate: ECMP path enumeration and path interning."""

from .ecmp import EcmpRouting, wcmp_weights
from .paths import PathSpace, PathTable

__all__ = [
    "EcmpRouting", "wcmp_weights", "PathTable", "PathSpace",
]
