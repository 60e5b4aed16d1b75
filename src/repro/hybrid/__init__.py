"""Tree/direct hybrid neighbour-scheme force backend.

The Fukushige & Kawai hybrid the paper's related work describes: one
grouped Barnes–Hut walk per block (O(N log N) where the paper's pure
direct sum is O(N^2)) whose acceptance test never takes a multipole
that reaches into a sink's neighbour sphere ``h_i`` — everything inside
is summed pair by pair (collisional accuracy where it matters), and the
neighbour lists fall out of the same pass.  See ``docs/HYBRID.md`` for
the scheme, error bounds and parameter guidance.
"""

from .backend import HybridBackend
from .walk import (
    InteractionLists,
    SinkGroups,
    WalkStats,
    build_groups,
    grouped_accelerations,
    walk_groups,
)

__all__ = [
    "HybridBackend",
    "SinkGroups",
    "InteractionLists",
    "WalkStats",
    "build_groups",
    "walk_groups",
    "grouped_accelerations",
]
