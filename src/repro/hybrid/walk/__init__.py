"""repro.hybrid.walk — the grouped-walk tree force.

Fukushige & Kawai's GRAPE tree scheme: partition sinks into spatially
coherent groups along the octree itself, walk once per group with
conservative bounding-sphere acceptance and evaluate the shared
interaction lists through the :mod:`repro.accel` kernel engine
(:func:`grouped_accelerations`) — on the native tier in one call for
groups, walk, sums and in-sphere pairs, on the NumPy tier as a
vectorised descent (:func:`build_groups`), an array-based frontier
walk (:func:`walk_groups`), per-group engine calls
(:func:`evaluate_lists`) and a pair pass; those are the oracles of the
native call.

This is the one walk behind
:meth:`repro.baselines.tree.Octree.accelerations`.  Given per-sink
neighbour spheres it keeps every in-sphere source in the sink's pp
list (the acceptance guard of :func:`walk_groups`) and emits the
in-sphere pairs as a by-product of the same pass
(:attr:`WalkStats.neighbours`).
"""

from .engine import WalkStats, evaluate_lists, grouped_accelerations
from .groups import InteractionLists, SinkGroups, build_groups, walk_groups

__all__ = [
    "SinkGroups",
    "InteractionLists",
    "WalkStats",
    "build_groups",
    "walk_groups",
    "evaluate_lists",
    "grouped_accelerations",
]
