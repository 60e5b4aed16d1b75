"""repro.hybrid.walk — vectorised grouped-walk tree-force engine.

Fukushige & Kawai's GRAPE tree scheme in NumPy: partition sinks into
spatially coherent groups along the octree itself
(:func:`build_groups`), run one array-based frontier walk per group
with conservative bounding-sphere acceptance (:func:`walk_groups`),
and evaluate the shared interaction lists in bulk through the
:mod:`repro.accel` kernel engine (:func:`grouped_accelerations`).

This is the one walk behind
:meth:`repro.baselines.tree.Octree.accelerations`.  Given per-sink
neighbour spheres it keeps every in-sphere source in the sink's pp
list (the acceptance guard of :func:`walk_groups`) and emits the
in-sphere pairs as a by-product of the same pass
(:attr:`WalkStats.neighbours`).
"""

from .engine import WalkStats, grouped_accelerations
from .groups import InteractionLists, SinkGroups, build_groups, walk_groups

__all__ = [
    "SinkGroups",
    "InteractionLists",
    "WalkStats",
    "build_groups",
    "walk_groups",
    "grouped_accelerations",
]
