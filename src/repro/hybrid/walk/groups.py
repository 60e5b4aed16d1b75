"""Sink grouping and shared-list tree walks (Barnes/Kawai grouping).

The GRAPE tree codes of Fukushige & Kawai amortise the host-side tree
walk by descending once per *group* of nearby sinks instead of once
per sink, then shipping the shared interaction list to the force
pipelines.  This module is the host side of that scheme:

* :func:`build_groups` partitions a sink block into spatially coherent
  groups by descending the octree itself — every sink follows its own
  position down the tree until its cell is a leaf or holds at most
  ``n_crit`` of the descending sinks, so groups are exactly tree cells
  (plus a bounding sphere over the group's actual sinks, which is what
  the acceptance test uses);
* :func:`walk_groups` runs one vectorised frontier walk over all
  groups at once and emits, per group, the accepted-node list (ids of
  cells evaluated as multipoles, level by level in frontier order) and
  the opened-leaf source list (particle ids evaluated
  particle-particle, sorted ascending so the evaluation order is
  canonical).

On the native kernel tier the grouping and the walk run in C, inside
the one call that also sums the lists (``repro_tree_force`` behind
:meth:`repro.accel.KernelEngine.tree_force`): the same descent giving
these groups bit for bit, then a breadth-first walk per group with
these acceptance tests in this operation order, emitting these lists
exactly.  :func:`build_groups` and :func:`walk_groups` are then the
test oracles of that call and the NumPy tier's grouping and walk.

Group acceptance is conservative: a node of size ``2*half`` at
distance ``dist`` from the group centroid is accepted only when

    ``2*half < theta * (dist - radius)``   (and ``dist > radius``),

so the per-sink criterion ``size < theta * dist_sink`` holds for every
sink in the bounding sphere.  Two guards keep the walk exact: a
Chebyshev containment test rejects nodes whose cube could contain any
group sink (their monopole would swallow the sink's own mass), and —
when neighbour spheres are active — a clearance test
``(cdist - radius) > h_max + sqrt(3)*half`` accepts only nodes wholly
outside *every* sink's sphere, so every in-sphere source ends up in
the group's pp list and is summed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...baselines.tree import _POPCOUNT, _SQRT3, concat_ranges

__all__ = ["SinkGroups", "InteractionLists", "build_groups", "walk_groups"]


@dataclass
class SinkGroups:
    """A partition of a sink block into spatially coherent groups.

    ``order`` lists sink row indices grouped contiguously; group ``g``
    owns ``order[ptr[g]:ptr[g+1]]``.  ``centroid``/``radius`` bound the
    group's sinks (Euclidean ball), ``h_max`` is the largest neighbour
    radius in the group (``None`` when spheres are off).
    """

    order: np.ndarray
    ptr: np.ndarray
    centroid: np.ndarray
    radius: np.ndarray
    h_max: np.ndarray | None

    @property
    def n_groups(self) -> int:
        return self.ptr.shape[0] - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    def rows(self, g: int) -> np.ndarray:
        """Sink rows of group ``g``."""
        return self.order[self.ptr[g] : self.ptr[g + 1]]


@dataclass
class InteractionLists:
    """Per-group shared interaction lists (CSR over groups).

    Group ``g`` evaluates node multipoles
    ``node_idx[node_ptr[g]:node_ptr[g+1]]`` and particle-particle
    sources ``pp_idx[pp_ptr[g]:pp_ptr[g+1]]`` (ascending particle ids).
    """

    node_ptr: np.ndarray
    node_idx: np.ndarray
    pp_ptr: np.ndarray
    pp_idx: np.ndarray

    def nodes(self, g: int) -> np.ndarray:
        return self.node_idx[self.node_ptr[g] : self.node_ptr[g + 1]]

    def sources(self, g: int) -> np.ndarray:
        return self.pp_idx[self.pp_ptr[g] : self.pp_ptr[g + 1]]


def build_groups(tree, pos_i, h_i=None, n_crit: int = 32) -> SinkGroups:
    """Partition sinks into tree-cell groups of at most ``n_crit``.

    Every sink descends from the root toward its own position; a sink
    stops when its cell is a leaf, when at most ``n_crit`` of the
    still-descending sinks share the cell, or when the cell has no
    child in the sink's octant (possible when sinks are predicted
    positions that drifted outside the cells their particles were
    sorted into — the sink just keeps the coarser cell).
    """
    n_i = pos_i.shape[0]
    if n_crit < 1:
        raise ValueError("n_crit must be >= 1")
    cell = np.zeros(n_i, dtype=np.int64)
    live = np.arange(n_i, dtype=np.int64)
    masks = tree.octant_masks
    for _ in range(70):  # tree depth is capped at 61
        if live.size == 0:
            break
        cv = cell[live]
        internal = tree.node_leaf_start[cv] < 0
        _, uinv, ucnt = np.unique(cv, return_inverse=True, return_counts=True)
        move = internal & (ucnt[uinv] > n_crit)
        movers = live[move]
        if movers.size == 0:
            break
        mv = cv[move]
        ctr = tree.node_center[mv]
        octant = (
            (pos_i[movers, 0] > ctr[:, 0]).astype(np.int64)
            + 2 * (pos_i[movers, 1] > ctr[:, 1]).astype(np.int64)
            + 4 * (pos_i[movers, 2] > ctr[:, 2]).astype(np.int64)
        )
        bit = (1 << octant).astype(np.uint8)
        mask = masks[mv]
        exists = (mask & bit) != 0
        rank = _POPCOUNT[mask & (bit - 1).astype(np.uint8)]
        cell[movers[exists]] = tree.node_first_child[mv[exists]] + rank[exists]
        live = movers[exists]  # stuck sinks keep their cell and stop

    _, uinv = np.unique(cell, return_inverse=True)
    order = np.argsort(uinv, kind="stable").astype(np.int64)
    sizes = np.bincount(uinv)
    ptr = np.concatenate(([0], np.cumsum(sizes)))

    gpos = pos_i[order]
    centroid = np.add.reduceat(gpos, ptr[:-1], axis=0) / sizes[:, None]
    d = gpos - np.repeat(centroid, sizes, axis=0)
    d2 = np.einsum("ij,ij->i", d, d)
    radius = np.sqrt(np.maximum.reduceat(d2, ptr[:-1]))
    h_max = None if h_i is None else np.maximum.reduceat(h_i[order], ptr[:-1])
    return SinkGroups(order=order, ptr=ptr, centroid=centroid,
                      radius=radius, h_max=h_max)


def walk_groups(tree, groups: SinkGroups, theta: float) -> InteractionLists:
    """One vectorised frontier walk shared by all groups.

    The frontier is a flat array of (group, node) pairs expanded level
    by level with ``np.repeat`` over the tree's contiguous child
    ranges — no Python per-node work.  ``theta = 0`` accepts nothing
    (``2*half < 0`` never holds), so every group's source list is all
    particles and the walk degenerates to exact summation.
    """
    n_groups = groups.n_groups
    g = np.arange(n_groups, dtype=np.int64)
    v = np.zeros(n_groups, dtype=np.int64)
    acc_g: list[np.ndarray] = []
    acc_v: list[np.ndarray] = []
    leaf_g: list[np.ndarray] = []
    leaf_v: list[np.ndarray] = []
    while g.size:
        com = tree.node_com[v]
        gc = groups.centroid[g]
        d = com - gc
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        half = tree.node_half[v]
        is_leaf = tree.node_leaf_start[v] >= 0
        margin = dist - groups.radius[g]
        accept = ~is_leaf & (margin > 0.0) & (2.0 * half < theta * margin)
        if np.any(accept):
            delta = gc - tree.node_center[v]
            cheb = np.abs(delta).max(axis=1)
            accept &= cheb > half + groups.radius[g]
            if groups.h_max is not None:
                cdist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
                accept &= (cdist - groups.radius[g]) > (
                    groups.h_max[g] + _SQRT3 * half
                )
        if np.any(accept):
            acc_g.append(g[accept])
            acc_v.append(v[accept])
        if np.any(is_leaf):
            leaf_g.append(g[is_leaf])
            leaf_v.append(v[is_leaf])
        expand = ~accept & ~is_leaf
        if np.any(expand):
            en = v[expand]
            reps = tree.node_n_children[en]
            g = np.repeat(g[expand], reps)
            v = concat_ranges(tree.node_first_child[en], reps)
        else:
            break

    def _csr(keys: np.ndarray, vals: np.ndarray, presorted: bool):
        if not presorted:
            order = np.argsort(keys, kind="stable")
            keys, vals = keys[order], vals[order]
        ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(keys, minlength=n_groups)))
        )
        return ptr, vals

    if acc_g:
        node_ptr, node_idx = _csr(
            np.concatenate(acc_g), np.concatenate(acc_v), presorted=False
        )
    else:
        node_ptr = np.zeros(n_groups + 1, dtype=np.int64)
        node_idx = np.empty(0, dtype=np.int64)

    if leaf_g:
        lg = np.concatenate(leaf_g)
        lv = np.concatenate(leaf_v)
        counts = tree.node_leaf_count[lv]
        flat_g = np.repeat(lg, counts)
        flat_src = tree.leaf_perm[
            concat_ranges(tree.node_leaf_start[lv], counts)
        ]
        # canonical evaluation order: group-major, ascending particle id
        # (at theta=0 each group's list is exactly arange(n), so bulk
        # evaluation is bit-identical to the direct sum)
        order = np.lexsort((flat_src, flat_g))
        pp_ptr, pp_idx = _csr(flat_g[order], flat_src[order], presorted=True)
    else:
        pp_ptr = np.zeros(n_groups + 1, dtype=np.int64)
        pp_idx = np.empty(0, dtype=np.int64)

    return InteractionLists(node_ptr=node_ptr, node_idx=node_idx,
                            pp_ptr=pp_ptr, pp_idx=pp_idx)
