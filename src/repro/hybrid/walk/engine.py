"""The tree force: group the sinks, walk once per group, sum the lists.

:func:`grouped_accelerations` makes, on the native kernel tier, ONE
call per tree force: :meth:`KernelEngine.tree_force` groups the sinks
along the tree's cells, walks the tree once per group and sums each
group's shared lists in C — accepted-node multipoles and opened-leaf
sources, read from the tree's resident arrays by index, unmasked but
for the sink's own column — and hands back the groups and the lists.
On the NumPy tier the same steps run here:
:func:`~repro.hybrid.walk.groups.build_groups` groups the sinks,
:func:`~repro.hybrid.walk.groups.walk_groups` walks all groups at once
and :func:`evaluate_lists` makes two engine calls per group
(:meth:`KernelEngine.node_force` over the nodes,
:meth:`KernelEngine.acc_jerk` over the pp sources).  Those three are
also the oracle of the native call: the same groups and lists, array
for array and bit for bit, and the same sums, bit for bit.  One pass
over one set of lists, with or without neighbour spheres.

With ``h_i`` the same pass also emits what GRAPE-6's neighbour memory
emits: the pairs of the pp lists inside a sink's sphere
(:func:`repro.grape.neighbours.within_sphere`'s predicate, after a cut
by group that spares it all but a few pairs), as a flat in-sphere pair
list (:attr:`WalkStats.neighbours`).  On the native tier the walk call
tests each group's pp list as it sums it and only the sort by sink row
is left here; on the NumPy tier :func:`_neighbour_pairs` runs the cuts
after the walk, and is the oracle of the C test.  The predicate never
changes which pairs are summed — the spheres act on the force only
through ``walk_groups``' acceptance guard, which keeps every in-sphere
source in its sink's pp list.

Exactness contracts (tested):

* both tiers sum every list over the engine's j-chunk plan in
  ascending order, so serial ≡ threaded stays bit-identical, and the
  native call equals :func:`evaluate_lists` on the native row kernel;
* every sink's pp list ∪ the leaves under its accepted nodes covers
  every source exactly once, and every source with ``dist2 < h**2`` is
  in the pp list;
* at ``theta = 0`` nothing is accepted, every group's source list is
  all particles in ascending order, and each group's sum is a
  row-subset of the full direct call — bit-identical to direct
  summation, for any ``h_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ...baselines.tree import concat_ranges
from ...grape.neighbours import within_sphere
from .groups import InteractionLists, SinkGroups, build_groups, walk_groups

__all__ = ["WalkStats", "evaluate_lists", "grouped_accelerations"]


@dataclass
class WalkStats:
    """Counters of one grouped walk (exposed as ``hybrid.walk.*``)."""

    n_groups: int = 0
    node_terms: int = 0  # sum over groups of |sinks| * |node list|
    pp_terms: int = 0  # sum over groups of |sinks| * |pp list|
    group_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: in-sphere pairs ``(sink row, source index, dist2)`` sorted by sink
    #: row, sources ascending within a row; ``None`` without ``h_i``
    neighbours: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    #: wall spent on those pairs outside the walk (the sort by row on
    #: the native tier, where the walk tests the spheres; the NumPy pass)
    neighbour_seconds: float = 0.0


def grouped_accelerations(
    tree,
    pos_i: np.ndarray,
    theta: float,
    eps: float,
    vel_i: np.ndarray | None = None,
    exclude_self: np.ndarray | None = None,
    h_i: np.ndarray | None = None,
    n_crit: int = 32,
    engine=None,
):
    """Tree forces for a sink block: group, walk once per group, sum.

    Arguments mirror :meth:`repro.baselines.tree.Octree.accelerations`
    (which normalises them before delegating here); ``vel_i=None``
    evaluates accelerations only and returns ``jerk=None``.

    Returns ``(acc, jerk_or_None, WalkStats)``.
    """
    if engine is None:
        from ...accel import get_engine

        engine = get_engine()
    n_i = pos_i.shape[0]
    want_jerk = tree.vel is not None and vel_i is not None
    stats = WalkStats()
    if n_i == 0:
        if h_i is not None:
            no_index = np.empty(0, dtype=np.int64)
            stats.neighbours = (no_index, no_index, np.empty(0))
        return np.zeros((0, 3)), np.zeros((0, 3)) if want_jerk else None, stats

    vel_i = vel_i if want_jerk else None
    if engine.tier == "native":
        acc, jerk, groups, csr, pairs = engine.tree_force(
            tree, pos_i, vel_i, theta, eps, exclude_self, h_i, n_crit
        )
        groups, lists = SinkGroups(*groups), InteractionLists(*csr)
    else:
        groups = build_groups(tree, pos_i, h_i=h_i, n_crit=n_crit)
        lists = walk_groups(tree, groups, theta)
        acc, jerk = evaluate_lists(
            tree, groups, lists, pos_i, vel_i, eps, exclude_self, engine
        )
    stats.n_groups = groups.n_groups
    sizes = stats.group_sizes = groups.sizes
    stats.node_terms = int(sizes @ np.diff(lists.node_ptr))
    stats.pp_terms = int(sizes @ np.diff(lists.pp_ptr))
    if h_i is not None:
        t0 = perf_counter()
        if engine.tier == "native":
            # the walk emits them group by group: one stable sort by row
            by_row = np.argsort(pairs[0], kind="stable")
            stats.neighbours = tuple(column[by_row] for column in pairs)
        else:
            stats.neighbours = _neighbour_pairs(
                tree, groups, lists, pos_i, h_i, exclude_self
            )
        stats.neighbour_seconds = perf_counter() - t0
    return acc, jerk if want_jerk else None, stats


def evaluate_lists(tree, groups, lists, pos_i, vel_i, eps, exclude_self,
                   engine):
    """Sum walked lists group by group through ``engine``'s ops.

    The NumPy tier's tree force and, on the native row kernel, the
    oracle of :meth:`repro.accel.KernelEngine.tree_force`: per group
    one :meth:`~repro.accel.KernelEngine.node_force` over the
    accepted nodes and one :meth:`~repro.accel.KernelEngine.acc_jerk`
    over the pp sources (the sink's own column excluded), added node +
    pp.  ``vel_i=None`` sums with zero sink velocities.  Returns
    ``(acc, jerk)``.
    """
    n_i = pos_i.shape[0]
    acc = np.zeros((n_i, 3))
    jerk = np.zeros((n_i, 3))
    # sinks without velocities still go through the acc+jerk kernels
    # (the node-monopole jerk falls out of the same tile); the caller
    # drops the jerk
    vi_all = vel_i if vel_i is not None else np.zeros((n_i, 3))
    src_vel = tree.vel if tree.vel is not None else np.zeros_like(tree.pos)
    node_mass = tree.node_mass[:, None]
    node_vel = np.divide(
        tree.node_mom, node_mass,
        out=np.zeros_like(tree.node_mom), where=node_mass > 0,
    )

    for g in range(groups.n_groups):
        rows = groups.rows(g)
        pi = pos_i[rows]
        vi = vi_all[rows]
        a_g = None
        j_g = None

        nodes = lists.nodes(g)
        if nodes.size:
            quad = tree.node_quad[nodes] if tree.quadrupole else None
            a_g, j_g = engine.node_force(
                pi, vi, tree.node_com[nodes], node_vel[nodes],
                tree.node_mass[nodes], eps, quad_j=quad,
            )

        src = lists.sources(g)
        if src.size:
            sp = tree.pos[src]
            self_idx = None
            if exclude_self is not None:
                # position of each sink's own particle in the sorted
                # source list; -1 = not present (never matches)
                pos_in = np.searchsorted(src, exclude_self[rows])
                pos_in = np.clip(pos_in, 0, src.size - 1)
                present = src[pos_in] == exclude_self[rows]
                self_idx = np.where(present, pos_in, -1)
            pa, pj = engine.acc_jerk(
                pi, vi, sp, src_vel[src], tree.mass[src], eps,
                self_indices=self_idx,
            )
            if a_g is None:
                a_g, j_g = pa, pj
            else:
                a_g = a_g + pa
                j_g = j_g + pj

        if a_g is not None:
            acc[rows] = a_g
            jerk[rows] = j_g

    return acc, jerk


def _neighbour_pairs(tree, groups, lists, pos_i, h_i, exclude_self):
    """In-sphere ``(sink row, source index, dist2)`` pairs of one walk.

    What GRAPE-6's neighbour memory records beside the force: every
    source of a sink's pp list with ``dist2 < h_i**2``, the sink itself
    left out.  The NumPy tier's pass and the oracle of the test the
    native walk runs inside ``repro_tree_force``.  Two cuts (0.1 %
    slack against rounding) keep the predicate off all but a few
    pairs, so this is one flat pass per walk and never a sinks x
    list-width rectangle: by group, a source inside any sink's sphere
    lies within ``radius + h_max`` of the centroid; by sink, within
    ``h_i`` of it along x.  Pairs come back sorted by sink row,
    sources ascending within a row.
    """
    n_i = pos_i.shape[0]
    group_ids = np.arange(groups.n_groups)
    gid = np.repeat(group_ids, np.diff(lists.pp_ptr))
    # (np.take gathers rows about 3x faster than fancy indexing, and
    # this is the one step that touches every list entry)
    d = np.take(tree.pos, lists.pp_idx, axis=0)
    d -= np.take(groups.centroid, gid, axis=0)
    reach = 1.001 * (groups.radius + groups.h_max)
    near = np.flatnonzero(
        np.einsum("ij,ij->i", d, d) < np.take(reach * reach, gid)
    )
    gid, cand = gid[near], lists.pp_idx[near]

    # one sort of window bounds and candidates by (group, x): a bound's
    # rank among the candidates is its searchsorted index inside its
    # own group (lower bounds sort before equal candidates, upper after)
    sink_gid = np.empty(n_i, dtype=np.int64)
    sink_gid[groups.order] = np.repeat(group_ids, groups.sizes)
    w = 1.001 * h_i
    x = np.concatenate((pos_i[:, 0] - w, tree.pos[cand, 0], pos_i[:, 0] + w))
    kind = np.repeat((0, 1, 2), (n_i, cand.size, n_i))  # lower, candidate, upper
    order = np.lexsort((kind, x, np.concatenate((sink_gid, gid, sink_gid))))
    is_cand = kind[order] == 1
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.cumsum(is_cand)
    lo, hi = rank[:n_i], rank[n_i + cand.size:]
    cand = cand[order[is_cand] - n_i]

    rows = np.repeat(np.arange(n_i), hi - lo)
    src = cand[concat_ranges(lo, hi - lo)]
    dist2, within = within_sphere(pos_i[rows], tree.pos[src], h_i[rows])
    if exclude_self is not None:
        within &= src != exclude_self[rows]
    hit = np.flatnonzero(within)
    hit = hit[np.lexsort((src[hit], rows[hit]))]
    return rows[hit], src[hit], dist2[hit]
