"""Barnes–Hut octree: the paper's algorithmic counterfactual.

Section 3 of the paper argues that O(N log N) tree codes do not pay off
for the planetesimal problem: "it is very difficult to achieve high
efficiency with these algorithms when the timesteps of particles vary
widely".  To *quantify* that claim (the TREE-VS-DIRECT benchmark) this
module provides a complete monopole Barnes–Hut implementation:

* **vectorised level-by-level construction** (no per-node Python
  recursion): each level splits all of its over-full cells at once with
  a stable octant sort, and the mass/COM/velocity-moment/quadrupole
  aggregates roll up bottom-up with ``np.add.reduceat`` over the
  contiguous child ranges the build leaves behind,
* one build on the native kernel tier: ``repro_tree_build`` in
  ``accel/_tile.c`` (:meth:`repro.accel.KernelEngine.tree_build`)
  predicts every source and builds this same tree in one call, every
  array bit for bit what :meth:`Octree._build` computes (the stable
  octant sort becomes a stable per-cell bucketing, the ``reduceat``
  sums keep NumPy's summation form); :meth:`Octree.from_arrays` wraps
  its output, and ``Octree(...)`` itself stays the NumPy tier, the
  oracle, and the only way to build a quadrupole tree,
* CSR adjacency (``child_ptr``/``child_idx``) and contiguous leaf
  membership (``leaf_perm`` + per-node start/count), so tree walks are
  pure ``np.repeat``/fancy-index frontier expansion,
* multipole acceptance criterion ``s / d < theta``,
* one walk: the **grouped walk** of :mod:`repro.hybrid.walk`, which
  shares one interaction list per spatially coherent sink group and
  evaluates it in bulk through the :mod:`repro.accel` kernel engine
  (Fukushige & Kawai's GRAPE tree scheme),
* optional jerk estimates from node centre-of-mass velocities, allowing
  the tree to stand in as a :class:`~repro.core.backends.ForceBackend`
  under the block-timestep Hermite integrator — exactly the hybrid
  scheme [MA93] the paper cites.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Octree",
    "OctreeStats",
    "concat_ranges",
]

#: The per-node arrays of a monopole tree, however it was built.
_NODE_ARRAYS = (
    "node_center", "node_half", "node_parent", "node_octant",
    "node_first_child", "node_n_children", "node_leaf_start",
    "node_leaf_count", "node_mass", "node_com", "node_mom",
)

_SQRT3 = float(np.sqrt(3.0))  # circumscribed-sphere factor of a cube

#: Per-byte popcounts, for octant-mask child ranking during descent.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s+l) for s, l in zip(starts, lengths)])``
    without the Python loop (the classic cumsum trick, over the ranges
    that are not empty: an empty one would land its jump on the next
    range's slot)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    starts, lengths = np.asarray(starts)[keep], lengths[keep]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


class OctreeStats:
    """Counters of one tree build / walk."""

    __slots__ = ("n_nodes", "n_leaves", "max_depth", "pp_interactions", "node_interactions")

    def __init__(self) -> None:
        self.n_nodes = 0
        self.n_leaves = 0
        self.max_depth = 0
        self.pp_interactions = 0
        self.node_interactions = 0

    @property
    def total_interactions(self) -> int:
        """Particle-particle plus particle-node evaluations."""
        return self.pp_interactions + self.node_interactions


class Octree:
    """A monopole Barnes–Hut octree over a fixed particle set.

    Parameters
    ----------
    pos, mass:
        Particle positions ``(n, 3)`` and masses ``(n,)``.
    vel:
        Optional velocities; required for jerk estimates.
    leaf_size:
        Maximum particles per leaf (buckets trade tree depth for
        direct-sum work; 8-16 is standard).
    quadrupole:
        Also build traceless quadrupole moments
        ``Q = sum m (3 y y^T - |y|^2 I)`` per node; accepted-node
        accelerations then include the quadrupole term (jerks stay
        monopole — the classical compromise of tree+Hermite hybrids).

    Nodes are numbered in breadth-first level order (root is 0);
    every internal node's children occupy the contiguous id range
    ``[first_child, first_child + n_children)`` sorted by octant, and
    each node's particles occupy the contiguous ``leaf_perm`` slice
    ``[leaf_start, leaf_start + leaf_count)`` (leaves only).
    """

    def __init__(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        vel: np.ndarray | None = None,
        leaf_size: int = 8,
        quadrupole: bool = False,
    ) -> None:
        self._take(pos, mass, vel, leaf_size, quadrupole)
        self._build()

    def _take(self, pos, mass, vel, leaf_size, quadrupole) -> None:
        """Check and keep the particles; no tree yet."""
        if leaf_size < 1:
            raise ConfigurationError("leaf_size must be >= 1")
        self.pos = np.ascontiguousarray(pos, dtype=np.float64)
        self.mass = np.ascontiguousarray(mass, dtype=np.float64)
        self.vel = None if vel is None else np.ascontiguousarray(vel, dtype=np.float64)
        self.n = self.pos.shape[0]
        if self.pos.shape != (self.n, 3):
            raise ConfigurationError("pos must be (n, 3)")
        self.leaf_size = int(leaf_size)
        self.quadrupole = bool(quadrupole)
        self.stats = OctreeStats()
        self.walk_stats = None
        self._oct_masks = None

    @classmethod
    def from_arrays(cls, pos, mass, vel, leaf_size: int, fields: dict) -> "Octree":
        """The monopole octree of ``pos``/``mass``/``vel`` whose node
        arrays were built elsewhere: ``fields`` is what the native build
        (:meth:`repro.accel.KernelEngine.tree_build`) returns, the bits
        :meth:`_build` computes, under the names of the fields they
        become (plus ``octant_masks``, ``level_offsets`` and
        ``n_leaves``)."""
        tree = cls.__new__(cls)
        tree._take(pos, mass, vel, leaf_size, quadrupole=False)
        for name in _NODE_ARRAYS + ("leaf_perm",):
            setattr(tree, name, fields[name])
        tree._oct_masks = fields["octant_masks"]
        tree.node_quad = None
        tree._finish(fields["level_offsets"], fields["n_leaves"])
        return tree

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        """Level-synchronous vectorised build.

        Each pass splits every over-full cell of the current level at
        once: octant labels come from three coordinate compares, a
        stable ``argsort`` on ``parent*8 + octant`` groups particles by
        child cell while keeping ascending particle order inside each
        cell, and ``np.unique`` materialises exactly the non-empty
        children — sorted by (parent, octant), so every parent's
        children are contiguous ids.  Aggregates then roll up bottom-up
        over those contiguous ranges with ``np.add.reduceat``.
        """
        pos = self.pos
        center0 = 0.5 * (pos.min(axis=0) + pos.max(axis=0))
        half0 = 0.5 * float((pos.max(axis=0) - pos.min(axis=0)).max())
        half0 = max(half0, 1e-12) * 1.0000001  # avoid particles exactly on faces

        # per-level node arrays (concatenated at the end; BFS numbering)
        centers_lv = [center0[None, :].copy()]
        halves_lv = [np.array([half0])]
        parents_lv = [np.array([-1], dtype=np.int64)]
        octants_lv = [np.zeros(1, dtype=np.int64)]
        fc_lv: list[np.ndarray] = []
        nc_lv: list[np.ndarray] = []
        ls_lv: list[np.ndarray] = []
        lc_lv: list[np.ndarray] = []
        offsets = [0]  # global id of each level's first node

        self.leaf_perm = np.empty(self.n, dtype=np.int64)
        cursor = 0
        n_leaves = 0
        # particles still descending: indices + local node id within the
        # level, always sorted by node with ascending index inside a node
        idx = np.arange(self.n, dtype=np.int64)
        node_of = np.zeros(self.n, dtype=np.int64)
        level = 0
        while True:
            n_lv = halves_lv[level].shape[0]
            offsets.append(offsets[level] + n_lv)
            counts = np.bincount(node_of, minlength=n_lv)
            make_leaf = (counts <= self.leaf_size) | (level > 60)

            fc = np.full(n_lv, -1, dtype=np.int64)
            nc = np.zeros(n_lv, dtype=np.int64)
            ls = np.full(n_lv, -1, dtype=np.int64)
            lc = np.zeros(n_lv, dtype=np.int64)

            leaf_nodes = np.flatnonzero(make_leaf)
            if leaf_nodes.size:
                lcounts = counts[leaf_nodes]
                starts = cursor + np.concatenate(([0], np.cumsum(lcounts[:-1])))
                ls[leaf_nodes] = starts
                lc[leaf_nodes] = lcounts
                in_leaf = make_leaf[node_of]
                done = idx[in_leaf]
                self.leaf_perm[cursor : cursor + done.size] = done
                cursor += done.size
                n_leaves += leaf_nodes.size

            live = ~make_leaf[node_of]
            idx2 = idx[live]
            fc_lv.append(fc)
            nc_lv.append(nc)
            ls_lv.append(ls)
            lc_lv.append(lc)
            if idx2.size == 0:
                break

            pn = node_of[live]
            pc = centers_lv[level][pn]
            octant = (
                (pos[idx2, 0] > pc[:, 0]).astype(np.int64)
                + 2 * (pos[idx2, 1] > pc[:, 1]).astype(np.int64)
                + 4 * (pos[idx2, 2] > pc[:, 2]).astype(np.int64)
            )
            key = pn * 8 + octant
            order = np.argsort(key, kind="stable")
            idx2 = idx2[order]
            key = key[order]
            ukey, inv = np.unique(key, return_inverse=True)

            cpar = ukey // 8  # local parent id of each new child
            coct = ukey % 8
            nc_split = np.bincount(cpar, minlength=n_lv)
            csum = np.concatenate(([0], np.cumsum(nc_split[:-1])))
            splitters = np.flatnonzero(nc_split > 0)
            fc[splitters] = offsets[level + 1] + csum[splitters]
            nc[splitters] = nc_split[splitters]

            qh = halves_lv[level][cpar] * 0.5
            sign = np.stack(
                [
                    np.where(coct & 1, 1.0, -1.0),
                    np.where(coct & 2, 1.0, -1.0),
                    np.where(coct & 4, 1.0, -1.0),
                ],
                axis=1,
            )
            centers_lv.append(centers_lv[level][cpar] + sign * qh[:, None])
            halves_lv.append(qh)
            parents_lv.append(offsets[level] + cpar)
            octants_lv.append(coct)

            idx = idx2
            node_of = inv
            level += 1

        self.node_center = np.concatenate(centers_lv[: level + 1])
        self.node_half = np.concatenate(halves_lv[: level + 1])
        self.node_parent = np.concatenate(parents_lv[: level + 1])
        self.node_octant = np.concatenate(octants_lv[: level + 1])
        self.node_first_child = np.concatenate(fc_lv)
        self.node_n_children = np.concatenate(nc_lv)
        self.node_leaf_start = np.concatenate(ls_lv)
        self.node_leaf_count = np.concatenate(lc_lv)
        self._finish(offsets[: level + 2], n_leaves)
        self._aggregate()

    def _finish(self, level_offsets: list, n_leaves: int) -> None:
        """Adjacency and counters of built node arrays."""
        self._n_nodes = self.node_half.shape[0]
        self._level_offsets = level_offsets

        # CSR adjacency: child ids of node v are
        # child_idx[child_ptr[v]:child_ptr[v+1]] (== first_child..+n);
        # breadth-first numbering with contiguous children makes that
        # every node but the root, in order.
        self.child_ptr = np.concatenate(
            ([0], np.cumsum(self.node_n_children))
        )
        self.child_idx = np.arange(1, self._n_nodes, dtype=np.int64)
        self.stats.n_nodes = self._n_nodes
        self.stats.n_leaves = n_leaves
        self.stats.max_depth = len(level_offsets) - 2
        self.root = 0

    def _aggregate(self) -> None:
        """Bottom-up mass/COM/momentum/quadrupole over contiguous ranges."""
        n_nodes = self._n_nodes
        offsets = self._level_offsets
        n_levels = len(offsets) - 1

        mass_s = np.zeros(n_nodes)
        wpos = np.zeros((n_nodes, 3))  # sum m x
        psum = np.zeros((n_nodes, 3))  # sum x (zero-mass fallback)
        cnt = np.zeros(n_nodes)
        mom = np.zeros((n_nodes, 3))  # sum m v

        leaves = np.flatnonzero(self.node_leaf_start >= 0)
        lsorted = leaves[np.argsort(self.node_leaf_start[leaves])]
        starts = self.node_leaf_start[lsorted]
        pm = self.mass[self.leaf_perm]
        pp = self.pos[self.leaf_perm]
        mass_s[lsorted] = np.add.reduceat(pm, starts)
        wpos[lsorted] = np.add.reduceat(pm[:, None] * pp, starts)
        psum[lsorted] = np.add.reduceat(pp, starts)
        cnt[lsorted] = self.node_leaf_count[lsorted]
        if self.vel is not None:
            pv = self.vel[self.leaf_perm]
            mom[lsorted] = np.add.reduceat(pm[:, None] * pv, starts)

        def roll_up(values: np.ndarray) -> None:
            """Add each level's sums into its parents, deepest first."""
            for lv in range(n_levels - 2, -1, -1):
                child_sl = slice(offsets[lv + 1], offsets[lv + 2])
                if child_sl.start == child_sl.stop:
                    continue
                ids = np.arange(offsets[lv], offsets[lv + 1])
                internal = ids[self.node_first_child[ids] >= 0]
                st = self.node_first_child[internal] - offsets[lv + 1]
                values[internal] += np.add.reduceat(values[child_sl], st, axis=0)

        for arr in (mass_s, wpos, psum, cnt):
            roll_up(arr)
        if self.vel is not None:
            roll_up(mom)

        safe = np.where(mass_s > 0, mass_s, 1.0)
        self.node_mass = mass_s
        self.node_com = np.where(
            (mass_s > 0)[:, None], wpos / safe[:, None], psum / cnt[:, None]
        )
        self.node_mom = mom

        if not self.quadrupole:
            self.node_quad = None
            return
        # Hierarchical second moments M2 = sum m y y^T about each node's
        # COM: leaves directly, parents by the parallel-axis shift
        # M2_p = sum_c (M2_c + m_c d d^T), d = com_c - com_p.
        m2 = np.zeros((n_nodes, 3, 3))
        com_rep = np.repeat(
            self.node_com[lsorted], self.node_leaf_count[lsorted], axis=0
        )
        y = pp - com_rep
        m2[lsorted] = np.add.reduceat(
            pm[:, None, None] * y[:, :, None] * y[:, None, :], starts, axis=0
        )
        for lv in range(n_levels - 2, -1, -1):
            child_sl = slice(offsets[lv + 1], offsets[lv + 2])
            if child_sl.start == child_sl.stop:
                continue
            ids = np.arange(offsets[lv], offsets[lv + 1])
            internal = ids[self.node_first_child[ids] >= 0]
            st = self.node_first_child[internal] - offsets[lv + 1]
            d = self.node_com[child_sl] - self.node_com[self.node_parent[child_sl]]
            shifted = m2[child_sl] + (
                mass_s[child_sl][:, None, None] * d[:, :, None] * d[:, None, :]
            )
            m2[internal] += np.add.reduceat(shifted, st, axis=0)
        tr = np.trace(m2, axis1=1, axis2=2)
        self.node_quad = 3.0 * m2 - tr[:, None, None] * np.eye(3)

    @property
    def octant_masks(self) -> np.ndarray:
        """Per-node uint8 bitmask of which octants have a child.

        A sink descends without an 8-wide child table: its target child
        is ``first_child + popcount(mask & (bit - 1))`` when
        ``mask & bit`` is set (children are stored sorted by octant).
        """
        if self._oct_masks is None:
            masks = np.zeros(self._n_nodes, dtype=np.uint8)
            if self._n_nodes > 1:
                np.bitwise_or.at(
                    masks,
                    self.node_parent[1:],
                    (1 << self.node_octant[1:]).astype(np.uint8),
                )
            self._oct_masks = masks
        return self._oct_masks

    def children(self, node: int) -> list[int]:
        """Child node indices (empty for a leaf)."""
        return [int(c) for c in self.child_idx[self.child_ptr[node] : self.child_ptr[node + 1]]]

    # -- force evaluation -----------------------------------------------------

    def accelerations(
        self,
        pos_i: np.ndarray,
        theta: float,
        eps: float,
        vel_i: np.ndarray | None = None,
        exclude_self: np.ndarray | None = None,
        h_i: np.ndarray | float | None = None,
        n_crit: int = 32,
        engine=None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Tree forces (and jerks if velocities are available).

        Parameters
        ----------
        pos_i:
            Sink positions ``(n_i, 3)``.
        theta:
            Opening angle; 0 forces an exact (all-leaves) walk.
        eps:
            Plummer softening for particle-particle terms (node terms
            use the same softening for consistency).
        vel_i:
            Sink velocities, required if the tree was built with
            velocities and jerks are wanted.
        exclude_self:
            Source-index of each sink (sinks that are tree particles),
            to drop self-interaction in leaf sums.
        h_i:
            Optional per-sink neighbour-sphere radius (scalar
            broadcasts).  The force stays the full force: a node is
            only accepted as a multipole when its cube lies wholly
            outside every sphere of the sink's group, so each source
            with unsoftened ``dist2 < h_i**2`` is summed exactly, pair
            by pair, and those pairs are left in
            ``walk_stats.neighbours`` (same predicate as
            :func:`repro.grape.neighbours.neighbour_search`).
        n_crit:
            Stop refining a sink group once its population is at most
            this (bigger groups amortise the walk over more sinks at
            the price of a looser bounding sphere).
        engine:
            A :class:`repro.accel.KernelEngine` to evaluate the
            interaction lists (defaults to the process-wide engine).

        Returns ``(acc, jerk_or_None)``; the walk's counters and
        neighbour pairs are left in ``self.walk_stats``.
        """
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
        n_i = pos_i.shape[0]
        want_jerk = self.vel is not None and vel_i is not None
        if want_jerk:
            vel_i = np.atleast_2d(np.asarray(vel_i, dtype=np.float64))
        if h_i is not None:
            h_i = np.broadcast_to(np.asarray(h_i, dtype=np.float64), (n_i,))
            if np.any(h_i < 0):
                raise ConfigurationError("neighbour radius must be non-negative")

        from ..hybrid.walk import grouped_accelerations

        acc, jerk, wstats = grouped_accelerations(
            self, pos_i, theta, eps,
            vel_i=vel_i if want_jerk else None,
            exclude_self=exclude_self, h_i=h_i,
            n_crit=n_crit, engine=engine,
        )
        self.walk_stats = wstats
        self.stats.node_interactions += wstats.node_terms
        self.stats.pp_interactions += wstats.pp_terms
        return acc, jerk
