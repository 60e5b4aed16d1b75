"""Tree/direct hybrid force backend for the block-timestep integrator.

One pass over one set of interaction lists.  Per active block the
grouped tree walk (:mod:`repro.hybrid.walk`) gives every sink group an
accepted-node list and an opened-leaf (pp) list, and the
:mod:`repro.accel` engine sums both — multipoles for the nodes, exact
pairwise force and jerk for the pp list; on the native tier walk and
sums are one call.  A sink's neighbour sphere
``h_i`` has exactly one force-side job: the walk's acceptance guard
takes a node as a multipole only when its cube lies wholly outside
every sphere of the group, so **no in-sphere source is ever inside an
accepted multipole** — close encounters are always summed pair by pair,
which is the paper's Section 3 requirement.

Like GRAPE-6's neighbour memory, the lists fall out of the same pass:
on the native tier the one walk call tests each group's sorted pp list
against the spheres as it sums it (a centroid cut, then the range
predicate of :func:`repro.grape.neighbours.within_sphere`, the one
:func:`~repro.grape.neighbours.neighbour_search` answers, with its
bits), and its true entries become ``near_interactions`` and
:attr:`HybridBackend.last_neighbours`; the NumPy tier runs the same
cuts over the same lists after the walk, and is the oracle of the C
ones.  There is no second, N-wide pass: memory per call is O(n_crit x
list width).

Contracts: every sink's pp list plus the leaves under its accepted
nodes covers every source exactly once, and every in-sphere source is
in the pp list; at ``theta = 0`` each group's sum is a row-subset of
the full direct call, so the hybrid is *bitwise* direct summation;
serial and threaded engines agree bitwise through the engine's
fixed-order fold.

The per-particle radii live in ``ParticleSystem.h_nb`` (0 means "use
this backend's ``r_neighbour`` default") and survive prediction,
correction, snapshots and mergers.
"""

from __future__ import annotations

import numpy as np

from ..baselines.treebackend import TreeBackend
from ..core.predictor import predict_system
from ..errors import ConfigurationError
from ..grape.neighbours import (
    NeighbourResult,
    neighbour_result_from_pairs,
    neighbour_search,
)
from ..obs import NULL_OBS

__all__ = ["HybridBackend"]


class HybridBackend(TreeBackend):
    """Neighbour-scheme hybrid: a tree force that never approximates
    inside a neighbour sphere, and emits the neighbour lists.

    Parameters
    ----------
    eps, theta, leaf_size, n_crit, engine:
        As for :class:`~repro.baselines.treebackend.TreeBackend`.
    r_neighbour:
        Default neighbour-sphere radius for particles whose
        ``system.h_nb`` is 0.  Larger spheres open more of the tree
        around each sink (more accurate, more expensive).
    """

    def __init__(
        self,
        eps: float,
        theta: float = 0.5,
        r_neighbour: float = 0.05,
        leaf_size: int = 8,
        engine=None,
        n_crit: int = 32,
    ) -> None:
        super().__init__(eps, theta=theta, leaf_size=leaf_size,
                         n_crit=n_crit, engine=engine)
        if r_neighbour < 0:
            raise ConfigurationError("r_neighbour must be non-negative")
        self.r_neighbour = float(r_neighbour)
        #: cumulative in-sphere pair count (the collisional work)
        self.near_interactions = 0
        #: wall seconds spent on neighbour pairs outside the walk: the
        #: sort by sink row on the native tier (the in-sphere test runs
        #: inside the walk and is billed to walk_seconds), the NumPy
        #: pair pass on the NumPy tier
        self.direct_seconds = 0.0
        # the last block's pair list, replaced by its NeighbourResult
        # when someone asks for it
        self._neighbours = None
        self.observe(NULL_OBS)

    @property
    def far_interactions(self) -> int:
        """Cumulative walk interaction count (pp + node terms)."""
        return self.walk_interactions

    @property
    def tree_seconds(self) -> float:
        """Wall seconds in tree build + walk."""
        return self.build_seconds + self.walk_seconds

    @property
    def last_neighbours(self) -> NeighbourResult | None:
        """Neighbour lists of the block ``forces_on`` evaluated last.

        Row ``i`` belongs to ``active[i]``: the keys of the sources
        inside its sphere (ascending source index, as
        :func:`~repro.grape.neighbours.neighbour_search` lists them)
        and the nearest of them (``-1`` for an empty sphere).  Built
        from the pass's pair list on first access; ``None`` before the
        first force call.
        """
        if isinstance(self._neighbours, tuple):
            self._neighbours = neighbour_result_from_pairs(*self._neighbours)
        return self._neighbours

    # -- observability -----------------------------------------------------

    def observe(self, obs) -> None:
        """Bind the ``hybrid.*`` metric family and tracer to ``obs``."""
        super().observe(obs)
        metrics = getattr(obs, "metrics", obs)
        self._c_builds = metrics.counter("hybrid.tree_builds_total")
        self._c_near = metrics.counter("hybrid.near_interactions_total")
        self._c_far = metrics.counter("hybrid.far_interactions_total")
        self._c_tree_s = metrics.counter("hybrid.tree_seconds")
        self._c_direct_s = metrics.counter("hybrid.direct_seconds")
        self._c_build_s = metrics.counter("hybrid.tree_build_seconds")
        self._c_walk_s = metrics.counter("hybrid.tree_walk_seconds")
        self._c_groups = metrics.counter("hybrid.walk.groups_total")
        self._c_node_terms = metrics.counter("hybrid.walk.node_terms_total")
        self._c_pp_terms = metrics.counter("hybrid.walk.pp_terms_total")
        self._h_group_size = metrics.histogram("hybrid.walk.group_size")
        self._h_nb_count = metrics.histogram("hybrid.neighbour_count")
        self._g_theta = metrics.gauge("hybrid.theta")
        self._g_theta.set(self.theta)

    # -- ForceBackend protocol --------------------------------------------

    def forces_on(self, system, active: np.ndarray, t_now: float):
        active = np.asarray(active, dtype=np.int64)
        h = system.h_nb[active]
        with self._tracer.span("hybrid.tree", n_active=int(active.size)):
            acc, jerk, tree, dt_build, dt_walk = self._tree_forces(
                system, active, t_now, h_i=np.where(h > 0.0, h, self.r_neighbour)
            )
        wstats = tree.walk_stats
        rows, src, dist2 = wstats.neighbours
        self._neighbours = (active.size, rows, system.key[src], dist2)
        dt_direct = wstats.neighbour_seconds
        near = rows.size

        self.near_interactions += near
        self.direct_seconds += dt_direct
        self._c_builds.inc()
        self._c_near.inc(near)
        self._c_far.inc(tree.stats.total_interactions)
        self._c_tree_s.inc(dt_build + dt_walk)
        self._c_direct_s.inc(dt_direct)
        self._c_build_s.inc(dt_build)
        self._c_walk_s.inc(dt_walk)
        self._c_groups.inc(wstats.n_groups)
        self._c_node_terms.inc(wstats.node_terms)
        self._c_pp_terms.inc(wstats.pp_terms)
        for size in wstats.group_sizes:
            self._h_group_size.observe(float(size))
        if active.size:
            self._h_nb_count.observe(near / active.size)
        return acc, jerk

    # -- neighbour plumbing ------------------------------------------------

    def neighbours_of(self, system, active: np.ndarray, t_now: float, h) -> NeighbourResult:
        """Key-indexed neighbour query at ``t_now``.

        Mirrors ``Grape6Machine.neighbours_of`` so the integrator's
        collision screening can ask for any radius ``h``, not only the
        force pass's own spheres (:attr:`last_neighbours`).
        """
        active = np.asarray(active)
        predict_system(system, t_now)
        return neighbour_search(
            system.pred_pos[active], system.pred_pos, system.key, h,
            exclude_keys=system.key[active],
        )
