"""Tree-based force backend for the block-timestep integrator.

The [MA93] hybrid the paper discusses: individual timesteps with a tree
for the force loop.  The tree must be rebuilt whenever sources move,
which under individual timesteps means *every block step* — this
rebuild cost (plus the poor amortisation of the walk over tiny blocks)
is precisely why the paper says "the actual gain in the calculation
speed turned out to be rather small".  The TREE-VS-DIRECT benchmark
measures that with this backend.

The tree is built over source particles *predicted to the block time*,
so the force is consistent with the direct backends up to the multipole
truncation error.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..accel import get_engine
from ..core.backends import ForceBackend
from ..core.forces import InteractionCounter
from ..core.predictor import predict_system
from ..errors import ConfigurationError
from ..obs import NULL_OBS
from .tree import Octree

__all__ = ["TreeBackend"]


class TreeBackend(ForceBackend):
    """Barnes–Hut force backend (monopole, rebuilt every block).

    Parameters
    ----------
    eps:
        Plummer softening (matching the direct backends).
    theta:
        Opening angle; smaller is more accurate and more expensive, 0
        is exact direct summation (every walk bottoms out in leaves).
    leaf_size:
        Bucket size of the octree.
    n_crit:
        Sink-group size target of the grouped walk (bigger groups
        amortise the walk over more sinks, at the price of a looser
        bounding sphere and thus longer interaction lists).
    engine:
        :class:`repro.accel.KernelEngine` that evaluates the
        interaction lists (defaults to the process-wide engine).
    """

    def __init__(self, eps: float, theta: float = 0.5, leaf_size: int = 8,
                 n_crit: int = 32, engine=None) -> None:
        if eps < 0:
            raise ConfigurationError("softening must be non-negative")
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        if n_crit < 1:
            raise ConfigurationError("n_crit must be >= 1")
        self.eps = float(eps)
        self.theta = float(theta)
        self.leaf_size = int(leaf_size)
        self.n_crit = int(n_crit)
        self.engine = engine if engine is not None else get_engine()
        self.counter = InteractionCounter()
        #: trees built over the run (== block steps; the cost driver)
        self.builds = 0
        #: cumulative interaction count of the walks (pp + node terms)
        self.walk_interactions = 0
        #: wall seconds in tree construction / in walk + evaluation
        self.build_seconds = 0.0
        self.walk_seconds = 0.0
        self._tracer = NULL_OBS.tracer

    def observe(self, obs) -> None:
        """Send ``tree.build`` / ``tree.walk`` spans to ``obs``'s tracer."""
        self._tracer = getattr(obs, "tracer", NULL_OBS.tracer)

    def load(self, system) -> None:
        return None

    def forces_on(self, system, active: np.ndarray, t_now: float):
        return self._tree_forces(system, active, t_now)[:2]

    def _tree_forces(self, system, active, t_now: float, h_i=None):
        """Predict, build, walk: the one tree force call.

        Returns ``(acc, jerk, tree, dt_build, dt_walk)``; ``dt_walk``
        leaves out the Python the walk spent on neighbour pairs after
        the force (``tree.walk_stats.neighbour_seconds``, zero without
        ``h_i``): on the native tier the in-sphere test runs inside the
        one walk call and is billed here, and only the sort of its
        pairs by sink row is left out; on the NumPy tier the whole
        pair pass is.
        """
        active = np.asarray(active, dtype=np.int64)
        t0 = perf_counter()
        with self._tracer.span("tree.build", n=int(system.n)):
            tree = self._build(system, t_now)
        t1 = perf_counter()
        with self._tracer.span("tree.walk"):
            # exclude_self is indexed by sink position: the active
            # indices themselves
            acc, jerk = tree.accelerations(
                system.pred_pos[active],
                theta=self.theta,
                eps=self.eps,
                vel_i=system.pred_vel[active],
                exclude_self=active,
                h_i=h_i,
                n_crit=self.n_crit,
                engine=self.engine,
            )
        dt_build = t1 - t0
        dt_walk = perf_counter() - t1 - tree.walk_stats.neighbour_seconds
        self.builds += 1
        self.build_seconds += dt_build
        self.walk_seconds += dt_walk
        self.walk_interactions += tree.stats.total_interactions
        # Book the equivalent direct-sum load for flop comparability
        # with the direct backends; the real work is walk_interactions.
        self.counter.add(active.size, system.n, with_jerk=True)
        return acc, jerk, tree, dt_build, dt_walk

    def _build(self, system, t_now: float) -> Octree:
        """Predict every source to ``t_now`` into ``system.pred_pos`` /
        ``pred_vel`` and build the octree over them: one native call
        (:meth:`repro.accel.KernelEngine.tree_build`), else
        :func:`~repro.core.predictor.predict_system` and
        :class:`Octree` — the same bits."""
        if self.engine.tier == "native":
            fields = self.engine.tree_build(system, t_now, self.leaf_size)
            return Octree.from_arrays(system.pred_pos, system.mass,
                                      system.pred_vel, self.leaf_size, fields)
        predict_system(system, t_now)
        return Octree(system.pred_pos, system.mass, vel=system.pred_vel,
                      leaf_size=self.leaf_size)

    def push_updates(self, system, active: np.ndarray) -> None:
        return None
