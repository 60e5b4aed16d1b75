"""Force-backend interface and the pure-host reference backend.

The integration driver (:mod:`repro.core.integrator`) is agnostic about
*where* forces come from — exactly the GRAPE design split (Figure 1 of
the paper: the host does the time integration, the special-purpose
hardware does the force loop).  Backends implement:

``load(system)``
    One-time ingest of the particle set (GRAPE: fill the j-particle
    memories across boards).
``forces_on(system, active, t_now)``
    Return ``(acc, jerk)`` on the active block, summed over **all**
    particles predicted to ``t_now``, excluding self-interaction.
``push_updates(system, active)``
    Inform the backend that the active particles were corrected (GRAPE:
    rewrite those j-memory slots over the host interface).

Energy diagnostics do not go through a backend: the mutual potential
is :func:`repro.core.forces.potential_energy`, exact on every backend.

Available implementations:

* :class:`HostDirectBackend` (here) — the reference: predict on the host,
  vectorised direct summation (what you would run with no GRAPE at all).
* :class:`repro.grape.system.Grape6Backend` — the GRAPE-6 simulator with
  its full performance model.
* :class:`repro.baselines.tree.TreeBackend` — Barnes–Hut approximation,
  the paper's Section 3 counterfactual.
"""

from __future__ import annotations

import numpy as np

from .forces import InteractionCounter

__all__ = ["ForceBackend", "HostDirectBackend"]


class ForceBackend:
    """Abstract force engine consumed by :class:`repro.core.integrator.Simulation`."""

    #: Interaction counter; concrete backends must bind one.
    counter: InteractionCounter

    def load(self, system) -> None:
        """Ingest the full particle set before integration starts."""
        raise NotImplementedError

    def forces_on(self, system, active: np.ndarray, t_now: float):
        """Force and jerk on ``active`` from all particles at ``t_now``.

        Returns ``(acc, jerk)`` with shapes ``(len(active), 3)``.
        Implementations must use predicted source positions/velocities
        and must exclude each active particle's self-interaction.
        """
        raise NotImplementedError

    def push_updates(self, system, active: np.ndarray) -> None:
        """Notify the backend that ``active`` rows of ``system`` changed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what outlives a force call (worker processes, shared
        memory).  Idempotent; the in-process backends hold nothing."""


class HostDirectBackend(ForceBackend):
    """Reference backend: direct summation over the system's own arrays.

    Force evaluation goes through the :mod:`repro.accel` engine's
    ``acc_jerk_active`` op at every block size.  The particle arrays
    are the j-memory: nothing is staged in :meth:`load` or
    :meth:`push_updates`, and each j-chunk is one call that predicts
    the block's sinks and the chunk's sources from the resident rows
    and sums the pairs (compiled where a C compiler is present, the
    :mod:`repro.core.forces` oracle otherwise; optional j-axis
    threading).

    Parameters
    ----------
    eps:
        Plummer softening applied to every pairwise interaction.
    engine:
        A :class:`repro.accel.KernelEngine`; defaults to the shared
        process-wide engine.
    """

    def __init__(self, eps: float, engine=None) -> None:
        if eps < 0:
            raise ValueError("softening must be non-negative")
        self.eps = float(eps)
        self.counter = InteractionCounter()
        if engine is None:
            from ..accel import get_engine

            engine = get_engine()
        self.engine = engine

    def load(self, system) -> None:
        # The host backend reads straight from the ParticleSystem arrays;
        # nothing to stage.
        return None

    def forces_on(self, system, active: np.ndarray, t_now: float):
        return self.engine.acc_jerk_active(
            system, np.asarray(active), t_now, self.eps, counter=self.counter
        )

    def push_updates(self, system, active: np.ndarray) -> None:
        return None
