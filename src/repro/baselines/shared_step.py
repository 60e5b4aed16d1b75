"""Shared (global) timestep integrators.

The paper's Section 3 premise: with a single global timestep, the whole
system must march at the pace of the *fastest* particle — a close
encounter with an hours-scale timescale stalls 1.8 million particles
whose natural step is months.  These reference integrators quantify
that (the HERMITE-ACC and TREE-VS-DIRECT benchmarks):

* :class:`SharedHermite` — the same 4th-order Hermite scheme as the
  production integrator, but every particle takes every step;
* :class:`SharedLeapfrog` — kick-drift-kick leapfrog, the standard
  2nd-order collisionless workhorse, for the accuracy-order comparison.

Both operate directly on a :class:`~repro.core.particles.ParticleSystem`
with any :class:`~repro.core.backends.ForceBackend`-independent force
callable, to stay decoupled from the block machinery.
"""

from __future__ import annotations

import numpy as np

from ..accel import get_engine
from ..core.forces import InteractionCounter, acc_only
from ..core.hermite import hermite_step_arrays
from ..errors import ConfigurationError

__all__ = ["SharedHermite", "SharedLeapfrog"]


class _SharedBase:
    """State common to the shared-step integrators."""

    def __init__(self, system, eps: float, external_field=None) -> None:
        self.system = system
        self.eps = float(eps)
        self.external_field = external_field
        self.counter = InteractionCounter()
        self.time = float(system.t[0])
        self.steps = 0

    def _mutual_acc_jerk(self, pos, vel):
        n = pos.shape[0]
        return get_engine().acc_jerk(
            pos, vel, pos, vel, self.system.mass, self.eps,
            self_indices=np.arange(n), counter=self.counter,
        )

    def _total_acc_jerk(self, pos, vel):
        acc, jerk = self._mutual_acc_jerk(pos, vel)
        if self.external_field is not None:
            ea, ej = self.external_field.acc_jerk(pos, vel)
            acc = acc + ea
            jerk = jerk + ej
        return acc, jerk


class SharedHermite(_SharedBase):
    """4th-order Hermite with one global step for all particles."""

    def __init__(self, system, eps: float, dt: float, external_field=None) -> None:
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        super().__init__(system, eps, external_field)
        self.dt = float(dt)
        self._acc, self._jerk = self._total_acc_jerk(system.pos, system.vel)

    def step(self) -> None:
        s = self.system
        dt_arr = np.full(s.n, self.dt)
        pos1, vel1, acc1, jerk1, _ = hermite_step_arrays(
            s.pos, s.vel, self._acc, self._jerk, dt_arr, self._total_acc_jerk
        )
        s.pos[...] = pos1
        s.vel[...] = vel1
        self._acc, self._jerk = acc1, jerk1
        self.time += self.dt
        s.t[...] = self.time
        self.steps += 1

    def evolve(self, t_end: float) -> None:
        # guard against accumulation drift with an epsilon margin
        while self.time + self.dt <= t_end * (1 + 1e-12):
            self.step()


class SharedLeapfrog(_SharedBase):
    """Kick-drift-kick leapfrog with one global step.

    Second-order and symplectic for the mutual forces; the external
    field is folded into the kicks so the scheme stays KDK throughout.
    One mutual force evaluation per step: a step's closing kick and the
    next step's opening kick sit at the same positions, so the mutual
    acceleration is kept between steps (as :class:`SharedHermite` keeps
    its force); the external field is evaluated at every kick.
    """

    def __init__(self, system, eps: float, dt: float, external_field=None) -> None:
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        super().__init__(system, eps, external_field)
        self.dt = float(dt)
        self._acc = self._mutual_acc(system.pos)

    def _mutual_acc(self, pos):
        n = pos.shape[0]
        return acc_only(
            pos, pos, self.system.mass, self.eps,
            self_indices=np.arange(n), counter=self.counter,
        )

    def _total_acc(self):
        acc = self._acc
        if self.external_field is not None:
            ea, _ = self.external_field.acc_jerk(self.system.pos, self.system.vel)
            acc = acc + ea
        return acc

    def step(self) -> None:
        s = self.system
        dt = self.dt
        s.vel += 0.5 * dt * self._total_acc()  # kick
        s.pos += dt * s.vel  # drift
        self._acc = self._mutual_acc(s.pos)
        s.vel += 0.5 * dt * self._total_acc()  # kick
        self.time += dt
        s.t[...] = self.time
        self.steps += 1

    def evolve(self, t_end: float) -> None:
        while self.time + self.dt <= t_end * (1 + 1e-12):
            self.step()
