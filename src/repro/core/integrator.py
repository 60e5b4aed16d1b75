"""Block individual-timestep Hermite integration driver.

This module implements the *host side* of the paper's computation
(Section 4.1): the driver owns the particle state, the block scheduler
and the Hermite corrector, and delegates the :math:`O(N)`-per-particle
force loop to a pluggable :class:`~repro.core.backends.ForceBackend`
(host direct summation, the GRAPE-6 simulator, or the tree baseline).

One block step (:meth:`Simulation.step`) is:

1. ask the scheduler for the earliest update time ``t`` and the block of
   active particles;
2. predict the active particles to ``t`` on the host (sources are
   predicted inside the backend — on GRAPE-6, by the on-chip predictor
   pipelines): one ``block_predict`` call into the native tile, which
   gathers the rows into the simulation's block buffer;
3. obtain mutual force + jerk on the block from the backend;
4. one ``block_correct`` call: add the analytic solar field at the
   predicted state, apply the Hermite corrector, choose the Aarseth
   step and quantise it, and — only once every row is checked — write
   the rows back; then the scheduler commits their update times;
5. push the corrected particles back to the backend (on GRAPE-6, a
   j-memory write over the host interface).

Steps 2 and 4 are the NumPy step of this module (``predict_positions``,
``KeplerField.acc_jerk``, ``correct``, ``aarseth_dt``, ``quantize``) in
C, bit for bit on every host.  The NumPy step itself runs on the NumPy
tier (no C compiler) and for every block the kernel does not cover:
P(EC)^n, an external field that is not exactly a ``KeplerField``, a
collision policy, or a step that is not a power of two.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError, IntegrationError
from .backends import ForceBackend
from .events import EventLog
from .external import KeplerField
from .hermite import correct
from .particles import ParticleSystem
from .predictor import predict_positions, predict_velocities
from .scheduler import BlockScheduler
from .timestep import TimestepParams, aarseth_dt, quantize, startup_dt

__all__ = ["Simulation"]


class Simulation:
    """Block-timestep Hermite N-body simulation.

    Parameters
    ----------
    system:
        Initial particle state (all particles at one common time).
    backend:
        Force engine; see :mod:`repro.core.backends`.
    external_field:
        Optional analytic field (the Sun); see :mod:`repro.core.external`.
    timestep_params:
        Timestep-control knobs; defaults are sensible for planetesimal
        discs in code units.

    Attributes
    ----------
    time:
        Current system time (the time of the most recent block).
    block_steps:
        Number of block steps taken.
    particle_steps:
        Total per-particle steps (the paper's "number of individual
        steps", 5.3e11 for the production run).
    """

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        external_field=None,
        timestep_params: TimestepParams | None = None,
        collision_policy=None,
        corrector_iterations: int = 1,
        obs=None,
        _restart: bool = False,
    ) -> None:
        from ..accel import native
        from ..obs import NULL_OBS

        if not isinstance(backend, ForceBackend):
            raise ConfigurationError("backend must implement ForceBackend")
        if corrector_iterations < 1:
            raise ConfigurationError("corrector_iterations must be >= 1")
        t0 = system.t
        # A checkpointed system is at a block *boundary*, not a common
        # time — individual particle times legitimately differ there.
        if not _restart and not np.allclose(t0, t0[0]):
            raise ConfigurationError("all particles must start at a common time")
        self.system = system
        self.backend = backend
        self.external_field = external_field
        self.params = timestep_params or TimestepParams()
        self.collision_policy = collision_policy
        #: P(EC)^n mode (Kokubo, Yoshinaga & Makino 1998): re-evaluating
        #: the force at the corrected state makes the scheme (nearly)
        #: time-symmetric, suppressing secular energy drift.  Each extra
        #: iteration costs one more full force evaluation per block.
        self.corrector_iterations = int(corrector_iterations)
        #: Observability bundle (:mod:`repro.obs`); the null default
        #: keeps all instrumentation at one-attribute-lookup cost.
        self.obs = obs or NULL_OBS
        self._tracer = self.obs.tracer
        self._c_blocks = self.obs.metrics.counter("blockstep.total")
        self._c_psteps = self.obs.metrics.counter("blockstep.active_particles")
        self.scheduler = BlockScheduler(metrics=self.obs.metrics)
        self.events = EventLog(metrics=self.obs.metrics)
        # Route the backend's kernel engine (repro.accel) into the same
        # metrics registry so kernel.* shows up in run exports.  Only an
        # enabled bundle is attached — a NULL obs must not detach an
        # engine someone instrumented explicitly.
        engine = getattr(backend, "engine", None) or getattr(
            getattr(backend, "machine", None), "engine", None
        )
        if engine is not None and self.obs.enabled:
            engine.observe(self.obs)
        # Backends with their own metric families (e.g. the hybrid's
        # ``hybrid.*`` tree/direct split) bind here the same way.
        if self.obs.enabled and hasattr(backend, "observe"):
            backend.observe(self.obs)
        #: The native tile behind the block step (``None`` on the NumPy
        #: tier), and its grow-only buffer of active rows.
        self._tile = native.load()
        self._block = np.empty((0, native.BLOCK_COLS))
        self.time = float(t0[0])
        self.block_steps = 0
        self.particle_steps = 0
        self.mergers = 0
        self._initialized = False

    # -- setup -----------------------------------------------------------

    @classmethod
    def from_restart(
        cls,
        system: ParticleSystem,
        backend: ForceBackend,
        time: float,
        *,
        external_field=None,
        timestep_params: TimestepParams | None = None,
        collision_policy=None,
        corrector_iterations: int = 1,
        obs=None,
        block_steps: int = 0,
        particle_steps: int = 0,
        mergers: int = 0,
    ) -> "Simulation":
        """Rebuild a running simulation from checkpointed state.

        ``system`` must carry the exact checkpointed ``pos/vel/acc/jerk/
        t/dt`` arrays (a raw snapshot, *not* a predicted state).  The
        scheduler starts with nothing kept — its update times are
        derived from ``system.t`` and ``system.dt`` at the first block,
        never checkpointed — so continuing from here is bit-identical
        to a run that was never interrupted.  :meth:`initialize` must not be
        called again (it would re-seed timesteps and break determinism);
        the backend is loaded here instead.
        """
        sim = cls(
            system,
            backend,
            external_field=external_field,
            timestep_params=timestep_params,
            collision_policy=collision_policy,
            corrector_iterations=corrector_iterations,
            obs=obs,
            _restart=True,
        )
        sim.time = float(time)
        sim.block_steps = int(block_steps)
        sim.particle_steps = int(particle_steps)
        sim.mergers = int(mergers)
        backend.load(system)
        sim._initialized = True
        return sim

    def initialize(self) -> None:
        """Startup force evaluation and initial timestep assignment."""
        sys_ = self.system
        n = sys_.n
        self.scheduler.invalidate()  # dt is (re)assigned below
        self.backend.load(sys_)
        all_idx = np.arange(n)
        acc, jerk = self.backend.forces_on(sys_, all_idx, self.time)
        if self.external_field is not None:
            ea, ej = self.external_field.acc_jerk(sys_.pos, sys_.vel)
            acc = acc + ea
            jerk = jerk + ej
        sys_.acc[...] = acc
        sys_.jerk[...] = jerk
        dt_raw = startup_dt(acc, jerk, self.params.eta_start)
        sys_.dt[...] = quantize(dt_raw, sys_.t, None, self.params)
        self._initialized = True

    # -- stepping ---------------------------------------------------------

    def step(self) -> tuple[float, int]:
        """Advance one block; returns ``(new_time, block_size)``."""
        if not self._initialized:
            raise IntegrationError("call initialize() before stepping")
        tracer = self._tracer
        with tracer.span("block_step"):
            sys_ = self.system
            t_next, active = self.scheduler.next_block(sys_.t, sys_.dt)
            tile = self._native_step()

            # Host-side prediction of the i-particles: into the block
            # buffer (native), or gathered once per array (NumPy; the
            # gathered rows are copies, so acc0 / jerk0 survive the
            # write-back below).
            with tracer.span("predict"):
                if tile is not None:
                    block = self._block
                    if block.shape[0] < active.size:
                        block = self._block = np.empty(
                            (max(active.size, 2 * block.shape[0]), block.shape[1]))
                    if not tile.block_predict(sys_, active, block):
                        tile = None  # a step off the block grid
                if tile is None:
                    dt = sys_.dt[active]
                    pos0, vel0 = sys_.pos[active], sys_.vel[active]
                    acc0, jerk0 = sys_.acc[active], sys_.jerk[active]
                    pred_pos = predict_positions(pos0, vel0, acc0, jerk0, dt)
                    pred_vel = predict_velocities(vel0, acc0, jerk0, dt)

            with tracer.span("force", n_active=int(active.size)):
                acc1, jerk1 = self.backend.forces_on(sys_, active, t_next)
                if tile is None and self.external_field is not None:
                    ea, ej = self.external_field.acc_jerk(pred_pos, pred_vel)
                    acc1 = acc1 + ea
                    jerk1 = jerk1 + ej

            with tracer.span("correct"):
                if tile is not None:
                    field = self.external_field
                    tile.block_correct(
                        sys_, active, acc1, jerk1, self._block, t_next,
                        None if field is None else field.mass, self.params,
                    )
                else:
                    self._correct_numpy(active, t_next, dt, pred_pos, pred_vel,
                                        acc0, jerk0, acc1, jerk1)
                # the n_active update times that changed, checked here
                self.scheduler.commit()

            with tracer.span("push_updates"):
                self.backend.push_updates(sys_, active)
            self.time = t_next
            self.block_steps += 1
            self.particle_steps += int(active.size)
            self._c_blocks.inc()
            self._c_psteps.inc(active.size)

            if self.collision_policy is not None:
                with tracer.span("collision"):
                    self._resolve_collisions(t_next, active)
        return t_next, int(active.size)

    def _native_step(self):
        """The native tile when this block may take the native step:
        one corrector pass, no collisions, and no field or exactly a
        :class:`KeplerField` (the one field ``_tile.c`` evaluates).
        Everything else takes the NumPy step, whose bits the native
        step reproduces."""
        field = self.external_field
        if (self._tile is None or self.corrector_iterations != 1
                or self.collision_policy is not None
                or not (field is None or type(field) is KeplerField)):
            return None
        return self._tile

    def _correct_numpy(self, active, t_next, dt, pred_pos, pred_vel,
                       acc0, jerk0, acc1, jerk1) -> None:
        """The NumPy step's corrector half: Hermite correct (P(EC)^n),
        write the block back, Aarseth step, quantise."""
        sys_ = self.system
        pos1, vel1, derivs = correct(
            pred_pos, pred_vel, acc0, jerk0, acc1, jerk1, dt
        )

        # P(EC)^n: re-evaluate the force at the corrected state and
        # correct again (writes the trial state into the live rows so
        # mutually active particles see each other's corrected states).
        for _ in range(self.corrector_iterations - 1):
            sys_.pos[active] = pos1
            sys_.vel[active] = vel1
            sys_.t[active] = t_next
            acc1, jerk1 = self.backend.forces_on(sys_, active, t_next)
            if self.external_field is not None:
                ea, ej = self.external_field.acc_jerk(pos1, vel1)
                acc1 = acc1 + ea
                jerk1 = jerk1 + ej
            pos1, vel1, derivs = correct(
                pred_pos, pred_vel, acc0, jerk0, acc1, jerk1, dt
            )

        if not (np.isfinite(pos1).all() and np.isfinite(vel1).all()):
            raise IntegrationError(f"non-finite state after block at t={t_next}")

        sys_.pos[active] = pos1
        sys_.vel[active] = vel1
        sys_.acc[active] = acc1
        sys_.jerk[active] = jerk1
        sys_.t[active] = t_next

        dt_raw = aarseth_dt(
            acc1, jerk1, derivs.snap, derivs.crackle, self.params.eta
        )
        sys_.dt[active] = quantize(dt_raw, sys_.t[active], dt, self.params)

    def evolve(
        self,
        t_end: float,
        callback: Callable[["Simulation"], None] | None = None,
        max_block_steps: int | None = None,
    ) -> None:
        """Advance until no block time remains at or below ``t_end``.

        ``callback`` (if given) runs after every block step; use
        :meth:`predicted_state` inside it for output at the current time.
        ``max_block_steps`` bounds runtime in tests.
        """
        if not self._initialized:
            self.initialize()
        steps = 0
        # read self.system each iteration: mergers replace the object
        while self.scheduler.peek_time(self.system.t, self.system.dt) <= t_end:
            self.step()
            if callback is not None:
                callback(self)
            steps += 1
            if max_block_steps is not None and steps >= max_block_steps:
                break

    # -- synchronisation / output -----------------------------------------

    def predicted_state(self, t: float | None = None) -> ParticleSystem:
        """A copy of the system predicted to one common time.

        Prediction is the 3rd-order Taylor expansion, accurate to the same
        order as the integration error for output purposes.  Defaults to
        the current system time.
        """
        sys_ = self.system
        t = self.time if t is None else float(t)
        dt = t - sys_.t
        if np.any(dt < -1e-12):
            raise IntegrationError("cannot predict backwards past particle times")
        out = sys_.copy()
        out.pos = predict_positions(sys_.pos, sys_.vel, sys_.acc, sys_.jerk, dt)
        out.vel = predict_velocities(sys_.vel, sys_.acc, sys_.jerk, dt)
        out.t[...] = t
        out.pred_pos = out.pos.copy()
        out.pred_vel = out.vel.copy()
        return out

    def synchronize(self, t: float | None = None) -> None:
        """Bring every particle to a common time with full corrector quality.

        Performs a genuine Hermite step of individual length ``t - t_i``
        for every particle (the classical synchronisation step of NBODY
        codes), then re-seeds timesteps with the startup criterion.  Use
        before precise energy measurements; :meth:`predicted_state` is
        cheaper for snapshots.
        """
        if not self._initialized:
            raise IntegrationError("call initialize() before synchronize()")
        sys_ = self.system
        t = float(self.time if t is None else t)
        if np.any(sys_.t > t + 1e-12):
            raise IntegrationError("cannot synchronise to a time in the past")
        self.scheduler.invalidate()  # t and dt are rewritten below
        pending = np.nonzero(sys_.t < t)[0]
        if pending.size:
            dt = t - sys_.t[pending]
            pred_pos = predict_positions(
                sys_.pos[pending], sys_.vel[pending], sys_.acc[pending], sys_.jerk[pending], dt
            )
            pred_vel = predict_velocities(
                sys_.vel[pending], sys_.acc[pending], sys_.jerk[pending], dt
            )
            acc1, jerk1 = self.backend.forces_on(sys_, pending, t)
            if self.external_field is not None:
                ea, ej = self.external_field.acc_jerk(pred_pos, pred_vel)
                acc1 = acc1 + ea
                jerk1 = jerk1 + ej
            pos1, vel1, _ = correct(
                pred_pos, pred_vel, sys_.acc[pending], sys_.jerk[pending], acc1, jerk1, dt
            )
            sys_.pos[pending] = pos1
            sys_.vel[pending] = vel1
            sys_.acc[pending] = acc1
            sys_.jerk[pending] = jerk1
            sys_.t[pending] = t
            self.backend.push_updates(sys_, pending)
            self.particle_steps += int(pending.size)
            self._c_psteps.inc(pending.size)
        self.time = t
        # Timesteps must be re-seeded: the sync step landed particles on
        # times that may not sit on their old block grid.
        dt_raw = startup_dt(sys_.acc, sys_.jerk, self.params.eta_start)
        sys_.dt[...] = quantize(dt_raw, sys_.t, None, self.params)
        # Only steps whose grid passes through t are admissible.
        self._align_steps_to_time(t)

    # -- escapers ---------------------------------------------------------

    def remove_escapers(self, r_min: float = 50.0, m_central: float = 1.0) -> int:
        """Drop particles on escape orbits; returns how many were removed.

        Production planetesimal runs prune hyperbolic escapers once they
        are far outside the disk (they no longer influence it but, left
        in, they slow the force loop and stretch the spatial dynamic
        range).  Each removal is logged as an ``escape`` event.  The
        system is synchronised by prediction to the current time first
        so the energy test is evaluated at a common epoch.
        """
        from .events import Event, detect_escapers

        if not self._initialized:
            raise IntegrationError("call initialize() before remove_escapers()")
        snap = self.predicted_state(self.time)
        escaping = detect_escapers(snap, m_central=m_central, r_min=r_min)
        if escaping.size == 0:
            return 0
        if escaping.size >= self.system.n:
            raise IntegrationError("refusing to remove every particle")
        self.scheduler.invalidate()  # the rows change
        for row in escaping:
            r = float(np.linalg.norm(snap.pos[row]))
            self.events.append(
                Event(
                    "escape",
                    float(self.time),
                    int(self.system.key[row]),
                    {"r": r},
                )
            )
        self.system = self.system.remove(escaping)
        self.backend.load(self.system)
        return int(escaping.size)

    # -- collisions / accretion -----------------------------------------

    def _resolve_collisions(self, t_now: float, active: np.ndarray) -> None:
        """Detect and merge overlapping pairs touching the active block.

        Positions are compared at ``t_now`` via prediction; each merger
        is perfect (mass/momentum conserving), logged as a ``merger``
        event, and followed by a force re-evaluation for the survivor.
        Non-survivor neighbours keep their stored forces — the error is
        O(separation^2 / distance^2) and corrected at their next step.
        """
        from .predictor import predict_system

        policy = self.collision_policy
        active_keys = set(int(k) for k in self.system.key[np.asarray(active)])
        for _ in range(64):  # safety cap on chain mergers per block
            sys_ = self.system
            if sys_.n < 2:
                return
            predict_system(sys_, t_now)
            rows = np.nonzero(np.isin(sys_.key, list(active_keys)))[0]
            if rows.size == 0:
                return
            pairs = self._candidate_pairs(rows, t_now)
            if not pairs:
                return
            i, j = pairs[0]
            survivor_key = self._merge_rows(i, j, t_now)
            absorbed = {int(sys_.key[i]), int(sys_.key[j])} - {survivor_key}
            active_keys -= absorbed
            active_keys.add(survivor_key)

    def _candidate_pairs(self, rows: np.ndarray, t_now: float) -> list:
        """Colliding pairs among ``rows`` vs everything, at ``t_now``.

        Uses the backend's neighbour search when available (GRAPE
        backends expose it via their machine — candidate screening
        rides the force pass for free on the real chip — and the
        hybrid backend directly), falling back to the O(n_act x N)
        sweep.  Both paths apply the exact radius test, so the merger
        set is identical.
        """
        from .collisions import find_collision_pairs

        sys_ = self.system
        radii = self.collision_policy.radii(sys_.mass)
        finder = getattr(self.backend, "machine", None)
        if finder is None or not hasattr(finder, "neighbours_of"):
            finder = self.backend if hasattr(self.backend, "neighbours_of") else None
        if finder is not None:
            h = 2.0 * float(radii.max())
            res = finder.neighbours_of(sys_, rows, t_now, h=h)
            key_to_row = {int(k): r for r, k in enumerate(sys_.key)}
            pairs = set()
            for local, row in enumerate(rows):
                for k in res.lists[local]:
                    other = key_to_row[int(k)]
                    d = float(
                        np.linalg.norm(sys_.pred_pos[row] - sys_.pred_pos[other])
                    )
                    if d < radii[row] + radii[other]:
                        pairs.add((min(int(row), other), max(int(row), other)))
            return sorted(pairs)
        return find_collision_pairs(sys_.pred_pos, radii, rows)

    def _merge_rows(self, i: int, j: int, t_now: float) -> int:
        """Perfectly merge rows ``i`` and ``j`` at ``t_now``; returns the
        survivor's key."""
        from .collisions import merge_state
        from .events import Event

        self.scheduler.invalidate()  # a row goes, the survivor is re-timed
        sys_ = self.system
        outcome = merge_state(
            float(sys_.mass[i]), sys_.pred_pos[i], sys_.pred_vel[i], int(sys_.key[i]),
            float(sys_.mass[j]), sys_.pred_pos[j], sys_.pred_vel[j], int(sys_.key[j]),
        )
        survivor_row = i if int(sys_.key[i]) == outcome.survivor_key else j
        absorbed_row = j if survivor_row == i else i

        sys_.mass[survivor_row] = outcome.mass
        sys_.pos[survivor_row] = outcome.pos
        sys_.vel[survivor_row] = outcome.vel
        sys_.t[survivor_row] = t_now
        # the merged body keeps the wider neighbour sphere of the pair
        sys_.h_nb[survivor_row] = max(float(sys_.h_nb[i]), float(sys_.h_nb[j]))

        self.system = sys_.remove(np.array([absorbed_row]))
        self.backend.load(self.system)

        row = int(np.nonzero(self.system.key == outcome.survivor_key)[0][0])
        acc, jerk = self.backend.forces_on(self.system, np.array([row]), t_now)
        if self.external_field is not None:
            ea, ej = self.external_field.acc_jerk(
                self.system.pos[row : row + 1], self.system.vel[row : row + 1]
            )
            acc = acc + ea
            jerk = jerk + ej
        self.system.acc[row] = acc[0]
        self.system.jerk[row] = jerk[0]

        dt_raw = startup_dt(acc, jerk, self.params.eta_start)
        dt_new = quantize(dt_raw, np.array([t_now]), None, self.params)[0]
        # shrink until the step grid passes through t_now
        if t_now != 0.0:
            for _ in range(64):
                ratio = t_now / dt_new
                if np.isclose(ratio, round(ratio), rtol=0.0, atol=1e-9):
                    break
                if dt_new <= self.params.dt_min:
                    break
                dt_new *= 0.5
        self.system.dt[row] = dt_new

        self.events.append(
            Event(
                "merger",
                float(t_now),
                outcome.survivor_key,
                {
                    "absorbed_key": outcome.absorbed_key,
                    "merged_mass": outcome.mass,
                },
            )
        )
        self.mergers += 1
        return outcome.survivor_key

    def _align_steps_to_time(self, t: float) -> None:
        """Shrink steps until ``t`` is commensurate with each step grid."""
        self.scheduler.invalidate()  # dt is rewritten below
        sys_ = self.system
        if t == 0.0:
            return
        dt = sys_.dt.copy()
        for _ in range(64):
            ratio = t / dt
            bad = ~np.isclose(ratio, np.round(ratio), rtol=0.0, atol=1e-9)
            bad &= dt > self.params.dt_min
            if not np.any(bad):
                break
            dt[bad] *= 0.5
        sys_.dt[...] = dt
