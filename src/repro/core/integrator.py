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
   pipelines): one ``block_predict`` call, into the block buffer;
3. obtain mutual force + jerk on the block from the backend;
4. one ``block_correct`` call: add the analytic solar field at the
   predicted state, apply the Hermite corrector, choose the Aarseth
   step and quantise it, and — only once every row is checked — write
   the rows back; then the scheduler commits their update times;
5. push the corrected particles back to the backend (on GRAPE-6, a
   j-memory write over the host interface).

Steps 2 and 4 are this module's :func:`block_predict` and
:func:`block_correct` (``predict_positions``, ``KeplerField.acc_jerk``,
``correct``, ``aarseth_dt``, ``quantize``) in C, bit for bit on every
host; the NumPy twins run for the NumPy tier and blocks with an
off-grid step.  P(EC)^n, any field, collision runs and ``synchronize``
all take this one step body.

:meth:`Simulation.evolve` runs steps 1-5 in C for whole runs of blocks
(``NativeTile.run_blocks``: the scheduler's pick and checks, the same
predict, the engine's serial chunk sum, the same correct and write-back,
block after block) wherever :meth:`Simulation.step` would do exactly
that arithmetic: the native tier, a ``HostDirectBackend`` on an
untraced engine, a ``KeplerField`` or no field, one corrector pass, no
collision policy, no observability, no ``callback`` and nothing
wrapped (:meth:`Simulation._loop_tile`).  The loop hands back to
:meth:`Simulation.step` every block whose force sum the engine would
thread (so its threads keep it), with a step off the block grid, or
whose correction or check fails, before writing any of it, and returns at least every
``native.BLOCK_CAP`` blocks; Python books the blocks it took in bulk.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError, IntegrationError
from .backends import ForceBackend, HostDirectBackend
from .events import EventLog
from .external import KeplerField
from .hermite import correct
from .particles import ParticleSystem
from .predictor import predict_positions, predict_velocities
from .scheduler import BlockScheduler
from .timestep import TimestepParams, aarseth_dt, quantize, startup_dt

__all__ = ["Simulation"]

# columns of a block-buffer row (``B_*`` of ``_tile.c``)
_POS0, _VEL0, _ACC0, _JERK0, _XP, _VP, _ACC1, _JERK1, _POS1, _VEL1 = (
    slice(k, k + 3) for k in (0, 3, 6, 9, 13, 16, 19, 22, 25, 28))
_DT, _DTNEW = 12, 31


def block_predict(system, active, block) -> bool:
    """``NativeTile.block_predict`` in NumPy, for any step: gather the
    ``active`` rows into ``block``, predict each over its own ``dt``,
    and return whether every step is a power of two (as the tile does)."""
    b = block[: active.shape[0]]
    pos0, vel0 = system.pos[active], system.vel[active]
    acc0, jerk0, dt = system.acc[active], system.jerk[active], system.dt[active]
    b[:, _POS0], b[:, _VEL0], b[:, _ACC0], b[:, _JERK0], b[:, _DT] = (
        pos0, vel0, acc0, jerk0, dt)
    b[:, _XP] = predict_positions(pos0, vel0, acc0, jerk0, dt)
    b[:, _VP] = predict_velocities(vel0, acc0, jerk0, dt)
    return bool((np.frexp(dt)[0] == 0.5).all())


def block_correct(system, active, acc1, jerk1, block, t_next, kepler_mass,
                  params) -> None:
    """``NativeTile.block_correct`` in NumPy, for any step: add the
    Kepler field of ``kepler_mass`` (``None``: none) at the prediction
    in ``block``, correct, take the quantised Aarseth step and write
    ``pos vel acc jerk t dt`` of the ``active`` rows.  Raises what the
    tile raises, with nothing written outside ``block``."""
    b = block[: active.shape[0]]
    # contiguous copies: einsum's sums follow the memory layout
    pred_pos, pred_vel, dt = b[:, _XP].copy(), b[:, _VP].copy(), b[:, _DT].copy()
    if kepler_mass is not None:
        ea, ej = KeplerField(kepler_mass).acc_jerk(pred_pos, pred_vel)
        acc1, jerk1 = acc1 + ea, jerk1 + ej
    pos1, vel1, derivs = correct(pred_pos, pred_vel, b[:, _ACC0], b[:, _JERK0],
                                 acc1, jerk1, dt)
    if not (np.isfinite(pos1).all() and np.isfinite(vel1).all()):
        raise IntegrationError(f"non-finite state after block at t={t_next}")
    dt_raw = aarseth_dt(acc1, jerk1, derivs.snap, derivs.crackle, params.eta)
    b[:, _DTNEW] = dt_new = quantize(dt_raw, np.full(b.shape[0], t_next), dt, params)
    b[:, _ACC1], b[:, _JERK1], b[:, _POS1], b[:, _VEL1] = acc1, jerk1, pos1, vel1
    system.pos[active], system.vel[active] = pos1, vel1
    system.acc[active], system.jerk[active] = acc1, jerk1
    system.t[active], system.dt[active] = t_next, dt_new


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
        acc, jerk = self._forces(np.arange(n), self.time, sys_.pos, sys_.vel)
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
            self._advance(active, t_next, self.corrector_iterations)
            self.scheduler.commit()  # the n_active update times, checked

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

    def _advance(self, rows, t, passes) -> None:
        """The Hermite step of ``rows`` to ``t``, each over its own
        ``dt``: predict into the block buffer, then ``passes`` times
        force -> field -> correct (P(EC)^n), by the tile or, with no
        tile or a step off the block grid, by the NumPy twins.  A
        ``KeplerField`` rides inside the first correct call; any other
        field, and every later pass, is added here, at the rows the
        last pass corrected."""
        sys_, field, tracer = self.system, self.external_field, self._tracer
        n, block = rows.size, self._block
        if block.shape[0] < n:
            block = self._block = np.empty((max(n, 2 * block.shape[0]), block.shape[1]))
        tile, finish = self._tile, block_correct
        with tracer.span("predict"):
            if tile is not None and tile.block_predict(sys_, rows, block):
                finish = tile.block_correct
            else:
                block_predict(sys_, rows, block)
        kepler = field.mass if type(field) is KeplerField else None
        for k in range(passes):
            with tracer.span("force", n_active=n):
                if field is None or (k == 0 and kepler is not None):
                    acc1, jerk1 = self.backend.forces_on(sys_, rows, t)
                elif k == 0:
                    acc1, jerk1 = self._forces(rows, t, block[:n, _XP].copy(),
                                               block[:n, _VP].copy())
                else:
                    acc1, jerk1 = self._forces(rows, t, sys_.pos[rows], sys_.vel[rows])
            with tracer.span("correct"):
                finish(sys_, rows, acc1, jerk1, block, t,
                       kepler if k == 0 else None, self.params)

    def _forces(self, rows, t, pos, vel):
        """The backend's force and jerk on ``rows`` at ``t``, plus the
        external field at ``pos`` / ``vel``."""
        acc, jerk = self.backend.forces_on(self.system, rows, t)
        if self.external_field is None:
            return acc, jerk
        ea, ej = self.external_field.acc_jerk(pos, vel)
        return acc + ea, jerk + ej

    def evolve(
        self,
        t_end: float,
        callback: Callable[["Simulation"], None] | None = None,
        max_block_steps: int | None = None,
    ) -> None:
        """Advance until no block time remains at or below ``t_end``.

        ``callback`` (if given) runs after every block step; use
        :meth:`predicted_state` inside it for output at the current time.
        ``max_block_steps`` bounds runtime in tests.  Runs of blocks
        that :meth:`_loop_tile` admits take one native call each, with
        the bits and counts of as many :meth:`step` calls.
        """
        if not self._initialized:
            self.initialize()
        tile = self._loop_tile(callback)
        steps = backoff = wait = 0
        # read self.system each iteration: mergers replace the object
        while self.scheduler.peek_time(self.system.t, self.system.dt) <= t_end:
            if tile is not None and not wait:
                room = (None if max_block_steps is None
                        else max(1, max_block_steps - steps))
                done = self._run_blocks(tile, t_end, room)
                if done:
                    backoff = 0
                    steps += done
                    if max_block_steps is not None and steps >= max_block_steps:
                        break
                    continue
                # the loop handed this block back: step() takes it and,
                # after every further hand-back in a row, twice as many
                # more, so that a run whose every block threads (a dense
                # one) asks the loop a handful of times, not every block
                wait = backoff = 2 * backoff + 1
            wait = max(wait - 1, 0)
            self.step()
            if callback is not None:
                callback(self)
            steps += 1
            if max_block_steps is not None and steps >= max_block_steps:
                break

    def _loop_tile(self, callback):
        """The tile whose :meth:`~repro.accel.native.NativeTile.run_blocks`
        may take :meth:`evolve`'s blocks, or ``None``: only where
        :meth:`step` would run exactly that arithmetic and nothing else —
        the native tier, the host backend's own force on an unobserved
        engine, a Kepler field or none, one corrector pass, no collision
        policy, no observability, no ``callback``, and none of the
        methods :meth:`step` runs wrapped (tests and the benchmark's
        tracer wrap them)."""
        from ..accel import KernelEngine, native

        tile, field = self._tile, self.external_field
        engine = getattr(self.backend, "engine", None)
        if not (callback is None
                and self.corrector_iterations == 1
                and self.collision_policy is None
                and not self.obs.enabled
                and (field is None or type(field) is KeplerField)
                and _unwrapped(self, Simulation, "step", "_advance")
                and _unwrapped(self.scheduler, BlockScheduler,
                               "next_block", "commit")
                and _unwrapped(self.backend, HostDirectBackend,
                               "forces_on", "push_updates")
                and _unwrapped(engine, KernelEngine, "acc_jerk_active")
                and engine.tier == "native"
                and not engine._tracer.enabled
                and _unwrapped(tile, native.NativeTile,
                               "block_predict", "block_correct")):
            return None
        return tile

    def _run_blocks(self, tile, t_end, max_blocks) -> int:
        """Take up to ``max_blocks`` blocks (``None``: the tile's cap)
        at or before ``t_end`` in one ``tile.run_blocks`` call and book
        them as :meth:`step` books each; returns how many it took."""
        sys_, backend, field = self.system, self.backend, self.external_field
        engine = backend.engine
        times, sizes = tile.run_blocks(
            sys_, float(t_end), max_blocks,
            None if field is None else field.mass, self.params,
            float(backend.eps) ** 2, engine.config,
        )
        done = int(sizes.size)
        if done:
            self.scheduler.invalidate()  # t and dt were written outside a block
            n, steps = sys_.n, int(sizes.sum())
            self.time = float(times[-1])
            self.block_steps += done
            self.particle_steps += steps
            self._c_blocks.inc(done)
            self._c_psteps.inc(steps)
            self.scheduler.stats.record_sizes(sizes)
            backend.counter.add_blocks(sizes, n)
            engine.count_active_calls(sizes, n)
        return done

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
        codes; a non-finite row raises with no array changed), then
        re-seeds timesteps with the startup criterion.  Use before
        precise energy measurements; :meth:`predicted_state` is cheaper
        for snapshots.
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
            dt = sys_.dt[pending]
            sys_.dt[pending] = t - sys_.t[pending]
            try:
                self._advance(pending, t, 1)
            except BaseException:
                sys_.dt[pending] = dt  # a failed step wrote nothing else
                raise
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
        acc, jerk = self._forces(np.array([row]), t_now,
                                 self.system.pos[row : row + 1],
                                 self.system.vel[row : row + 1])
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


def _unwrapped(obj, cls, *names) -> bool:
    """Whether ``obj`` is a ``cls`` that runs ``cls``'s own ``names``:
    none is replaced in a subclass or set on the instance."""
    return isinstance(obj, cls) and all(
        getattr(type(obj), name) is getattr(cls, name) and name not in vars(obj)
        for name in names)
