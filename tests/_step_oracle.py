"""``Simulation.step`` as it stood before PR 24, kept as a test oracle.

Verbatim copies of the parent commit's ``Simulation.step`` (dedented,
renamed, ``self`` is the ``Simulation``) and of the timestep functions
it called (``_norm``, ``aarseth_dt``, ``floor_power_of_two``,
``quantize``): every array gathered three times, the two ``.copy()``s,
four ``linalg.norm``s, clip + floor + clip, ``quantize`` fed
``sys_.t[active]``.  PR 24 rewrote the method to touch each row once and
the scheduler to keep ``t + dt`` between blocks; the claim is *same
operations, same order, same bits*, and
``tests/test_integrator.py::TestStepMatchesParent`` holds the rewrite to
it block for block.  This copy never commits a block, so the live
scheduler recomputes and checks everything on each call — the parent's
stateless behaviour.

``parent_synchronize`` is ``Simulation.synchronize`` as it stood before
``step`` and ``synchronize`` shared one Hermite step body (its own
gather, predict, field and correct; ``startup_dt`` and the re-seed),
verbatim with the same renaming; ``tests/test_host_path.py`` holds the
shared body to it.
"""

import numpy as np

from repro.core.hermite import correct
from repro.core.predictor import predict_positions, predict_velocities
from repro.core.timestep import TimestepParams, startup_dt
from repro.errors import IntegrationError


def _norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.atleast_2d(x), axis=1)


def aarseth_dt(
    acc: np.ndarray,
    jerk: np.ndarray,
    snap: np.ndarray,
    crackle: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Aarseth (1985) timestep from force derivatives, shape ``(n,)``.

    Degenerate cases (all derivatives zero, e.g. an isolated unperturbed
    particle) return ``inf`` so the caller's ``dt_max`` cap applies.
    """
    a = _norm(acc)
    j = _norm(jerk)
    s = _norm(snap)
    c = _norm(crackle)
    num = a * s + j**2
    den = j * c + s**2
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.sqrt(eta * num / den)
    dt[den == 0.0] = np.inf
    # num == 0 with den > 0 gives dt = 0, which would stall; treat as inf.
    dt[(num == 0.0)] = np.inf
    return dt


def floor_power_of_two(dt: np.ndarray) -> np.ndarray:
    """Largest power of two that is <= each (positive) element of ``dt``."""
    dt = np.asarray(dt, dtype=np.float64)
    out = np.zeros_like(dt)
    pos = dt > 0
    finite = pos & np.isfinite(dt)
    out[finite] = 2.0 ** np.floor(np.log2(dt[finite]))
    out[pos & ~np.isfinite(dt)] = np.inf
    return out


def quantize(
    dt_desired: np.ndarray,
    t_now: np.ndarray,
    dt_current: np.ndarray | None,
    params: TimestepParams,
) -> np.ndarray:
    """Quantise desired steps onto the block grid.

    Parameters
    ----------
    dt_desired:
        Raw criterion output (positive, possibly ``inf``).
    t_now:
        Current times of the particles (after their step), used for the
        commensurability rule.
    dt_current:
        The steps just completed; ``None`` on startup.  A step may at most
        double relative to ``dt_current``, and only when ``t_now`` is
        divisible by the doubled step.

    Returns
    -------
    Quantised steps, each ``dt_max / 2**k`` clipped to
    ``[dt_min, dt_max]``.
    """
    dt_desired = np.asarray(dt_desired, dtype=np.float64)
    t_now = np.asarray(t_now, dtype=np.float64)

    dt = floor_power_of_two(np.clip(dt_desired, params.dt_min, params.dt_max))
    # floor_power_of_two of values within [dt_min, dt_max] stays in range
    # because both bounds are powers of two of each other.
    dt = np.clip(dt, params.dt_min, params.dt_max)

    if dt_current is not None:
        dt_current = np.asarray(dt_current, dtype=np.float64)
        grow = dt > dt_current
        if np.any(grow):
            doubled = dt_current[grow] * 2.0
            # commensurability: t must sit on the doubled-step grid
            steps = t_now[grow] / doubled
            ok = np.isclose(steps, np.round(steps), rtol=0.0, atol=1e-9)
            allowed = np.where(ok, doubled, dt_current[grow])
            dt[grow] = np.minimum(dt[grow], allowed)
    return dt


def parent_step(self) -> tuple[float, int]:
    """Advance one block; returns ``(new_time, block_size)``."""
    if not self._initialized:
        raise IntegrationError("call initialize() before stepping")
    tracer = self._tracer
    with tracer.span("block_step"):
        sys_ = self.system
        t_next, active = self.scheduler.next_block(sys_.t, sys_.dt)
        dt = sys_.dt[active]

        # Host-side prediction of the i-particles.
        with tracer.span("predict"):
            pred_pos = predict_positions(
                sys_.pos[active], sys_.vel[active],
                sys_.acc[active], sys_.jerk[active], dt,
            )
            pred_vel = predict_velocities(
                sys_.vel[active], sys_.acc[active], sys_.jerk[active], dt
            )

        acc0 = sys_.acc[active].copy()
        jerk0 = sys_.jerk[active].copy()

        with tracer.span("force", n_active=int(active.size)):
            acc1, jerk1 = self.backend.forces_on(sys_, active, t_next)
            if self.external_field is not None:
                ea, ej = self.external_field.acc_jerk(pred_pos, pred_vel)
                acc1 = acc1 + ea
                jerk1 = jerk1 + ej

        with tracer.span("correct"):
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

            if not (np.all(np.isfinite(pos1)) and np.all(np.isfinite(vel1))):
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


def parent_synchronize(self, t: float | None = None) -> None:
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
