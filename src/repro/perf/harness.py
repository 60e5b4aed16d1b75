"""Measurement harness shared by the benchmark scripts.

:func:`run_scaled_disk` runs the paper's problem at laptop scale with
any backend and collects everything the benchmark tables need: wall
time, block statistics, interaction counts, energy drift, and (for the
GRAPE backend) the modelled hardware timing totals.

Measurement goes through :mod:`repro.obs`: pass an
:class:`~repro.obs.Observability` bundle and the whole run — integrator
phase spans, GRAPE model time split, communication counters — lands in
one registry/trace, which :class:`RunResult` snapshots.  With the
default ``obs=None`` the null objects keep the run at seed speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import EnergyTracker, KeplerField, Simulation
from ..obs import NULL_OBS
from ..planetesimal import PlanetesimalDiskConfig, build_disk_system
from ..runio.spec import RunSpec

__all__ = ["RunResult", "run_scaled_disk"]


@dataclass
class RunResult:
    """Everything measured from one scaled run."""

    n: int
    t_end: float
    wall_seconds: float
    block_steps: int
    particle_steps: int
    mean_block: float
    median_block: float
    block_fraction: float
    energy_error: float
    interactions: int
    sim: Simulation = field(repr=False)
    #: Flat metrics snapshot (empty when observability was disabled).
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def interactions_per_second(self) -> float:
        return self.interactions / self.wall_seconds if self.wall_seconds else 0.0


def run_scaled_disk(
    backend,
    n: int = 512,
    t_end: float = 10.0,
    seed: int = 0,
    eta: float = 0.02,
    dt_max: float = 1.0,
    e_rms: float = 0.01,
    protoplanets=None,
    measure_energy: bool = True,
    max_block_steps: int | None = None,
    obs=None,
) -> RunResult:
    """Run the scaled paper disk with ``backend``; return measurements.

    ``backend`` must implement :class:`~repro.core.backends.ForceBackend`
    and expose an ``eps`` attribute (all provided backends do).  ``obs``
    (an :class:`~repro.obs.Observability`) enables metrics + tracing for
    the run; the GRAPE machine behind a GRAPE backend is attached
    automatically.
    """
    obs = obs or NULL_OBS
    machine = getattr(backend, "machine", None)
    if machine is not None and hasattr(machine, "observe"):
        machine.observe(obs)

    config = PlanetesimalDiskConfig(
        n_planetesimals=n, seed=seed, e_rms=e_rms, protoplanets=protoplanets
    )
    system = build_disk_system(config)
    sim = Simulation(
        system,
        backend,
        external_field=KeplerField(),
        timestep_params=RunSpec(eta=eta, dt_max=dt_max).timestep_params(),
        obs=obs,
    )
    tracker = EnergyTracker(backend.eps, sim.external_field) if measure_energy else None
    interactions_before = backend.counter.force_interactions

    wall0 = time.perf_counter()
    with obs.tracer.span("run", n=n, t_end=float(t_end)):
        sim.initialize()
        if tracker is not None:
            tracker.start(sim.system)
        sim.evolve(t_end, max_block_steps=max_block_steps)
        sim.synchronize(min(t_end, float(sim.system.t.max())))
    wall = time.perf_counter() - wall0

    err = tracker.sample(sim.system) if tracker is not None else float("nan")
    interactions = backend.counter.force_interactions - interactions_before

    # Whole-run measurements land in the shared registry (one path for
    # benchmarks and production runs); the snapshot is what reports use.
    m = obs.metrics
    m.gauge("run.wall_seconds").set(wall)
    m.gauge("run.particles").set(sim.system.n)
    if np.isfinite(err):
        m.gauge("run.energy_error").set(err)
    m.counter("force.interactions_total").inc(interactions)
    snap = obs.metrics.snapshot()

    stats = sim.scheduler.stats
    n_total = sim.system.n
    return RunResult(
        n=n_total,
        t_end=t_end,
        wall_seconds=wall,
        block_steps=int(snap.get("blockstep.total", sim.block_steps)),
        particle_steps=int(snap.get("blockstep.active_particles", sim.particle_steps)),
        mean_block=stats.mean_block,
        median_block=stats.median_block(),
        block_fraction=stats.mean_block / n_total,
        energy_error=err,
        interactions=interactions,
        sim=sim,
        metrics=snap,
    )
