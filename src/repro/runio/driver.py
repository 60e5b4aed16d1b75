"""The production-run driver: everything a long run needs, assembled.

``Simulation.evolve`` is the inner loop; a *production* run (the
paper's was 10.3 hours) additionally wants scheduled snapshots, a run
log, periodic energy accounting, escaper pruning, checkpoint–restart,
and a final report.  :class:`ProductionRun` packages that workflow:

    run = ProductionRun(
        sim,
        directory="runs/disk-n2000",
        snapshot_interval=100.0,
        diagnostics_interval=20.0,
        prune_escapers_beyond=200.0,
        checkpoint_interval=500,          # block steps
    )
    report = run.execute(t_end=1000.0)
    print(report.summary())

If the run dies (machine crash, injected host-kill), continue it with::

    run = ProductionRun.resume("runs/disk-n2000", backend)
    report = run.execute()                # t_end restored from checkpoint

The resumed run is bit-identical to one that was never interrupted: the
checkpoint stores the raw integrator state at a block boundary and the
block scheduler holds nothing that is not derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..accel import native
from ..core.diagnostics import EnergyTracker
from ..errors import ConfigurationError
from .runlog import RunLogger
from .schedule import OutputManager, SnapshotSchedule

__all__ = ["RunReport", "ProductionRun"]

#: run-management settings every checkpoint stores and a resume restores
_MANAGEMENT = ("snapshot_interval", "diagnostics_interval", "checkpoint_interval",
               "prune_escapers_beyond", "energy_error_limit", "selftest_every")


@dataclass
class RunReport:
    """Final accounting of one production run."""

    t_final: float
    block_steps: int
    particle_steps: int
    n_final: int
    mergers: int
    escapers_removed: int
    snapshots_written: int
    max_energy_error: float
    #: GRAPE timing totals when the backend exposes them (else None)
    grape_totals: dict | None = None
    checkpoints_written: int = 0
    #: Health events emitted by the run watchdogs (0 = clean run).
    health_events: int = 0

    def summary(self) -> str:
        lines = [
            f"production run complete at T = {self.t_final:g}",
            f"  blocks {self.block_steps:,}, particle steps {self.particle_steps:,}",
            f"  particles remaining {self.n_final} "
            f"(mergers {self.mergers}, escapers removed {self.escapers_removed})",
            f"  snapshots {self.snapshots_written}, "
            f"checkpoints {self.checkpoints_written}, "
            f"max |dE/E| {self.max_energy_error:.2e}",
        ]
        if self.grape_totals:
            lines.append(
                f"  GRAPE model: {self.grape_totals['total_s']:.3f} s, "
                f"{self.grape_totals['achieved_flops'] / 1e12:.2f} Tflops"
            )
        if self.health_events:
            lines.append(f"  health events {self.health_events} (see run.jsonl)")
        return "\n".join(lines)


class ProductionRun:
    """Managed execution of a :class:`~repro.core.integrator.Simulation`.

    Parameters
    ----------
    sim:
        An initialised (or initialisable) simulation.
    directory:
        Run directory for snapshots, checkpoints and the JSONL log.
    snapshot_interval:
        Simulation-time cadence of snapshots (None disables them).
    diagnostics_interval:
        Cadence of energy sampling + log records (None disables).
    prune_escapers_beyond:
        Remove hyperbolic particles outside this radius at diagnostics
        cadence (None disables pruning).
    run_id:
        Label written to the log header.
    checkpoint_interval:
        Checkpoint every this many *block steps* into
        ``<directory>/checkpoints`` (None disables; see
        :class:`~repro.resilience.CheckpointManager`).
    checkpoint_metadata:
        Extra JSON-serialisable dict stored in every checkpoint under
        ``config`` (the CLI stores how to rebuild the backend here).
    energy_error_limit:
        Absolute |dE/E| limit of the energy health check
        (:class:`~repro.obs.health.EnergyDriftDetector`): every
        diagnostics sample beyond it is a ``critical`` health event,
        counts ``faults.watchdog_trips_total``, logs a ``watchdog``
        event and runs an in-run self-test sweep when the backend has
        recovery armed.
    selftest_every:
        Run a self-test sweep every this many block steps (None
        disables; requires an armed hierarchy-mode GRAPE backend).
    on_block:
        Callback invoked with the simulation after every block (after
        snapshot/diag/checkpoint handling) — used by kill-and-resume
        tests and custom steering.
    """

    def __init__(
        self,
        sim,
        directory,
        snapshot_interval: float | None = None,
        diagnostics_interval: float | None = None,
        prune_escapers_beyond: float | None = None,
        run_id: str = "run",
        checkpoint_interval: int | None = None,
        checkpoint_metadata: dict | None = None,
        energy_error_limit: float | None = None,
        selftest_every: int | None = None,
        on_block=None,
    ) -> None:
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ConfigurationError("snapshot_interval must be positive")
        if diagnostics_interval is not None and diagnostics_interval <= 0:
            raise ConfigurationError("diagnostics_interval must be positive")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1 block")
        if energy_error_limit is not None and energy_error_limit <= 0:
            raise ConfigurationError("energy_error_limit must be positive")
        if selftest_every is not None and selftest_every < 1:
            raise ConfigurationError("selftest_every must be >= 1 block")
        self.sim = sim
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self.snapshot_interval = snapshot_interval
        self.diagnostics_interval = diagnostics_interval
        self.prune_escapers_beyond = prune_escapers_beyond
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_metadata = checkpoint_metadata
        self.energy_error_limit = energy_error_limit
        self.selftest_every = selftest_every
        self.on_block = on_block
        self.escapers_removed = 0
        self.checkpoints_written = 0
        #: Checkpoint state dict when constructed by :meth:`resume`.
        self._restore: dict | None = None

    # -- restart ---------------------------------------------------------

    @classmethod
    def resume(
        cls,
        directory,
        backend,
        *,
        external_field=None,
        timestep_params=None,
        collision_policy=None,
        corrector_iterations: int = 1,
        obs=None,
        **overrides,
    ) -> "ProductionRun":
        """Rebuild a run from the latest checkpoint in ``directory``.

        ``backend`` must be constructed the same way as the original
        run's (the CLI stores its recipe in the checkpoint ``config``).
        Intervals and run id are restored from the checkpoint; keyword
        ``overrides`` replace any of them.  Raises
        :class:`~repro.errors.CheckpointError` when the directory holds
        no checkpoint, and :class:`~repro.errors.ConfigurationError`
        when it was written on the other kernel tier
        (:mod:`repro.accel.native`): the tiers differ in the last bits,
        so resume == uninterrupted can not hold across them.  A
        checkpoint from before tiers were recorded loads as it did.
        """
        from ..core.integrator import Simulation
        from ..resilience import CheckpointManager

        directory = Path(directory)
        manager = CheckpointManager(directory / "checkpoints", obs=obs)
        system, state = manager.load_latest()
        written_on, here = state.get("kernel_tier"), native.tier()
        if written_on is not None and written_on != here:
            raise ConfigurationError(
                f"checkpoint in {directory} was written on the {written_on!r} "
                f"kernel tier, this process runs the {here!r} one; "
                "resuming would silently change the summation order "
                "(`python -m repro.accel.native` shows why the tier differs)"
            )
        sim = Simulation.from_restart(
            system,
            backend,
            state["time"],
            external_field=external_field,
            timestep_params=timestep_params,
            collision_policy=collision_policy,
            corrector_iterations=corrector_iterations,
            obs=obs,
            block_steps=state.get("block_steps", 0),
            particle_steps=state.get("particle_steps", 0),
            mergers=state.get("mergers", 0),
        )
        kwargs = {k: state.get(k) for k in _MANAGEMENT}
        # keep carrying the backend recipe: without this, checkpoints
        # written *after* a resume would lose the config and a second
        # resume could not rebuild the backend
        kwargs.update(run_id=state.get("run_id", "run"),
                      checkpoint_metadata=state.get("config"))
        kwargs.update(overrides)
        run = cls(sim, directory, **kwargs)
        run.escapers_removed = int(state.get("escapers_removed", 0))
        run._restore = state
        return run

    # -- internals -------------------------------------------------------

    def _grape_totals(self) -> dict | None:
        machine = getattr(self.sim.backend, "machine", None)
        totals = getattr(machine, "totals", None)
        return totals.to_dict() if totals is not None else None

    def _recovery(self):
        machine = getattr(self.sim.backend, "machine", None)
        return getattr(machine, "recovery", None)

    def _write_checkpoint(self, manager, tracker, t_end, next_diag, output) -> None:
        sim = self.sim
        state = {
            "time": float(sim.time),
            "t_end": float(t_end),
            "block_steps": sim.block_steps,
            "particle_steps": sim.particle_steps,
            "mergers": getattr(sim, "mergers", 0),
            "escapers_removed": self.escapers_removed,
            "reference_energy": tracker.reference_energy,
            "max_error": tracker.max_error,
            "next_diag": next_diag,
            "snapshot_next_time": (
                output.schedule.next_time if output is not None else None
            ),
            "run_id": self.run_id,
            **{k: getattr(self, k) for k in _MANAGEMENT},
            "kernel_tier": native.tier(),
        }
        if self.checkpoint_metadata:
            state["config"] = self.checkpoint_metadata
        manager.write(sim.system, state)
        self.checkpoints_written += 1

    # -- execution -------------------------------------------------------

    def execute(self, t_end: float | None = None) -> RunReport:
        """Run to ``t_end`` with the configured management; blocking.

        On a resumed run ``t_end`` may be omitted — the target stored in
        the checkpoint is used.
        """
        sim = self.sim
        restore = self._restore
        if t_end is None:
            if restore is None or restore.get("t_end") is None:
                raise ConfigurationError(
                    "t_end is required (nothing to restore it from)"
                )
            t_end = float(restore["t_end"])
        if not sim._initialized:
            sim.initialize()

        tracker = EnergyTracker(sim.backend.eps, sim.external_field)
        if restore is not None:
            # keep the original reference: re-baselining would hide any
            # energy drift accumulated before the interruption
            tracker.restore(
                restore["reference_energy"],
                max_error=restore.get("max_error", 0.0),
                t=sim.time,
            )
        else:
            tracker.start(sim.system)

        output = None
        if self.snapshot_interval is not None:
            output = OutputManager(
                self.directory,
                SnapshotSchedule(self.snapshot_interval, t_start=sim.time),
            )
            if restore is not None and restore.get("snapshot_next_time") is not None:
                output.schedule.next_time = float(restore["snapshot_next_time"])
        next_diag = (
            sim.time + self.diagnostics_interval
            if self.diagnostics_interval is not None
            else None
        )
        if (
            restore is not None
            and self.diagnostics_interval is not None
            and restore.get("next_diag") is not None
        ):
            next_diag = float(restore["next_diag"])

        ckpt = None
        if self.checkpoint_interval is not None:
            from ..resilience import CheckpointManager

            ckpt = CheckpointManager(self.directory / "checkpoints", obs=sim.obs)

        from ..obs.health import HealthMonitor, HealthSample, default_detectors

        health = HealthMonitor(default_detectors(self.energy_error_limit), obs=sim.obs)
        energy_check = health.detectors[0]

        recovery = self._recovery()
        blocks_since_ckpt = 0
        blocks_since_sweep = 0

        def sweep_and_log(s, log, reason: str) -> None:
            report = recovery.selftest_sweep(s.system)
            if report is not None:
                log.event(
                    "selftest_sweep",
                    reason=reason,
                    failed=report.n_failed,
                    masked=report.n_masked,
                    t=s.time,
                )

        with RunLogger(
            self.directory / "run.jsonl",
            run_id=self.run_id,
            metadata={
                "n": sim.system.n,
                "t_end": t_end,
                "resumed": restore is not None,
            },
        ) as log:
            if restore is not None:
                log.event("resume", t=sim.time, block_steps=sim.block_steps)

            def per_block(s):
                nonlocal next_diag, blocks_since_ckpt, blocks_since_sweep
                if output is not None:
                    path = output.maybe_write(s, {"run_id": self.run_id})
                    if path is not None:
                        log.event("snapshot", file=path.name, t=s.time)
                if next_diag is not None and s.time >= next_diag:
                    err = tracker.sample(s.predicted_state())
                    log.record(s, energy_error=err)
                    sample = HealthSample(
                        t=float(s.time),
                        metrics=sim.obs.metrics.snapshot(),
                        energy_error=err,
                    )
                    for ev in health.check(sample):
                        log.event("health", **ev.to_record())
                    # over the absolute limit: recover on every such
                    # sample, even one the monitor does not log again
                    if energy_check.over_limit:
                        sim.obs.metrics.counter("faults.watchdog_trips_total").inc()
                        log.event("watchdog", energy_error=err, t=s.time)
                        if recovery is not None:
                            sweep_and_log(s, log, "watchdog")
                    if self.prune_escapers_beyond is not None:
                        removed = s.remove_escapers(
                            r_min=self.prune_escapers_beyond
                        )
                        if removed:
                            self.escapers_removed += removed
                            log.event("prune", removed=removed, t=s.time)
                    while next_diag <= s.time:
                        next_diag += self.diagnostics_interval
                if self.selftest_every is not None and recovery is not None:
                    blocks_since_sweep += 1
                    if blocks_since_sweep >= self.selftest_every:
                        blocks_since_sweep = 0
                        sweep_and_log(s, log, "periodic")
                if ckpt is not None:
                    blocks_since_ckpt += 1
                    if blocks_since_ckpt >= self.checkpoint_interval:
                        blocks_since_ckpt = 0
                        self._write_checkpoint(
                            ckpt, tracker, t_end, next_diag, output
                        )
                        log.event("checkpoint", t=s.time)
                if self.on_block is not None:
                    self.on_block(s)

            sim.evolve(t_end, callback=per_block)
            sim.synchronize(min(t_end, float(sim.system.t.max())))
            final_err = tracker.sample(sim.system)
            log.record(sim, energy_error=final_err, note="final")

        return RunReport(
            t_final=float(sim.time),
            block_steps=sim.block_steps,
            particle_steps=sim.particle_steps,
            n_final=sim.system.n,
            mergers=getattr(sim, "mergers", 0),
            escapers_removed=self.escapers_removed,
            snapshots_written=output.n_snapshots if output is not None else 0,
            max_energy_error=tracker.max_error,
            grape_totals=self._grape_totals(),
            checkpoints_written=self.checkpoints_written,
            health_events=health.events_total,
        )
