"""Tests for fault injection, detection and recovery (repro.resilience)."""

import numpy as np
import pytest

from repro.core import KeplerField, Simulation, TimestepParams
from repro.errors import (
    ConfigurationError,
    GrapeError,
    HardwareFaultError,
    SimulationKilled,
)
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.obs import Observability
from repro.obs.health import EnergyDriftDetector, HealthSample
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    force_guard,
    scan_jmem,
)

from conftest import make_random_cluster


def make_machine(obs=None, **kwargs):
    """Hierarchy-mode scaled-down machine (2x2x2x2 = 16 chips)."""
    return Grape6Machine(
        Grape6Config.scaled_down(), eps=0.008, mode="hierarchy",
        obs=obs, **kwargs,
    )


def loaded_machine(n=32, seed=3, obs=None, plan=None, **kwargs):
    """An armed machine with a random cluster resident; returns both."""
    system = make_random_cluster(n, seed=seed)
    machine = make_machine(obs=obs, **kwargs)
    machine.attach_resilience(plan)
    if obs is not None:
        machine.observe(obs)  # re-bind injector/recovery counters
    machine.load(system)
    return machine, system


def reference_forces(machine, system, active, t_now=0.0):
    """Fault-free flat evaluation with the same softening."""
    flat = Grape6Machine(machine.config, eps=machine.eps, mode="flat")
    flat.load(system)
    return flat.compute_block(system, active, t_now)


class TestFaultPlan:
    def test_due_fires_once_with_catchup(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.CHIP_KILL, at_block=2),
            FaultSpec(FaultKind.LINK_DROP, at_block=5),
        ])
        assert plan.due(0) == []
        # index 3 skipped past 2 (recovery re-evaluations can do that)
        fired = plan.due(3)
        assert [s.kind for s in fired] == [FaultKind.CHIP_KILL]
        assert plan.due(3) == []  # one-shot
        assert plan.n_pending == 1
        assert [s.kind for s in plan.due(9)] == [FaultKind.LINK_DROP]
        assert plan.n_pending == 0

    def test_negative_block_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.CHIP_KILL, at_block=-1)

    def test_random_plan_is_seeded(self):
        kinds = [FaultKind.CHIP_KILL, FaultKind.JMEM_CORRUPT]
        a = FaultPlan.random(kinds, n_faults=5, max_block=100, seed=9)
        b = FaultPlan.random(kinds, n_faults=5, max_block=100, seed=9)
        assert len(a) == 5
        assert [(s.kind, s.at_block) for s in a.specs] == [
            (s.kind, s.at_block) for s in b.specs
        ]
        with pytest.raises(ConfigurationError):
            FaultPlan.random([], n_faults=1, max_block=10)


class TestHardwareFaults:
    """Injection + detection + recovery on the hierarchy machine."""

    def test_chip_kill_detected_and_recovered(self):
        obs = Observability()
        plan = FaultPlan([FaultSpec(FaultKind.CHIP_KILL, at_block=0)])
        machine, system = loaded_machine(obs=obs, plan=plan)
        active = np.arange(system.n)
        acc, jerk = machine.compute_block(system, active, 0.0)

        ref_acc, ref_jerk = reference_forces(machine, system, active)
        assert np.allclose(acc, ref_acc)
        assert np.allclose(jerk, ref_jerk)
        dead = [c for *_, c in machine.iter_chips() if c.pipelines.is_dead]
        assert len(dead) == 1
        m = obs.metrics
        assert m.counter("faults.injected_total").value == 1
        assert m.counter("faults.detected_total").value == 1
        assert m.counter("faults.recovered_total").value == 1
        assert m.counter("recovery.reloads_total").value >= 1
        assert m.gauge("faults.masked_chips").value == 1
        assert m.counter("recovery.seconds").value > 0

    def test_jmem_corrupt_caught_by_force_guard(self):
        obs = Observability()
        plan = FaultPlan([
            FaultSpec(FaultKind.JMEM_CORRUPT, at_block=0, params={"count": 1}),
        ])
        machine, system = loaded_machine(obs=obs, plan=plan)
        assert scan_jmem(machine) == []  # clean before injection
        active = np.arange(system.n)
        acc, jerk = machine.compute_block(system, active, 0.0)
        assert np.all(np.isfinite(acc)) and np.all(np.isfinite(jerk))
        ref_acc, _ = reference_forces(machine, system, active)
        assert np.allclose(acc, ref_acc)
        # the reload rewrote the poisoned words from the host master copy
        assert scan_jmem(machine) == []
        assert obs.metrics.counter("faults.detected_total").value == 1
        assert obs.metrics.counter("recovery.reloads_total").value >= 1

    def test_board_kill_masks_whole_board(self):
        obs = Observability()
        plan = FaultPlan([FaultSpec(FaultKind.BOARD_KILL, at_block=0)])
        machine, system = loaded_machine(obs=obs, plan=plan)
        acc, _ = machine.compute_block(system, np.arange(system.n), 0.0)
        assert np.all(np.isfinite(acc))
        cfg = machine.config
        assert obs.metrics.gauge("faults.masked_chips").value == cfg.chips_per_board
        assert any(not b.alive_chips() for *_, b in machine.iter_boards())

    def test_pipeline_mask_degrades_without_killing(self):
        plan = FaultPlan([
            FaultSpec(
                FaultKind.PIPELINE_MASK, at_block=0,
                target=(0, 0, 0, 0), params={"n_pipelines": 2},
            ),
        ])
        machine, system = loaded_machine(plan=plan)
        machine.compute_block(system, np.arange(system.n), 0.0)
        pipes = machine.clusters[0].nodes[0].boards[0].chips[0].pipelines
        assert pipes.active_pipelines == pipes.n_pipelines - 2
        assert not pipes.is_dead

    def test_targeted_chip_kill(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.CHIP_KILL, at_block=0, target=(1, 0, 1, 1)),
        ])
        machine, system = loaded_machine(plan=plan)
        machine.compute_block(system, np.arange(system.n), 0.0)
        chip = machine.clusters[1].nodes[0].boards[1].chips[1]
        assert chip.pipelines.is_dead

    def test_hardware_kinds_are_noops_in_flat_mode(self):
        obs = Observability()
        plan = FaultPlan([
            FaultSpec(FaultKind.CHIP_KILL, at_block=0),
            FaultSpec(FaultKind.JMEM_CORRUPT, at_block=0),
            FaultSpec(FaultKind.BOARD_KILL, at_block=0),
        ])
        system = make_random_cluster(16, seed=1)
        machine = Grape6Machine(
            Grape6Config.scaled_down(), eps=0.008, mode="flat", obs=obs
        )
        machine.attach_resilience(plan)
        machine.observe(obs)
        machine.load(system)
        acc, _ = machine.compute_block(system, np.arange(16), 0.0)
        assert np.all(np.isfinite(acc))
        assert obs.metrics.counter("faults.injected_total").value == 0

    def test_host_only_fallback_when_capacity_exhausted(self):
        """Killing a chip on a nearly-full machine degrades to the host
        kernel permanently rather than aborting."""
        obs = Observability()
        plan = FaultPlan([FaultSpec(FaultKind.CHIP_KILL, at_block=0)])
        machine, system = loaded_machine(
            n=15, obs=obs, plan=plan, jmem_capacity_per_chip=2
        )
        active = np.arange(system.n)
        acc, jerk = machine.compute_block(system, active, 0.0)
        assert machine.recovery.host_only
        assert obs.metrics.counter("recovery.host_fallback_total").value == 1
        assert obs.metrics.counter("faults.recovered_total").value == 1
        ref_acc, ref_jerk = reference_forces(machine, system, active)
        assert np.allclose(acc, ref_acc)
        # subsequent blocks and reloads stay on the host path, and their
        # j-writes still find the chips the failed reload left loaded
        machine.push_updates(system, active)
        machine.load(system)
        acc2, _ = machine.compute_block(system, active, 0.0)
        assert np.allclose(acc2, ref_acc)


class TestLinkFaults:
    def _run_block(self, plan):
        machine, system = loaded_machine(n=16, plan=plan)
        machine.compute_block(system, np.arange(16), 0.0)
        return machine

    def test_link_drop_charges_retransmits(self):
        obs = Observability()
        plan = FaultPlan([
            FaultSpec(
                FaultKind.LINK_DROP, at_block=0,
                params={"component": "lvds", "count": 3},
            ),
        ])
        machine, system = loaded_machine(n=16, obs=obs, plan=plan)
        clean = self._run_block(None)
        machine.compute_block(system, np.arange(16), 0.0)
        assert machine.totals.lvds > clean.totals.lvds
        assert machine.totals.blocks == clean.totals.blocks  # overhead only
        m = obs.metrics
        assert m.counter("faults.link_retransmits_total").value == 3
        assert m.counter("faults.injected_total").value == 1

    def test_link_delay_stretches_component(self):
        plan = FaultPlan([
            FaultSpec(
                FaultKind.LINK_DELAY, at_block=0,
                params={"component": "pci", "factor": 8.0},
            ),
        ])
        clean = self._run_block(None)
        machine = self._run_block(plan)
        assert machine.totals.pci > clean.totals.pci
        assert machine.totals.lvds == pytest.approx(clean.totals.lvds)

    def test_unknown_component_rejected(self):
        inj = FaultInjector(None)
        spec = FaultSpec(
            FaultKind.LINK_DROP, at_block=0, params={"component": "warp"}
        )
        with pytest.raises(ConfigurationError):
            inj._inject_link_drop(spec)


class TestHostKill:
    def test_host_kill_raises_through_recovery(self):
        """SimulationKilled is not a GrapeError: recovery must not eat it."""
        obs = Observability()
        plan = FaultPlan([FaultSpec(FaultKind.HOST_KILL, at_block=0)])
        machine, system = loaded_machine(obs=obs, plan=plan)
        with pytest.raises(SimulationKilled):
            machine.compute_block(system, np.arange(system.n), 0.0)
        assert not isinstance(SimulationKilled("x"), GrapeError)
        assert obs.metrics.counter("faults.detected_total").value == 0


class TestDetection:
    def test_force_guard_passes_clean(self):
        force_guard(np.ones((4, 3)), np.zeros((4, 3)))

    def test_force_guard_catches_nan_and_overflow(self):
        bad = np.ones((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(HardwareFaultError):
            force_guard(bad, np.zeros((4, 3)))
        with pytest.raises(HardwareFaultError):
            force_guard(np.ones((4, 3)), np.full((4, 3), 1e31))

    def test_scan_jmem_locates_corruption(self):
        machine, system = loaded_machine(n=16)
        chip = machine.clusters[1].nodes[1].boards[0].chips[1]
        chip.jmem.pos[0] = np.nan
        assert scan_jmem(machine) == [(1, 1, 0, 1)]

    def test_energy_watchdog(self):
        """The energy check's absolute limit: critical, flagged per sample."""
        check = EnergyDriftDetector(limit=1e-6)
        assert check.check(HealthSample(t=0.0, energy_error=1e-8)) is None
        assert not check.over_limit
        event = check.check(HealthSample(t=1.0, energy_error=-1e-3))
        assert check.over_limit
        assert event.severity == "critical"
        assert (event.value, event.threshold) == (1e-3, 1e-6)
        check.check(HealthSample(t=2.0, energy_error=1e-8))
        assert not check.over_limit


class TestSelfTestSweep:
    def test_sweep_restores_j_memory(self):
        obs = Observability()
        machine, system = loaded_machine(obs=obs)
        report = machine.recovery.selftest_sweep(system)
        assert report is not None and report.all_ok
        # the sweep clobbered j-memory with test vectors, then reloaded
        active = np.arange(system.n)
        acc, _ = machine.compute_block(system, active, 0.0)
        ref_acc, _ = reference_forces(machine, system, active)
        assert np.allclose(acc, ref_acc)
        assert obs.metrics.counter("recovery.selftest_sweeps_total").value == 1

    def test_sweep_is_none_in_flat_mode(self):
        system = make_random_cluster(8)
        machine = Grape6Machine(Grape6Config.scaled_down(), eps=0.008, mode="flat")
        machine.attach_resilience()
        machine.load(system)
        assert machine.recovery.selftest_sweep(system) is None


class TestDriverSweeps:
    """The production driver's two self-test sweep triggers."""

    def _run(self, tmp_path, **kwargs):
        from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system
        from repro.runio import ProductionRun, read_run_log

        obs = Observability()
        machine = make_machine(obs=obs)
        machine.attach_resilience()
        machine.observe(obs)
        sim = Simulation(
            build_disk_system(PlanetesimalDiskConfig(n_planetesimals=24, seed=6)),
            Grape6Backend(machine),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.25),
            obs=obs,
        )
        blocks = []
        ProductionRun(sim, tmp_path, on_block=blocks.append, **kwargs).execute(4.0)
        return obs.metrics, read_run_log(tmp_path / "run.jsonl"), len(blocks)

    def test_energy_limit_sweeps_on_every_sample_over_it(self, tmp_path):
        metrics, records, _ = self._run(
            tmp_path, diagnostics_interval=0.0625, energy_error_limit=1e-300
        )
        over = [
            r["energy_error"] for r in records
            if r["kind"] == "sample" and "note" not in r and r["energy_error"] > 1e-300
        ]
        assert len(over) > 8  # past the health monitor's repeat suppression

        def of_kind(kind):
            return [r for r in records if r["kind"] == kind]

        assert [r["energy_error"] for r in of_kind("watchdog")] == over
        sweeps = of_kind("selftest_sweep")
        assert len(sweeps) == len(over)
        assert all(r["reason"] == "watchdog" and r["failed"] == 0 for r in sweeps)
        assert metrics.counter("faults.watchdog_trips_total").value == len(over)
        assert metrics.counter("recovery.selftest_sweeps_total").value == len(over)
        logged = [r for r in of_kind("health") if r["detector"] == "energy_drift"]
        assert logged and all(r["severity"] == "critical" for r in logged)
        assert len(logged) < len(over)

    def test_selftest_every_sweeps_each_k_blocks(self, tmp_path):
        metrics, records, blocks = self._run(tmp_path, selftest_every=3)
        sweeps = [r for r in records if r["kind"] == "selftest_sweep"]
        assert blocks >= 6
        assert len(sweeps) == blocks // 3
        assert all(r["reason"] == "periodic" and r["failed"] == 0 for r in sweeps)
        assert metrics.counter("recovery.selftest_sweeps_total").value == blocks // 3
        assert "faults.watchdog_trips_total" not in metrics


class TestChaosRun:
    """Acceptance: a seeded multi-fault run survives via recovery and
    checkpoint-restart with energy accounting close to fault-free."""

    def _production(self, machine, tmp_path, name, obs=None, **kwargs):
        from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system
        from repro.runio import ProductionRun

        system = build_disk_system(
            PlanetesimalDiskConfig(n_planetesimals=24, seed=6)
        )
        sim = Simulation(
            system,
            Grape6Backend(machine),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.25),
            obs=obs,
        )
        return ProductionRun(sim, tmp_path / name, **kwargs)

    def test_chaos_run_completes_via_recovery_and_resume(self, tmp_path):
        from repro.runio import ProductionRun

        baseline = self._production(
            make_machine(), tmp_path, "base"
        ).execute(t_end=4.0)

        obs = Observability()
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.JMEM_CORRUPT, at_block=2),
                FaultSpec(FaultKind.CHIP_KILL, at_block=5),
                FaultSpec(
                    FaultKind.LINK_DROP, at_block=8,
                    params={"component": "lvds", "count": 2},
                ),
                FaultSpec(FaultKind.HOST_KILL, at_block=14),
            ],
            seed=11,
        )
        machine = make_machine(obs=obs)
        machine.attach_resilience(plan)
        machine.observe(obs)
        run = self._production(
            machine, tmp_path, "chaos", obs=obs, checkpoint_interval=4
        )
        with pytest.raises(SimulationKilled):
            run.execute(t_end=4.0)
        assert run.checkpoints_written >= 1
        m = obs.metrics
        assert m.counter("faults.injected_total").value >= 3
        assert m.counter("faults.recovered_total").value >= 1
        assert m.counter("checkpoint.writes_total").value >= 1

        # restart on fresh (repaired) hardware from the latest checkpoint
        machine2 = make_machine()
        machine2.attach_resilience()
        run2 = ProductionRun.resume(
            tmp_path / "chaos",
            Grape6Backend(machine2),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.25),
        )
        report = run2.execute()
        assert report.t_final == pytest.approx(4.0)
        assert report.max_energy_error <= 10.0 * baseline.max_energy_error + 1e-12
