"""Tests for the SPMD force backend: equality, chaos, kill-and-resume.

The contract under test is the acceptance bar of the multiprocess
engine: a simulation driven by :class:`repro.parallel.SpmdBackend` is
**bit-identical** across serial, threaded, in-process-VM and
multiprocess execution, stays bit-identical under seeded rank kills,
and a run killed mid-flight resumes from its checkpoint to the exact
same final state.
"""

import numpy as np
import pytest
from conftest import shm_segments, spmd_rank_children

from repro.accel import EngineConfig, KernelEngine
from repro.core import HostDirectBackend, KeplerField, Simulation, TimestepParams
from repro.errors import ConfigurationError, SimulationKilled
from repro.parallel import ProcConfig, SpmdBackend
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.runio import ProductionRun, state_digest


def forced_engine(threads: int = 1) -> KernelEngine:
    """An engine whose plan has several chunks at test sizes and which
    threads every multi-chunk call."""
    return KernelEngine(
        EngineConfig(
            threads=threads,
            parallel_pairs=1,
            j_chunk=64,
        )
    )


def make_spmd_sim(backend, n=24, seed=5, dt_max=0.5) -> Simulation:
    system = build_disk_system(
        PlanetesimalDiskConfig(n_planetesimals=n, seed=seed)
    )
    sim = Simulation(
        system,
        backend,
        external_field=KeplerField(),
        timestep_params=TimestepParams(eta=0.02, dt_max=dt_max),
    )
    sim.initialize()
    return sim


def run_and_digest(backend, t_end=2.0):
    sim = make_spmd_sim(backend)
    sim.evolve(t_end)
    digest = state_digest(sim.system, sim.time, sim.block_steps)
    if hasattr(backend, "close"):
        backend.close()
    return digest


class TestBackendConstruction:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            SpmdBackend(0.01, mode="threads")

    def test_rejects_bad_route(self):
        with pytest.raises(ConfigurationError, match="route"):
            SpmdBackend(0.01, route="mesh")

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            SpmdBackend(-1.0)


class TestBitIdentity:
    """serial == threaded == vm == multiprocess, to the last bit."""

    def test_force_evaluation_identical_across_modes(self, rng):
        n = 150
        system = build_disk_system(
            PlanetesimalDiskConfig(n_planetesimals=n, seed=9)
        )
        sim = make_spmd_sim(HostDirectBackend(0.008, engine=forced_engine()),
                            n=n, seed=9)
        system = sim.system
        active = np.arange(0, system.n, 2)
        t_now = float(system.t.max()) + 1e-3

        results = {}
        for label, backend in (
            ("serial", HostDirectBackend(0.008, engine=forced_engine())),
            ("threaded", HostDirectBackend(0.008,
                                           engine=forced_engine(threads=4))),
            ("vm", SpmdBackend(0.008, n_ranks=3, mode="vm",
                               engine=forced_engine())),
            ("proc", SpmdBackend(0.008, n_ranks=3, mode="proc",
                                 engine=forced_engine())),
            ("proc-ring", SpmdBackend(0.008, n_ranks=3, mode="proc",
                                      route="ring",
                                      engine=forced_engine())),
        ):
            backend.load(system)
            results[label] = backend.forces_on(system, active, t_now)
            if hasattr(backend, "close"):
                backend.close()

        acc0, jerk0 = results["serial"]
        for label, (acc, jerk) in results.items():
            assert np.array_equal(acc, acc0), label
            assert np.array_equal(jerk, jerk0), label

    def test_simulation_digest_identical_across_modes(self):
        digests = {
            mode: run_and_digest(
                SpmdBackend(0.008, n_ranks=2, mode=mode,
                            engine=forced_engine())
            )
            for mode in ("vm", "proc")
        }
        digests["serial"] = run_and_digest(
            HostDirectBackend(0.008, engine=forced_engine())
        )
        assert len(set(digests.values())) == 1, digests

    def test_proc_exposes_run_stats(self):
        backend = SpmdBackend(0.008, n_ranks=2, engine=forced_engine())
        sim = make_spmd_sim(backend)
        sim.evolve(1.0)
        assert backend.last_result is not None
        assert backend.last_result.supersteps >= 1
        assert backend.counter.force_calls == sim.block_steps + 1  # +init
        backend.close()


@pytest.mark.usefixtures("numpy_tier")
class TestBitIdentityNumpyTier(TestBitIdentity):
    """The same contract without the compiled row kernel."""


class TestDefaultEngineBitIdentity:
    """The contract holds on the engine users get, at the block size
    the paper's regime is made of: 2 particles of N = 258 (every shape
    runs the fused kernel; a size heuristic once sent this one to the
    reference kernel, which sums in another order)."""

    def test_small_block_identical_across_modes(self):
        sim = make_spmd_sim(HostDirectBackend(0.008), n=256, seed=9)
        system = sim.system
        assert system.n == 258
        active = np.array([5, 131])
        t_now = float(system.t.max()) + 1e-3

        host = HostDirectBackend(0.008)
        host.load(system)
        results = {"serial": host.forces_on(system, active, t_now)}
        for mode in ("vm", "proc"):
            with SpmdBackend(0.008, n_ranks=2, mode=mode) as backend:
                backend.load(system)
                results[mode] = backend.forces_on(system, active, t_now)
        acc0, jerk0 = results["serial"]
        for mode, (acc, jerk) in results.items():
            assert np.array_equal(acc, acc0), mode
            assert np.array_equal(jerk, jerk0), mode


@pytest.mark.usefixtures("numpy_tier")
class TestDefaultEngineBitIdentityNumpyTier(TestDefaultEngineBitIdentity):
    """The same contract without the compiled row kernel."""


class TestGangLifetime:
    def test_fifty_force_calls_use_one_gang_and_one_set_of_segments(self):
        from repro.obs import Observability

        def rank_pids():
            return sorted(c.pid for c in spmd_rank_children())

        n_ranks = 2
        obs = Observability()
        # the start-up call inside is all-active, like every simulation's
        sim = make_spmd_sim(
            SpmdBackend(0.008, n_ranks=n_ranks, engine=forced_engine(),
                        obs=obs),
            n=62, seed=3,
        )
        backend, system = sim.backend, sim.system
        reference = SpmdBackend(0.008, n_ranks=n_ranks, mode="vm",
                                engine=forced_engine())
        try:
            pids, shm = rank_pids(), shm_segments()
            assert len(pids) == n_ranks
            t_now = float(system.t.max()) + 1e-3
            for call in range(50):
                active = np.arange(call % 7, system.n, 1 + call % 5)
                acc, jerk = backend.forces_on(system, active, t_now)
                ref_acc, ref_jerk = reference.forces_on(system, active, t_now)
                assert np.array_equal(acc, ref_acc)
                assert np.array_equal(jerk, ref_jerk)
                assert backend.last_result.restarts == 0
                assert rank_pids() == pids
                assert shm_segments() == shm
            counters = obs.metrics.snapshot()
            assert counters["spmd.gang_forks_total"] == n_ranks
            assert counters["spmd.runs_total"] == 51
        finally:
            backend.close()
        assert rank_pids() == []


class TestChaosBitIdentity:
    """Seeded rank kills mid-simulation recover to the same bits."""

    def test_rank_kill_chaos_is_bit_identical(self):
        clean = run_and_digest(
            SpmdBackend(0.008, n_ranks=2, engine=forced_engine())
        )
        # one rank killed at superstep 3 (mid-run), one stalled later;
        # supervision must restart/replay without changing any bit
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.RANK_KILL, at_block=2, target=1),
                FaultSpec(FaultKind.MSG_DELAY, at_block=4,
                          target=0, params={"seconds": 0.05}),
            ],
            seed=13,
        )
        chaotic_backend = SpmdBackend(
            0.008,
            n_ranks=2,
            engine=forced_engine(),
            injector=FaultInjector(plan),
            config=ProcConfig(op_timeout=30.0, lease_seconds=3.0),
        )
        chaotic = run_and_digest(chaotic_backend)
        assert chaotic == clean
        assert plan.n_pending == 0  # both faults actually fired

    def test_rank_kill_stats_reported(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.RANK_KILL, at_block=2, target=0)], seed=1
        )
        backend = SpmdBackend(
            0.008, n_ranks=2, engine=forced_engine(),
            injector=FaultInjector(plan),
            config=ProcConfig(op_timeout=30.0, lease_seconds=3.0),
        )
        sim = make_spmd_sim(backend)
        sim.evolve(2.0)
        deaths = backend._proc and backend._proc.supersteps
        assert deaths is not None  # engine lived through the run
        assert plan.n_pending == 0
        backend.close()


class TestSpmdKillAndResume:
    """Satellite: SIGKILL a rank mid-superstep AND kill the host run,
    then resume from the checkpoint — final snapshot bit-identical."""

    def _managed(self, tmp_path, name, backend, on_block=None):
        system = build_disk_system(
            PlanetesimalDiskConfig(n_planetesimals=24, seed=5)
        )
        sim = Simulation(
            system,
            backend,
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        )
        sim.initialize()
        return ProductionRun(
            sim,
            tmp_path / name,
            snapshot_interval=2.0,
            diagnostics_interval=2.0,
            checkpoint_interval=3,
            run_id="spmd-ck",
            on_block=on_block,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        ref = self._managed(
            tmp_path, "ref",
            SpmdBackend(0.008, n_ranks=2, engine=forced_engine()),
        )
        ref_report = ref.execute(t_end=4.0)
        ref_digest = state_digest(
            ref.sim.system, ref_report.t_final, ref_report.block_steps
        )

        # chaos on the way down: a rank SIGKILL mid-superstep (recovered
        # by the supervisor) and then a host kill (recovered from the
        # checkpoint)
        plan = FaultPlan(
            [FaultSpec(FaultKind.RANK_KILL, at_block=4, target=1)], seed=2
        )
        blocks = [0]

        def killer(s):
            blocks[0] += 1
            if blocks[0] == 6:
                raise SimulationKilled("power cut")

        run = self._managed(
            tmp_path, "killed",
            SpmdBackend(
                0.008, n_ranks=2, engine=forced_engine(),
                injector=FaultInjector(plan),
                config=ProcConfig(op_timeout=30.0, lease_seconds=3.0),
            ),
            on_block=killer,
        )
        with pytest.raises(SimulationKilled):
            run.execute(t_end=4.0)
        assert run.checkpoints_written >= 1
        assert plan.n_pending == 0  # the rank kill fired before the host kill

        resumed = ProductionRun.resume(
            tmp_path / "killed",
            SpmdBackend(0.008, n_ranks=2, engine=forced_engine()),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        )
        assert resumed.sim.time < 4.0
        report = resumed.execute()
        digest = state_digest(
            resumed.sim.system, report.t_final, report.block_steps
        )
        assert digest == ref_digest
        assert np.array_equal(resumed.sim.system.pos, ref.sim.system.pos)
        assert np.array_equal(resumed.sim.system.vel, ref.sim.system.vel)


class TestCLISpmdBackend:
    def test_run_with_spmd_backend(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--backend", "spmd", "--ranks", "2",
            "--n", "24", "--t-end", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "particles" in out

    def test_spmd_metadata_checkpointed(self, tmp_path, capsys):
        from repro.cli import main
        from repro.resilience import CheckpointManager

        d = tmp_path / "rundir"
        assert main([
            "run", "--backend", "spmd", "--ranks", "2",
            "--spmd-mode", "vm", "--n", "16", "--t-end", "2",
            "--dt-max", "0.25", "--checkpoint-interval", "4",
            "--run-dir", str(d),
        ]) == 0
        capsys.readouterr()
        _, state = CheckpointManager(d / "checkpoints").load_latest()
        cfg = state.get("config", {})
        assert cfg.get("backend") == "spmd"
        assert cfg.get("ranks") == 2
        assert cfg.get("spmd_mode") == "vm"
        # and the resume path rebuilds the spmd backend from that config
        assert main(["run", "--resume", str(d)]) == 0
        assert "production run complete" in capsys.readouterr().out

    def test_cli_closes_the_backend_on_every_path(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import cli

        closed = []
        real_close = SpmdBackend.close

        def recording_close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(SpmdBackend, "close", recording_close)
        common = ["--backend", "spmd", "--ranks", "2", "--n", "16",
                  "--dt-max", "0.25"]
        d = tmp_path / "rundir"
        assert cli.main(["run", *common, "--t-end", "0.5"]) == 0
        assert len(closed) == 1
        assert cli.main(["run", *common, "--t-end", "1", "--run-dir", str(d),
                         "--checkpoint-interval", "2"]) == 0
        assert len(closed) == 2
        assert cli.main(["run", "--resume", str(d)]) == 0
        assert len(closed) == 3

        # the exit-code-2 error path, with the gang already forked
        def failing_evolve(self, t_end, **kwargs):
            raise ConfigurationError("boom after the first force call")

        monkeypatch.setattr(Simulation, "evolve", failing_evolve)
        assert cli.main(["run", *common, "--t-end", "0.5"]) == 2
        assert len(closed) == 4
        assert "boom" in capsys.readouterr().err
