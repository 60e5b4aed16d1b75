"""Tests for checkpoint-restart: manager, driver resume, CLI workflow."""

import numpy as np
import pytest

from repro.core import (
    HostDirectBackend,
    KeplerField,
    TimestepParams,
    save_snapshot,
)
from repro.errors import CheckpointError, ConfigurationError, SimulationKilled
from repro.obs import Observability
from repro.resilience import CheckpointManager
from repro.runio import ProductionRun, read_run_log

from conftest import make_disk_sim, make_random_cluster


class TestCheckpointManager:
    def test_write_load_roundtrip(self, tmp_path):
        obs = Observability()
        mgr = CheckpointManager(tmp_path / "ck", obs=obs)
        s = make_random_cluster(12, seed=2)
        state = {"time": 3.5, "block_steps": 40, "run_id": "t"}
        path = mgr.write(s, state)
        assert path.name == "ckpt_000001.npz"
        loaded, got = mgr.load_latest()
        assert got == state
        assert np.array_equal(loaded.pos, s.pos)
        assert obs.metrics.counter("checkpoint.writes_total").value == 1
        assert obs.metrics.counter("checkpoint.restores_total").value == 1

    def test_pointer_tracks_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        mgr.write(s, {"time": 1.0})
        p2 = mgr.write(s, {"time": 2.0})
        assert p2.name == "ckpt_000002.npz"
        assert (tmp_path / "latest").read_text().strip() == p2.name
        _, state = mgr.load_latest()
        assert state["time"] == 2.0

    def test_lost_pointer_falls_back_to_newest_file(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        mgr.write(s, {"time": 1.0})
        p2 = mgr.write(s, {"time": 2.0})
        (tmp_path / "latest").unlink()
        assert mgr.latest_path() == p2

    def test_stale_pointer_falls_back(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        p1 = mgr.write(s, {"time": 1.0})
        (tmp_path / "latest").write_text("ckpt_999999.npz\n")
        assert mgr.latest_path() == p1

    def test_empty_directory_raises_actionable_error(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "none")
        assert mgr.latest_path() is None
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            mgr.load_latest()

    def test_plain_snapshot_rejected(self, tmp_path):
        save_snapshot(tmp_path / "ckpt_000001.npz", make_random_cluster(4))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            CheckpointManager(tmp_path).load_latest()


class TestCorruptCheckpointFallback:
    """A damaged newest checkpoint must cost one interval, not the run."""

    def _write_two(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        p1 = mgr.write(s, {"time": 1.0})
        p2 = mgr.write(s, {"time": 2.0})
        return mgr, p1, p2

    def test_truncated_newest_falls_back(self, tmp_path):
        obs = Observability()
        _, p1, p2 = self._write_two(tmp_path)
        p2.write_bytes(p2.read_bytes()[:100])  # torn by a host crash
        mgr = CheckpointManager(tmp_path, obs=obs)
        _, state = mgr.load_latest()
        assert state["time"] == 1.0
        assert mgr.loaded_path == p1
        assert obs.metrics.counter("checkpoint.skipped_total").value == 1

    def test_garbage_newest_falls_back(self, tmp_path):
        _, p1, p2 = self._write_two(tmp_path)
        p2.write_bytes(b"\x00" * 512)
        mgr = CheckpointManager(tmp_path)
        _, state = mgr.load_latest()
        assert state["time"] == 1.0
        assert mgr.loaded_path == p1

    def test_all_corrupt_raises_with_details(self, tmp_path):
        _, p1, p2 = self._write_two(tmp_path)
        p1.write_bytes(b"junk")
        p2.write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="2 candidate"):
            CheckpointManager(tmp_path).load_latest()

    def test_candidates_order_pointer_first(self, tmp_path):
        mgr, p1, p2 = self._write_two(tmp_path)
        # a stale pointer must still lead the candidate list
        (tmp_path / "latest").write_text(p1.name + "\n")
        assert mgr.candidates() == [p1, p2]

    def test_intact_load_records_path_and_skips_nothing(self, tmp_path):
        obs = Observability()
        _, _, p2 = self._write_two(tmp_path)
        mgr = CheckpointManager(tmp_path, obs=obs)
        mgr.load_latest()
        assert mgr.loaded_path == p2
        assert obs.metrics.counter("checkpoint.skipped_total").value == 0

    def test_file_as_directory_raises_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(CheckpointError, match="not a directory"):
            CheckpointManager(blocker / "ck")


def make_managed_run(tmp_path, name, on_block=None):
    """A small managed disk run with checkpoints every 5 blocks."""
    sim = make_disk_sim(n=24, seed=5, dt_max=0.5)
    run = ProductionRun(
        sim,
        tmp_path / name,
        snapshot_interval=2.0,
        diagnostics_interval=2.0,
        checkpoint_interval=5,
        run_id="ck-test",
        on_block=on_block,
    )
    return run


class TestKillAndResume:
    def test_resume_is_bit_identical(self, tmp_path):
        """Kill mid-run, resume from checkpoint: final state matches an
        uninterrupted run exactly (not just approximately)."""
        ref = make_managed_run(tmp_path, "ref")
        ref_report = ref.execute(t_end=6.0)

        blocks = [0]

        def killer(s):
            blocks[0] += 1
            if blocks[0] == 12:
                raise SimulationKilled("power cut")

        run = make_managed_run(tmp_path, "killed", on_block=killer)
        with pytest.raises(SimulationKilled):
            run.execute(t_end=6.0)
        assert run.checkpoints_written >= 1

        resumed = ProductionRun.resume(
            tmp_path / "killed",
            HostDirectBackend(eps=0.008),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        )
        assert resumed.sim.time < 6.0  # picked up mid-run
        report = resumed.execute()  # t_end restored from the checkpoint

        assert report.t_final == ref_report.t_final
        assert report.block_steps == ref_report.block_steps
        assert np.array_equal(resumed.sim.system.pos, ref.sim.system.pos)
        assert np.array_equal(resumed.sim.system.vel, ref.sim.system.vel)
        assert report.max_energy_error == pytest.approx(
            ref_report.max_energy_error, rel=1e-9
        )

    def test_resumed_log_appends_idempotently(self, tmp_path):
        blocks = [0]

        def killer(s):
            blocks[0] += 1
            if blocks[0] == 8:
                raise SimulationKilled("power cut")

        run = make_managed_run(tmp_path, "log", on_block=killer)
        with pytest.raises(SimulationKilled):
            run.execute(t_end=6.0)
        ProductionRun.resume(
            tmp_path / "log",
            HostDirectBackend(eps=0.008),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        ).execute()

        records = read_run_log(tmp_path / "log" / "run.jsonl")
        kinds = [r["kind"] for r in records]
        # append is idempotent: the resumed session reuses the file
        # without emitting a second header, and marks where it took over
        assert kinds.count("header") == 1
        assert kinds[0] == "header"
        assert "resume" in kinds
        assert records[-1].get("note") == "final"

    def test_intervals_restored_from_checkpoint(self, tmp_path):
        blocks = [0]

        def killer(s):
            blocks[0] += 1
            if blocks[0] == 8:
                raise SimulationKilled("power cut")

        run = make_managed_run(tmp_path, "iv", on_block=killer)
        with pytest.raises(SimulationKilled):
            run.execute(t_end=6.0)
        resumed = ProductionRun.resume(
            tmp_path / "iv",
            HostDirectBackend(eps=0.008),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        )
        assert resumed.snapshot_interval == 2.0
        assert resumed.checkpoint_interval == 5
        assert resumed.run_id == "ck-test"

    def test_t_end_required_without_restore(self, tmp_path):
        run = make_managed_run(tmp_path, "noend")
        with pytest.raises(ConfigurationError):
            run.execute()

    def test_resume_refuses_a_silent_tier_switch(self, tmp_path, monkeypatch):
        """Written on one kernel tier, resumed on the other: refused,
        naming both (resume == uninterrupted can not hold across)."""
        from repro.accel import native

        run = make_managed_run(tmp_path, "tier")
        run.execute(t_end=3.0)
        _, state = CheckpointManager(tmp_path / "tier" / "checkpoints").load_latest()
        here = native.tier()
        assert state["kernel_tier"] == here
        other = "numpy" if here == "native" else "native"
        monkeypatch.setattr(native, "tier", lambda: other)
        with pytest.raises(ConfigurationError, match=f"{here}.*{other}"):
            ProductionRun.resume(tmp_path / "tier", HostDirectBackend(eps=0.008))

    def test_checkpoint_without_a_tier_resumes_as_before(self, tmp_path, monkeypatch):
        from repro.accel import native

        ref = make_managed_run(tmp_path, "ref")
        ref.execute(t_end=6.0)

        def killer(s):
            if s.block_steps == 12:
                raise SimulationKilled("power cut")

        old = make_managed_run(tmp_path, "old", on_block=killer)
        with monkeypatch.context() as patch:
            patch.setattr(native, "tier", lambda: None)  # as if not recorded
            with pytest.raises(SimulationKilled):
                old.execute(t_end=6.0)
        manager = CheckpointManager(tmp_path / "old" / "checkpoints")
        assert manager.load_latest()[1]["kernel_tier"] is None
        resumed = ProductionRun.resume(
            tmp_path / "old", HostDirectBackend(eps=0.008),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
        )
        resumed.execute()
        assert np.array_equal(resumed.sim.system.pos, ref.sim.system.pos)

    def test_resume_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            ProductionRun.resume(tmp_path / "nothing", HostDirectBackend(eps=0.008))


class TestCLICheckpointWorkflow:
    RUN = [
        "run", "--n", "16", "--t-end", "3", "--dt-max", "0.25",
        "--checkpoint-interval", "4", "--snapshot-interval", "1",
    ]

    def test_managed_run_then_resume(self, capsys, tmp_path):
        from repro.cli import main

        d = tmp_path / "rundir"
        assert main(self.RUN + ["--run-dir", str(d)]) == 0
        out = capsys.readouterr().out
        assert "production run complete" in out
        assert sorted((d / "checkpoints").glob("ckpt_*.npz"))

        assert main(["run", "--resume", str(d)]) == 0
        out = capsys.readouterr().out
        assert "resuming from ckpt_" in out
        assert "production run complete" in out

    @staticmethod
    def _stamp_tree_walk(ckpt_dir, value):
        """Rewrite every checkpoint as PR <= 21 wrote it: with the
        since-removed ``tree_walk`` field in its config."""
        from repro.core.snapshots import load_snapshot, save_snapshot

        for path in ckpt_dir.glob("ckpt_*.npz"):
            system, meta = load_snapshot(path)
            meta["checkpoint"]["config"]["tree_walk"] = value
            save_snapshot(path, system, metadata=meta)

    @pytest.mark.parametrize("walk", [None, "grouped"])
    def test_resume_of_a_checkpoint_naming_the_grouped_walk(
            self, capsys, tmp_path, walk):
        from repro.cli import main

        d = tmp_path / "rundir"
        assert main(self.RUN + ["--backend", "tree", "--run-dir", str(d)]) == 0
        self._stamp_tree_walk(d / "checkpoints", walk)
        capsys.readouterr()
        assert main(["run", "--resume", str(d)]) == 0
        assert "production run complete" in capsys.readouterr().out

    def test_resume_of_a_per_sink_walk_checkpoint_exits_2(self, capsys,
                                                          tmp_path):
        from repro.cli import main

        d = tmp_path / "rundir"
        assert main(self.RUN + ["--backend", "tree", "--run-dir", str(d)]) == 0
        self._stamp_tree_walk(d / "checkpoints", "persink")
        capsys.readouterr()
        assert main(["run", "--resume", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ckpt_")
        assert "'persink'" in err and "no longer exists" in err

    def test_resume_without_checkpoint_exits_2(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["run", "--resume", str(tmp_path / "void")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no checkpoint found")
        assert "--checkpoint-interval" in err  # tells the user what to do

    def test_resume_with_all_corrupt_checkpoints_exits_2(self, capsys, tmp_path):
        from repro.cli import main

        d = tmp_path / "rundir"
        assert main(self.RUN + ["--run-dir", str(d)]) == 0
        capsys.readouterr()
        for p in (d / "checkpoints").glob("ckpt_*.npz"):
            p.write_bytes(b"\x00" * 64)
        assert main(["run", "--resume", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no valid checkpoint")
        assert "rejected" in err

    def test_resume_falls_back_over_corrupt_newest(self, capsys, tmp_path):
        from repro.cli import main

        d = tmp_path / "rundir"
        assert main(self.RUN + ["--run-dir", str(d)]) == 0
        capsys.readouterr()
        ckpts = sorted((d / "checkpoints").glob("ckpt_*.npz"))
        assert len(ckpts) >= 2
        ckpts[-1].write_bytes(ckpts[-1].read_bytes()[:80])  # torn newest
        assert main(["run", "--resume", str(d)]) == 0
        out = capsys.readouterr().out
        assert f"resuming from {ckpts[-2].name}" in out
        assert "production run complete" in out

    def test_second_resume_keeps_backend_config(self, capsys, tmp_path):
        """Checkpoints written *after* a resume keep the config metadata,
        so a chain of resumes can always rebuild the backend."""
        from repro.cli import main

        d = tmp_path / "rundir"
        blocks = [0]

        def killer(s):
            blocks[0] += 1
            if blocks[0] == 6:
                raise SimulationKilled("power cut")

        sim = make_disk_sim(n=16, seed=5, dt_max=0.25)
        run = ProductionRun(
            sim, d, checkpoint_interval=4, run_id="chain",
            checkpoint_metadata={"backend": "host", "eta": 0.02,
                                 "dt_max": 0.25, "eps": 0.008},
            on_block=killer,
        )
        with pytest.raises(SimulationKilled):
            run.execute(t_end=3.0)

        # first resume finishes the run and writes further checkpoints
        assert main(["run", "--resume", str(d)]) == 0
        capsys.readouterr()
        mgr = CheckpointManager(d / "checkpoints")
        _, state = mgr.load_latest()
        assert state["block_steps"] > 6  # written after the resume
        assert state.get("config", {}).get("backend") == "host"

        # so a second resume can still rebuild the backend from disk
        assert main(["run", "--resume", str(d)]) == 0
        assert "production run complete" in capsys.readouterr().out
