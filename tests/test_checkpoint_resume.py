"""Tests for checkpoint-restart: manager, driver resume, CLI workflow."""

import multiprocessing
import os
import signal
import stat
import struct
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    HostDirectBackend,
    KeplerField,
    TimestepParams,
    load_snapshot,
    save_snapshot,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SimulationKilled,
    SnapshotError,
)
from repro.obs import Observability
from repro.resilience import CheckpointManager
from repro.runio import ProductionRun, read_run_log, state_digest

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
        assert not (tmp_path / "latest").exists()  # no pointer file
        _, state = mgr.load_latest()
        assert state["time"] == 2.0
        assert mgr.loaded_path == p2

    def test_lost_pointer_falls_back_to_newest_file(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        mgr.write(s, {"time": 1.0})
        p2 = mgr.write(s, {"time": 2.0})
        assert mgr.candidates()[0] == p2
        mgr.load_latest()
        assert mgr.loaded_path == p2

    def test_stale_pointer_falls_back(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        p1 = mgr.write(s, {"time": 1.0})
        (tmp_path / "latest").write_text("ckpt_999999.npz\n")
        _, state = mgr.load_latest()
        assert mgr.loaded_path == p1
        assert state["time"] == 1.0

    def test_empty_directory_raises_actionable_error(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "none")
        assert mgr.candidates() == []
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            mgr.load_latest()

    def test_plain_snapshot_rejected(self, tmp_path):
        save_snapshot(tmp_path / "ckpt_000001.npz", make_random_cluster(4))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            CheckpointManager(tmp_path).load_latest()

    def test_stray_name_does_not_block_writes(self, tmp_path):
        """A ``ckpt_backup.npz`` sorts after every numbered checkpoint;
        it is neither a next index nor a restore candidate."""
        s = make_random_cluster(4)
        first = CheckpointManager(tmp_path)
        first.write(s, {"time": 1.0})
        p2 = first.write(s, {"time": 2.0})
        save_snapshot(tmp_path / "ckpt_backup.npz", s,
                      metadata={"checkpoint": {"time": 99.0}})
        mgr = CheckpointManager(tmp_path)
        p3 = mgr.write(s, {"time": 3.0})
        assert (p2.name, p3.name) == ("ckpt_000002.npz", "ckpt_000003.npz")
        _, state = mgr.load_latest()
        assert mgr.loaded_path == p3
        assert state["time"] == 3.0
        assert tmp_path / "ckpt_backup.npz" not in mgr.candidates()

    def test_one_directory_scan_per_manager(self, tmp_path, monkeypatch):
        """The next index is found once, when the manager is made: 20
        writes beside 300 checkpoints scan the directory once, not 20
        times."""
        for i in range(1, 301):
            (tmp_path / f"ckpt_{i:06d}.npz").touch()
        scans = []
        glob = Path.glob

        def spy_glob(self, pattern):
            if self == tmp_path:
                scans.append(pattern)
            return glob(self, pattern)

        monkeypatch.setattr(Path, "glob", spy_glob)
        mgr = CheckpointManager(tmp_path)
        s = make_random_cluster(4)
        paths = [mgr.write(s, {"time": float(i)}) for i in range(20)]
        assert len(scans) == 1
        assert paths[0].name == "ckpt_000301.npz"
        assert paths[-1].name == "ckpt_000320.npz"

    def test_write_syscall_sequence(self, tmp_path, monkeypatch):
        """The durability protocol of one checkpoint, pinned: one durable
        write — the data file is fsynced, renamed into place and its
        directory fsynced, and nothing else is written."""
        mgr = CheckpointManager(tmp_path)
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(("fsync", kind))
            fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        mgr.write(make_random_cluster(4), {"time": 1.0})
        assert calls == [
            ("fsync", "file"), ("replace", "ckpt_000001.npz"), ("fsync", "dir"),
        ]


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
        # a ``latest`` file left by an older version is ignored
        (tmp_path / "latest").write_text(p1.name + "\n")
        assert mgr.candidates() == [p2, p1]

    def test_intact_load_records_path_and_skips_nothing(self, tmp_path):
        obs = Observability()
        _, _, p2 = self._write_two(tmp_path)
        mgr = CheckpointManager(tmp_path, obs=obs)
        mgr.load_latest()
        assert mgr.loaded_path == p2
        assert obs.metrics.counter("checkpoint.skipped_total").value == 0

    def test_flipped_byte_in_a_stored_member_falls_back(self, tmp_path):
        """Members are stored, not deflated, so no damaged deflate stream
        gives a flipped byte away: the member's CRC-32 alone must."""
        obs = Observability()
        _, p1, p2 = self._write_two(tmp_path)
        with zipfile.ZipFile(p2) as archive:
            info = archive.getinfo("pos.npy")
        raw = bytearray(p2.read_bytes())
        # the member's data follows its 30-byte local header, name and extra
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data_end = (info.header_offset + 30 + name_len + extra_len
                    + info.compress_size)
        raw[data_end - 1] ^= 0x01  # stored: the last byte of the pos array
        p2.write_bytes(bytes(raw))

        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(p2)
        mgr = CheckpointManager(tmp_path, obs=obs)
        _, state = mgr.load_latest()
        assert state["time"] == 1.0
        assert mgr.loaded_path == p1
        assert obs.metrics.counter("checkpoint.skipped_total").value == 1

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


def resume_to_end(directory) -> ProductionRun:
    run = ProductionRun.resume(
        directory,
        HostDirectBackend(eps=0.008),
        external_field=KeplerField(),
        timestep_params=TimestepParams(eta=0.02, dt_max=0.5),
    )
    run.execute()
    return run


def final_digest(run: ProductionRun) -> str:
    sim = run.sim
    return state_digest(sim.system, float(sim.time), sim.block_steps)


class _Crash(Exception):
    """A process death injected at one step of a durable write."""


def arm_crash(monkeypatch, call: int, boundary: str) -> None:
    """Make the ``call``-th durable write (1-based) die at ``boundary``:
    ``write`` (after the payload, before the flush), ``fsync_file``,
    ``replace`` or ``fsync_dir``."""
    from repro.core import snapshots

    real_write = snapshots.durable_write
    fsync, replace = os.fsync, os.replace
    state = {"calls": 0, "armed": False}

    def hit(where: str) -> None:
        if state["armed"] and boundary == where:
            raise _Crash(f"killed at {where} of durable write #{call}")

    def durable_write(path, write, **kwargs):
        state["calls"] += 1
        state["armed"] = state["calls"] == call

        def payload(fh):
            write(fh)
            hit("write")

        try:
            real_write(path, payload, **kwargs)
        finally:
            state["armed"] = False

    def crash_fsync(fd):
        hit("fsync_dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync_file")
        fsync(fd)

    def crash_replace(src, dst):
        hit("replace")
        replace(src, dst)

    monkeypatch.setattr(snapshots, "durable_write", durable_write)
    monkeypatch.setattr(os, "fsync", crash_fsync)
    monkeypatch.setattr(os, "replace", crash_replace)


class TestDurableWriteCrashPoints:
    """A crash at every step of a checkpoint's one durable write leaves
    a loadable previous or new checkpoint, no temp file, and a resume
    that ends bit-identical to the uninterrupted run."""

    T_END = 6.0  # 12 blocks: checkpoints after blocks 5 and 10

    @staticmethod
    def _run(directory) -> ProductionRun:
        """Checkpoints only, so they are the run's only durable writes."""
        sim = make_disk_sim(n=24, seed=5, dt_max=0.5)
        return ProductionRun(sim, directory, checkpoint_interval=5,
                             run_id="crash")

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        run = self._run(tmp_path_factory.mktemp("ref"))
        run.execute(t_end=self.T_END)
        return final_digest(run)

    @pytest.mark.parametrize("boundary", [
        pytest.param(b, id=f"snapshot-{b}")
        for b in ("write", "fsync_file", "replace", "fsync_dir")
    ])
    def test_crash_then_resume(self, tmp_path, monkeypatch, reference,
                               boundary):
        run = self._run(tmp_path / "run")
        # durable write #2 is the second checkpoint (after block 10)
        with monkeypatch.context() as patch:
            arm_crash(patch, 2, boundary)
            with pytest.raises(_Crash):
                run.execute(t_end=self.T_END)

        ckpt_dir = tmp_path / "run" / "checkpoints"
        assert list(ckpt_dir.glob("*.tmp")) == []
        for path in ckpt_dir.glob("ckpt_*.npz"):
            load_snapshot(path)  # nothing torn under a live name
        assert not (ckpt_dir / "latest").exists()
        _, state = CheckpointManager(ckpt_dir).load_latest()
        # the new checkpoint is there once its rename is
        assert state["block_steps"] == (10 if boundary == "fsync_dir" else 5)

        assert final_digest(resume_to_end(tmp_path / "run")) == reference


def _run_until_killed(directory) -> None:
    """Child body: a managed run slowed by a per-block pause so the
    parent's SIGKILL lands mid-run."""
    run = make_managed_run(directory.parent, directory.name,
                           on_block=lambda s: time.sleep(0.02))
    run.execute(t_end=30.0)


class TestSigkilledRun:
    @pytest.mark.timeout(60)
    def test_sigkilled_run_resumes_bit_identical(self, tmp_path):
        """A real process SIGKILLed inside ``ProductionRun`` once its
        first checkpoint is on disk resumes to the uninterrupted state."""
        ref = make_managed_run(tmp_path, "ref")
        ref_report = ref.execute(t_end=30.0)

        directory = tmp_path / "killed"
        child = multiprocessing.get_context("fork").Process(
            target=_run_until_killed, args=(directory,), name="sigkill-run")
        child.start()
        try:
            ckpt_dir = directory / "checkpoints"
            deadline = time.monotonic() + 30.0
            while not any(ckpt_dir.glob("ckpt_*.npz")) and child.is_alive():
                assert time.monotonic() < deadline, "no checkpoint written"
                time.sleep(0.005)
        finally:
            child.kill()
            child.join(10.0)
        assert child.exitcode == -signal.SIGKILL
        _, state = CheckpointManager(directory / "checkpoints").load_latest()
        assert state["block_steps"] < ref_report.block_steps  # killed mid-run

        resumed = resume_to_end(directory)
        assert resumed.sim.time == ref_report.t_final
        assert resumed.sim.block_steps == ref_report.block_steps
        assert final_digest(resumed) == final_digest(ref)


class TestOldRunDirectory:
    """A run directory as older versions left it: checkpoints plus a
    ``latest`` pointer file, which resume now ignores."""

    @pytest.mark.parametrize("named", ["newest", "older"])
    def test_resume_ignores_the_pointer(self, tmp_path, named):
        ref = make_managed_run(tmp_path, "ref")
        ref.execute(t_end=6.0)
        assert not (tmp_path / "ref" / "checkpoints" / "latest").exists()

        def killer(s):
            if s.block_steps == 12:
                raise SimulationKilled("power cut")

        with pytest.raises(SimulationKilled):
            make_managed_run(tmp_path, "old", on_block=killer).execute(t_end=6.0)
        ckpt_dir = tmp_path / "old" / "checkpoints"
        older, newest = sorted(ckpt_dir.glob("ckpt_*.npz"))[-2:]
        # "older": a crash between the checkpoint's rename and the
        # pointer's left the pointer one checkpoint behind
        target = newest if named == "newest" else older
        (ckpt_dir / "latest").write_text(target.name + "\n")

        mgr = CheckpointManager(ckpt_dir)
        mgr.load_latest()
        assert mgr.loaded_path == newest
        assert final_digest(resume_to_end(tmp_path / "old")) == final_digest(ref)

    def test_compressed_checkpoints_resume(self, tmp_path):
        """Older versions deflated every member; such checkpoints resume
        to the uninterrupted run's state."""
        ref = make_managed_run(tmp_path, "ref")
        ref.execute(t_end=6.0)

        def killer(s):
            if s.block_steps == 12:
                raise SimulationKilled("power cut")

        with pytest.raises(SimulationKilled):
            make_managed_run(tmp_path, "old", on_block=killer).execute(t_end=6.0)
        checkpoints = sorted((tmp_path / "old" / "checkpoints").glob("ckpt_*.npz"))
        assert checkpoints
        for path in checkpoints:
            with np.load(path) as data:
                members = {name: data[name] for name in data.files}
            np.savez_compressed(path, **members)
            assert member_compression(path) == {zipfile.ZIP_DEFLATED}

        assert final_digest(resume_to_end(tmp_path / "old")) == final_digest(ref)


def member_compression(path) -> set[int]:
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def test_checkpoints_and_snapshots_are_stored_uncompressed(tmp_path):
    make_managed_run(tmp_path, "run").execute(t_end=3.0)
    snapshots = sorted((tmp_path / "run").glob("snap_*.npz"))
    checkpoints = sorted((tmp_path / "run" / "checkpoints").glob("ckpt_*.npz"))
    assert snapshots and checkpoints
    for path in snapshots + checkpoints:
        assert member_compression(path) == {zipfile.ZIP_STORED}, path.name


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

    def test_hybrid_killed_and_resumed_matches_uninterrupted(
            self, capsys, tmp_path, monkeypatch):
        """A ``--backend hybrid`` run killed mid-way resumes through the
        CLI to the uninterrupted run's final ``state_digest``."""
        from repro.cli import main

        digests, execute = [], ProductionRun.execute

        def recording_execute(run, t_end=None):
            report = execute(run, t_end)
            digests.append(state_digest(run.sim.system, report.t_final,
                                        report.block_steps))
            return report

        monkeypatch.setattr(ProductionRun, "execute", recording_execute)
        hybrid = self.RUN + ["--backend", "hybrid"]
        assert main(hybrid + ["--run-dir", str(tmp_path / "ref")]) == 0

        init = ProductionRun.__init__

        def killer(sim):
            if sim.block_steps == 6:
                raise SimulationKilled("power cut")

        def killed_init(run, *args, **kwargs):
            init(run, *args, **{**kwargs, "on_block": killer})

        d = tmp_path / "killed"
        with monkeypatch.context() as patch:
            patch.setattr(ProductionRun, "__init__", killed_init)
            with pytest.raises(SimulationKilled):
                main(hybrid + ["--run-dir", str(d)])
        _, state = CheckpointManager(d / "checkpoints").load_latest()
        assert 0 < state["block_steps"] < 6  # killed mid-run
        capsys.readouterr()

        assert main(["run", "--resume", str(d)]) == 0
        assert "resuming from ckpt_" in capsys.readouterr().out
        assert len(digests) == 2
        assert digests[1] == digests[0]

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
