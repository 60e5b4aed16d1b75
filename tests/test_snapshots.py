"""Tests for snapshot round-tripping."""

import zipfile

import numpy as np
import pytest

from repro.core import load_snapshot, save_snapshot
from repro.core.snapshots import numbered_snapshots
from repro.errors import SnapshotError

from conftest import make_disk_sim, make_random_cluster


class TestRoundTrip:
    def test_bit_identical_arrays(self, tmp_path):
        s = make_random_cluster(20, seed=4)
        s.acc[:] = np.random.default_rng(1).normal(size=(20, 3))
        s.dt[:] = 0.125
        path = save_snapshot(tmp_path / "snap", s, {"run": "test"})
        loaded, meta = load_snapshot(path)
        for name in ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key"):
            assert np.array_equal(getattr(loaded, name), getattr(s, name)), name
        assert meta == {"run": "test"}

    def test_compressed_snapshot_reads_bit_identical(self, tmp_path):
        """Older versions deflated every member; those files still load."""
        s = make_random_cluster(20, seed=4)
        s.dt[:] = 0.125
        path = save_snapshot(tmp_path / "snap", s, {"run": "test"})
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_DEFLATED}
        loaded, meta = load_snapshot(path)
        for name in ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key",
                     "h_nb"):
            got, want = getattr(loaded, name), getattr(s, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert meta == {"run": "test"}

    def test_suffix_enforced(self, tmp_path):
        s = make_random_cluster(4)
        path = save_snapshot(tmp_path / "state", s)
        assert path.suffix == ".npz"

    def test_metadata_optional(self, tmp_path):
        s = make_random_cluster(4)
        path = save_snapshot(tmp_path / "s.npz", s)
        _, meta = load_snapshot(path)
        assert meta == {}

    def test_restart_continues_identically(self, tmp_path):
        """A saved+reloaded simulation reproduces the original run."""
        from repro.core import HostDirectBackend, KeplerField, Simulation, TimestepParams

        sim = make_disk_sim(n=24, seed=20)
        sim.evolve(2.0)
        sim.synchronize(2.0)
        path = save_snapshot(tmp_path / "restart", sim.system)

        # continue the original
        sim.evolve(4.0)
        sim.synchronize(4.0)

        # reload and continue the copy the same way
        loaded, _ = load_snapshot(path)
        sim2 = Simulation(
            loaded,
            HostDirectBackend(eps=0.008),
            external_field=KeplerField(),
            timestep_params=TimestepParams(),
        )
        sim2.initialize()
        sim2.evolve(4.0)
        sim2.synchronize(4.0)
        # identical physics to high precision (startup dt may differ from
        # mid-run dt, so allow integration-error-level differences)
        assert np.allclose(sim2.system.pos, sim.system.pos, atol=1e-7)


class TestNumberedSnapshots:
    def test_index_order_and_other_names_skipped(self, tmp_path):
        for name in ("snap_000010.npz", "snap_000002.npz", "snap_1000000.npz",
                     "snap_backup.npz", "snap_000003.npz.tmp", "snap_12.npz",
                     "ckpt_000001.npz", "xsnap_000004.npz"):
            (tmp_path / name).touch()
        assert numbered_snapshots(tmp_path, "snap") == [
            (2, tmp_path / "snap_000002.npz"),
            (10, tmp_path / "snap_000010.npz"),
            (1000000, tmp_path / "snap_1000000.npz"),
        ]
        assert numbered_snapshots(tmp_path / "missing", "snap") == []


class TestAtomicity:
    def test_crash_mid_write_preserves_previous(self, tmp_path, monkeypatch):
        """A crash while writing leaves the old snapshot intact under the
        final name — no torn file, no leftover temp file."""
        s1 = make_random_cluster(8, seed=1)
        s2 = make_random_cluster(8, seed=2)
        path = save_snapshot(tmp_path / "snap", s1)

        def torn_write(fh, *args, **kwargs):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError):
            save_snapshot(path, s2)
        monkeypatch.undo()

        loaded, _ = load_snapshot(path)
        assert np.array_equal(loaded.pos, s1.pos)  # previous state survives
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_on_fresh_path_leaves_nothing(self, tmp_path, monkeypatch):
        def torn_write(fh, *args, **kwargs):
            raise OSError("simulated crash")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError):
            save_snapshot(tmp_path / "new", make_random_cluster(4))
        assert list(tmp_path.iterdir()) == []


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "nope.npz")

    def test_non_serialisable_metadata(self, tmp_path):
        s = make_random_cluster(4)
        with pytest.raises(SnapshotError):
            save_snapshot(tmp_path / "bad", s, {"array": np.zeros(3)})

    def test_corrupt_snapshot_missing_arrays(self, tmp_path):
        p = tmp_path / "corrupt.npz"
        np.savez(p, _metadata=np.array('{"format_version": 1}'), mass=np.ones(3))
        with pytest.raises(SnapshotError):
            load_snapshot(p)
