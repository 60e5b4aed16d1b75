"""Snapshot schedules and output management for long runs.

:class:`SnapshotSchedule` answers "is an output due?" against a fixed
cadence; :class:`OutputManager` owns a run directory, writes numbered
snapshots through :mod:`repro.core.snapshots`, and can locate the
latest one for a restart — the workflow of the paper's multi-hour
production runs.
"""

from __future__ import annotations

from pathlib import Path

from ..core.snapshots import load_snapshot, numbered_snapshots, save_snapshot
from ..errors import ConfigurationError, SnapshotError

__all__ = ["SnapshotSchedule", "OutputManager"]


class SnapshotSchedule:
    """Fixed-interval output cadence starting at ``t_start``.

    ``due(t)`` is True whenever ``t`` has crossed the next output time;
    calling :meth:`mark_done` advances the schedule.  Robust to a
    simulation overshooting several intervals in one block step (the
    schedule then fires once per call until it catches up).
    """

    def __init__(self, interval: float, t_start: float = 0.0) -> None:
        if interval <= 0:
            raise ConfigurationError("snapshot interval must be positive")
        self.interval = float(interval)
        self.next_time = float(t_start) + self.interval

    def due(self, t: float) -> bool:
        return t >= self.next_time - 1e-12

    def mark_done(self) -> None:
        self.next_time += self.interval


class OutputManager:
    """Numbered snapshot output in a run directory.

    Files are named ``snap_NNNNNN.npz`` with the index in metadata, so
    the latest state is always discoverable for a restart.
    """

    def __init__(self, directory, schedule: SnapshotSchedule | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.schedule = schedule
        existing = numbered_snapshots(self.directory, "snap")
        self._index = existing[-1][0] + 1 if existing else 0

    @property
    def n_snapshots(self) -> int:
        return len(numbered_snapshots(self.directory, "snap"))

    def write(self, system, time: float, metadata: dict | None = None) -> Path:
        """Write the next numbered snapshot."""
        meta = dict(metadata or {})
        meta.update({"snapshot_index": self._index, "time": float(time)})
        path = save_snapshot(
            self.directory / f"snap_{self._index:06d}.npz", system, meta
        )
        self._index += 1
        return path

    def maybe_write(self, sim, metadata: dict | None = None) -> Path | None:
        """Write a snapshot if the schedule says one is due."""
        if self.schedule is None:
            raise ConfigurationError("no schedule attached")
        if not self.schedule.due(sim.time):
            return None
        path = self.write(sim.predicted_state(), sim.time, metadata)
        self.schedule.mark_done()
        return path

    def latest(self):
        """Load the newest snapshot: ``(system, metadata)``.

        Raises :class:`SnapshotError` when the directory has none.
        """
        existing = numbered_snapshots(self.directory, "snap")
        if not existing:
            raise SnapshotError(f"no snapshots in {self.directory}")
        return load_snapshot(existing[-1][1])
