"""Checkpoint–restart: periodic durable state for the production driver.

A checkpoint is an atomic snapshot of the **raw** integrator state
(positions, velocities, forces, individual times and timesteps — not a
predicted state) plus the driver bookkeeping needed to continue
bit-identically: counters, the energy reference, and the output
schedule.  Because the block scheduler holds only what it derives from
``t`` and ``dt`` (the update times it keeps between blocks are rebuilt
from them at the first block, never checkpointed), a resumed run replays
exactly the block sequence the interrupted run would have taken.

Each checkpoint is one file, ``ckpt_NNNNNN.npz`` (numbered from 1),
and one :func:`~repro.core.snapshots.durable_write`: the temp file is
fsynced, renamed onto its name and the directory fsynced, so a host
crash at any instant leaves either the previous checkpoint or the new
one — never a torn file under a live name.  There is no pointer file:
:meth:`CheckpointManager.load_latest` tries the checkpoints newest-first
and falls back over any that is truncated or corrupt, so one damaged
file cannot strand an otherwise resumable run.  A ``latest`` file left
by older versions is ignored.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from ..core.snapshots import load_snapshot, numbered_snapshots, save_snapshot
from ..errors import CheckpointError, SnapshotError

__all__ = ["CheckpointManager"]

_PREFIX = "ckpt"


class CheckpointManager:
    """Writes and restores checkpoints in one directory."""

    def __init__(self, directory, obs=None) -> None:
        from ..obs import NULL_OBS

        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except (NotADirectoryError, FileExistsError) as exc:
            raise CheckpointError(
                f"checkpoint location {self.directory} is not a directory: {exc}"
            ) from exc
        self.obs = obs or NULL_OBS
        #: Path of the checkpoint the last :meth:`load_latest` used.
        self.loaded_path: Path | None = None
        self._c_writes = self.obs.metrics.counter("checkpoint.writes_total")
        self._c_restores = self.obs.metrics.counter("checkpoint.restores_total")
        self._c_skipped = self.obs.metrics.counter("checkpoint.skipped_total")
        self._h_write_s = self.obs.metrics.histogram("checkpoint.write_seconds")
        existing = numbered_snapshots(self.directory, _PREFIX)
        self._index = existing[-1][0] + 1 if existing else 1

    # -- write -----------------------------------------------------------

    def write(self, system, state: dict) -> Path:
        """Checkpoint ``system`` + driver ``state``; returns the path.

        One durable write (fsync file, rename, fsync directory) of the
        next numbered file: once this returns, the checkpoint survives a
        host crash.
        """
        t0 = perf_counter()
        written = save_snapshot(
            self.directory / f"{_PREFIX}_{self._index:06d}.npz", system,
            metadata={"checkpoint": state},
        )
        self._index += 1
        self._c_writes.inc()
        self._h_write_s.observe(perf_counter() - t0)
        return written

    # -- restore ---------------------------------------------------------

    def candidates(self) -> list[Path]:
        """Checkpoint files on disk, newest first."""
        return [path for _, path in
                reversed(numbered_snapshots(self.directory, _PREFIX))]

    def load_latest(self):
        """Load the newest *valid* checkpoint; returns ``(system, state)``.

        Tries every checkpoint newest-first: a truncated or corrupt
        newest file (damaged after it was written) costs one checkpoint
        interval of progress instead of the whole run.
        The chosen file is recorded in :attr:`loaded_path`.

        Raises
        ------
        CheckpointError
            If the directory holds no checkpoint, or none of the
            candidates is a loadable checkpoint (corrupt files, or
            plain snapshots without driver state embedded).
        """
        candidates = self.candidates()
        if not candidates:
            raise CheckpointError(
                f"no checkpoint found in {self.directory} — start the run "
                "with a checkpoint interval before trying to resume"
            )
        failures: list[str] = []
        for path in candidates:
            try:
                system, meta = load_snapshot(path)
            except SnapshotError as exc:
                failures.append(str(exc))
                continue
            state = meta.get("checkpoint")
            if state is None:
                failures.append(
                    f"{path} is a plain snapshot, not a checkpoint"
                )
                continue
            if failures:
                self._c_skipped.inc(len(failures))
            self._c_restores.inc()
            self.loaded_path = path
            return system, state
        detail = "; ".join(failures)
        raise CheckpointError(
            f"no valid checkpoint in {self.directory} "
            f"({len(candidates)} candidate(s) rejected: {detail})"
        )
