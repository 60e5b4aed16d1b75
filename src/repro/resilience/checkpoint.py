"""Checkpoint–restart: periodic durable state for the production driver.

A checkpoint is an atomic snapshot of the **raw** integrator state
(positions, velocities, forces, individual times and timesteps — not a
predicted state) plus the driver bookkeeping needed to continue
bit-identically: counters, the energy reference, and the output
schedule.  Because the block scheduler holds only what it derives from
``t`` and ``dt`` (the update times it keeps between blocks are rebuilt
from them at the first block, never checkpointed), a resumed run replays
exactly the block sequence the interrupted run would have taken.

Files in the checkpoint directory::

    ckpt_000001.npz   snapshot + JSON state (atomic: tmp + os.replace)
    latest            text pointer to the newest complete checkpoint

Both are written through :func:`~repro.core.snapshots.durable_write`
(temp file + fsync + rename + directory fsync), the pointer only after
the checkpoint is durable, so a host crash at any instant leaves either
the previous checkpoint or the new one — never a torn file under a live
name, and never a pointer the filesystem forgets.
Restore is defensive on top of that: when the pointed-to (or newest)
checkpoint is truncated or corrupt, :meth:`CheckpointManager.load_latest`
falls back to the newest checkpoint that still loads, so one damaged
file cannot strand an otherwise resumable run.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from ..core.snapshots import durable_write, load_snapshot, save_snapshot
from ..errors import CheckpointError, SnapshotError

__all__ = ["CheckpointManager"]

_CKPT_PATTERN = "ckpt_{:06d}.npz"
_POINTER = "latest"


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

    # -- discovery -------------------------------------------------------

    def _next_index(self) -> int:
        existing = sorted(self.directory.glob("ckpt_*.npz"))
        if not existing:
            return 1
        return int(existing[-1].stem.split("_")[1]) + 1

    def latest_path(self) -> Path | None:
        """Path of the newest complete checkpoint, or ``None``."""
        pointer = self.directory / _POINTER
        if pointer.exists():
            candidate = self.directory / pointer.read_text().strip()
            if candidate.exists():
                return candidate
        # pointer lost/stale: fall back to the newest file on disk
        existing = sorted(self.directory.glob("ckpt_*.npz"))
        return existing[-1] if existing else None

    # -- write -----------------------------------------------------------

    def write(self, system, state: dict) -> Path:
        """Checkpoint ``system`` + driver ``state``; returns the path.

        The snapshot write is atomic and directory-synced; the
        ``latest`` pointer is flipped only after the snapshot is
        durable, in a second fsync'd atomic rename, so a host crash
        between the two leaves the pointer at the previous complete
        checkpoint — never dangling at a half-written one.
        """
        t0 = perf_counter()
        path = self.directory / _CKPT_PATTERN.format(self._next_index())
        written = save_snapshot(path, system, metadata={"checkpoint": state})
        durable_write(self.directory / _POINTER,
                      lambda fh: fh.write(written.name + "\n"), text=True)
        self._c_writes.inc()
        self._h_write_s.observe(perf_counter() - t0)
        return written

    # -- restore ---------------------------------------------------------

    def candidates(self) -> list[Path]:
        """Restore candidates, newest first (pointer target leads)."""
        existing = sorted(self.directory.glob("ckpt_*.npz"), reverse=True)
        pointer = self.directory / _POINTER
        if pointer.exists():
            target = self.directory / pointer.read_text().strip()
            if target.exists() and target in existing:
                existing.remove(target)
                existing.insert(0, target)
        return existing

    def load_latest(self):
        """Load the newest *valid* checkpoint; returns ``(system, state)``.

        Tries the pointer target first, then every remaining checkpoint
        newest-first: a truncated or corrupt newest file (host crash
        mid-write on a filesystem that reordered the pointer flip) costs
        one checkpoint interval of progress instead of the whole run.
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
