"""Snapshot persistence (uncompressed ``.npz``).

A snapshot stores the complete dynamical state of a
:class:`~repro.core.particles.ParticleSystem` plus a metadata dictionary
(run parameters, simulation time).  Snapshots round-trip exactly
(bit-identical float64 arrays), which the test suite verifies — restart
capability was essential for the paper's multi-hour production run.

Members are stored, not deflated: float64 state shrinks by only about a
quarter under zlib, and deflating it cost more than the stepping on a
managed run.  :func:`load_snapshot` reads the deflated archives older
versions wrote just the same, and each member's zip CRC-32 still
catches a damaged byte.

Writes are **atomic**: the archive is assembled in a same-directory
temporary file and moved into place with :func:`os.replace`, so a crash
(or an injected host-kill) mid-write can never leave a torn ``.npz``
under the final name — the restart path either sees the previous intact
snapshot or the new one, never garbage.  :func:`durable_write` is that
protocol, and every durable file in the package (snapshots,
checkpoints, bench-history records) is written through it.
:func:`numbered_snapshots` lists the ``<prefix>_NNNNNN.npz`` series that
the run directory's snapshot and checkpoint managers number.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from pathlib import Path

import numpy as np

from ..errors import SnapshotError
from .particles import ParticleSystem

__all__ = ["save_snapshot", "load_snapshot", "durable_write",
           "numbered_snapshots"]

_FORMAT_VERSION = 1

_ARRAYS = ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key")

#: Arrays written by current code but absent from older snapshots;
#: loaded when present, defaulted otherwise (keeps format_version 1).
_OPTIONAL_ARRAYS = ("h_nb",)


def save_snapshot(path, system: ParticleSystem, metadata: dict | None = None) -> Path:
    """Write ``system`` (and optional JSON-serialisable metadata) to ``path``.

    Returns the path actually written (a ``.npz`` suffix is enforced).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = dict(metadata or {})
    meta["format_version"] = _FORMAT_VERSION
    try:
        meta_json = json.dumps(meta)
    except TypeError as exc:
        raise SnapshotError(f"metadata is not JSON-serialisable: {exc}") from exc
    arrays = {name: getattr(system, name) for name in _ARRAYS + _OPTIONAL_ARRAYS}
    # a file handle is passed so numpy cannot append a second suffix
    durable_write(path, lambda fh: np.savez(
        fh, _metadata=np.array(meta_json), **arrays))
    return path


def durable_write(path, write, *, text: bool = False) -> None:
    """Publish ``path`` atomically and durably through ``write(fh)``.

    ``write`` fills a sibling temp file (``<name>.tmp``, opened binary,
    or UTF-8 text when ``text``); the file is then flushed, fsynced and
    :func:`os.replace`\\ d onto ``path``, and the directory is fsynced
    so the rename survives a host crash.  A failure at any step removes
    the temp file and leaves whatever was at ``path`` untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "w", encoding="utf-8") if text
              else open(tmp, "wb")) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_directory(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def fsync_directory(directory) -> None:
    """Fsync a directory so a rename inside it survives a host crash.

    ``os.replace`` makes the file contents atomic, but the *directory
    entry* only becomes durable once the directory itself is synced;
    without this a machine crash can forget the rename and resurrect
    the old name.  Best-effort: filesystems that refuse directory fds
    are skipped.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystem
        pass
    finally:
        os.close(fd)


def numbered_snapshots(directory, prefix: str) -> list[tuple[int, Path]]:
    """``(index, path)`` of each ``<prefix>_NNNNNN.npz`` in ``directory``.

    Sorted by index; any other name (``<prefix>_backup.npz``, a temp
    file) is skipped.
    """
    name = re.compile(re.escape(prefix) + r"_(\d{6,})\.npz")
    return sorted(
        (int(m.group(1)), path)
        for path in Path(directory).glob(f"{prefix}_*.npz")
        if (m := name.fullmatch(path.name))
    )


def load_snapshot(path) -> tuple[ParticleSystem, dict]:
    """Read a snapshot; returns ``(system, metadata)``.

    Raises
    ------
    SnapshotError
        If the file is missing arrays or has an unknown format version.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"snapshot not found: {path}")
    try:
        return _load(path)
    except SnapshotError:
        raise
    except (ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile) as exc:
        # numpy surfaces truncation/corruption as BadZipFile, ValueError
        # ("pickled data"), EOFError or CRC OSErrors depending on where
        # the damage sits; callers get one stable contract
        raise SnapshotError(f"corrupt or truncated snapshot {path}: {exc}") from exc


def _load(path: Path) -> tuple[ParticleSystem, dict]:
    with np.load(path, allow_pickle=False) as data:
        missing = [name for name in _ARRAYS if name not in data]
        if missing:
            raise SnapshotError(f"snapshot {path} is missing arrays: {missing}")
        meta = json.loads(str(data["_metadata"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot format version {meta.get('format_version')}"
            )
        system = ParticleSystem(
            data["mass"], data["pos"], data["vel"], keys=data["key"]
        )
        system.acc = np.ascontiguousarray(data["acc"])
        system.jerk = np.ascontiguousarray(data["jerk"])
        system.t = np.ascontiguousarray(data["t"])
        system.dt = np.ascontiguousarray(data["dt"])
        if "h_nb" in data:
            system.h_nb = np.ascontiguousarray(data["h_nb"])
        system.pred_pos = system.pos.copy()
        system.pred_vel = system.vel.copy()
    meta.pop("format_version", None)
    return system, meta
