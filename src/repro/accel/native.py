"""Build, cache and load the compiled ``acc_jerk`` row kernel.

``_tile.c`` (beside this file) is the pair loop of the paper in C.  It
is compiled on first use with the system C compiler into a per-user
cache directory and loaded through :mod:`ctypes` (which releases the
GIL for the duration of every call), so NumPy stays the only hard
dependency: without a compiler :func:`load` logs one line and returns
``None``, and the engine keeps running the NumPy tiles of
:mod:`repro.accel.kernels`.

The two tiers sum in different orders, so they agree to ~1e-15
norm-relative, not bit for bit; *within* a tier every bit-identity
contract of the engine holds.  Which tier a process runs on is a fact
about its results: :func:`tier` names it, checkpoints record it, and
``python -m repro.accel.native`` prints how it was arrived at.

Build hygiene: the object's name is a hash of (source, flags,
``cc --version``); it lives in the first usable of
``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` and a per-user directory
under :func:`tempfile.gettempdir` — never in the source tree — and is
written under a temporary name and moved into place with
:func:`os.replace`, so concurrent first users can not load a
half-written file.  :func:`load` resolves once per process; forked
workers inherit the handle.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["FLAGS", "NativeTile", "describe", "load", "tier"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_tile.c")

#: No ``-march`` and no contraction: the bits must not depend on the
#: build host (see the header of ``_tile.c``; what FMA and wider vectors
#: would buy is recorded in ``docs/PERFORMANCE.md``).
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_F64 = np.dtype(np.float64)
_ANCHOR = ctypes.c_char * 0


def _ptr(array: np.ndarray, offset: int = 0, output: bool = False):
    """``array``'s buffer as a pointer argument (keeps it alive).

    ``from_buffer`` refuses anything that is not C-contiguous; a
    read-only *input* takes the slower route through ``ndarray.ctypes``.
    """
    try:
        return _ANCHOR.from_buffer(array, offset)
    except TypeError:
        if output or not array.flags.c_contiguous:
            raise ValueError(
                "native kernel needs C-contiguous arrays and writable outputs"
            ) from None
        return ctypes.c_void_p(array.ctypes.data + offset)


def _rows(array: np.ndarray, shape: tuple, what: str, output: bool = False):
    """``array``'s pointer, once it is float64 of exactly ``shape``."""
    if array.dtype != _F64 or array.shape != shape:
        raise ValueError(
            f"{what}: expected float64 {shape}, got {array.dtype} {array.shape}"
        )
    return _ptr(array, output=output)


class NativeTile:
    """The loaded object: two entry points, argument checks in front.

    ``acc_jerk_rows`` is the row kernel on ready-made operands;
    ``acc_jerk_active_chunk`` runs the predictor on a system's resident
    arrays and the same row loop behind it.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lib = ctypes.CDLL(str(path))
        size, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
        fn = self._lib.repro_acc_jerk_rows
        fn.argtypes = [size, size, ptr, ptr, ptr, ptr, ptr, real,
                       ptr, size, ptr, size, ptr, ptr]
        fn.restype = None
        self._fn = fn
        fn = self._lib.repro_acc_jerk_active_chunk
        fn.argtypes = [size, size, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                       real, real, size, size, ptr, ptr, ptr]
        fn.restype = ctypes.c_int
        self._active_fn = fn

    def acc_jerk_rows(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps2,
                      acc_out, jerk_out, j0=0, self_indices=None,
                      excluded=None) -> None:
        """Add the pull of one j-chunk on every sink row into the outputs.

        ``pos_j``/``vel_j``/``mass_j`` are the chunk (columns ``[j0, j0
        + n_j)`` of the full source list); ``self_indices`` are int64
        columns in the full list, ``excluded`` the full ``(n_i, N)``
        boolean mask.  Everything must be C-contiguous.
        """
        n_i, n_j = pos_i.shape[0], pos_j.shape[0]
        sinks, sources = (n_i, 3), (n_j, 3)
        self_ptr = excl_ptr = None
        stride = 0
        if self_indices is not None:
            if self_indices.dtype != np.int64 or self_indices.shape != (n_i,):
                raise ValueError(f"self_indices: expected int64 ({n_i},)")
            self_ptr = _ptr(self_indices)
        if excluded is not None:
            stride = excluded.shape[1] if excluded.ndim == 2 else -1
            if (excluded.dtype != np.bool_ or excluded.shape[0] != n_i
                    or not 0 <= j0 <= stride - n_j):
                raise ValueError("excluded: expected bool (n_i, >= j0 + n_j)")
            excl_ptr = _ptr(excluded, j0)
        self._fn(
            n_i, n_j, _rows(pos_i, sinks, "pos_i"), _rows(vel_i, sinks, "vel_i"),
            _rows(pos_j, sources, "pos_j"), _rows(vel_j, sources, "vel_j"),
            _rows(mass_j, (n_j,), "mass_j"), eps2, self_ptr, j0, excl_ptr, stride,
            _rows(acc_out, sinks, "acc_out", output=True),
            _rows(jerk_out, sinks, "jerk_out", output=True),
        )

    def acc_jerk_active_chunk(self, system, active, t_now, eps2, j0, j1,
                              scratch, acc_out, jerk_out) -> None:
        """Add the pull of the sources ``[j0, j1)`` of ``system``,
        predicted to ``t_now``, on its ``active`` rows into the outputs.

        ``system`` is anything with resident ``pos vel acc jerk t mass``
        arrays (a ``ParticleSystem``, an ``ArrayView`` over shared
        memory): float64, C-contiguous, ``(n, 3)`` / ``(n,)``.  Sinks
        are predicted by index inside the call, so ``active`` (int64)
        is range-checked there: an entry outside ``[0, n)`` raises
        ``IndexError``.  ``scratch`` (float64, at least ``6 * (n_i + j1
        - j0)``) receives the predicted rows: sink positions, sink
        velocities, source positions, source velocities, in that order.
        """
        if active.dtype != np.int64 or active.ndim != 1:
            raise ValueError(f"active: expected 1-D int64, got {active.dtype}")
        mass = system.mass
        n, n_i = mass.shape[0], active.shape[0]
        rows, sinks = (n, 3), (n_i, 3)
        if not 0 <= j0 <= j1 <= n:
            raise ValueError(f"chunk [{j0}, {j1}) outside the {n} sources")
        if scratch.dtype != _F64 or scratch.size < 6 * (n_i + j1 - j0):
            raise ValueError("scratch: too small for the predicted rows")
        bad = self._active_fn(
            n, n_i, _ptr(active),
            _rows(system.pos, rows, "pos"), _rows(system.vel, rows, "vel"),
            _rows(system.acc, rows, "acc"), _rows(system.jerk, rows, "jerk"),
            _rows(system.t, (n,), "t"), _rows(mass, (n,), "mass"),
            t_now, eps2, j0, j1, _ptr(scratch, output=True),
            _rows(acc_out, sinks, "acc_out", output=True),
            _rows(jerk_out, sinks, "jerk_out", output=True),
        )
        if bad:
            raise IndexError(f"active index outside the {n} particles")


# -- build ------------------------------------------------------------------


def _compiler() -> list[str]:
    return shlex.split(os.environ.get("CC", "").strip() or "cc")


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def _private_dir(path: Path) -> bool:
    """Make ``path`` and say whether only this user can write there (an
    object someone else could replace must never be loaded)."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return (st.st_uid == os.getuid() and not st.st_mode & 0o022
            and os.access(path, os.W_OK | os.X_OK))


def cache_dir() -> Path | None:
    """First usable of ``$XDG_CACHE_HOME``, ``~/.cache``, the temp dir."""
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        candidates.append(Path(xdg) / "repro")
    try:
        candidates.append(Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory to be found
        pass
    candidates.append(Path(tempfile.gettempdir()) / f"repro-cache-{os.getuid()}")
    for path in candidates:
        if _private_dir(path):
            return path
    return None


def _build(report: dict) -> NativeTile:
    """Compile (or find cached) and load; ``report`` collects the facts
    ``python -m repro.accel.native`` prints.  Raises on any failure."""
    cc = _compiler()
    report.update(compiler=" ".join(cc), flags=" ".join(FLAGS))
    version = _run([*cc, "--version"])
    if version.returncode != 0:
        raise RuntimeError(f"`{cc[0]} --version` exited {version.returncode}")
    report["compiler_version"] = version.stdout.splitlines()[0] if version.stdout else ""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), version.stdout.encode()])
    ).hexdigest()[:16]
    directory = cache_dir()
    if directory is None:
        raise RuntimeError("no writable cache directory")
    target = directory / f"tile-{key}.so"
    report["object"] = str(target)
    log_lines = report["build_log"] = []
    if target.exists():
        try:
            tile = NativeTile(target)
        except OSError as exc:  # damaged object: build it again
            log_lines.append(f"cached object unusable: {exc}")
        else:
            log_lines.append("(cached)")
            return tile
    fd, tmp = tempfile.mkstemp(prefix=target.name, suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        cmd = [*cc, *FLAGS, str(SOURCE), "-o", tmp, "-lm"]
        done = _run(cmd)
        log_lines += [" ".join(cmd), *(done.stdout + done.stderr).splitlines()]
        if done.returncode != 0:
            raise RuntimeError(f"compiler exited {done.returncode}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return NativeTile(target)


_lock = threading.Lock()
_resolved = False
_tile: NativeTile | None = None
_report: dict = {}


def load() -> NativeTile | None:
    """The process's row kernel, or ``None`` on the NumPy tier.

    Resolved once: the first call builds or finds the object, every
    later one (and every forked child) gets the same answer.
    """
    global _resolved, _tile
    if _resolved:
        return _tile
    with _lock:
        if not _resolved:
            try:
                _tile = _build(_report)
            except Exception as exc:  # whatever went wrong, NumPy still works
                _report["error"] = f"{type(exc).__name__}: {exc}"
                log.warning(
                    "repro.accel: no native acc_jerk kernel (%s); "
                    "running the NumPy tiles", _report["error"],
                )
            _resolved = True
    return _tile


def tier() -> str:
    """``"native"`` or ``"numpy"``: the kernel tier of this process."""
    return "native" if load() is not None else "numpy"


def describe() -> dict:
    """Tier, compiler, flags, cache path, build log (and the error)."""
    return {"tier": tier(), **_report}


def main() -> int:
    for key, value in describe().items():
        if isinstance(value, list):
            value = "".join(f"\n  {line}" for line in value)
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
