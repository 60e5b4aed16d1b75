"""repro.accel — thread-parallel force-kernel engine.

The software analogue of the GRAPE-6 force pipeline stack: a fixed
j-chunk plan, a persistent thread pool with a fixed-order partial-sum
reduction over shape-bucketed slabs (:mod:`~repro.accel.workspace`)
and a fused per-chunk source predictor (:mod:`~repro.accel.engine`) —
one implementation per op, no choice of kernel, and only the ops a
force path calls (force + jerk in its direct, masked, tree-node and
active-block forms, and the potential for energy diagnostics).  Where
a C compiler is present the force + jerk pair loop runs compiled
(:mod:`~repro.accel.native`, built on first use, cached per user), and
so does a whole grouped tree force, sink groups, walk, sums and
in-sphere pairs in one call (``KernelEngine.tree_force``); without one
each chunk is a call of the plain-NumPy oracle in
:mod:`repro.core.forces`, and a log line says so.  The potential is that oracle on both tiers.

Most callers want the process-wide engine::

    from repro.accel import get_engine
    acc, jerk = get_engine().acc_jerk(pos_i, vel_i, pos, vel, mass, eps)

One environment variable, read when the default engine is first
built: ``REPRO_KERNEL_THREADS`` (scheduling only, never a bit) — see
:class:`~repro.accel.engine.EngineConfig`.
"""

from __future__ import annotations

import threading

from .engine import EngineConfig, KernelEngine, fixed_order_reduce
from .workspace import KernelWorkspace, bucket_size

__all__ = [
    "EngineConfig",
    "KernelEngine",
    "KernelWorkspace",
    "bucket_size",
    "fixed_order_reduce",
    "get_engine",
    "set_engine",
]

_engine_lock = threading.Lock()
_engine: KernelEngine | None = None


def get_engine() -> KernelEngine:
    """The process-wide engine (built from env config on first use)."""
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                _engine = KernelEngine(EngineConfig.from_env())
    return _engine


def set_engine(engine: KernelEngine | None) -> KernelEngine | None:
    """Replace the process-wide engine (``None`` resets to lazy default).

    Returns the previous engine so tests can restore it.
    """
    global _engine
    with _engine_lock:
        previous, _engine = _engine, engine
    return previous
