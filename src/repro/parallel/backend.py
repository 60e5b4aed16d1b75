"""SPMD force backend: block-step forces over real worker processes.

:class:`SpmdBackend` plugs the supervised multiprocess engine of
:mod:`repro.parallel.proc` into the integration driver's
:class:`~repro.core.backends.ForceBackend` slot.  Every force
evaluation ships the particle arrays into shared memory and runs
:func:`~repro.parallel.programs.chunk_force_program`: the accel
engine's j-chunk plan is dealt round-robin across ranks, each rank
computes its chunks' partial ``(acc, jerk)`` with the engine's fused
chunk kernel, and rank 0 folds the partials in ascending global chunk
order — the exact summation order of the engine's serial sweep and
threaded slab reduction.  Consequence: a multiprocess run is
**bit-identical** to the equivalent in-process run, which is what makes
rank-kill chaos tests meaningful (recovery must reproduce the same
bits, not just similar physics).

Two execution modes share the one program:

* ``"proc"`` — the supervised process gang (heartbeats, restart,
  degrade);
* ``"vm"`` — the in-process :class:`~repro.parallel.spmd.VirtualMachine`
  (deterministic scheduling, predicted comm costs, no processes).

The single-process baseline is :class:`~repro.core.backends.HostDirectBackend`,
whose one engine call sums blocks of every size in the same chunk order.

In ``"proc"`` mode the gang is forked by the first force call and lives
until :meth:`SpmdBackend.close`; callers own that call.
"""

from __future__ import annotations

import numpy as np

from ..core.backends import ForceBackend
from ..core.forces import InteractionCounter
from ..errors import ConfigurationError
from .proc import ProcConfig, ProcEngine, ProcResult
from .programs import ProgramContext, chunk_force_program
from .spmd import VirtualMachine

__all__ = ["SpmdBackend"]

_SHARED = ("mass", "pos", "vel", "acc", "jerk", "t")


class SpmdBackend(ForceBackend):
    """Block-step forces computed by an SPMD gang of worker processes.

    Parameters
    ----------
    eps:
        Plummer softening.
    n_ranks:
        Gang size.
    mode:
        ``"proc"`` (supervised processes) or ``"vm"`` (in-process scheduler).
    route:
        Partial-force exchange pattern of the chunk program:
        ``"gather"`` or ``"ring"``.
    config:
        :class:`~repro.parallel.proc.ProcConfig` supervision knobs.
    injector:
        Optional :class:`~repro.resilience.FaultInjector`; its
        rank-domain faults fire at superstep boundaries of the gang.
    engine:
        A :class:`repro.accel.KernelEngine` for the chunk plan; defaults to the
        process-wide engine.
    obs:
        Observability bundle, forwarded to the process engine.
    """

    def __init__(
        self,
        eps: float,
        n_ranks: int = 2,
        mode: str = "proc",
        route: str = "gather",
        config: ProcConfig | None = None,
        injector=None,
        engine=None,
        obs=None,
    ) -> None:
        if eps < 0:
            raise ValueError("softening must be non-negative")
        if mode not in ("proc", "vm"):
            raise ConfigurationError(f"unknown spmd mode {mode!r}")
        if route not in ("gather", "ring"):
            raise ConfigurationError(f"unknown spmd route {route!r}")
        if n_ranks < 1:
            raise ConfigurationError("need at least one rank")
        self.eps = float(eps)
        self.n_ranks = int(n_ranks)
        self.mode = mode
        self.route = route
        self.config = config
        self.injector = injector
        self.obs = obs
        self.counter = InteractionCounter()
        if engine is None:
            from ..accel import get_engine

            engine = get_engine()
        self.engine = engine
        self._proc: ProcEngine | None = None
        #: the last :class:`~repro.parallel.proc.ProcResult` (proc mode)
        self.last_result: ProcResult | None = None

    # -- ForceBackend surface --------------------------------------------

    def load(self, system) -> None:
        if self.mode == "proc" and self._proc is None:
            self._proc = ProcEngine(
                self.n_ranks,
                self.config,
                injector=self.injector,
                obs=self.obs,
            )

    def forces_on(self, system, active: np.ndarray, t_now: float):
        active = np.asarray(active)
        params = {
            "eps": self.eps,
            "t_now": float(t_now),
            "chunks": [tuple(c) for c in self.engine.jplan(system.n)],
            "route": self.route,
        }
        self.counter.add(active.size, system.n, with_jerk=True)
        if self.mode == "vm":
            arrays = {name: getattr(system, name) for name in _SHARED}
            arrays["active"] = active
            ctx = ProgramContext(arrays=arrays, params=params)
            result = VirtualMachine(n_ranks=self.n_ranks).run(
                chunk_force_program, ctx
            )
            return result.returns[0]
        if self._proc is None:
            self.load(system)
        for name in _SHARED:
            self._proc.share(name, getattr(system, name))
        self._proc.share("active", active)
        self.last_result = self._proc.run(chunk_force_program, params)
        return self.last_result.returns[0]

    def push_updates(self, system, active: np.ndarray) -> None:
        # forces_on refreshes every shared segment per evaluation, so
        # corrected rows need no separate staging
        return None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """End the process gang and release its shared memory
        (idempotent)."""
        if self._proc is not None:
            self._proc.close()
            self._proc = None

    def __enter__(self) -> "SpmdBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
