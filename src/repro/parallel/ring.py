"""Systolic-ring distributed direct summation.

The classical distributed-memory algorithm for all-pairs forces (and
the software analogue of the GRAPE data-exchange hardware of Figures
4-5): ``p`` ranks each own ``N/p`` particles; a travelling copy of each
j-slice hops around the ring, and after ``p`` hops every rank has
accumulated the force of the whole system on its own particles while
only ever talking to its ring neighbours.

Implemented as an SPMD program on
:class:`~repro.parallel.spmd.VirtualMachine`, so tests can verify both
the numerics (identical to single-node direct summation) and the
communication costs (per-rank traffic O(N) per force evaluation —
independent of p, which is why a *ring of hosts* does not fix the
paper's bandwidth problem and dedicated hardware links do).
"""

from __future__ import annotations

import numpy as np

from ..errors import CommError
from .programs import (
    ProgramContext,
    _ForceRun,
    _force_run,
    partition_bounds,
    ring_force_program,
)
from .spmd import VirtualMachine

__all__ = ["ring_forces"]


def ring_forces(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    eps: float,
    n_ranks: int,
    vm: VirtualMachine | None = None,
    obs=None,
) -> _ForceRun:
    """All-pairs softened force+jerk via a ``n_ranks``-stage ring.

    Every rank owns a contiguous particle slice; j-data circulates
    ``n_ranks - 1`` hops.  Returns ``acc``/``jerk`` for the *whole*
    system (self interactions excluded) plus the VM's communication
    accounting (``total_bytes``, ``messages``, per-rank ``clock``).
    ``vm``, when given, must have ``n_ranks`` ranks.
    With ``obs`` attached, the evaluation runs under a ``ring.forces``
    wall-clock span and the VM's traffic feeds the ``comm.*`` counters.
    """
    from ..obs import NULL_OBS

    obs = obs or NULL_OBS
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    vel = np.ascontiguousarray(vel, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    n = pos.shape[0]
    if n_ranks < 1:
        raise CommError("need at least one rank")
    if n_ranks > n:
        raise CommError("more ranks than particles")
    vm = vm or VirtualMachine(n_ranks=n_ranks)
    if vm.n_ranks != n_ranks:
        raise CommError("virtual machine size must be n_ranks")
    ctx = ProgramContext(
        arrays={"pos": pos, "vel": vel, "mass": mass},
        params={"eps": eps, "bounds": partition_bounds(n, n_ranks)},
    )

    with obs.tracer.span("ring.forces", n=n, ranks=n_ranks):
        result = vm.run(ring_force_program, ctx)
    m = obs.metrics
    m.counter("comm.bytes_sent").inc(result.total_bytes)
    m.counter("comm.messages_total").inc(result.messages)
    return _force_run(result, n)
