"""The Figure-6 two-dimensional host matrix, functionally.

The paper's second solution to the host-communication problem:
"configure host computers themselves in a 2-dimensional network ...
use only 4 hosts (in one row or one column) as real hosts to do time
integrations and use other 12 hosts just to emulate the network
boards."

This module *executes* that scheme on the SPMD runtime: a q x q rank
matrix where rank (r, c) owns j-block c and serves i-block r.  One
force evaluation is:

1. every rank computes the partial force of its j-block on its row's
   i-block (no communication — each column already holds its j-block);
2. partial forces reduce along each row to the row root (column 0),
   the "real host" of that row;
3. row roots allgather so every real host sees the full result.

Per-rank traffic is O(N/q) per phase — the 1/sqrt(p) scaling that
:func:`~repro.parallel.programs.host_grid_program` counts for one block
step, here with real forces.
"""

from __future__ import annotations

import numpy as np

from ..errors import CommError
from .programs import (
    ProgramContext,
    _ForceRun,
    _force_run,
    grid_force_program,
    partition_bounds,
)
from .spmd import VirtualMachine

__all__ = ["grid_forces"]


def grid_forces(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    eps: float,
    q: int,
    vm: VirtualMachine | None = None,
) -> _ForceRun:
    """All-pairs softened force+jerk on a ``q x q`` host matrix.

    Returns the same fields as :func:`~repro.parallel.ring.ring_forces`.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    vel = np.ascontiguousarray(vel, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    n = pos.shape[0]
    if q < 1:
        raise CommError("grid dimension must be positive")
    if q > n:
        raise CommError("more rows than particles")
    vm = vm or VirtualMachine(n_ranks=q * q)
    if vm.n_ranks != q * q:
        raise CommError("virtual machine size must be q*q")
    ctx = ProgramContext(
        arrays={"pos": pos, "vel": vel, "mass": mass},
        params={"eps": eps, "q": q, "bounds": partition_bounds(n, q)},
    )

    return _force_run(vm.run(grid_force_program, ctx), n)
