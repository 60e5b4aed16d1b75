"""Host-parallelisation substrate (paper Section 4.3).

* :mod:`~repro.parallel.spmd` — deterministic in-process SPMD scheduler
  with superstep-tagged protocol checking and a per-link cost model
* :mod:`~repro.parallel.programs` — engine-portable rank programs: the
  force programs and the paper's four host strategies
* :mod:`~repro.parallel.proc` — supervised multiprocess SPMD engine
  (heartbeats, rank restart, graceful degrade)
* :mod:`~repro.parallel.backend` — the ``spmd`` force backend
"""

from .backend import SpmdBackend
from .grid2d import grid_forces
from .proc import ProcConfig, ProcEngine, ProcResult
from .programs import (
    HOST_STRATEGIES,
    ArrayView,
    ProgramContext,
    chunk_force_program,
    grid_force_program,
    host_grid_program,
    hybrid_program,
    machine_links,
    naive_copy_program,
    nb_exchange_program,
    partition_bounds,
    ring_force_program,
    strategies_for,
    strategy_step,
)
from .ring import ring_forces
from .spmd import RankComm, SpmdResult, VirtualMachine, describe_op

__all__ = [
    "grid_forces",
    "ring_forces",
    "RankComm",
    "SpmdResult",
    "VirtualMachine",
    "describe_op",
    "ProcConfig",
    "ProcEngine",
    "ProcResult",
    "SpmdBackend",
    "ArrayView",
    "ProgramContext",
    "partition_bounds",
    "ring_force_program",
    "grid_force_program",
    "chunk_force_program",
    "naive_copy_program",
    "nb_exchange_program",
    "host_grid_program",
    "hybrid_program",
    "HOST_STRATEGIES",
    "machine_links",
    "strategies_for",
    "strategy_step",
]
