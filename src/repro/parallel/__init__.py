"""Simulated host-parallelisation substrate (paper Section 4.3).

* :mod:`~repro.parallel.topology` — switch / ring / 2-D mesh / NB-tree
  network builders (networkx)
* :mod:`~repro.parallel.comm` — phase-based communication cost simulator
* :mod:`~repro.parallel.strategies` — the paper's four host schemes
* :mod:`~repro.parallel.spmd` — deterministic in-process SPMD scheduler
  with superstep-tagged protocol checking
* :mod:`~repro.parallel.programs` — engine-portable rank programs
* :mod:`~repro.parallel.proc` — supervised multiprocess SPMD engine
  (heartbeats, rank restart, graceful degrade)
* :mod:`~repro.parallel.backend` — the ``spmd`` force backend
"""

from .backend import SpmdBackend
from .comm import CommSimulator, PhaseReport, Transfer
from .grid2d import grid_forces
from .proc import ProcConfig, ProcEngine, ProcResult
from .programs import (
    ArrayView,
    ProgramContext,
    chunk_force_program,
    grid_force_program,
    partition_bounds,
    ring_force_program,
)
from .ring import ring_forces
from .spmd import RankComm, SpmdResult, VirtualMachine, describe_op
from .strategies import (
    GrapeExchangeStrategy,
    Host2DGridStrategy,
    HostParallelStrategy,
    HybridStrategy,
    NaiveCopyStrategy,
    all_strategies,
)
from .topology import (
    Topology,
    mesh2d_topology,
    nb_tree_topology,
    ring_topology,
    switch_topology,
)

__all__ = [
    "CommSimulator",
    "PhaseReport",
    "Transfer",
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
    "GrapeExchangeStrategy",
    "Host2DGridStrategy",
    "HostParallelStrategy",
    "HybridStrategy",
    "NaiveCopyStrategy",
    "all_strategies",
    "Topology",
    "mesh2d_topology",
    "nb_tree_topology",
    "ring_topology",
    "switch_topology",
]
