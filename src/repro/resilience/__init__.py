"""Fault injection, detection/recovery, and checkpoint–restart.

The paper's production run occupied 16 hosts and 2048 chips for many
hours — at that scale hardware faults are an operational certainty, and
the GRAPE-6 software stack survived them by masking bad chips,
re-evaluating suspect blocks, and restarting from checkpoints.  This
package reproduces that loop against the simulator:

* :mod:`~repro.resilience.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan` / :class:`FaultInjector`);
* :mod:`~repro.resilience.detect` — the per-block force guard and
  j-memory scan (the energy check is the health monitor's
  :class:`~repro.obs.health.EnergyDriftDetector`);
* :mod:`~repro.resilience.recover` — mask / reload / re-evaluate with
  host-kernel fallback (:class:`RecoveryManager`);
* :mod:`~repro.resilience.checkpoint` — atomic checkpoint–restart for
  the production driver (:class:`CheckpointManager`).

Arm a machine with ``machine.attach_resilience(plan)``; everything
reports through :mod:`repro.obs` (``faults.*``, ``recovery.*``,
``checkpoint.*`` metric families).
"""

from .checkpoint import CheckpointManager
from .detect import force_guard, scan_jmem
from .faults import (
    FAULT_DOMAINS,
    RANK_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from .recover import RecoveryManager

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULT_DOMAINS",
    "RANK_KINDS",
    "force_guard",
    "scan_jmem",
    "RecoveryManager",
    "CheckpointManager",
]
