"""Core N-body engine: the paper's primary algorithmic contribution.

Public surface:

* :class:`~repro.core.particles.ParticleSystem` — structure-of-arrays state
* :class:`~repro.core.integrator.Simulation` — block-timestep Hermite driver
* :class:`~repro.core.backends.HostDirectBackend` — reference force engine
* :class:`~repro.core.timestep.TimestepParams` — accuracy knobs
* :class:`~repro.core.external.KeplerField` — the Sun as external potential
* :func:`~repro.core.diagnostics.energy` and friends — conserved quantities
"""

from .backends import ForceBackend, HostDirectBackend
from .collisions import CollisionPolicy, find_collision_pairs, merge_state
from .diagnostics import EnergyBreakdown, EnergyTracker, angular_momentum, energy
from .encounters import TimescaleCensus, encounter_timescale, measure_timescales
from .external import CompositeField, ExternalField, KeplerField, NullField
from .forces import InteractionCounter, acc_jerk, acc_only, potential_energy
from .integrator import Simulation
from .particles import ParticleSystem
from .scheduler import BlockScheduler, BlockStats
from .snapshots import load_snapshot, save_snapshot
from .timestep import TimestepParams

__all__ = [
    "ForceBackend",
    "HostDirectBackend",
    "CollisionPolicy",
    "find_collision_pairs",
    "merge_state",
    "EnergyBreakdown",
    "EnergyTracker",
    "angular_momentum",
    "energy",
    "TimescaleCensus",
    "encounter_timescale",
    "measure_timescales",
    "CompositeField",
    "ExternalField",
    "KeplerField",
    "NullField",
    "InteractionCounter",
    "acc_jerk",
    "acc_only",
    "potential_energy",
    "Simulation",
    "ParticleSystem",
    "BlockScheduler",
    "BlockStats",
    "load_snapshot",
    "save_snapshot",
    "TimestepParams",
]
