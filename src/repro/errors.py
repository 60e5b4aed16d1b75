"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Hardware-simulator errors derive from
:class:`GrapeError`; configuration problems from :class:`ConfigurationError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ParticleError",
    "IntegrationError",
    "SchedulerError",
    "GrapeError",
    "GrapeMemoryError",
    "GrapeLinkError",
    "HardwareFaultError",
    "CommError",
    "SpmdError",
    "SpmdProtocolError",
    "SpmdTimeoutError",
    "SnapshotError",
    "CheckpointError",
    "SimulationKilled",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied."""


class ParticleError(ReproError, ValueError):
    """Invalid particle data (bad shapes, non-finite values, bad indices)."""


class IntegrationError(ReproError, RuntimeError):
    """Time integration failed (e.g. non-finite state, zero timestep)."""


class SchedulerError(ReproError, RuntimeError):
    """The block-timestep scheduler reached an inconsistent state."""


class GrapeError(ReproError, RuntimeError):
    """Base class for GRAPE-6 hardware-simulator errors."""


class GrapeMemoryError(GrapeError):
    """A j-particle memory overflow or invalid memory access on a board."""


class GrapeLinkError(GrapeError):
    """A data-transfer error on a simulated LVDS / PCI / Ethernet link."""


class HardwareFaultError(GrapeError):
    """A hardware fault was detected (non-finite forces, dead pipelines)
    and could not be handled locally; recovery escalates or re-raises."""


class CommError(ReproError, RuntimeError):
    """Simulated message-passing failure (bad rank, mismatched collective)."""


class SpmdError(CommError):
    """Base class for SPMD-runtime failures (in-process VM and the
    multiprocess :mod:`repro.parallel.proc` engine)."""


class SpmdProtocolError(SpmdError):
    """Ranks disagreed about the communication schedule.

    Raised when collectives carrying different superstep tags (or
    different kinds at the same superstep) are posted, or when a rank
    returns while peers still wait on a collective it never joined —
    the failure modes that would otherwise deadlock a real MPI job.
    The message lists each rank's blocked operation and superstep.
    """

    def __init__(self, message: str, blocked: dict | None = None) -> None:
        super().__init__(message)
        #: ``rank -> human-readable blocked-op description``
        self.blocked = dict(blocked or {})


class SpmdTimeoutError(SpmdError):
    """A barrier or receive exceeded its bounded wait.

    Distinct from :class:`SpmdProtocolError`: the schedule may be
    consistent, but a peer is a straggler, hung, or dead.  Carries the
    same per-rank blocked-op summary for diagnosis.
    """

    def __init__(self, message: str, blocked: dict | None = None) -> None:
        super().__init__(message)
        self.blocked = dict(blocked or {})


class SnapshotError(ReproError, IOError):
    """Snapshot serialisation or deserialisation failed."""


class CheckpointError(SnapshotError):
    """Checkpoint write/restore failed (missing, torn, or incompatible)."""


class SimulationKilled(ReproError, RuntimeError):
    """The run was killed mid-flight (the fault injector's host-kill).

    Deliberately *not* a :class:`GrapeError`: in-run recovery must never
    swallow it — the expected handler is checkpoint restart.
    """
