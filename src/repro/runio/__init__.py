"""Production-run I/O: run logs, snapshot schedules, output management.

The paper's 10.3-hour figure explicitly includes "file operations"; a
production N-body run is a long-lived process whose observability and
restartability live here:

* :class:`~repro.runio.runlog.RunLogger` — JSONL per-interval
  diagnostics (time, block counts, energy error, block statistics);
* :class:`~repro.runio.schedule.SnapshotSchedule` /
  :class:`~repro.runio.schedule.OutputManager` — cadence-driven
  snapshot writing with restart support;
* :class:`~repro.runio.spec.RunSpec` /
  :func:`~repro.runio.spec.state_digest` — the one description of a
  run (and its backend factory) and the final-state fingerprint.
"""

from .driver import ProductionRun, RunReport
from .runlog import RunLogger, read_run_log
from .schedule import OutputManager, SnapshotSchedule
from .spec import RunSpec, state_digest

__all__ = [
    "ProductionRun",
    "RunReport",
    "RunLogger",
    "read_run_log",
    "OutputManager",
    "SnapshotSchedule",
    "RunSpec",
    "state_digest",
]
