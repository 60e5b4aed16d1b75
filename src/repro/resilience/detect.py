"""Fault detection: force sanity guard and j-memory scan.

Detection mirrors how bad hardware shows up in a real GRAPE run:

* a chip with corrupted j-memory or a wedged pipeline returns garbage
  forces **this block** — caught by :func:`force_guard` on every result;
* marginal hardware shows up as energy error — caught by the energy
  health check (:class:`repro.obs.health.EnergyDriftDetector`) on the
  production driver's diagnostics, which answers a sample over
  ``energy_error_limit`` with a self-test sweep;
* localisation uses :func:`scan_jmem`, the software analogue of reading
  back j-memory over the host interface and comparing with the master
  copy.
"""

from __future__ import annotations

import numpy as np

from ..errors import HardwareFaultError

__all__ = ["FORCE_LIMIT", "force_guard", "scan_jmem"]

#: Any |acc| or |jerk| component beyond this is treated as hardware
#: garbage (physical values in code units are O(1..1e6) even in deep
#: encounters; 1e30 only appears via overflow or bit corruption).
FORCE_LIMIT = 1e30


def force_guard(acc: np.ndarray, jerk: np.ndarray, limit: float = FORCE_LIMIT) -> None:
    """Raise :class:`~repro.errors.HardwareFaultError` on garbage forces."""
    bad = not (np.all(np.isfinite(acc)) and np.all(np.isfinite(jerk)))
    if not bad:
        bad = bool(
            np.any(np.abs(acc) > limit) or np.any(np.abs(jerk) > limit)
        )
    if bad:
        raise HardwareFaultError(
            "force guard: non-finite or overflowing acc/jerk returned by the "
            "GRAPE machine"
        )


def scan_jmem(machine) -> list[tuple[int, int, int, int]]:
    """Coordinates of chips whose resident j-memory holds non-finite words.

    Returns ``(cluster, node, board, chip)`` tuples; empty in flat mode
    (no per-chip memory exists).
    """
    bad = []
    for ci, ni, bi, chi, chip in machine.iter_chips():
        m = chip.jmem
        if m.n == 0:
            continue
        ok = (
            np.all(np.isfinite(m.pos))
            and np.all(np.isfinite(m.vel))
            and np.all(np.isfinite(m.acc))
            and np.all(np.isfinite(m.jerk))
            and np.all(np.isfinite(m.mass))
        )
        if not ok:
            bad.append((ci, ni, bi, chi))
    return bad

