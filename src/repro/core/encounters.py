"""Close-encounter statistics: the timescale-range argument, measured.

Paper Section 3: "the orbital period of protoplanets and planetesimals
is of the order of 100 years.  However, when two planetesimals or a
planetesimal and a protoplanet undergo close encounters, the timescale
can go down to a few hours.  Thus, the timescale ranges six orders of
magnitudes."

This module measures exactly that on a running simulation:

* per-particle dynamical timescale (from the Aarseth criterion's inputs
  — the live ``dt`` distribution is its quantised shadow);
* closest-approach tracking via the (GRAPE-style) nearest-neighbour
  query, with the corresponding two-body encounter timescale
  ``t_enc = sqrt(d^3 / (m_i + m_j))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .forces import nearest_pair

__all__ = ["TimescaleCensus", "measure_timescales", "encounter_timescale"]


def encounter_timescale(distance, m_total):
    """Two-body free-fall timescale ``sqrt(d^3 / (G m))`` (G = 1)."""
    distance = np.asarray(distance, dtype=np.float64)
    m_total = np.asarray(m_total, dtype=np.float64)
    if np.any(m_total <= 0):
        raise ConfigurationError("total mass must be positive")
    return np.sqrt(distance**3 / m_total)


@dataclass(frozen=True)
class TimescaleCensus:
    """Timescale-range measurements at one instant."""

    time: float
    #: smallest and largest quantised particle steps in the system
    dt_min: float
    dt_max: float
    #: orbital period at the disk's inner edge (the long timescale)
    orbital_period: float
    #: shortest two-body encounter timescale found
    t_encounter_min: float
    #: smallest nearest-neighbour separation
    closest_approach: float

    @property
    def dt_dynamic_range(self) -> float:
        """Ratio of largest to smallest live timestep."""
        return self.dt_max / self.dt_min

    @property
    def physical_dynamic_range(self) -> float:
        """Orbit period over the shortest encounter timescale — the
        paper's 'six orders of magnitude' number (at production scale)."""
        return self.orbital_period / self.t_encounter_min


def measure_timescales(system, r_inner: float = 15.0) -> TimescaleCensus:
    """Census the timescale range of a particle system.

    Uses an O(N^2) nearest-neighbour sweep (fine at analysis cadence);
    backends with hardware neighbour search can supply the same data
    cheaper via :meth:`repro.grape.system.Grape6Machine.neighbours_of`.
    """
    from ..units import orbital_period

    if system.n < 2:
        raise ConfigurationError("need at least two particles")
    best_d, i, j = nearest_pair(system.pos)
    best_m = float(system.mass[i] + system.mass[j])

    return TimescaleCensus(
        time=float(system.t.max()),
        dt_min=float(system.dt.min()) if np.all(system.dt > 0) else float("nan"),
        dt_max=float(system.dt.max()),
        orbital_period=float(orbital_period(r_inner)),
        t_encounter_min=float(encounter_timescale(best_d, best_m)),
        closest_approach=best_d,
    )
