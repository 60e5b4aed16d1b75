"""Collision detection and perfect merging (planetary accretion).

The paper's scientific frame (Section 2) is *planetary accretion*:
"planetesimals accrete to form terrestrial and uranian planets".  The
production run itself is purely dynamical (forces are softened), but
every production planetesimal code in this family supports physical
collisions; this module provides them as the documented extension:

* :class:`CollisionPolicy` — maps masses to collision radii (material
  density + optional enhancement factor for scaled runs) and decides
  the merge product (perfect merging: mass, momentum and
  centre-of-mass conserved);
* :func:`find_collision_pairs` — vectorised detection of overlapping
  pairs between an active block and the full (predicted) system;
* integrator hook — :class:`~repro.core.integrator.Simulation` accepts
  a policy via ``collision_policy`` and resolves mergers after each
  block step, logging ``merger`` events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .forces import _plane_rows

__all__ = ["CollisionPolicy", "MergeOutcome", "find_collision_pairs", "merge_state"]


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one perfect merger."""

    mass: float
    pos: np.ndarray
    vel: np.ndarray
    #: Key of the survivor row (the more massive progenitor keeps its key).
    survivor_key: int
    absorbed_key: int


class CollisionPolicy:
    """Collision radii and merging rule.

    Parameters
    ----------
    density:
        Material density in code units (Msun/AU^3); default icy 1 g/cm^3.
    f_enhance:
        Radius enhancement factor for scaled runs (see
        :mod:`repro.planetesimal.sizes`).
    """

    def __init__(self, density: float | None = None, f_enhance: float = 1.0) -> None:
        from ..planetesimal.sizes import ICE_DENSITY_CODE

        self.density = ICE_DENSITY_CODE if density is None else float(density)
        if self.density <= 0:
            raise ConfigurationError("density must be positive")
        if f_enhance <= 0:
            raise ConfigurationError("enhancement factor must be positive")
        self.f_enhance = float(f_enhance)

    def radii(self, mass: np.ndarray) -> np.ndarray:
        """Collision radii for an array of masses."""
        from ..planetesimal.sizes import radius_from_mass

        return radius_from_mass(mass, density=self.density, f_enhance=self.f_enhance)


def find_collision_pairs(
    pos: np.ndarray,
    radii: np.ndarray,
    active: np.ndarray,
) -> list[tuple[int, int]]:
    """Overlapping (active, any) index pairs, each pair reported once.

    Parameters
    ----------
    pos:
        Positions of the *whole* system at one common time, ``(n, 3)``.
    radii:
        Collision radii, ``(n,)``.
    active:
        Indices to test against everything (collisions only need to be
        checked for particles that just moved).

    Returns pairs ``(i, j)`` with ``i`` from ``active``, ``j`` any other
    index, ``i != j``, separation < ``radii[i] + radii[j]``; duplicates
    (both members active) are reported once with ``i < j``.

    The sweep takes the active rows a chunk at a time (the row budget of
    the force oracles), so peak memory is one ``(rows, n, 3)`` slab
    rather than ``(n_active, n, 3)``; chunks of whole rows keep the
    candidate order row-major over the overlap matrix, so order and the
    dedup rule match the full-matrix reference exactly.
    """
    pos = np.asarray(pos, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    active = np.asarray(active)
    if active.size == 0:
        return []

    step = _plane_rows(pos.shape[0])
    rows, cols = [], []
    for start in range(0, active.size, step):
        r, c = np.nonzero(_overlaps(pos, radii, active[start:start + step]))
        rows.append(r + start)
        cols.append(c)
    return _dedup_pairs(active, np.concatenate(rows), np.concatenate(cols))


def _overlaps(pos: np.ndarray, radii: np.ndarray, sinks: np.ndarray) -> np.ndarray:
    """Boolean ``(len(sinks), n)``: which particles each sink overlaps
    (its own column excluded)."""
    dr = pos[None, :, :] - pos[sinks][:, None, :]
    dist2 = np.einsum("ijk,ijk->ij", dr, dr)
    limit = radii[sinks][:, None] + radii[None, :]
    hits = dist2 < limit * limit
    hits[np.arange(sinks.size), sinks] = False  # self
    return hits


def _dedup_pairs(
    active: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> list[tuple[int, int]]:
    """Canonicalise row-major candidate hits to unique ``(min, max)`` pairs."""
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for r, j in zip(rows, cols):
        i = int(active[r])
        j = int(j)
        a, b = (i, j) if i < j else (j, i)
        # if both active the pair appears twice; canonicalise
        if (a, b) in seen:
            continue
        seen.add((a, b))
        pairs.append((a, b))
    return pairs


def _find_collision_pairs_reference(
    pos: np.ndarray,
    radii: np.ndarray,
    active: np.ndarray,
) -> list[tuple[int, int]]:
    """Full-matrix detection in one piece (kept for equivalence tests)."""
    pos = np.asarray(pos, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    active = np.asarray(active)
    if active.size == 0:
        return []
    return _dedup_pairs(active, *np.nonzero(_overlaps(pos, radii, active)))


def merge_state(
    mass_i: float,
    pos_i: np.ndarray,
    vel_i: np.ndarray,
    key_i: int,
    mass_j: float,
    pos_j: np.ndarray,
    vel_j: np.ndarray,
    key_j: int,
) -> MergeOutcome:
    """Perfect merger: centre-of-mass state, mass and momentum conserved."""
    m = mass_i + mass_j
    if m <= 0:
        raise ConfigurationError("merging massless particles")
    pos = (mass_i * np.asarray(pos_i) + mass_j * np.asarray(pos_j)) / m
    vel = (mass_i * np.asarray(vel_i) + mass_j * np.asarray(vel_j)) / m
    if mass_i >= mass_j:
        survivor, absorbed = key_i, key_j
    else:
        survivor, absorbed = key_j, key_i
    return MergeOutcome(
        mass=float(m), pos=pos, vel=vel,
        survivor_key=int(survivor), absorbed_key=int(absorbed),
    )
