"""Planetesimal-disk problem setup and analysis (paper Section 2).

Public surface:

* :class:`~repro.planetesimal.disk.PlanetesimalDiskConfig` /
  :func:`~repro.planetesimal.disk.build_disk_system` — initial conditions
* :class:`~repro.planetesimal.massfunction.PowerLawMassFunction`
* :class:`~repro.planetesimal.nebula.HayashiNebula`
* :class:`~repro.planetesimal.protoplanet.Protoplanet`
* orbital-element conversions and disk/gap/scattering analysis
"""

from .analysis import (
    GapMeasurement,
    RadialProfile,
    measure_gap,
    rms_eccentricity_inclination,
    surface_density_profile,
    velocity_dispersion,
)
from .disk import PlanetesimalDiskConfig, build_disk_system, sample_ring_radii
from .massfunction import PowerLawMassFunction
from .migration import MigrationRecord, MigrationTracker
from .nebula import HayashiNebula, ring_mass
from .orbital import (
    OrbitalElements,
    cartesian_to_elements,
    elements_to_cartesian,
    propagate_kepler,
    solve_kepler,
)
from .accretion import AccretionHistory, MassSpectrum
from .protoplanet import Protoplanet, default_protoplanets, protoplanet_states
from .scattering import FateCounts, ScatteringMonitor, classify_fates
from .sizes import ICE_DENSITY_CODE, mass_from_radius, radius_from_mass
from .stirring import StirringModel

__all__ = [
    "GapMeasurement",
    "RadialProfile",
    "measure_gap",
    "rms_eccentricity_inclination",
    "surface_density_profile",
    "velocity_dispersion",
    "PlanetesimalDiskConfig",
    "build_disk_system",
    "sample_ring_radii",
    "PowerLawMassFunction",
    "HayashiNebula",
    "ring_mass",
    "MigrationRecord",
    "MigrationTracker",
    "OrbitalElements",
    "cartesian_to_elements",
    "elements_to_cartesian",
    "propagate_kepler",
    "solve_kepler",
    "Protoplanet",
    "default_protoplanets",
    "protoplanet_states",
    "FateCounts",
    "ScatteringMonitor",
    "classify_fates",
    "AccretionHistory",
    "MassSpectrum",
    "ICE_DENSITY_CODE",
    "mass_from_radius",
    "radius_from_mass",
    "StirringModel",
]
