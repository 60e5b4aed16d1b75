"""repro — reproduction of the SC2002 GRAPE-6 planetesimal simulation.

A production-quality Python library implementing, from scratch:

* the **block individual-timestep 4th-order Hermite** N-body engine used
  by the paper (``repro.core``);
* a functional + performance **simulator of the GRAPE-6 hardware** —
  pipelines, chips, processor boards, network boards, nodes, clusters
  (``repro.grape``);
* the paper's **host parallelisation strategies** over a simulated
  message-passing substrate (``repro.parallel``);
* **planetesimal-disk initial conditions and analysis** for the
  Uranus–Neptune problem (``repro.planetesimal``);
* the **baselines** the paper argues against: Barnes–Hut tree and
  shared-timestep integration (``repro.baselines``);
* the Gordon Bell **flop-accounting and performance model**
  (``repro.perf``).

Quickstart::

    from repro import quick_simulation
    sim = quick_simulation(n=512, seed=1)
    sim.evolve(t_end=10.0)
    print(sim.time, sim.particle_steps)

See ``examples/`` for full scenarios and ``benchmarks/`` for the
reproduction of every evaluation result in the paper.
"""

from . import constants, units
from .core import (
    HostDirectBackend,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
)

__version__ = "1.0.0"

__all__ = [
    "constants",
    "units",
    "HostDirectBackend",
    "KeplerField",
    "ParticleSystem",
    "Simulation",
    "TimestepParams",
    "quick_simulation",
    "__version__",
]


def quick_simulation(n: int = 256, seed: int = 0, eps: float | None = None):
    """Build a ready-to-run scaled planetesimal simulation.

    The default :class:`~repro.runio.RunSpec` run for ``n`` and ``seed``:
    paper-geometry ring with scaled masses, two protoplanets, the Sun and
    host direct summation.  Returns an initialised :class:`~repro.core.Simulation`.
    """
    from .constants import PAPER_SOFTENING_AU
    from .runio import RunSpec

    spec = RunSpec(n=n, seed=seed, eps=PAPER_SOFTENING_AU if eps is None else eps)
    sim = spec.simulation(spec.build_backend())
    sim.initialize()
    return sim
