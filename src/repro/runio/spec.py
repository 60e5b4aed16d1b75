"""What a run is made of: its :class:`RunSpec` and the final-state digest.

``repro run`` derives its flags from the fields of :class:`RunSpec` and
builds its backend and simulation through it; a checkpoint's ``config``
stores it, so ``--resume`` rebuilds the identical run.
:func:`state_digest` fingerprints where a run ended, which is how
kill-and-resume ≡ uninterrupted is checked.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields

from ..constants import PAPER_SOFTENING_AU
from ..errors import ConfigurationError

__all__ = ["RunSpec", "state_digest"]


def _setting(default, help: str, choices: tuple[str, ...] | None = None):
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class RunSpec:
    """How a run is built: the disk, the step control and the force backend.

    Each field's metadata holds its ``help`` and ``choices`` (None when
    free).  The end time and managed-run cadences are not part of it: a
    checkpoint's state stores those.
    """

    n: int = _setting(256, "planetesimal count")
    seed: int = _setting(0, "disk realisation seed")
    eta: float = _setting(0.02, "Aarseth accuracy parameter")
    dt_max: float = _setting(1.0, "largest block step")
    backend: str = _setting("host", "force engine", ("host", "grape", "tree", "hybrid", "spmd"))
    eps: float = _setting(PAPER_SOFTENING_AU, "softening [AU]")
    theta: float = _setting(0.5, "tree opening angle (tree and hybrid backends)")
    r_neighbour: float = _setting(0.05, "default neighbour-sphere radius [AU] (hybrid backend)")
    n_crit: int = _setting(32, "grouped-walk sink-group size target")
    ranks: int = _setting(2, "SPMD gang size (spmd backend)")
    spmd_mode: str = _setting(
        "proc", "spmd execution mode: worker processes or in-process scheduler", ("proc", "vm"),
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            choices, value = f.metadata["choices"], getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigurationError(
                    f"unknown {f.name} {value!r} (want one of {', '.join(choices)})"
                )

    def build_backend(self):
        """The force backend (a GRAPE backend's model is its ``machine``)."""
        if self.backend == "host":
            from ..core import HostDirectBackend

            return HostDirectBackend(eps=self.eps)
        if self.backend == "tree":
            from ..baselines import TreeBackend

            return TreeBackend(eps=self.eps, theta=self.theta, n_crit=self.n_crit)
        if self.backend == "hybrid":
            from ..hybrid import HybridBackend

            return HybridBackend(eps=self.eps, theta=self.theta,
                                 r_neighbour=self.r_neighbour, n_crit=self.n_crit)
        if self.backend == "spmd":
            from ..parallel import SpmdBackend

            return SpmdBackend(eps=self.eps, n_ranks=self.ranks, mode=self.spmd_mode)
        from ..grape import Grape6Backend, Grape6Config, Grape6Machine

        return Grape6Backend(Grape6Machine(Grape6Config.paper_full_system(), eps=self.eps))

    def timestep_params(self):
        """Block-step control; the start-up step uses half of ``eta``."""
        from ..core import TimestepParams

        return TimestepParams(eta=self.eta, eta_start=self.eta / 2.0, dt_max=self.dt_max)

    def simulation(self, backend, obs=None):
        """The scaled paper disk around the Sun, driven by ``backend``."""
        from ..core import KeplerField, Simulation
        from ..planetesimal import PlanetesimalDiskConfig, build_disk_system

        disk = PlanetesimalDiskConfig(n_planetesimals=self.n, seed=self.seed)
        return Simulation(build_disk_system(disk), backend, external_field=KeplerField(),
                          timestep_params=self.timestep_params(), obs=obs)

    def to_config(self) -> dict:
        """The checkpoint ``config``: every field by name."""
        return asdict(self)

    @classmethod
    def from_config(cls, cfg: dict | None) -> "RunSpec":
        """The spec a checkpoint ``config`` holds; the one-way shim for
        older recipes.

        A missing key takes the field default.  ``tree_walk: "grouped"``
        is dropped and any other walk refused; the removed
        ``spmd_mode: "serial"`` made the host backend's force call, so
        it loads as ``backend: "host"``.  No recipe, or an unknown key,
        is a :class:`~repro.errors.ConfigurationError`.
        """
        if not cfg:
            raise ConfigurationError(
                "no run recipe (`config`) in the checkpoint; resume it with "
                "ProductionRun.resume(dir, backend, ...) and the backend it ran on"
            )
        cfg = dict(cfg)
        walk = cfg.pop("tree_walk", None)
        if walk not in (None, "grouped"):
            raise ConfigurationError(
                f"recipe names tree walk {walk!r}, which no longer exists "
                "(the grouped walk is the only one)"
            )
        if cfg.get("spmd_mode") == "serial":
            del cfg["spmd_mode"]
            if cfg.get("backend") == "spmd":
                cfg["backend"] = "host"
        unknown = sorted(set(cfg) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown run setting(s): {', '.join(unknown)}")
        return cls(**cfg)


def state_digest(system, t_final: float, block_steps: int) -> str:
    """SHA-256 fingerprint of a run's final dynamical state.

    Bit-identical runs — uninterrupted, or killed and resumed any
    number of times — produce the same digest.
    """
    h = hashlib.sha256()
    for name in ("mass", "pos", "vel", "t"):
        h.update(getattr(system, name).tobytes())
    h.update(f"{t_final!r}:{block_steps}".encode())
    return h.hexdigest()
