"""Declarative scenario configs for campaign jobs.

A job is described by data, not code: a :class:`ScenarioConfig` is a
plain dict-round-trippable record naming the disk, the backend and the
run management knobs.  The worker process rebuilds the exact simulation
from it — the same contract the checkpoint ``config`` metadata uses for
``repro run --resume`` — so a job can be (re)executed by any worker on
any attempt and produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..errors import ConfigurationError

__all__ = ["ScenarioConfig", "build_backend", "load_campaign_spec"]

#: Backends a scenario may name (``spmd`` needs ``ranks``, which a
#: scenario does not carry).
_BACKENDS = ("host", "grape", "tree", "hybrid")


def build_backend(name: str, eps: float = 0.008, theta: float = 0.5,
                  r_neighbour: float = 0.05, ranks: int = 2,
                  spmd_mode: str = "proc", n_crit: int = 32):
    """Construct a force backend by name (shared by CLI and workers).

    The GRAPE backend's machine model is its ``machine`` attribute.
    """
    if name == "host":
        from ..core import HostDirectBackend

        return HostDirectBackend(eps=eps)
    if name == "tree":
        from ..baselines import TreeBackend

        return TreeBackend(eps=eps, theta=theta, n_crit=n_crit)
    if name == "hybrid":
        from ..hybrid import HybridBackend

        return HybridBackend(eps=eps, theta=theta, r_neighbour=r_neighbour,
                             n_crit=n_crit)
    if name == "spmd":
        from ..parallel import SpmdBackend

        return SpmdBackend(eps=eps, n_ranks=ranks, mode=spmd_mode)
    if name == "grape":
        from ..grape import Grape6Backend, Grape6Config, Grape6Machine

        machine = Grape6Machine(Grape6Config.paper_full_system(), eps=eps)
        return Grape6Backend(machine)
    raise ConfigurationError(
        f"unknown backend {name!r} "
        f"(want one of {', '.join(_BACKENDS + ('spmd',))})"
    )


@dataclass
class ScenarioConfig:
    """Everything a worker needs to build and manage one run."""

    n: int = 64
    seed: int = 0
    t_end: float = 5.0
    backend: str = "host"
    eta: float = 0.02
    dt_max: float = 1.0
    eps: float = 0.008
    theta: float = 0.5
    r_neighbour: float = 0.05
    checkpoint_interval: int | None = 4
    snapshot_interval: float | None = None
    diagnostics_interval: float | None = None
    #: Test/chaos hooks interpreted by the worker (see repro.serve.worker).
    chaos: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("scenario needs n >= 1 planetesimals")
        if self.t_end <= 0:
            raise ConfigurationError("scenario t_end must be positive")
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r} "
                f"(want one of {', '.join(_BACKENDS)})"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1 block")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario config keys: {sorted(unknown)}"
            )
        return cls(**data)

    def build_backend(self):
        return build_backend(
            self.backend, eps=self.eps, theta=self.theta,
            r_neighbour=self.r_neighbour,
        )

    def build_simulation(self, obs=None):
        """The initialised simulation this scenario describes."""
        from ..core import KeplerField, Simulation, TimestepParams
        from ..planetesimal import PlanetesimalDiskConfig, build_disk_system

        system = build_disk_system(
            PlanetesimalDiskConfig(n_planetesimals=self.n, seed=self.seed)
        )
        return Simulation(
            system,
            self.build_backend(),
            external_field=KeplerField(),
            timestep_params=TimestepParams(
                eta=self.eta, eta_start=self.eta / 2.0, dt_max=self.dt_max
            ),
            obs=obs,
        )


def load_campaign_spec(path) -> list[tuple[str, ScenarioConfig]]:
    """Parse a campaign spec file into ``[(tenant, scenario), ...]``.

    The spec is JSON::

        {"defaults": {"n": 24, "t_end": 2.0},
         "jobs": [{"tenant": "alice", "seed": 1},
                  {"tenant": "bob",   "seed": 2, "n": 48}]}

    Per-job keys override ``defaults``; ``tenant`` is required per job.
    """
    import json
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"campaign spec not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"corrupt campaign spec {p}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
        raise ConfigurationError(
            f"{p} is not a campaign spec (want an object with a 'jobs' list)"
        )
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigurationError(f"{p}: 'defaults' must be an object")
    jobs = []
    for i, entry in enumerate(doc["jobs"]):
        if not isinstance(entry, dict) or "tenant" not in entry:
            raise ConfigurationError(
                f"{p}: job #{i} must be an object with a 'tenant'"
            )
        merged = {**defaults, **entry}
        tenant = merged.pop("tenant")
        jobs.append((str(tenant), ScenarioConfig.from_dict(merged)))
    return jobs
