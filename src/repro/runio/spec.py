"""What a run is made of: the backend factory and the final-state digest.

``repro run`` (plain, managed and ``--resume``) builds its force
backend through :func:`build_backend`, and a checkpoint's ``config``
stores the same keyword recipe so a resume rebuilds the identical
backend.  :func:`state_digest` fingerprints where a run ended, which is
how kill-and-resume ≡ uninterrupted is checked.
"""

from __future__ import annotations

import hashlib

from ..errors import ConfigurationError

__all__ = ["build_backend", "state_digest"]

_BACKENDS = ("host", "grape", "tree", "hybrid", "spmd")


def build_backend(name: str, eps: float = 0.008, theta: float = 0.5,
                  r_neighbour: float = 0.05, ranks: int = 2,
                  spmd_mode: str = "proc", n_crit: int = 32):
    """Construct a force backend by name.

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
        f"unknown backend {name!r} (want one of {', '.join(_BACKENDS)})"
    )


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
