"""Kernel registry and shape-bucketed dispatch for the accel engine.

Every force-kernel *op* (``acc_jerk``, ``acc_only``, ``potential``,
``spline``, ``acc_jerk_active``, ``acc_jerk_masked``) has one or more registered
implementations — at minimum the ``reference`` NumPy kernel and a
workspace-backed ``accel``/``fused`` twin.  Every call runs the op's
:data:`PREFERRED` kernel at every shape; ``reference`` runs only when a
caller pins it by name or — when the engine is built with
``autotune=True`` (``REPRO_KERNEL_AUTOTUNE=1``) — as the winner of a
timing trial, cached per *shape bucket* (both dimensions rounded up to
powers of two) by the engine.

The registry is also the contract surface the repo lints against:
``tools/check_kernel_registry.py`` fails when a registered
``op/name`` pair has no equivalence test or no benchmark entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .workspace import bucket_size

__all__ = [
    "KernelSpec",
    "REGISTRY",
    "register_kernel",
    "all_kernels",
    "kernels_for",
    "select_kernel",
    "shape_bucket",
]

#: Ops and the implementation every unpinned call takes.
PREFERRED = {
    "acc_jerk": "accel",
    "acc_only": "accel",
    "potential": "accel",
    "spline": "accel",
    "acc_jerk_active": "fused",
    "acc_jerk_masked": "accel",
    "node_force": "accel",
}


@dataclass(frozen=True)
class KernelSpec:
    """One registered kernel implementation.

    ``runner`` is called as ``runner(engine, *args, **kwargs)`` with the
    op's normalised argument tuple; ``deterministic`` records whether
    the implementation honours the engine's bit-reproducibility
    contract (all built-ins do — only the timing autotuner can
    introduce cross-process divergence).
    """

    op: str
    name: str
    runner: object = field(compare=False, repr=False)
    deterministic: bool = True
    doc: str = ""

    @property
    def key(self) -> str:
        return f"{self.op}/{self.name}"


#: ``(op, name) -> KernelSpec``; insertion order is trial order.
REGISTRY: dict[tuple[str, str], KernelSpec] = {}


def register_kernel(op: str, name: str, runner, deterministic: bool = True,
                    doc: str = "") -> KernelSpec:
    """Register (or replace) one kernel implementation."""
    if op not in PREFERRED:
        raise ValueError(f"unknown kernel op {op!r} (known: {sorted(PREFERRED)})")
    spec = KernelSpec(op=op, name=name, runner=runner,
                      deterministic=deterministic, doc=doc)
    REGISTRY[(op, name)] = spec
    return spec


def all_kernels() -> list[KernelSpec]:
    """Every registered kernel, registration order."""
    return list(REGISTRY.values())


def kernels_for(op: str) -> list[KernelSpec]:
    """Registered implementations of one op, registration order."""
    specs = [s for (o, _), s in REGISTRY.items() if o == op]
    if not specs:
        raise KeyError(f"no kernels registered for op {op!r}")
    return specs


def shape_bucket(n: int) -> int:
    """Dispatch bucket for one shape dimension (next power of two)."""
    return bucket_size(n, floor=1)


def select_kernel(op: str, n_i: int, n_j: int, engine=None) -> KernelSpec:
    """The kernel to run for ``op`` at shape ``(n_i, n_j)``.

    The engine's per-bucket cache first (which is where timing autotune
    results live); otherwise the op's :data:`PREFERRED` kernel, whatever
    the shape.
    """
    if engine is not None:
        cached = engine.cached_pick(op, n_i, n_j)
        if cached is not None:
            return cached
    spec = REGISTRY.get((op, PREFERRED[op]))
    if spec is None:  # partial registry (tests) — fall back to anything
        spec = kernels_for(op)[0]
    return spec
