"""Benchmark harness: reference vs. accel kernels across block shapes.

Times every registered kernel implementation on synthetic
planetesimal-like data over a grid of ``(n_active, N)`` shapes and
writes the machine-readable baseline ``BENCH_kernels.json`` at the
repository root (schema below).  This is the perf trajectory's ground
truth: ``tools/check_kernel_registry.py`` requires every registered
kernel to appear in it, and the acceptance gate for the engine is the
``acc_jerk`` speedup at the paper-like ``(1024, 8192)`` block shape.

Run it as a module (repo root, a couple of minutes)::

    PYTHONPATH=src python -m repro.accel.bench
    PYTHONPATH=src python -m repro.accel.bench --quick -o /tmp/bench.json

Document schema::

    {
      "benchmark": "kernels",
      "config":   {engine knobs, numpy version, cpu count},
      "entries": [
        {"op": "acc_jerk", "kernel": "accel",
         "n_active": 1024, "n_source": 8192,
         "best_seconds": ..., "repeats": 3,
         "speedup_vs_reference": ...},   # 1.0 for the reference rows
        ...
      ]
    }

On a host with a C compiler the kernels that end in the compiled row
kernel (:mod:`repro.accel.native`) are timed twice: on the NumPy tiles
(the row as every earlier record has it) and natively, that row marked
``"tier": "native"``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import registry as reg
from .engine import EngineConfig, KernelEngine
from .kernels import ROW_KERNEL_OPS

__all__ = ["DEFAULT_SHAPES", "QUICK_SHAPES", "make_workload", "run_bench", "main"]

#: (n_active, N) grid; (1024, 8192) is the acceptance shape.
DEFAULT_SHAPES: tuple[tuple[int, int], ...] = (
    (64, 4096),
    (256, 8192),
    (1024, 8192),
    (1024, 16384),
)

#: Tiny grid for smoke tests of the harness itself.
QUICK_SHAPES: tuple[tuple[int, int], ...] = ((32, 256),)

_EPS = 0.008
_SPLINE_H = 0.01


def make_workload(n_active: int, n_source: int, seed: int = 2003):
    """Synthetic disk-like block: a particle system + active indices."""
    from ..core.particles import ParticleSystem

    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n_source, 3)) * 10.0
    vel = rng.normal(size=(n_source, 3)) * 0.1
    mass = rng.uniform(1e-10, 1e-8, n_source)
    system = ParticleSystem(mass, pos, vel, time=0.0)
    system.acc[...] = rng.normal(size=(n_source, 3)) * 1e-4
    system.jerk[...] = rng.normal(size=(n_source, 3)) * 1e-6
    active = np.arange(n_active)
    return system, active


def _op_args(op: str, system, active, t_now: float):
    """The normalised argument tuple one op's runners are timed with."""
    pos_i = system.pos[active]
    vel_i = system.vel[active]
    if op == "acc_jerk":
        return (pos_i, vel_i, system.pos, system.vel, system.mass, _EPS), {
            "self_indices": active
        }
    if op == "acc_only":
        return (pos_i, system.pos, system.mass, _EPS), {"self_indices": active}
    if op == "potential":
        return (pos_i, system.pos, system.mass, _EPS), {"self_indices": active}
    if op == "spline":
        return (pos_i, system.pos, system.mass, _SPLINE_H), {"self_indices": active}
    if op == "acc_jerk_active":
        return (system, active, t_now, _EPS), {}
    if op == "acc_jerk_masked":
        # neighbour-sphere-like sparsity: ~1% of pairs, self excluded
        rng = np.random.default_rng(11)
        include = rng.random((active.size, system.n)) < 0.01
        include[np.arange(active.size), active] = False
        return (pos_i, vel_i, system.pos, system.vel, system.mass, _EPS, include), {}
    if op == "node_force":
        # tree-node-like sources: reuse particle COM/vel, add symmetric
        # traceless quadrupole moments scaled to node size
        rng = np.random.default_rng(5)
        a = rng.normal(size=(system.n, 3, 3))
        sym = a + np.swapaxes(a, 1, 2)
        tr = np.trace(sym, axis1=1, axis2=2)
        sym -= tr[:, None, None] * np.eye(3) / 3.0
        quad = sym * system.mass[:, None, None] * 1e-4
        return (pos_i, vel_i, system.pos, system.vel, system.mass, _EPS), {
            "quad_j": quad
        }
    raise ValueError(f"unknown op {op!r}")


def _tiers(engine: KernelEngine, spec, kwargs) -> list[tuple[str | None, KernelEngine]]:
    """``(tier mark, engine)`` pairs one kernel is timed on: a kernel
    the native tier changes gets a NumPy-tier twin of ``engine`` first."""
    on_rows = (spec.op in ROW_KERNEL_OPS and spec.name != "reference"
               and kwargs.get("quad_j") is None)
    if engine.tier != "native" or not on_rows:
        return [(None, engine)]
    twin = KernelEngine(engine.config)
    twin._native = None
    return [(None, twin), ("native", engine)]


def _time_runner(engine, spec, args, kwargs, repeats: int) -> list[float]:
    """Per-repeat wall seconds (min-of-k and bootstrap CIs happen later)."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        spec.runner(engine, *args, **kwargs)
        samples.append(perf_counter() - t0)
    return samples


def run_bench(
    shapes=DEFAULT_SHAPES,
    repeats: int = 3,
    engine: KernelEngine | None = None,
    log=print,
) -> dict:
    """Time every registered kernel over ``shapes``; return the document."""
    engine = engine or KernelEngine(EngineConfig.from_env())
    entries = []
    for n_active, n_source in shapes:
        system, active = make_workload(n_active, n_source)
        # Mid-step block time so the predictor polynomials do real work.
        t_now = 1e-3
        reference_best: dict[str, float] = {}
        for spec in reg.all_kernels():
            args, kwargs = _op_args(spec.op, system, active, t_now)
            for tier, timed_on in _tiers(engine, spec, kwargs):
                spec.runner(timed_on, *args, **kwargs)  # warm-up (workspaces, pool)
                samples = _time_runner(timed_on, spec, args, kwargs, repeats)
                best = min(samples)
                if spec.name == "reference":
                    reference_best[spec.op] = best
                entry = {
                    "op": spec.op,
                    "kernel": spec.name,
                    "n_active": int(n_active),
                    "n_source": int(n_source),
                    "best_seconds": best,
                    "samples_seconds": samples,
                    "repeats": int(repeats),
                }
                label = spec.key
                if tier is not None:
                    entry["tier"] = tier
                    label += f" [{tier}]"
                entries.append(entry)
                if timed_on is not engine:
                    timed_on.close()
                if log:
                    log(
                        f"  {label:<33s} ({n_active:>5d},{n_source:>6d}) "
                        f"{best * 1e3:9.2f} ms"
                    )
        for entry in entries:
            ref = reference_best.get(entry["op"])
            if entry["n_active"] == n_active and entry["n_source"] == n_source and ref:
                entry["speedup_vs_reference"] = ref / entry["best_seconds"]
    return {
        "config": {
            **engine.config.describe(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "shapes": [list(s) for s in shapes],
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny shape grid, one repeat"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: BENCH_kernels.json at the repo root)",
    )
    args = parser.parse_args(argv)

    shapes = QUICK_SHAPES if args.quick else DEFAULT_SHAPES
    repeats = 1 if args.quick else args.repeats
    document = run_bench(shapes=shapes, repeats=repeats)

    if args.output is None:
        out_path = Path(__file__).resolve().parents[3] / "BENCH_kernels.json"
    else:
        out_path = Path(args.output)

    bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        from bench_utils import emit_json
    finally:
        sys.path.pop(0)
    emit_json(document, "kernels", path=out_path, history=True)
    print(f"wrote {out_path} (+ history record)")

    gate = [
        e for e in document["entries"]
        if e["op"] == "acc_jerk" and e["kernel"] != "reference"
        and (e["n_active"], e["n_source"]) == (1024, 8192)
    ]
    for e in gate:
        print(
            f"acc_jerk/{e['kernel']} [{e.get('tier', 'numpy')}] at (1024, 8192): "
            f"{e.get('speedup_vs_reference', 0.0):.2f}x vs reference"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
