"""Benchmark harness: engine ops vs. their oracles across block shapes.

Times every :class:`KernelEngine` op (rows ``"kernel": "accel"``, or
``"fused"`` for ``acc_jerk_active``) and its plain-NumPy oracle from
:mod:`repro.core` (``"reference"``) on synthetic planetesimal-like data
over a grid of ``(n_active, N)`` shapes and writes the machine-readable
baseline ``BENCH_kernels.json`` at the repository root (schema below).
The acceptance gate for the engine is the ``acc_jerk`` speedup at the
paper-like ``(1024, 8192)`` block shape.

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

On a host with a C compiler the ops that end in the compiled row
kernel (:mod:`repro.accel.native`) are timed twice: on the NumPy tier
(the oracle per j-chunk) and natively, that row marked
``"tier": "native"``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from ..core import forces
from ..core.predictor import predict_system
from .engine import OPS, EngineConfig, KernelEngine

__all__ = ["DEFAULT_SHAPES", "QUICK_SHAPES", "make_workload", "run_bench", "main"]

#: (n_active, N) grid; (1024, 8192) is the acceptance shape, the two
#: 2-sink shapes are the paper's regime (the median block of the
#: stepping benchmark's sparse workloads), where a call is all shell.
DEFAULT_SHAPES: tuple[tuple[int, int], ...] = (
    (2, 256),
    (2, 2048),
    (64, 4096),
    (256, 8192),
    (1024, 8192),
    (1024, 16384),
)

#: Tiny grid for smoke tests of the harness itself.
QUICK_SHAPES: tuple[tuple[int, int], ...] = ((32, 256),)

_EPS = 0.008


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


def _cases(system, active, t_now: float):
    """``(op, kernel, call(engine))`` rows timed at one shape, each
    op's oracle (``reference``) before its engine row."""
    pos, vel, mass = system.pos, system.vel, system.mass
    pos_i, vel_i = pos[active], vel[active]
    # neighbour-sphere-like sparsity: ~1% of pairs, self excluded
    include = np.random.default_rng(11).random((active.size, system.n)) < 0.01
    include[np.arange(active.size), active] = False
    # tree-node-like sources: reuse particle COM/vel, add symmetric
    # traceless quadrupole moments scaled to node size
    a = np.random.default_rng(5).normal(size=(system.n, 3, 3))
    sym = a + np.swapaxes(a, 1, 2)
    sym -= np.trace(sym, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3.0
    quad = sym * mass[:, None, None] * 1e-4

    def predict_then_sum(_engine):
        predict_system(system, t_now)
        return forces.acc_jerk(
            system.pred_pos[active], system.pred_vel[active], system.pred_pos,
            system.pred_vel, mass, _EPS, self_indices=active,
        )

    pair = (pos_i, vel_i, pos, vel, mass, _EPS)
    point = (pos_i, pos, mass, _EPS)
    own = {"self_indices": active}
    return [
        ("acc_jerk", "reference", lambda e: forces.acc_jerk(*pair, **own)),
        ("acc_jerk", "accel", lambda e: e.acc_jerk(*pair, **own)),
        ("potential", "reference",
         lambda e: forces.pairwise_potential(*point, **own)),
        ("potential", "accel", lambda e: e.pairwise_potential(*point, **own)),
        ("acc_jerk_active", "reference", predict_then_sum),
        ("acc_jerk_active", "fused",
         lambda e: e.acc_jerk_active(system, active, t_now, _EPS)),
        ("acc_jerk_masked", "reference",
         lambda e: forces.acc_jerk(*pair, include=include)),
        ("acc_jerk_masked", "accel",
         lambda e: e.acc_jerk_masked(*pair, include)),
        ("node_force", "reference",
         lambda e: forces.node_force(*pair, quad_j=quad)),
        ("node_force", "accel", lambda e: e.node_force(*pair, quad_j=quad)),
    ]


#: Engine rows the native tier changes: all but the potential.
_NATIVE_ROWS = OPS - {"potential"}


def _tiers(engine: KernelEngine, op: str, kernel: str):
    """``(tier mark, engine)`` pairs one row is timed on: an op the
    native tier changes gets a NumPy-tier twin of ``engine`` first."""
    if engine.tier != "native" or kernel == "reference" or op not in _NATIVE_ROWS:
        return [(None, engine)]
    twin = KernelEngine(engine.config)
    twin._native = None
    return [(None, twin), ("native", engine)]


def _time_call(call, engine, repeats: int) -> list[float]:
    """Per-repeat wall seconds (min-of-k and bootstrap CIs happen later)."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        call(engine)
        samples.append(perf_counter() - t0)
    return samples


def run_bench(
    shapes=DEFAULT_SHAPES,
    repeats: int = 3,
    engine: KernelEngine | None = None,
    log=print,
) -> dict:
    """Time every op and oracle over ``shapes``; return the document."""
    engine = engine or KernelEngine(EngineConfig.from_env())
    entries = []
    for n_active, n_source in shapes:
        system, active = make_workload(n_active, n_source)
        # Mid-step block time so the predictor polynomials do real work.
        t_now = 1e-3
        reference_best: dict[str, float] = {}
        for op, kernel, call in _cases(system, active, t_now):
            for tier, timed_on in _tiers(engine, op, kernel):
                call(timed_on)  # warm-up (workspaces, pool)
                samples = _time_call(call, timed_on, repeats)
                best = min(samples)
                if kernel == "reference":
                    reference_best[op] = best
                entry = {
                    "op": op,
                    "kernel": kernel,
                    "n_active": int(n_active),
                    "n_source": int(n_source),
                    "best_seconds": best,
                    "samples_seconds": samples,
                    "repeats": int(repeats),
                }
                label = f"{op}/{kernel}"
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
