"""Benchmark harness: direct-vs-hybrid crossover in N.

Runs the scaled paper disk at a grid of particle counts with the pure
direct backend and the hybrid backend, and records, per backend and N:

* the *modelled work* — pairwise interaction evaluations per block
  step (direct: ``n_active * N``; hybrid: the walk's pp + node terms),
  which is what O(N^2) vs O(N log N) is about and what a GRAPE-class
  pipeline would actually execute;
* the measured python wall clock, split into t_tree / t_direct for the
  hybrid, and t_tree further into build / walk;
* the relative energy error, to show accuracy is preserved where the
  cost drops.

Writes the machine-readable baseline ``BENCH_hybrid.json`` at the
repository root.  Run as a module (repo root)::

    PYTHONPATH=src python -m repro.hybrid.bench
    PYTHONPATH=src python -m repro.hybrid.bench --quick -o /tmp/bench.json

Document schema::

    {
      "benchmark": "hybrid_crossover",
      "config":  {eps, theta, r_neighbour, t_end, ...},
      "entries": [
        {"n": 512, "backend": "hybrid",
         "block_steps": ..., "work_interactions": ...,
         "work_per_block": ..., "wall_seconds": ...,
         "energy_error": ..., "near_interactions": ...,
         "far_interactions": ..., "tree_seconds": ...,
         "tree_build_seconds": ..., "tree_walk_seconds": ...,
         "direct_seconds": ...},
        ...
      ],
      "crossover": {"work_n": 256, "wall_n": 512}
    }
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["DEFAULT_GRID", "QUICK_GRID", "run_crossover", "main"]

#: Particle-count grid for the crossover scan.
DEFAULT_GRID: tuple[int, ...] = (64, 128, 256, 512, 1024)

#: Tiny grid for smoke tests of the harness itself.
QUICK_GRID: tuple[int, ...] = (32, 64)

_EPS = 0.008


def _run_one(backend, n: int, t_end: float, seed: int, max_block_steps: int):
    from ..perf.harness import run_scaled_disk

    return run_scaled_disk(
        backend, n=n, t_end=t_end, seed=seed,
        max_block_steps=max_block_steps,
    )


def run_crossover(
    grid=DEFAULT_GRID,
    t_end: float = 0.2,
    seed: int = 0,
    theta: float = 0.6,
    r_neighbour: float = 0.05,
    max_block_steps: int = 250,
    log=print,
) -> dict:
    """Scan ``grid``; return the crossover document."""
    from ..core.backends import HostDirectBackend
    from .backend import HybridBackend

    entries = []
    per_n: dict[int, dict[str, dict]] = {}
    for n in grid:
        for name in ("direct", "hybrid"):
            if name == "direct":
                backend = HostDirectBackend(eps=_EPS)
            else:
                backend = HybridBackend(
                    eps=_EPS, theta=theta, r_neighbour=r_neighbour
                )
            res = _run_one(backend, n, t_end, seed, max_block_steps)
            if name == "direct":
                work = int(backend.counter.force_interactions)
            else:
                # in-sphere pairs are part of the pp lists already
                work = int(backend.far_interactions)
            blocks = max(int(res.block_steps), 1)
            entry = {
                "n": int(n),
                "backend": name,
                "block_steps": int(res.block_steps),
                "work_interactions": work,
                "work_per_block": work / blocks,
                "wall_seconds": float(res.wall_seconds),
                "wall_per_block": float(res.wall_seconds) / blocks,
                "energy_error": float(res.energy_error),
            }
            if name == "hybrid":
                entry.update(
                    near_interactions=int(backend.near_interactions),
                    far_interactions=int(backend.far_interactions),
                    tree_seconds=float(backend.tree_seconds),
                    tree_build_seconds=float(backend.build_seconds),
                    tree_walk_seconds=float(backend.walk_seconds),
                    direct_seconds=float(backend.direct_seconds),
                )
            entries.append(entry)
            per_n.setdefault(int(n), {})[name] = entry
            if log:
                log(
                    f"  n={n:>5d} {name:<8s} work/block {entry['work_per_block']:12.1f} "
                    f"wall {entry['wall_seconds']:7.2f} s  |dE/E| {entry['energy_error']:.2e}"
                )

    def _first_win(metric: str):
        """Smallest N where the hybrid beats direct."""
        for n in sorted(per_n):
            pair = per_n[n]
            if pair["hybrid"][metric] < pair["direct"][metric]:
                return int(n)
        return None

    return {
        "config": {
            "eps": _EPS,
            "theta": float(theta),
            "r_neighbour": float(r_neighbour),
            "t_end": float(t_end),
            "seed": int(seed),
            "max_block_steps": int(max_block_steps),
            "grid": [int(n) for n in grid],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "entries": entries,
        "crossover": {
            "work_n": _first_win("work_per_block"),
            "wall_n": _first_win("wall_per_block"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny N grid, short runs"
    )
    parser.add_argument("--theta", type=float, default=0.6)
    parser.add_argument("--r-neighbour", type=float, default=0.05)
    parser.add_argument("--t-end", type=float, default=0.2)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: BENCH_hybrid.json at the repo root)",
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else DEFAULT_GRID
    max_blocks = 40 if args.quick else 250
    document = run_crossover(
        grid=grid, t_end=args.t_end, theta=args.theta,
        r_neighbour=args.r_neighbour, max_block_steps=max_blocks,
    )

    if args.output is None:
        out_path = Path(__file__).resolve().parents[3] / "BENCH_hybrid.json"
    else:
        out_path = Path(args.output)

    bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        from bench_utils import emit_json
    finally:
        sys.path.pop(0)
    emit_json(document, "hybrid_crossover", path=out_path, history=True)
    print(f"wrote {out_path} (+ history record)")
    cx = document["crossover"]
    print(f"work crossover:  N = {cx['work_n']}")
    print(f"wall crossover:  N = {cx['wall_n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
