"""Benchmark harness: measured multiprocess IPC vs the VM's cost model.

Runs the shared rank force programs (ring exchange and 2-D grid
reduction) two ways for each scheme/rank-count point and records, per
entry:

* the **measured** wall clock of the supervised multiprocess engine
  (:class:`repro.parallel.proc.ProcEngine` — real processes, real pipes,
  real shared memory).  The engine's gang is persistent, so the first
  run of a point pays the fork and every later one does not: the first
  is recorded alone as ``cold_wall_seconds``, and ``samples_seconds`` /
  ``wall_seconds`` (their minimum) are the warm repeats that follow it,
  so the bench-history gate bootstraps a confidence interval over like
  with like;
* the in-process :class:`~repro.parallel.spmd.VirtualMachine` run of
  the identical program: its logical clock (the latency/bandwidth
  *prediction* of the same message schedule), the bytes it moved and
  ``nic_bytes``, the point-to-point bytes one rank sent and received,
  averaged over the ranks (every rank is a host here).

The VM model and the real IPC fabric price the same schedule side by
side.  Every run
also asserts the process results are bit-identical to the VM results —
a benchmark that drifted from the parity contract would be measuring
the wrong thing.

Writes the machine-readable baseline ``BENCH_spmd.json`` at the
repository root and appends a record to the bench-history store read by
``repro perf diff/trend/gate``.  Run as a module (repo root)::

    PYTHONPATH=src python -m repro.parallel.bench
    PYTHONPATH=src python -m repro.parallel.bench --quick -o /tmp/spmd.json

Document schema::

    {
      "benchmark": "spmd",
      "config":  {n, eps, repeats, vm_bandwidth, vm_latency, ...},
      "entries": [
        {"scheme": "ring", "p": 4, "n": 192,
         "cold_wall_seconds": ...,
         "wall_seconds": ..., "samples_seconds": [...], "repeats": 3,
         "vm_clock_seconds": ..., "vm_bytes": ..., "nic_bytes": ...,
         "ipc_bytes": ..., "ipc_messages": ..., "supersteps": ...,
         "straggler_wait_seconds": ...},
        ...
      ]
    }
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["RING_RANKS", "GRID_SIDES", "run_spmd_bench", "main"]

#: Rank counts for the ring exchange scan.
RING_RANKS: tuple[int, ...] = (2, 4)

#: Grid sides q for the q x q 2-D reduction scan.
GRID_SIDES: tuple[int, ...] = (2,)

_EPS = 0.008


def _cluster(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)) * 0.1,
        rng.uniform(0.5, 1.5, n) / n,
    )


def _assert_parity(vm_returns, proc_returns, label: str) -> None:
    """The measured engine must still be bit-identical to the VM.

    Each rank returns the allgathered list of ``(lo, hi, acc, jerk)``
    slabs (``None`` for grid ranks outside the compute row).
    """
    for rank, (vm_ret, proc_ret) in enumerate(zip(vm_returns, proc_returns)):
        for vm_item, proc_item in zip(vm_ret, proc_ret):
            if vm_item is None:
                if proc_item is not None:
                    raise AssertionError(
                        f"{label} rank {rank}: VM None, proc not"
                    )
                continue
            lo, hi, acc, jerk = vm_item
            plo, phi, pacc, pjerk = proc_item
            if (lo, hi) != (plo, phi):
                raise AssertionError(f"{label} rank {rank}: bounds differ")
            if not (np.array_equal(acc, pacc) and np.array_equal(jerk, pjerk)):
                raise AssertionError(f"{label} rank {rank}: bits differ")


def _measure_point(scheme: str, p: int, n: int, seed: int, repeats: int,
                   program, params: dict) -> dict:
    from .proc import ProcEngine
    from .programs import ProgramContext
    from .spmd import VirtualMachine

    pos, vel, mass = _cluster(n, seed)
    ctx = ProgramContext(
        arrays={"pos": pos, "vel": vel, "mass": mass}, params=params
    )
    vm_res = VirtualMachine(n_ranks=p).run(program, ctx)

    samples = []
    with ProcEngine(p) as eng:
        for name, arr in (("pos", pos), ("vel", vel), ("mass", mass)):
            eng.share(name, arr)
        # the first run forks the gang; the repeats reuse it
        cold = float(eng.run(program, params).wall_seconds)
        for _ in range(repeats):
            proc_res = eng.run(program, params)
            samples.append(float(proc_res.wall_seconds))
    _assert_parity(vm_res.returns, proc_res.returns, f"{scheme} p={p}")

    return {
        # identity
        "scheme": scheme,
        "p": int(p),
        "n": int(n),
        # measured (multiprocess IPC): gang fork included / gang warm
        "cold_wall_seconds": cold,
        "wall_seconds": min(samples),
        "samples_seconds": samples,
        "repeats": len(samples),
        "ipc_bytes": float(proc_res.total_bytes),
        "ipc_messages": float(proc_res.messages),
        "supersteps": float(proc_res.supersteps),
        "straggler_wait_seconds": float(proc_res.straggler_wait_seconds),
        # predicted (VM logical clock on the identical schedule)
        "vm_clock_seconds": float(max(vm_res.clock)),
        "vm_bytes": float(vm_res.total_bytes),
        "vm_messages": float(vm_res.messages),
        "nic_bytes": 2.0 * sum(vm_res.link_bytes.values()) / p,
    }


def run_spmd_bench(
    n: int = 192,
    seed: int = 17,
    repeats: int = 3,
    ring_ranks=RING_RANKS,
    grid_sides=GRID_SIDES,
    log=print,
) -> dict:
    """Scan ring and 2-D grid schemes; return the benchmark document."""
    from .programs import grid_force_program, partition_bounds, ring_force_program
    from .spmd import VirtualMachine

    entries = []
    for p in ring_ranks:
        entry = _measure_point(
            "ring", p, n, seed, repeats,
            ring_force_program,
            {"eps": _EPS, "bounds": partition_bounds(n, p)},
        )
        entries.append(entry)
        if log:
            log(
                f"  ring    p={p}  cold {entry['cold_wall_seconds']:.4f} s"
                f"  warm {entry['wall_seconds']:.4f} s"
                f"  vm-clock {entry['vm_clock_seconds']:.6f} s"
                f"  nic {entry['nic_bytes']:.0f} B"
            )
    for q in grid_sides:
        entry = _measure_point(
            "2d-grid", q * q, n, seed, repeats,
            grid_force_program,
            {"eps": _EPS, "q": int(q), "bounds": partition_bounds(n, q)},
        )
        entries.append(entry)
        if log:
            log(
                f"  2d-grid p={q * q}  cold {entry['cold_wall_seconds']:.4f} s"
                f"  warm {entry['wall_seconds']:.4f} s"
                f"  vm-clock {entry['vm_clock_seconds']:.6f} s"
                f"  nic {entry['nic_bytes']:.0f} B"
            )

    vm = VirtualMachine(n_ranks=2)
    return {
        "config": {
            "n": int(n),
            "eps": _EPS,
            "seed": int(seed),
            "repeats": int(repeats),
            "ring_ranks": [int(p) for p in ring_ranks],
            "grid_sides": [int(q) for q in grid_sides],
            "vm_bandwidth": vm.bandwidth,
            "vm_latency": vm.latency,
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small cluster, fewer repeats"
    )
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: BENCH_spmd.json at the repo root)",
    )
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (64 if args.quick else 192)
    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 3
    )
    document = run_spmd_bench(n=n, repeats=repeats)

    if args.output is None:
        out_path = Path(__file__).resolve().parents[3] / "BENCH_spmd.json"
    else:
        out_path = Path(args.output)

    bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        from bench_utils import emit_json
    finally:
        sys.path.pop(0)
    emit_json(document, "spmd", path=out_path, history=True)
    print(f"wrote {out_path} (+ history record)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
