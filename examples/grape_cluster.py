#!/usr/bin/env python3
"""Drive the GRAPE-6 machine simulator and read off its accounting.

Runs the same disk on three machine configurations — one processor
board, one node, and the paper's full 2048-chip system — and prints
what the hardware simulator records: pipeline cycles, link traffic,
modelled wall time per configuration, and the sustained-Tflops
projection to the paper's 1.8-million-particle run.

Run:  python examples/grape_cluster.py
"""

from __future__ import annotations

from repro.constants import PAPER_ACHIEVED_TFLOPS, PAPER_N_PLANETESIMALS
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.perf import extrapolate_from_histogram, run_scaled_disk


def main() -> None:
    configs = [
        ("single board", Grape6Config.single_board()),
        ("single node", Grape6Config.single_node()),
        ("full system", Grape6Config.paper_full_system()),
    ]

    print(f"{'configuration':<14} {'chips':>6} {'peak Tflops':>12} "
          f"{'model wall [s]':>15} {'achieved Tflops':>16} {'efficiency':>11}")
    results = {}
    for label, cfg in configs:
        machine = Grape6Machine(cfg, eps=0.008, mode="flat")
        res = run_scaled_disk(
            Grape6Backend(machine), n=512, t_end=20.0, seed=1, dt_max=16.0,
            measure_energy=False,
        )
        results[label] = (machine, res)
        print(f"{label:<14} {cfg.total_chips:>6} {cfg.peak_flops / 1e12:>12.2f} "
              f"{machine.totals.total_seconds:>15.4f} "
              f"{machine.achieved_flops() / 1e12:>16.3f} "
              f"{machine.efficiency():>10.1%}")

    machine, res = results["full system"]
    t = machine.totals
    print("\nFull-system per-component time share (this workload):")
    for name, val in (("host", t.host), ("pci", t.pci), ("lvds", t.lvds),
                      ("pipe", t.pipe), ("gbe", t.gbe)):
        print(f"  {name:<5} {val:>10.4f} s  ({val / t.total_seconds:>5.1%})")
    print(f"\nNote: at N = {res.n} the 63-Tflops machine idles — the pipelines"
          f"\nare {t.pipe / t.total_seconds:.0%} of the step but nearly empty."
          " The paper's regime needs N ~ 1e6:")

    est = extrapolate_from_histogram(
        Grape6Config.paper_full_system(),
        PAPER_N_PLANETESIMALS + 2,
        res.sim.scheduler.stats.size_counts,
        n_measured=res.n,
    )
    print(f"\nProjection to N = 1.8e6 from this run's block histogram:")
    print(f"  sustained: {est.sustained_tflops:.1f} Tflops "
          f"({est.efficiency:.1%} of peak; paper: {PAPER_ACHIEVED_TFLOPS} Tflops)")


if __name__ == "__main__":
    main()
