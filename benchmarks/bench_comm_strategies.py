"""COMM-STRAT — host-parallelisation strategies (Section 4.3, Figs 3-7).

Reproduces the paper's architectural argument quantitatively, with each
strategy run as a rank program on the virtual machine over the GRAPE-6
links (Gigabit Ethernet between hosts, PCI to each host's network
board, LVDS between network boards):

* Figure 3 (naive copy): per-host communication does NOT shrink with p
  ("no better than a single host, as far as the communication bandwidth
  is concerned");
* Figures 4-5 (GRAPE data exchange via network boards): host NIC
  traffic reduced to synchronisation;
* Figure 6 (2-D host matrix): per-host traffic scales as 1/sqrt(p);
* Figure 7 (the hybrid actually built): a fifth of naive copy at the
  machine's 16 hosts.

Rows: the bytes an average host NIC carried in one block step (counted
from the run) and the VM's logical step time, for p = 4 and 16.
"""

from __future__ import annotations

import pytest

from repro.parallel import strategies_for, strategy_step
from repro.perf import Table

from bench_utils import emit, fresh

N_ACTIVE = 5000  # paper-scale block


def _run(name, p):
    result, nic = strategy_step(name, p, N_ACTIVE)
    return nic, max(result.clock)


@pytest.mark.benchmark(group="comm")
def test_strategy_comparison(benchmark):
    fresh("comm_strategies")

    def run():
        return [(p, name, *_run(name, p))
                for p in (4, 16) for name in strategies_for(p)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["p", "strategy", "host NIC bytes/step", "VM step time [ms]"],
        title="COMM-STRAT: host parallelisation schemes (block = 5000)",
    )
    for p, name, nic, t in rows:
        table.add_row(p, name, int(nic), round(t * 1e3, 3))
    emit(table, "comm_strategies")

    by = {(p, name): (nic, t) for p, name, nic, t in rows}
    # Fig 3 claim: naive NIC volume does not shrink 4 -> 16 hosts
    assert by[(16, "naive-copy")][0] >= by[(4, "naive-copy")][0]
    # Figs 4-5 claim: the NB exchange removes host NIC traffic
    assert by[(16, "grape-exchange")][0] < by[(16, "naive-copy")][0] / 100
    # Fig 6 claim: the 2-D grid beats naive at p=16
    assert by[(16, "host-2d-grid")][0] < by[(16, "naive-copy")][0] / 2
    # Fig 7: the hybrid (what GRAPE-6 built) carries a fifth of naive at p=16
    assert by[(16, "hybrid")][0] == by[(16, "naive-copy")][0] / 5


@pytest.mark.benchmark(group="comm")
def test_naive_copy_does_not_scale(benchmark):
    """The central negative result: naive per-host traffic vs p."""
    fresh("comm_naive_scaling")

    def run():
        return [(p, *_run("naive-copy", p)) for p in (2, 4, 8, 16, 32)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["p", "host NIC bytes/step", "VM step time [ms]"],
        title="COMM-STRAT: naive copy (Fig 3) vs host count",
    )
    for p, nic, t in rows:
        table.add_row(p, int(nic), round(t * 1e3, 3))
    emit(table, "comm_naive_scaling")

    nic = [r[1] for r in rows]
    # traffic per host grows toward an O(n_active) asymptote — it never falls
    assert nic == sorted(nic)

    times = [r[2] for r in rows]
    # and the step gets *longer* with more hosts: each host sends p - 1
    # messages through its one interface
    assert times == sorted(times)


@pytest.mark.benchmark(group="comm")
def test_executed_data_movement(benchmark):
    """Run distributed direct summation with real forces (ring = the
    Figs 4-5 exchange in software; 2-D grid = Fig 6) on the SPMD runtime
    and count the bytes moved.

    Ring per-rank traffic is O(N) independent of p; grid per-rank
    traffic falls with q."""
    import numpy as np

    from repro.parallel import grid_forces, ring_forces
    from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

    fresh("comm_executed")

    system = build_disk_system(
        PlanetesimalDiskConfig(n_planetesimals=240, seed=2, protoplanets=[])
    )
    pos, vel, mass = system.pos, system.vel, system.mass

    def run():
        rows = []
        for p in (2, 4, 8):
            r = ring_forces(pos, vel, mass, 0.008, n_ranks=p)
            rows.append(("ring", p, r.total_bytes, r.total_bytes / p, max(r.clock)))
        for q in (2, 4):
            g = grid_forces(pos, vel, mass, 0.008, q=q)
            rows.append(
                ("grid2d", q * q, g.total_bytes, g.total_bytes / (q * q), max(g.clock))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["scheme", "ranks", "total bytes", "bytes/rank", "logical time [ms]"],
        title="COMM-STRAT: executed distributed summation (N = 240)",
    )
    for scheme, p, total, per, clock in rows:
        table.add_row(scheme, p, int(total), int(per), round(clock * 1e3, 3))
    emit(table, "comm_executed")

    ring = {p: per for scheme, p, _, per, _ in rows if scheme == "ring"}
    grid = {p: per for scheme, p, _, per, _ in rows if scheme == "grid2d"}
    # ring: per-rank bytes flat in p (within 2x across 4x in p)
    assert ring[8] == pytest.approx(ring[2], rel=1.0)
    # grid: per-rank bytes fall as the matrix grows
    assert grid[16] < grid[4]
