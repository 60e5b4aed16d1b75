#!/usr/bin/env python3
"""Why GRAPE-6 has network boards: the Section 4.3 design study as code.

Runs the four ways of attaching p hosts to GRAPE hardware that the
paper walks through (Figures 3-7) as rank programs on the virtual
machine, over the GRAPE-6 links (Gigabit Ethernet between hosts, PCI to
each host's network board, LVDS between boards): the bytes each host
NIC carried and the logical step time, as the host count and the
active-block size grow.

Run:  python examples/parallel_strategies.py [p ...]
"""

from __future__ import annotations

import sys

from repro.parallel import strategies_for, strategy_step

BLOCKS = (1000, 5000, 20_000)


def main(hosts=(4, 16, 64)) -> None:
    for p in hosts:
        print(f"\n=== p = {p} hosts ===")
        print(f"{'strategy':<16} " + "".join(
            f"{'nic B/step @' + str(b):>18}" for b in BLOCKS
        ) + f"{'step ms @5000':>15}")
        for name in strategies_for(p):
            runs = {b: strategy_step(name, p, b) for b in BLOCKS}
            t = max(runs[5000][0].clock) * 1e3
            print(f"{name:<16} " + "".join(
                f"{int(runs[b][1]):>18,}" for b in BLOCKS) + f"{t:>15.3f}")

    print("""
Reading the table (the paper's argument):
 * naive-copy: per-host traffic is O(block) no matter how many hosts —
   "the parallel system ... is no better than a single host, as far as
   the communication bandwidth is concerned" (Fig 3);
 * grape-exchange: network boards move the data on dedicated links, so
   host NICs carry only synchronisation (Figs 4-5);
 * host-2d-grid: traffic falls as 1/sqrt(p) (Fig 6);
 * hybrid: hardware exchange inside clusters + Ethernet columns between
   them — what GRAPE-6 actually built (Fig 7).""")


if __name__ == "__main__":
    main(tuple(int(a) for a in sys.argv[1:]) or (4, 16, 64))
