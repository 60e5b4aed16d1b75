"""Tests for the VM's link table and the paper's host strategies as
rank programs (Section 4.3, Figures 3-7)."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CommError, ConfigurationError
from repro.grape import gbe_link, lvds_link, pci_link
from repro.parallel import (
    HOST_STRATEGIES,
    ProcEngine,
    ProgramContext,
    VirtualMachine,
    host_grid_program,
    machine_links,
    naive_copy_program,
    partition_bounds,
    ring_force_program,
    strategies_for,
    strategy_step,
)

REPO = Path(__file__).resolve().parent.parent

#: The paper-scale block of the Section 4.3 tables.
BLOCK = 5000


def nic(name, p, n_active=BLOCK):
    """Mean bytes one host NIC carried in one block step."""
    return strategy_step(name, p, n_active)[1]


def _one_way(nbytes):
    """Rank 0 sends ``nbytes`` to rank 1."""
    def prog(comm, ctx):
        if comm.rank == 0:
            yield comm.send(1, np.zeros(nbytes, dtype=np.uint8))
        else:
            yield comm.recv(0)
    return prog


def _uniform_links(n, latency=0.0, bandwidth=1e6):
    return {(a, b): (latency, bandwidth)
            for a in range(n) for b in range(n) if a != b}


class TestTopologies:
    """The machine description: :func:`machine_links` and the VM's
    link table."""

    def test_switch_hosts(self):
        links = machine_links(4)
        gbe = (gbe_link().latency, gbe_link().bandwidth)
        assert all(links[a, b] == gbe
                   for a in range(4) for b in range(4) if a != b)

    def test_ring_routing(self):
        """The ring program talks to its two neighbours only: it runs on
        a table that holds nothing but ring links."""
        p, n = 5, 20
        ring = {}
        for r in range(p):
            ring[r, (r + 1) % p] = ring[(r + 1) % p, r] = (2e-6, 90e6)
        rng = np.random.default_rng(1)
        ctx = ProgramContext(
            arrays={"pos": rng.normal(size=(n, 3)),
                    "vel": rng.normal(size=(n, 3)), "mass": np.ones(n)},
            params={"eps": 0.01, "bounds": partition_bounds(n, p)},
        )
        res = VirtualMachine(p, links=ring).run(ring_force_program, ctx)
        assert set(res.link_bytes) == {(r, (r + 1) % p) for r in range(p)}

    def test_mesh_dimensions(self):
        """The Figure-6 program moves data down columns only: a 3 x 3
        grid uses the six vertical hops and nothing else."""
        q = 3
        res, _ = strategy_step("host-2d-grid", q * q, 90)
        assert set(res.link_bytes) == {(r, r + q) for r in range(q * (q - 1))}

    def test_nb_tree_kinds(self):
        links = machine_links(8, cluster=4)
        kinds = {(link.latency, link.bandwidth): link.name
                 for link in (gbe_link(), pci_link(), lvds_link())}
        assert {kinds[v] for v in links.values()} == {"gbe", "pci", "lvds"}
        assert links[0, 8] == links[8, 0] == (pci_link().latency,
                                             pci_link().bandwidth)
        assert (8, 11) in links and (8, 12) not in links  # clusters of 4

    def test_bad_parameters(self):
        with pytest.raises(CommError):
            VirtualMachine(2, links={(0, 1): (0.0, 0.0)})
        with pytest.raises(CommError):
            VirtualMachine(2, links={(0, 1): (-1e-6, 1e6)})
        with pytest.raises(ConfigurationError):
            strategy_step("naive-copy", 0, 10)
        with pytest.raises(ConfigurationError):
            strategy_step("token-ring", 4, 10)

    def test_no_route_raises(self):
        with pytest.raises(CommError, match="no link"):
            VirtualMachine(2, links={(1, 0): (0.0, 1e6)}).run(
                _one_way(10), ProgramContext())


class TestCommSimulator:
    """The VM's logical clock priced per link, which replaced the phase
    simulator."""

    def test_single_transfer_time(self):
        vm = VirtualMachine(2, links=_uniform_links(2))
        res = vm.run(_one_way(1_000_000), ProgramContext())
        assert res.clock[1] == pytest.approx(1.0)
        assert res.total_bytes == 1_000_000

    def test_congestion_on_shared_edge(self):
        """Two sends from one rank serialise on its interface."""
        def prog(comm, ctx):
            if comm.rank == 0:
                yield comm.send(1, np.zeros(500_000, dtype=np.uint8))
                yield comm.send(2, np.zeros(500_000, dtype=np.uint8))
            else:
                yield comm.recv(0)

        res = VirtualMachine(3, links=_uniform_links(3)).run(prog, ProgramContext())
        assert max(res.clock) == pytest.approx(1.0)

    def test_parallel_disjoint_transfers(self):
        def prog(comm, ctx):
            if comm.rank % 2 == 0:
                yield comm.send(comm.rank + 1, np.zeros(500_000, dtype=np.uint8))
            else:
                yield comm.recv(comm.rank - 1)

        res = VirtualMachine(4, links=_uniform_links(4)).run(prog, ProgramContext())
        assert max(res.clock) == pytest.approx(0.5)

    def test_broadcast(self):
        def prog(comm, ctx):
            if comm.rank == 0:
                for dst in (1, 2, 3):
                    yield comm.send(dst, np.zeros(250_000, dtype=np.uint8))
            else:
                yield comm.recv(0)

        res = VirtualMachine(4, links=_uniform_links(4)).run(prog, ProgramContext())
        # the root's interface carries 3 x 250 kB
        assert res.clock[0] == pytest.approx(0.75)

    def test_allgather_volume(self):
        vm = VirtualMachine(3)
        res = vm.run(naive_copy_program,
                     ProgramContext(params={"hosts": 3, "n_active": 3}))
        share = 1  # ceil(3 / 3) particles per host
        assert res.total_bytes == 3 * 2 * share * 88

    def test_gather(self):
        """A gather's messages arrive side by side: the VM charges each
        sender's interface, not the receiver's."""
        def prog(comm, ctx):
            if comm.rank == 0:
                for src in (1, 2):
                    yield comm.recv(src)
            else:
                yield comm.send(0, np.zeros(100_000, dtype=np.uint8))

        res = VirtualMachine(3, links=_uniform_links(3)).run(prog, ProgramContext())
        assert res.clock[0] == pytest.approx(0.1)

    def test_totals_accumulate(self):
        def prog(comm, ctx):
            peer = 1 - comm.rank
            if comm.rank == 0:
                yield comm.send(peer, b"x" * 100)
                yield comm.recv(peer)
            else:
                yield comm.recv(peer)
                yield comm.send(peer, b"x" * 100)

        res = VirtualMachine(2).run(prog, ProgramContext())
        assert res.messages == 2
        assert res.total_bytes == 200
        assert res.link_bytes == {(0, 1): 100, (1, 0): 100}


class TestStrategies:
    def test_naive_nic_bytes_independent_of_p(self):
        """The paper's Figure-3 argument: volume does not shrink with p."""
        n_act = 10_000
        b4 = nic("naive-copy", 4, n_act)
        b16 = nic("naive-copy", 16, n_act)
        # within 30%: (p-1)/p saturates
        assert b16 == pytest.approx(b4, rel=0.3)
        assert b16 > 1e5  # and it is large

    def test_grape_exchange_nic_is_constant(self):
        assert nic("grape-exchange", 16, 10) == nic("grape-exchange", 16, 100_000)
        assert nic("grape-exchange", 16, 10_000) < 1000

    def test_2d_scales_as_inverse_sqrt_p(self):
        n_act = 40_000
        b4, b16, b64 = (nic("host-2d-grid", p, n_act) for p in (4, 16, 64))
        assert b4 > b16 > b64

    def test_2d_requires_square(self):
        with pytest.raises(ConfigurationError):
            strategy_step("host-2d-grid", 12, 100)

    def test_hybrid_scales_with_p(self):
        n_act = 40_000
        assert nic("hybrid", 16, n_act) < nic("hybrid", 4, n_act)

    def test_hybrid_needs_divisible_hosts(self):
        with pytest.raises(ConfigurationError):
            strategy_step("hybrid", 6, 100)

    def test_paper_ranking_at_16_hosts(self):
        """At the paper's p=16, every alternative beats naive copy on
        host NIC traffic — the reason GRAPE-6 was built this way."""
        n_act = 20_000
        naive = nic("naive-copy", 16, n_act)
        for name in ("grape-exchange", "host-2d-grid", "hybrid"):
            assert nic(name, 16, n_act) < naive / 2

    def test_step_times_positive(self):
        for name in strategies_for(16):
            res, _ = strategy_step(name, 16, BLOCK)
            assert max(res.clock) > 0

    def test_all_strategies_composition(self):
        assert strategies_for(16) == list(HOST_STRATEGIES)
        assert set(HOST_STRATEGIES) == {
            "naive-copy", "grape-exchange", "host-2d-grid", "hybrid"}
        assert "host-2d-grid" not in strategies_for(8)  # 8 is not a square

    def test_share(self):
        # ceil(10 / 4) = 3 particles of 88 bytes to each of 3 peers
        res, _ = strategy_step("naive-copy", 4, 10)
        assert set(res.link_bytes.values()) == {3 * 88}


class TestSection43Claims:
    """The paper's Section 4.3 argument on the bytes the VM counts,
    for a block of 5000 particles."""

    def test_naive_copy_does_not_shrink(self):
        bytes_ = [nic("naive-copy", p) for p in (2, 4, 8, 16, 32)]
        assert bytes_ == sorted(bytes_)
        assert nic("naive-copy", 4) == 660_000
        assert nic("naive-copy", 16) == 826_320

    def test_nb_exchange_puts_only_sync_on_host_nics(self):
        assert {nic("grape-exchange", p) for p in (2, 4, 8, 16, 32)} == {128}
        assert nic("grape-exchange", 16) < nic("naive-copy", 16) / 100

    def test_grid_falls_as_inverse_sqrt_p(self):
        scaled = [nic("host-2d-grid", p) * math.sqrt(p) for p in (4, 16, 64)]
        bytes_ = [nic("host-2d-grid", p) for p in (4, 16, 64)]
        assert bytes_ == sorted(bytes_, reverse=True)
        # bytes x sqrt(p) stays within a factor of two: Theta(1/sqrt(p)),
        # where naive copy's grows as sqrt(p)
        assert max(scaled) < 2 * min(scaled)

    def test_hybrid_carries_a_fifth_of_naive_copy(self):
        assert nic("hybrid", 16) == 165_264
        assert nic("hybrid", 16) == nic("naive-copy", 16) / 5

    def test_hybrid_moves_cluster_traffic_over_lvds(self):
        res, _ = strategy_step("hybrid", 16, BLOCK)
        lvds = (lvds_link().latency, lvds_link().bandwidth)
        links = machine_links(16, cluster=4)
        assert sum(b for link, b in res.link_bytes.items()
                   if links[link] == lvds) > 0


def test_strategy_program_runs_on_processes():
    """The strategy programs are engine-portable: the process engine
    moves the bytes the VM counts."""
    params = {"hosts": 2, "n_active": 10}
    vm = VirtualMachine(4).run(naive_copy_program, ProgramContext(params=params))
    with ProcEngine(4) as eng:
        proc = eng.run(naive_copy_program, params)
    assert proc.total_bytes == vm.total_bytes == 2 * 5 * 88


def test_grid_program_is_a_chain():
    """Figure 6: every emulating host forwards what it received, so no
    host's interface carries more than two column blocks."""
    res = VirtualMachine(16).run(
        host_grid_program, ProgramContext(params={"hosts": 16, "n_active": BLOCK}))
    per_host = np.zeros(16)
    for (src, dst), nbytes in res.link_bytes.items():
        per_host[src] += nbytes
        per_host[dst] += nbytes
    assert per_host.max() == 2 * math.ceil(BLOCK / 4) * 88


def test_example_runs_at_small_p(capsys):
    path = REPO / "examples" / "parallel_strategies.py"
    spec = importlib.util.spec_from_file_location("example_parallel_strategies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main((4,))
    out = capsys.readouterr().out
    assert "660,000" in out  # naive copy at p = 4, block 5000
    for name in HOST_STRATEGIES:
        assert name in out


def test_no_networkx_needed():
    """The package imports and runs a strategy program with networkx
    unimportable."""
    code = (
        "import sys; sys.modules['networkx'] = None\n"
        "import repro, repro.parallel, repro.grape\n"
        "from repro.parallel import strategy_step\n"
        "res, nic = strategy_step('hybrid', 16, 5000)\n"
        "assert nic == 165264, nic\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=REPO,
                   env={**os.environ, "PYTHONPATH": str(REPO / "src")})
