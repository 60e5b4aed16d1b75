"""Tests for the assembled GRAPE-6 machine, timing model and backend."""

import numpy as np
import pytest

from repro.constants import FLOPS_PER_INTERACTION
from repro.core import (
    HostDirectBackend,
    KeplerField,
    Simulation,
    TimestepParams,
    energy,
)
from repro.errors import ConfigurationError, GrapeMemoryError
from repro.grape import (
    Grape6Backend,
    Grape6Config,
    Grape6Machine,
    Grape6TimingModel,
    HostCostModel,
)
from repro.grape.board import capacity_slices, round_robin_slices
from repro.grape.host import JWRITE_BYTES
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

from conftest import make_disk_sim


def small_system(n=24, seed=3):
    return build_disk_system(PlanetesimalDiskConfig(n_planetesimals=n, seed=seed))


class TestConfig:
    def test_paper_shape(self):
        cfg = Grape6Config.paper_full_system()
        assert cfg.total_chips == 2048
        assert cfg.n_hosts == 16
        assert cfg.total_boards == 64
        assert cfg.total_pipelines == 12288

    def test_paper_peak_is_63_tflops(self):
        """Paper: 'Its theoretical peak performance is 63.4 Tflops.'"""
        cfg = Grape6Config.paper_full_system()
        assert cfg.peak_flops / 1e12 == pytest.approx(63.4, rel=0.01)

    def test_chip_peak_is_30_7_gflops(self):
        """Paper: 'the peak speed of a chip is 30.7 Gflops.'"""
        cfg = Grape6Config.single_board()
        per_chip = cfg.peak_flops / cfg.total_chips / 1e9
        assert per_chip == pytest.approx(30.78, rel=0.01)

    def test_presets(self):
        assert Grape6Config.single_node().total_chips == 128
        assert Grape6Config.single_cluster().total_chips == 512
        assert Grape6Config.single_board().total_chips == 32

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            Grape6Config(n_clusters=0)


class TestTimingModel:
    def setup_method(self):
        self.cfg = Grape6Config.paper_full_system()
        self.model = Grape6TimingModel(self.cfg)

    def test_shares(self):
        assert self.model.i_share_per_cluster(4000) == 1000
        assert self.model.i_share_per_host(4000) == 250
        assert self.model.j_per_chip(1_800_000) == pytest.approx(3516, abs=1)

    def test_step_components_positive(self):
        step = self.model.block_step(2000, 1_800_000)
        for part in (step.host, step.pci, step.lvds, step.pipe, step.gbe):
            assert part > 0
        assert step.total == pytest.approx(
            step.host + step.pci + step.lvds + step.pipe + step.gbe
        )

    def test_pipe_dominates_at_paper_scale(self):
        """At N=1.8e6 the force pipelines are the largest term."""
        step = self.model.block_step(5000, 1_800_000)
        assert step.pipe > max(step.host, step.pci, step.lvds, step.gbe)

    def test_efficiency_increases_with_block_size(self):
        effs = [self.model.efficiency(n, 1_800_000) for n in (50, 500, 5000)]
        assert effs[0] < effs[1] < effs[2]

    def test_efficiency_increases_with_n(self):
        effs = [self.model.efficiency(1000, n) for n in (1e4, 1e5, 1e6)]
        assert effs[0] < effs[1] < effs[2]

    def test_efficiency_below_one(self):
        assert self.model.efficiency(50000, 1_800_000) < 1.0

    def test_paper_scale_efficiency_in_plausible_band(self):
        """At paper-like block sizes the model lands near the reported
        46.5% of peak (we accept a generous band: the model omits OS and
        I/O overheads)."""
        eff = self.model.efficiency(3000, 1_800_002)
        assert 0.3 < eff < 0.85

    def test_single_cluster_has_no_gbe(self):
        model = Grape6TimingModel(Grape6Config.single_cluster())
        step = model.block_step(1000, 10_000)
        assert step.gbe == 0.0

    def test_overlap_never_slower(self):
        for block in (50, 500, 5000):
            serial = self.model.block_step(block, 1_800_000).total
            piped = self.model.block_step_overlapped(block, 1_800_000)
            assert piped <= serial
            assert piped > 0

    def test_overlap_bounded_below_by_pipe(self):
        """Pipelining cannot beat the pure force-pass time."""
        step = self.model.block_step(3000, 1_800_000)
        piped = self.model.block_step_overlapped(3000, 1_800_000)
        assert piped >= step.pipe

    def test_overlap_efficiency_flag(self):
        e_serial = self.model.efficiency(3000, 1_800_000)
        e_piped = self.model.efficiency(3000, 1_800_000, overlap=True)
        assert e_piped > e_serial

    def test_totals_to_dict_json_roundtrip(self):
        import json

        from repro.grape.timing import StepTiming, TimingTotals

        t = TimingTotals()
        t.add(StepTiming(host=1e-3, pci=2e-4, lvds=3e-4, pipe=5e-3, gbe=4e-4),
              n_active=100, n_total=1000)
        d = json.loads(json.dumps(t.to_dict()))
        assert d["blocks"] == 1
        assert d["interactions"] == 100_000
        assert d["total_s"] == pytest.approx(t.total_seconds)

    def test_host_cost_model_scales(self):
        hc = HostCostModel(seconds_per_particle_step=1e-6, seconds_fixed_per_block=1e-5)
        assert hc.block_time(0) == 1e-5
        assert hc.block_time(1000) == pytest.approx(1e-5 + 1e-3)


class TestMachineFunctional:
    def test_flat_matches_host_backend(self):
        sys_ = small_system()
        m = Grape6Machine(Grape6Config.single_node(), eps=0.008, mode="flat")
        gb = Grape6Backend(m)
        gb.load(sys_)
        hb = HostDirectBackend(eps=0.008)
        active = np.arange(sys_.n)
        a1, j1 = gb.forces_on(sys_, active, 0.0)
        a2, j2 = hb.forces_on(sys_, active, 0.0)
        assert np.array_equal(a1, a2)
        assert np.array_equal(j1, j2)

    def test_hierarchy_matches_flat(self):
        sys_ = small_system(n=30, seed=5)
        cfg = Grape6Config.scaled_down()
        active = np.arange(sys_.n)

        mh = Grape6Machine(cfg, eps=0.008, mode="hierarchy")
        bh = Grape6Backend(mh)
        bh.load(sys_)
        a1, j1 = bh.forces_on(sys_, active, 0.0)

        mf = Grape6Machine(cfg, eps=0.008, mode="flat")
        bf = Grape6Backend(mf)
        bf.load(sys_)
        a2, j2 = bf.forces_on(sys_, active, 0.0)

        assert np.allclose(a1, a2, rtol=1e-10, atol=1e-18)
        assert np.allclose(j1, j2, rtol=1e-10, atol=1e-18)

    def test_hierarchy_subset_block(self):
        """A partial active block must map results back to the right rows."""
        sys_ = small_system(n=25, seed=7)
        cfg = Grape6Config.scaled_down()
        m = Grape6Machine(cfg, eps=0.008, mode="hierarchy")
        b = Grape6Backend(m)
        b.load(sys_)
        active = np.array([2, 9, 11, 20])
        a1, j1 = b.forces_on(sys_, active, 0.0)
        hb = HostDirectBackend(eps=0.008)
        a2, j2 = hb.forces_on(sys_, active, 0.0)
        assert np.allclose(a1, a2, rtol=1e-10, atol=1e-18)

    def test_hierarchy_update_propagates(self):
        """After push_updates, forces reflect the corrected positions."""
        sys_ = small_system(n=20, seed=9)
        cfg = Grape6Config.scaled_down()
        m = Grape6Machine(cfg, eps=0.008, mode="hierarchy")
        b = Grape6Backend(m)
        b.load(sys_)
        active = np.arange(sys_.n)
        # move particle 0 and push
        sys_.pos[0] += 1.0
        b.push_updates(sys_, np.array([0]))
        a1, _ = b.forces_on(sys_, active, 0.0)
        hb = HostDirectBackend(eps=0.008)
        a2, _ = hb.forces_on(sys_, active, 0.0)
        assert np.allclose(a1, a2, rtol=1e-10, atol=1e-18)

    def test_capacity_overflow_raises(self):
        sys_ = small_system(n=40)
        m = Grape6Machine(
            Grape6Config.scaled_down(), eps=0.008, mode="hierarchy",
            jmem_capacity_per_chip=2,
        )
        with pytest.raises(GrapeMemoryError):
            m.load(sys_)

    def test_stale_load_detected(self):
        sys_ = small_system(n=10)
        m = Grape6Machine(Grape6Config.single_board(), eps=0.008, mode="flat")
        with pytest.raises(GrapeMemoryError):
            m.compute_block(sys_, np.arange(10), 0.0)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            Grape6Machine(mode="warp")


_ROW_FIELDS = ("key", "mass", "pos", "vel", "acc", "jerk", "t")


def cluster_copies(machine):
    """Per cluster, its chips' j-memories concatenated field by field."""
    mems = [[] for _ in machine.clusters]
    for ci, *_, chip in machine.iter_chips():
        mems[ci].append(chip.jmem)
    return [
        {f: np.concatenate([getattr(m, f) for m in ms]) for f in _ROW_FIELDS}
        for ms in mems
    ]


def node_keys(node):
    return {k for b in node.boards for c in b.chips for k in c.jmem.key.tolist()}


def assert_copies_equal_system(machine, system):
    """Every cluster holds every key exactly once, with the system's row."""
    row_of = {k: i for i, k in enumerate(system.key.tolist())}
    for copy in cluster_copies(machine):
        assert sorted(copy["key"].tolist()) == sorted(row_of)
        rows = [row_of[k] for k in copy["key"].tolist()]
        for f in _ROW_FIELDS:
            assert np.array_equal(copy[f], getattr(system, f)[rows]), f


class TestKeyDirectory:
    """The host's key directory routes every hierarchy-mode j-write."""

    def test_update_routes_to_holding_chip(self):
        sys_ = small_system(n=16)
        m = Grape6Machine(Grape6Config.scaled_down(), eps=0.008, mode="hierarchy")
        m.load(sys_)
        row = int(np.flatnonzero(sys_.key == 5)[0])
        sys_.pos[row] = 42.0
        sys_.t[row] = 2.0
        m.push_updates(sys_, np.array([row]))
        holders = [chip for *_, chip in m.iter_chips() if 5 in chip.jmem.key]
        assert len(holders) == m.config.n_clusters
        for chip in holders:
            slot = int(np.flatnonzero(chip.jmem.key == 5)[0])
            assert np.all(chip.jmem.pos[slot] == 42.0)
            assert chip.jmem.t[slot] == 2.0

    def test_resident_copies_track_the_system(self):
        """After k hierarchy blocks every cluster's j-copy is the system."""
        m = Grape6Machine(Grape6Config.scaled_down(), eps=0.008, mode="hierarchy")
        sim = Simulation(
            small_system(n=40, seed=11), Grape6Backend(m),
            external_field=KeplerField(),
            timestep_params=TimestepParams(dt_max=1.0),
        )
        sim.initialize()
        for _ in range(6):
            sim.step()
        assert sim.block_steps == 6
        assert_copies_equal_system(m, sim.system)

    def test_jwrite_charged_only_to_holding_nodes(self):
        sys_ = small_system(n=24)
        m = Grape6Machine(Grape6Config.scaled_down(), eps=0.008, mode="hierarchy")
        m.load(sys_)
        nodes = [node for c in m.clusters for node in c.nodes]
        before = [(n.host.pci.messages, n.host.pci.bytes_total) for n in nodes]
        rows = np.array([0, 2, 4])  # all on one node of each cluster
        m.push_updates(sys_, rows)
        updated = set(sys_.key[rows].tolist())
        charged = 0
        for node, (msgs, nbytes) in zip(nodes, before):
            held = len(updated & node_keys(node))
            charged += held > 0
            assert node.host.pci.messages == msgs + (held > 0)
            assert node.host.pci.bytes_total == nbytes + held * JWRITE_BYTES
        assert charged == m.config.n_clusters < len(nodes)

    def test_short_node_loads_through_capacity_slices(self):
        """A chip kill leaving a node below its round-robin share."""
        sys_ = small_system(n=26)
        n = sys_.n
        m = Grape6Machine(
            Grape6Config.scaled_down(), eps=0.008, mode="hierarchy",
            jmem_capacity_per_chip=4,
        )
        node0 = m.clusters[0].nodes[0]
        dead = node0.boards[0].chips[0]
        dead.pipelines.mask_pipelines(dead.pipelines.n_pipelines)
        caps = [node.alive_capacity for node in m.clusters[0].nodes]
        assert caps == [12, 16]
        assert round_robin_slices(n, 2)[0].size > caps[0]
        m.load(sys_)
        split = capacity_slices(n, caps)
        for node, sl in zip(m.clusters[0].nodes, split):
            assert node_keys(node) == set(sys_.key[sl].tolist())
        assert node0.n_resident <= caps[0]
        assert dead.n_resident == 0
        # the healthy cluster keeps the round-robin split
        for node, idx in zip(m.clusters[1].nodes, round_robin_slices(n, 2)):
            assert node_keys(node) == set(sys_.key[idx].tolist())
        assert_copies_equal_system(m, sys_)
        # the directory follows the degraded layout
        sys_.pos[: n // 2] += 0.5
        m.push_updates(sys_, np.arange(n // 2))
        assert_copies_equal_system(m, sys_)
        active = np.arange(n)
        a1, _ = m.compute_block(sys_, active, 0.0)
        a2, _ = HostDirectBackend(eps=0.008).forces_on(sys_, active, 0.0)
        assert np.allclose(a1, a2, rtol=1e-10, atol=1e-18)


    @pytest.mark.parametrize(
        "config, pci_bytes, pci_messages, jmem_bytes",
        [
            ("scaled_down", 1_750_592, 224, 790_240),
            ("single_node", 875_296, 56, 395_120),
        ],
    )
    def test_hardware_counters_pinned(self, config, pci_bytes, pci_messages, jmem_bytes):
        """Node PCI and j-memory traffic of an 18-block hierarchy run,
        recorded before the key directory replaced the per-tier scans."""
        m = Grape6Machine(getattr(Grape6Config, config)(), eps=0.008, mode="hierarchy")
        sim = Simulation(
            small_system(n=256, seed=1), Grape6Backend(m),
            external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.02, eta_start=0.01, dt_max=1.0),
        )
        sim.initialize()
        sim.evolve(16.0)
        assert sim.block_steps == 18
        nodes = [node for c in m.clusters for node in c.nodes]
        assert sum(n.host.pci.bytes_total for n in nodes) == pci_bytes
        assert sum(n.host.pci.messages for n in nodes) == pci_messages
        assert sum(chip.jmem.bytes_written for *_, chip in m.iter_chips()) == jmem_bytes


class TestMachineAccounting:
    def test_totals_accumulate(self):
        sys_ = small_system(n=16)
        m = Grape6Machine(Grape6Config.single_node(), eps=0.008, mode="flat")
        b = Grape6Backend(m)
        b.load(sys_)
        b.forces_on(sys_, np.arange(16), 0.0)
        b.forces_on(sys_, np.arange(8), 0.0)
        assert m.totals.blocks == 2
        assert m.totals.particle_steps == 24
        assert m.totals.interactions == 16 * 18 + 8 * 18
        assert m.totals.total_flops == m.totals.interactions * FLOPS_PER_INTERACTION
        assert m.achieved_flops() > 0
        assert 0 < m.efficiency() < 1

    def test_reset_counters(self):
        sys_ = small_system(n=16)
        m = Grape6Machine(Grape6Config.single_node(), eps=0.008, mode="flat")
        b = Grape6Backend(m)
        b.load(sys_)
        b.forces_on(sys_, np.arange(16), 0.0)
        m.reset_counters()
        assert m.totals.blocks == 0
        assert m.achieved_flops() == 0.0


class TestGrapeSimulation:
    def test_full_simulation_on_grape(self):
        """End-to-end: disk integration using the GRAPE backend."""
        sys_ = small_system(n=32, seed=11)
        m = Grape6Machine(Grape6Config.single_cluster(), eps=0.008, mode="flat")
        sim = Simulation(
            sys_, Grape6Backend(m),
            external_field=KeplerField(),
            timestep_params=TimestepParams(),
        )
        sim.initialize()
        e0 = energy(sim.system, 0.008, sim.external_field).total
        sim.evolve(10.0)
        sim.synchronize(10.0)
        e1 = energy(sim.system, 0.008, sim.external_field).total
        assert abs(e1 - e0) / abs(e0) < 1e-8
        # init adds one machine block; synchronize adds one more unless
        # every particle already sat at t_end
        assert m.totals.blocks in (sim.block_steps + 1, sim.block_steps + 2)

    def test_grape_trajectory_identical_to_host(self):
        """Flat-mode GRAPE runs are bit-compatible with the host backend."""
        sim_h = make_disk_sim(n=20, seed=13)
        sim_h.evolve(4.0)

        sys_g = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=20, seed=13))
        m = Grape6Machine(Grape6Config.single_node(), eps=0.008, mode="flat")
        sim_g = Simulation(
            sys_g, Grape6Backend(m),
            external_field=KeplerField(),
            timestep_params=TimestepParams(),
        )
        sim_g.initialize()
        sim_g.evolve(4.0)
        assert np.array_equal(sim_g.system.pos, sim_h.system.pos)
        assert np.array_equal(sim_g.system.t, sim_h.system.t)


class TestTopologyGraph:
    """The machine as the link table the VM prices Section-4.3 traffic
    on: one host rank and one network-board rank per node."""

    @staticmethod
    def links_of(cfg):
        from repro.parallel import machine_links

        hosts = cfg.n_clusters * cfg.nodes_per_cluster
        return hosts, machine_links(hosts, cluster=cfg.nodes_per_cluster)

    def test_node_counts(self):
        hosts, links = self.links_of(Grape6Config.paper_full_system())
        assert hosts == 16
        assert {rank for pair in links for rank in pair} == set(range(32))

    def test_connected(self):
        _, links = self.links_of(Grape6Config.scaled_down())
        ranks = {rank for pair in links for rank in pair}
        seen, todo = {0}, [0]
        while todo:
            a = todo.pop()
            for src, dst in links:
                if src == a and dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        assert seen == ranks

    def test_link_kinds(self):
        from repro.grape import gbe_link, lvds_link, pci_link

        _, links = self.links_of(Grape6Config.single_cluster())
        kinds = {(link.latency, link.bandwidth): link.name
                 for link in (gbe_link(), pci_link(), lvds_link())}
        assert {kinds[v] for v in links.values()} == {"gbe", "pci", "lvds"}
