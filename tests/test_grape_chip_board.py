"""Tests for GRAPE-6 chip, j-memory and processor-board models."""

import numpy as np
import pytest

from repro.core.forces import acc_jerk
from repro.errors import GrapeMemoryError
from repro.grape.board import (
    ProcessorBoard,
    capacity_slices,
    round_robin_slices,
    sum_partials,
)
from repro.grape.chip import Grape6Chip, JMemory
from repro.grape.host import JWRITE_BYTES
from repro.grape.pipeline import PipelineResult


def particle_set(rng, n):
    return {
        "key": np.arange(n, dtype=np.int64),
        "mass": rng.uniform(0.1, 1, n),
        "pos": rng.normal(size=(n, 3)),
        "vel": rng.normal(size=(n, 3)),
        "acc": rng.normal(size=(n, 3)) * 0.1,
        "jerk": rng.normal(size=(n, 3)) * 0.01,
        "t": np.zeros(n),
    }


class TestJMemory:
    def test_load_and_lookup(self, rng):
        m = JMemory(capacity=100)
        p = particle_set(rng, 10)
        m.load(**p)
        assert m.n == 10
        assert 3 in m.key
        assert 99 not in m.key

    def test_capacity_enforced(self, rng):
        m = JMemory(capacity=5)
        p = particle_set(rng, 6)
        with pytest.raises(GrapeMemoryError):
            m.load(**p)

    def test_update_rewrites_slots(self, rng):
        m = JMemory(capacity=100)
        p = particle_set(rng, 10)
        m.load(**p)
        new_pos = np.ones((2, 3)) * 7.0
        m.update(
            key=np.array([3, 7]), mass=p["mass"][[3, 7]], pos=new_pos,
            vel=p["vel"][[3, 7]], acc=p["acc"][[3, 7]],
            jerk=p["jerk"][[3, 7]], t=np.array([1.0, 1.0]),
        )
        slot3 = m._slot_of_key[3]
        assert np.allclose(m.pos[slot3], 7.0)
        assert m.t[slot3] == 1.0

    def test_update_unknown_key_raises(self, rng):
        m = JMemory(capacity=100)
        p = particle_set(rng, 4)
        m.load(**p)
        with pytest.raises(GrapeMemoryError):
            m.update(
                key=np.array([50]), mass=np.ones(1), pos=np.zeros((1, 3)),
                vel=np.zeros((1, 3)), acc=np.zeros((1, 3)),
                jerk=np.zeros((1, 3)), t=np.zeros(1),
            )

    def test_write_traffic_counted(self, rng):
        m = JMemory(capacity=100)
        p = particle_set(rng, 10)
        m.load(**p)
        assert m.bytes_written == 10 * JWRITE_BYTES


class TestChip:
    def test_prediction_matches_host(self, rng):
        chip = Grape6Chip(chip_id=0, eps=0.01)
        p = particle_set(rng, 12)
        chip.jmem.load(**p)
        pp, pv = chip.predict_local(0.5)
        from repro.core.predictor import predict_positions, predict_velocities

        dt = 0.5 - p["t"]
        assert np.allclose(pp, predict_positions(p["pos"], p["vel"], p["acc"], p["jerk"], dt))
        assert np.allclose(pv, predict_velocities(p["vel"], p["acc"], p["jerk"], dt))
        assert chip.predictor_cycles == 12

    def test_compute_predicts_then_evaluates(self, rng):
        chip = Grape6Chip(chip_id=0, eps=0.01)
        p = particle_set(rng, 20)
        chip.jmem.load(**p)
        pos_i = rng.normal(size=(3, 3)) + 10
        vel_i = rng.normal(size=(3, 3))
        res = chip.compute(pos_i, vel_i, np.array([100, 101, 102]), t_now=0.25)
        from repro.core.predictor import predict_positions, predict_velocities

        dt = 0.25 - p["t"]
        jp = predict_positions(p["pos"], p["vel"], p["acc"], p["jerk"], dt)
        jv = predict_velocities(p["vel"], p["acc"], p["jerk"], dt)
        a_ref, j_ref = acc_jerk(pos_i, vel_i, jp, jv, p["mass"], 0.01)
        assert np.allclose(res.acc, a_ref, rtol=1e-13)
        assert np.allclose(res.jerk, j_ref, rtol=1e-13)
        assert chip.force_cycles > 0
        assert chip.interactions == 3 * 20

    def test_empty_chip_returns_zero(self):
        chip = Grape6Chip(chip_id=0, eps=0.01)
        res = chip.compute(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 1]), 0.0)
        assert np.all(res.acc == 0)
        assert res.cycles == 0


class TestRoundRobin:
    def test_covers_all_items_once(self):
        slices = round_robin_slices(10, 3)
        all_items = np.sort(np.concatenate(slices))
        assert np.array_equal(all_items, np.arange(10))

    def test_balanced_to_one(self):
        slices = round_robin_slices(10, 3)
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_empty(self):
        slices = round_robin_slices(0, 4)
        assert all(len(s) == 0 for s in slices)


class TestCapacitySlices:
    def test_contiguous_cover_in_proportion(self):
        slices = capacity_slices(10, [1, 3, 1])
        assert [(s.start, s.stop) for s in slices] == [(0, 2), (2, 8), (8, 10)]

    def test_dead_trailing_target_ends_empty(self):
        slices = capacity_slices(10, [1, 1, 0])
        assert [(s.start, s.stop) for s in slices] == [(0, 5), (5, 10), (10, 10)]

    def test_no_capacity(self):
        assert capacity_slices(0, [0, 0]) == [slice(0, 0), slice(0, 0)]
        with pytest.raises(GrapeMemoryError):
            capacity_slices(3, [0, 0])


class TestSumPartials:
    def test_sums_in_order_max_cycles_total_work(self):
        a = PipelineResult(np.ones((2, 3)), np.full((2, 3), 2.0), cycles=7, interactions=4)
        b = PipelineResult(np.full((2, 3), 0.5), np.ones((2, 3)), cycles=9, interactions=6)
        res = sum_partials(2, [a, b])
        assert np.array_equal(res.acc, np.full((2, 3), 1.5))
        assert np.array_equal(res.jerk, np.full((2, 3), 3.0))
        assert (res.cycles, res.interactions) == (9, 10)

    def test_no_children_is_zero(self):
        res = sum_partials(3, [])
        assert res.acc.shape == (3, 3) and not res.acc.any() and not res.jerk.any()
        assert (res.cycles, res.interactions) == (0, 0)


class TestBoard:
    def test_distribution_balances_chips(self, rng):
        b = ProcessorBoard(board_id=0, eps=0.01, n_chips=4)
        p = particle_set(rng, 18)
        b.load(**p)
        loads = [c.n_resident for c in b.chips]
        assert sum(loads) == 18
        assert max(loads) - min(loads) <= 1

    def test_board_force_equals_whole_set(self, rng):
        b = ProcessorBoard(board_id=0, eps=0.01, n_chips=4)
        p = particle_set(rng, 30)
        b.load(**p)
        pos_i = p["pos"][:5]
        vel_i = p["vel"][:5]
        res = b.compute(pos_i, vel_i, p["key"][:5], t_now=0.0, clock_hz=90e6)
        a_ref, j_ref = acc_jerk(
            pos_i, vel_i, p["pos"], p["vel"], p["mass"], 0.01,
            self_indices=np.arange(5),
        )
        assert np.allclose(res.acc, a_ref, rtol=1e-12, atol=1e-15)
        assert np.allclose(res.jerk, j_ref, rtol=1e-12, atol=1e-15)
        assert res.interactions == 5 * 30

    def test_board_time_is_max_chip(self, rng):
        b = ProcessorBoard(board_id=0, eps=0.01, n_chips=4)
        p = particle_set(rng, 16)
        b.load(**p)
        b.compute(p["pos"][:2], p["vel"][:2], p["key"][:2], 0.0, clock_hz=90e6)
        per_chip = [c.force_cycles for c in b.chips if c.n_resident]
        assert b.force_seconds == pytest.approx(max(per_chip) / 90e6)

    def test_capacity_overflow(self, rng):
        b = ProcessorBoard(board_id=0, eps=0.01, n_chips=2, jmem_capacity_per_chip=4)
        p = particle_set(rng, 9)
        with pytest.raises(GrapeMemoryError):
            b.load(**p)
