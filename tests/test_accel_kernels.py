"""Equivalence and determinism tests for the accel kernel engine.

Every :class:`KernelEngine` op is checked against its plain-NumPy
oracle in ``repro.core``; ``OPS`` below is the one table of
``op -> (engine call, oracle call)`` and a test asserts it has a row
for every op of the engine's own list, ``repro.accel.engine.OPS``.

Tolerance contract: the engine changes only the *summation order* of
the pairwise sums (j-chunked, fixed ascending reduction), so results
agree with the reference to norm-relative ~1e-13; components that
nearly cancel can show larger elementwise relative error, which is why
the checks below are norm-relative.  Bit-exact promises (serial vs.
threaded, thread-count independence, and a one-chunk NumPy-tier op vs.
its oracle, which it calls) are asserted with ``np.array_equal``.

Two kernel tiers: the plain classes run on the tier the host has (the
compiled row kernel of ``repro.accel.native`` wherever there is a C
compiler); the ``...NumpyTier`` subclasses run the same assertions with
the loader patched to find nothing.  Bitwise promises hold within a
tier, ``NORM_RTOL`` across the two (``TestNativeRowKernel``).
"""

from __future__ import annotations

import ast
import dataclasses
import logging
import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.accel import (
    EngineConfig,
    KernelEngine,
    fixed_order_reduce,
    get_engine,
    native,
)
from repro.accel import engine as engine_module
from repro.core import forces, integrator
from repro.core.particles import ParticleSystem
from repro.core.predictor import predict_system

from conftest import ORDER_SENSITIVE_ROWS, norm_other_order

EPS = 0.008
NORM_RTOL = 1e-12


def norm_close(a, b, rtol=NORM_RTOL):
    """Norm-relative agreement (robust to cancellation in components)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) <= rtol * scale


def make_system(n=257, seed=7):
    rng = np.random.default_rng(seed)
    system = ParticleSystem(
        rng.uniform(1e-10, 1e-8, n),
        rng.normal(size=(n, 3)) * 5.0,
        rng.normal(size=(n, 3)) * 0.1,
        time=0.0,
    )
    system.acc[...] = rng.normal(size=(n, 3)) * 1e-4
    system.jerk[...] = rng.normal(size=(n, 3)) * 1e-6
    # stagger particle times so acc_jerk_active prediction is non-trivial
    system.t[...] = rng.uniform(0.0, 1e-3, n)
    return system


@pytest.fixture(scope="module")
def workload():
    system = make_system()
    active = np.arange(0, system.n, 2)
    return system, active


def small_engine(**overrides):
    """Engine with small chunks so every code path is exercised."""
    defaults = dict(threads=1, j_chunk=64, parallel_pairs=1)
    defaults.update(overrides)
    return KernelEngine(EngineConfig(**defaults))


def make_mask(system, active, seed=5):
    """Neighbour-sphere-like sparse pair mask with self-pairs excluded."""
    rng = np.random.default_rng(seed)
    include = rng.random((active.size, system.n)) < 0.05
    include[np.arange(active.size), active] = False
    return include


def make_quad(system, seed=5):
    """Symmetric traceless per-source quadrupole moments (node-like)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(system.n, 3, 3))
    sym = a + np.swapaxes(a, 1, 2)
    tr = np.trace(sym, axis1=1, axis2=2)
    sym -= tr[:, None, None] * np.eye(3) / 3.0
    return sym * system.mass[:, None, None] * 1e-4


T_NOW = 5e-4


def _pair_args(system, active):
    return (system.pos[active], system.vel[active], system.pos, system.vel,
            system.mass, EPS)


def _point_args(system, active):
    return (system.pos[active], system.pos, system.mass, EPS)


def _oracle_acc_jerk_active(system, active, t_now=T_NOW):
    predict_system(system, t_now)
    return forces.acc_jerk(
        system.pred_pos[active], system.pred_vel[active],
        system.pred_pos, system.pred_vel, system.mass, EPS,
        self_indices=active,
    )


#: op -> (engine call ``(engine, system, active)``, oracle call
#: ``(system, active)``), each with its op's argument convention.
OPS = {
    "acc_jerk": (
        lambda e, s, a: e.acc_jerk(*_pair_args(s, a), self_indices=a),
        lambda s, a: forces.acc_jerk(*_pair_args(s, a), self_indices=a),
    ),
    "potential": (
        lambda e, s, a: e.pairwise_potential(*_point_args(s, a), self_indices=a),
        lambda s, a: forces.pairwise_potential(*_point_args(s, a),
                                               self_indices=a),
    ),
    "acc_jerk_active": (
        lambda e, s, a: e.acc_jerk_active(s, a, T_NOW, EPS),
        _oracle_acc_jerk_active,
    ),
    "acc_jerk_masked": (
        lambda e, s, a: e.acc_jerk_masked(*_pair_args(s, a), make_mask(s, a)),
        lambda s, a: forces.acc_jerk(*_pair_args(s, a),
                                     include=make_mask(s, a)),
    ),
    "node_force": (
        lambda e, s, a: e.node_force(*_pair_args(s, a), quad_j=make_quad(s)),
        lambda s, a: forces.node_force(*_pair_args(s, a), quad_j=make_quad(s)),
    ),
}


#: Test ids, spelled like the ``op`` / ``kernel`` rows of BENCH_kernels.json.
EQUIVALENCE_KERNELS = [
    f"{op}/{name}"
    for op in OPS
    for name in ("reference", "fused" if op == "acc_jerk_active" else "accel")
]


def run_op(op, engine, system, active):
    return OPS[op][0](engine, system, active)


def run_oracle(op, system, active):
    return OPS[op][1](system, active)


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def test_every_engine_op_has_a_row():
    """The roll-call: an op cannot be added to the engine's tables
    without an equivalence and a determinism test."""
    assert sorted(OPS) == sorted(engine_module.OPS)


@pytest.mark.parametrize("op", sorted(OPS))
def test_numpy_tier_is_the_oracle(monkeypatch, workload, op):
    """On the NumPy tier an op of one j-chunk is one call of its oracle:
    the same bits, not merely the same sum."""
    system, active = workload
    engine = numpy_engine(monkeypatch, j_chunk=1 << 12)
    try:
        assert len(engine.jplan(system.n)) == 1
        got = as_tuple(run_op(op, engine, system, active))
    finally:
        engine.close()
    want = as_tuple(run_oracle(op, system, active))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_frozen_benchmark_engine_ops_exist():
    """``benchmarks/e2e/harness.py`` wraps every name in its
    ``_ENGINE_OPS`` with ``getattr(engine, op)``: deleting one of those
    methods fails every traced benchmark pass, so it fails here first.
    Read with ``ast``, without importing the harness."""
    harness = (Path(__file__).resolve().parents[1]
               / "benchmarks" / "e2e" / "harness.py")
    tree = ast.parse(harness.read_text())
    ops = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "_ENGINE_OPS" for t in node.targets)
    ]
    assert len(ops) == 1 and ops[0]
    missing = [op for op in ops[0] if not callable(getattr(KernelEngine, op, None))]
    assert missing == []


@pytest.mark.parametrize("key", EQUIVALENCE_KERNELS)
class TestKernelEquivalence:
    def test_matches_reference(self, key, workload):
        op, name = key.split("/")
        system, active = workload
        ref = as_tuple(run_oracle(op, system, active))
        if name == "reference":
            got = as_tuple(run_oracle(op, system, active))
        else:
            engine = small_engine()
            try:
                got = as_tuple(run_op(op, engine, system, active))
            finally:
                engine.close()
        assert len(ref) == len(got)
        for r, g in zip(ref, got):
            if name == "reference":
                assert np.array_equal(r, g)
            else:
                assert norm_close(r, g)


class TestDeterminism:
    """The engine's bit-reproducibility promises."""

    def test_serial_vs_threaded_bit_identical(self, workload):
        system, active = workload
        serial = small_engine(threads=1)
        threaded = small_engine(threads=4)
        try:
            for op in OPS:
                a = as_tuple(run_op(op, serial, system, active))
                b = as_tuple(run_op(op, threaded, system, active))
                for x, y in zip(a, b):
                    assert np.array_equal(x, y), f"{op}: thread drift"
        finally:
            serial.close()
            threaded.close()

    def test_thread_count_does_not_change_jplan(self):
        e2 = small_engine(threads=2)
        e8 = small_engine(threads=8)
        try:
            for n_j in (1, 63, 64, 65, 257, 4096, 100_000):
                assert e2._jplan(n_j) == e8._jplan(n_j)
        finally:
            e2.close()
            e8.close()

    def test_tile_budget_does_not_change_bits(self, monkeypatch, workload):
        """The plane oracles' row chunk (``forces._PLANE_TILE_BUDGET``)
        never changes a bit: a row's sums depend only on that row."""
        system, active = workload
        pair = _pair_args(system, active)
        calls = (
            lambda: forces.acc_jerk(*pair, self_indices=active),
            lambda: forces.acc_jerk(*pair, include=make_mask(system, active)),
            lambda: forces.node_force(*pair, quad_j=make_quad(system)),
            lambda: forces.pairwise_potential(*_point_args(system, active),
                                              self_indices=active),
        )
        results = []
        for budget in (1 << 10, 1 << 20):
            monkeypatch.setattr(forces, "_PLANE_TILE_BUDGET", budget)
            results.append([as_tuple(call()) for call in calls])
        for small, large in zip(*results):
            for a, b in zip(small, large):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("key", [
        "acc_jerk_active/fused", "acc_jerk_masked/accel", "node_force/accel",
    ])
    def test_tile_budget_does_not_change_bits_other_tiled_ops(
            self, monkeypatch, key, workload):
        """The same through the engine: ops whose NumPy tier ends in the
        plane oracles (``OPS`` gives ``node_force`` its ``quad_j``)."""
        system, active = workload
        op = key.split("/")[0]
        engine = small_engine()
        results = []
        try:
            for budget in (1 << 10, 1 << 20):
                monkeypatch.setattr(forces, "_PLANE_TILE_BUDGET", budget)
                results.append(run_op(op, engine, system, active))
        finally:
            engine.close()
        (a_s, j_s), (a_l, j_l) = results
        assert np.array_equal(a_s, a_l)
        assert np.array_equal(j_s, j_l)

    def test_fused_leaves_pred_arrays_untouched(self, workload):
        system, active = workload
        system = system.copy() if hasattr(system, "copy") else make_system()
        sentinel = 123.456
        system.pred_pos[...] = sentinel
        system.pred_vel[...] = sentinel
        engine = small_engine()
        try:
            run_op("acc_jerk_active", engine, system, active)
        finally:
            engine.close()
        assert np.all(system.pred_pos == sentinel)
        assert np.all(system.pred_vel == sentinel)

    def test_fused_matches_reference_prediction(self):
        """Fused per-chunk prediction reproduces predict_system + acc_jerk."""
        system = make_system(n=130, seed=11)
        active = np.array([0, 5, 64, 129])
        t_now = 7e-4
        engine = small_engine()
        try:
            acc_f, jerk_f = engine.acc_jerk_active(system, active, t_now, EPS)
        finally:
            engine.close()
        acc_r, jerk_r = _oracle_acc_jerk_active(system, active, t_now)
        assert norm_close(acc_f, acc_r)
        assert norm_close(jerk_f, jerk_r)


@pytest.mark.usefixtures("numpy_tier")
class TestDeterminismNumpyTier(TestDeterminism):
    """The same promises where no compiler is present."""


class TestWorkspaceLayout:
    """The engine's own scratch: bucketed, allocated once."""

    def test_workspace_bytes_constant_inside_one_bucket(self):
        """After warm-up at the bucket's largest shape, no call allocates."""
        system = make_system(n=512, seed=3)
        rng = np.random.default_rng(17)
        engine = small_engine(j_chunk=2048)
        try:
            engine.acc_jerk_active(system, np.arange(64), 5e-4, EPS)
            warm = engine.workspace_bytes
            # the native tier's predicted-row scratch; a serial NumPy
            # tier holds no scratch at all
            assert (warm > 0) == (engine.tier == "native")
            for _ in range(50):
                n_i = int(rng.integers(33, 65))  # row bucket 64
                active = np.sort(rng.choice(system.n, n_i, replace=False))
                engine.acc_jerk_active(system, active, 5e-4, EPS)
                assert engine.workspace_bytes == warm
        finally:
            engine.close()


class TestDiskGeometryCancellation:
    """Close neighbours far from the origin: the planetesimal-disk case.

    Sinks sit at ``|x| ~ 25`` with a neighbour ``1e-4`` away.  The kernel
    sums ``m dr / r^3`` with ``dr = x_j - x_i`` formed first (exact for
    such close operands), so it keeps full precision.  The BLAS-shaped
    split ``sum_j (m/r^3) x_j - x_i sum_j (m/r^3)`` subtracts two numbers
    of size ``|x| w`` to get one of size ``|dr| w`` and loses
    ``eps |x| / |dr| ~ 2.5e-11`` — the reason no such form is used.
    """

    @staticmethod
    def _disk_pairs(n_pairs=24, seed=23):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(0.0, 2.0 * np.pi, n_pairs)
        radius = rng.uniform(24.0, 26.0, n_pairs)
        centre = np.stack([radius * np.cos(phi), radius * np.sin(phi),
                           rng.normal(scale=0.05, size=n_pairs)], axis=1)
        offset = rng.normal(size=(n_pairs, 3))
        offset *= 1e-4 / np.linalg.norm(offset, axis=1)[:, None]
        pos = np.concatenate([centre, centre + offset])
        v_kep = 1.0 / np.sqrt(radius)
        vel_c = np.stack([-v_kep * np.sin(phi), v_kep * np.cos(phi),
                          np.zeros(n_pairs)], axis=1)
        vel = np.concatenate([vel_c, vel_c + rng.normal(scale=1e-5, size=(n_pairs, 3))])
        mass = rng.uniform(0.5e-9, 2e-9, 2 * n_pairs)
        return pos, vel, mass

    @staticmethod
    def _longdouble_pair_loop(pos, vel, mass, eps):
        ld = np.longdouble
        pos, vel, mass = pos.astype(ld), vel.astype(ld), mass.astype(ld)
        n = pos.shape[0]
        acc = np.zeros((n, 3), dtype=ld)
        jerk = np.zeros((n, 3), dtype=ld)
        eps2 = ld(eps) ** 2
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                dr = pos[j] - pos[i]
                dv = vel[j] - vel[i]
                r2 = dr @ dr + eps2
                mr3 = mass[j] / (r2 * np.sqrt(r2))
                acc[i] += mr3 * dr
                jerk[i] += mr3 * (dv - ld(3.0) * (dr @ dv) / r2 * dr)
        return acc, jerk

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    def test_close_neighbours_match_extended_precision(self):
        pos, vel, mass = self._disk_pairs()
        sinks = np.arange(pos.shape[0])
        acc_ref, jerk_ref = self._longdouble_pair_loop(pos, vel, mass, EPS)
        engine = small_engine()
        try:
            acc, jerk = engine.acc_jerk(pos, vel, pos, vel, mass, EPS,
                                        self_indices=sinks)
        finally:
            engine.close()

        def rel_err(got, ref):
            diff = np.linalg.norm((got.astype(np.longdouble) - ref).astype(np.float64))
            return diff / np.linalg.norm(ref.astype(np.float64))

        assert rel_err(acc, acc_ref) <= NORM_RTOL
        assert rel_err(jerk, jerk_ref) <= NORM_RTOL

        # the BLAS-shaped split, in float64, on the same weights
        dr = pos[None, :, :] - pos[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr) + EPS ** 2
        np.fill_diagonal(r2, np.inf)
        w = mass[None, :] / (r2 * np.sqrt(r2))
        acc_blas = w @ pos - pos * w.sum(axis=1)[:, None]
        assert rel_err(acc_blas, acc_ref) > NORM_RTOL


@pytest.mark.usefixtures("numpy_tier")
class TestDiskGeometryCancellationNumpyTier(TestDiskGeometryCancellation):
    """The plain class holds 1e-12 on the native tier, this on NumPy's."""


requires_native = pytest.mark.skipif(
    native.tier() != "native", reason="no C compiler: NumPy tier only"
)


def numpy_engine(monkeypatch, **overrides):
    """A ``small_engine`` on the NumPy tier, whatever the host's tier."""
    with monkeypatch.context() as patch:
        patch.setattr(native, "load", lambda: None)
        return small_engine(**overrides)


@requires_native
class TestNativeRowKernel:
    """Native vs NumPy tile: 1e-12 norm-relative at every edge of the
    lane layout (8 lanes, scalar tail), exact zeros from excluded pairs."""

    @staticmethod
    def _both(monkeypatch, call, **overrides):
        engines = small_engine(**overrides), numpy_engine(monkeypatch, **overrides)
        assert [e.tier for e in engines] == ["native", "numpy"]
        try:
            return [call(e) for e in engines]
        finally:
            for e in engines:
                e.close()

    @pytest.mark.parametrize("n_j", [1, 7, 8, 9, 257, 2050])
    @pytest.mark.parametrize("n_i", [1, 5])
    def test_shapes(self, monkeypatch, n_i, n_j):
        system = make_system(n=n_j, seed=n_j)
        sinks = make_system(n=n_i, seed=99)
        (a_n, j_n), (a_p, j_p) = self._both(
            monkeypatch,
            lambda e: e.acc_jerk(sinks.pos, sinks.vel, system.pos, system.vel,
                                 system.mass, EPS),
            j_chunk=2048,
        )
        assert norm_close(a_n, a_p) and norm_close(j_n, j_p)

    @pytest.mark.parametrize("self_col", [0, 7, 8, 63, 64, 127, 128, 129, -1])
    def test_self_column_anywhere_in_a_chunk(self, monkeypatch, self_col):
        """j_chunk=64 on 130 sources: chunks of 65 (eight lane blocks
        and a one-source tail), so the columns hit first / last of a
        lane block, first / last of a chunk, and the tail."""
        system = make_system(n=130, seed=3)
        i = max(self_col, 0)
        idx = np.array([self_col])
        # unsoftened where a column is excluded: a self pair that got
        # through, on either tier, would be 0/0
        eps = 0.0 if self_col >= 0 else EPS
        (a_n, j_n), (a_p, j_p) = self._both(
            monkeypatch,
            lambda e: e.acc_jerk(system.pos[i], system.vel[i], system.pos,
                                 system.vel, system.mass, eps, self_indices=idx),
        )
        assert np.isfinite(a_n).all() and np.isfinite(j_n).all()
        assert norm_close(a_n, a_p) and norm_close(j_n, j_p)

    def test_masks(self, monkeypatch):
        """A row with nothing included, a strided mask argument, and
        mask slices that are not contiguous (three chunks per row)."""
        system = make_system(n=150, seed=4)
        active = np.arange(0, 150, 7)
        wide = np.zeros((active.size, 2 * system.n), dtype=bool)
        wide[:, ::2] = make_mask(system, active)
        include = wide[:, ::2]
        include[3, :] = False
        assert not include.flags.c_contiguous
        (a_n, j_n), (a_p, j_p) = self._both(
            monkeypatch,
            lambda e: e.acc_jerk_masked(
                system.pos[active], system.vel[active], system.pos,
                system.vel, system.mass, EPS, include),
        )
        assert norm_close(a_n, a_p) and norm_close(j_n, j_p)
        assert not a_n[3].any() and not j_n[3].any()

    def test_zero_mass_source_adds_nothing(self, monkeypatch):
        system = make_system(n=40, seed=6)
        sink = (system.pos[:3], system.vel[:3])
        idx = np.arange(3)
        engine = small_engine()
        try:
            with_it = engine.acc_jerk(*sink, system.pos, system.vel,
                                      np.where(np.arange(40) == 17, 0.0, system.mass),
                                      EPS, self_indices=idx)
            keep = np.arange(40) != 17  # the later sources change lanes
            without = engine.acc_jerk(*sink, system.pos[keep], system.vel[keep],
                                      system.mass[keep], EPS, self_indices=idx)
        finally:
            engine.close()
        assert norm_close(with_it[0], without[0])
        assert norm_close(with_it[1], without[1])

    def test_no_planes_allocated(self):
        """The native tier holds the predicted-row scratch only: six
        values for each of 64 sinks + 512 sources, bucketed to 1024."""
        system = make_system(n=512, seed=3)
        engine = small_engine(j_chunk=2048)
        try:
            engine.acc_jerk_active(system, np.arange(64), 5e-4, EPS)
            assert engine.workspace_bytes == 1024 * 6 * 8
        finally:
            engine.close()

    def test_rejects_what_it_cannot_read(self):
        tile = native.load()
        ok = np.zeros((4, 3))
        out = np.zeros((2, 3))
        args = (ok[:2], ok[:2], ok, ok, np.ones(4), 1e-4, out, out.copy())
        tile.acc_jerk_rows(*args)
        frozen = np.zeros((2, 3))
        frozen.flags.writeable = False
        tile.acc_jerk_rows(frozen, *args[1:])  # a read-only input is fine
        for k, bad in ((2, np.zeros((4, 3), dtype=np.float32)),
                       (2, np.zeros((8, 3))[::2]),
                       (4, np.ones(5)),
                       (6, frozen)):
            broken = list(args)
            broken[k] = bad
            with pytest.raises(ValueError):
                tile.acc_jerk_rows(*broken)


def make_predictor_system(n=96, seed=11):
    """Rows that stress the predictor polynomial: random ones, rows
    already at ``t_now`` (dt = 0 and, with ``t_now = -0.0``, dt = -0.0),
    rows whose derivatives sit at the 1e-300 scale (products underflow
    into the subnormals) and rows at the 1e+12 scale."""
    system = make_system(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    system.t[:8] = 0.0
    for lo, scale in ((8, 1e-300), (16, 1e12)):
        rows = slice(lo, lo + 8)
        for name in ("pos", "vel", "acc", "jerk"):
            getattr(system, name)[rows] = rng.normal(size=(8, 3)) * scale
    return system


def predicted_rows(system, rows, t_now):
    """The canonical prediction (``repro.core.predictor``) of ``rows``."""
    from repro.core.predictor import predict_positions, predict_velocities

    dt = t_now - system.t[rows]
    args = (system.vel[rows], system.acc[rows], system.jerk[rows], dt)
    return predict_positions(system.pos[rows], *args), predict_velocities(*args)


class TestResidentPredictor:
    """``acc_jerk_active`` predicts sinks and sources inside the chunk
    entry point, from the system's resident arrays."""

    T_NOWS = (5e-4, 0.0, -0.0, 7.0)

    @requires_native
    @pytest.mark.parametrize("t_now", T_NOWS)
    def test_native_predictor_bits_are_numpys(self, t_now):
        """The rows the C predictor leaves in its scratch are
        ``predict_positions`` / ``predict_velocities`` bit for bit."""
        system = make_predictor_system()
        n = system.n
        tile = native.load()
        rng = np.random.default_rng(2)
        for active, (j0, j1) in (
            (rng.permutation(n)[:9], (0, n)),
            (np.arange(n), (0, n)),             # all active
            (rng.permutation(n), (17, 60)),     # permuted, an inner chunk
            (np.array([5]), (n - 1, n)),
        ):
            active = active.astype(np.int64)
            n_i, width = active.size, j1 - j0
            scratch = np.full(6 * (n_i + width), np.nan)
            acc, jerk = np.zeros((n_i, 3)), np.zeros((n_i, 3))
            tile.acc_jerk_active_chunk(system, active, t_now, EPS**2, j0, j1,
                                       scratch, acc, jerk)
            pos_i, vel_i = predicted_rows(system, active, t_now)
            pos_j, vel_j = predicted_rows(system, slice(j0, j1), t_now)
            got = np.split(scratch, np.cumsum([3 * n_i, 3 * n_i, 3 * width]))
            for have, want in zip(got, (pos_i, vel_i, pos_j, vel_j)):
                assert np.array_equal(have.reshape(-1, 3), want)
                assert np.array_equal(np.signbit(have.reshape(-1, 3)),
                                      np.signbit(want))
            assert np.isfinite(acc).all() and np.isfinite(jerk).all()

    @pytest.mark.parametrize("t_now", T_NOWS)
    def test_fused_call_is_the_pair_sum_over_predicted_rows(self, t_now):
        """Bitwise, on the tier the host has: the op equals ``acc_jerk``
        fed the canonical prediction (same chunk plan, same pair loop),
        for permuted and all-active blocks, one chunk and many."""
        system = make_predictor_system()
        pred_pos, pred_vel = predicted_rows(system, slice(None), t_now)
        rng = np.random.default_rng(4)
        for j_chunk in (16, 2048):
            engine = small_engine(j_chunk=j_chunk)
            try:
                for active in (rng.permutation(system.n)[:7],
                               rng.permutation(system.n), np.arange(system.n)):
                    got = engine.acc_jerk_active(system, active, t_now, EPS)
                    want = engine.acc_jerk(
                        pred_pos[active], pred_vel[active], pred_pos, pred_vel,
                        system.mass, EPS, self_indices=active,
                    )
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
                    parts = [
                        engine.acc_jerk_active_chunk(system, active, t_now,
                                                     EPS, j0, j1)
                        for j0, j1 in engine.jplan(system.n)
                    ]
                    assert np.array_equal(
                        fixed_order_reduce([p[0] for p in parts]), want[0])
                    assert np.array_equal(
                        fixed_order_reduce([p[1] for p in parts]), want[1])
            finally:
                engine.close()

    @pytest.mark.parametrize("tier", ["host", "numpy"])
    @pytest.mark.parametrize("bad", [-1, 257, 1 << 40])
    def test_bad_active_index_raises(self, monkeypatch, workload, tier, bad):
        """Out of range or negative: ``IndexError`` on both tiers (a
        negative entry must not wrap around to the last rows)."""
        system, _ = workload
        assert system.n == 257
        engine = (numpy_engine(monkeypatch) if tier == "numpy"
                  else small_engine())
        active = np.array([3, bad, 9])
        try:
            with pytest.raises(IndexError):
                engine.acc_jerk_active(system, active, T_NOW, EPS)
            with pytest.raises(IndexError):
                engine.acc_jerk_active_chunk(system, active, T_NOW, EPS, 0, 64)
        finally:
            engine.close()

    @requires_native
    def test_resident_arrays_are_checked_before_the_call(self):
        from repro.parallel.programs import ArrayView

        system = make_system(n=12, seed=1)
        tile = native.load()
        active = np.array([0, 5], dtype=np.int64)
        names = ("mass", "pos", "vel", "acc", "jerk", "t")

        def call(view, active=active, j0=0, j1=12, scratch=None):
            out = np.zeros((active.size, 3)), np.zeros((active.size, 3))
            if scratch is None:
                scratch = np.empty(6 * (active.size + j1 - j0))
            tile.acc_jerk_active_chunk(view, active, T_NOW, EPS**2, j0, j1,
                                       scratch, *out)
            return out

        arrays = {name: getattr(system, name) for name in names}
        want = call(system)
        frozen = {k: v.copy() for k, v in arrays.items()}
        for v in frozen.values():
            v.flags.writeable = False
        got = call(ArrayView.from_arrays(frozen))  # read-only residents are fine
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

        for name in names:
            good = arrays[name]
            for bad in (good.astype(np.float32), np.repeat(good, 2, axis=0)[::2],
                        good[:-1], good.reshape(-1, 1) if good.ndim == 1
                        else good.reshape(-1)):
                with pytest.raises(ValueError):
                    call(ArrayView.from_arrays({**arrays, name: bad}))
        with pytest.raises(ValueError):
            call(system, active=active.astype(np.int32))
        with pytest.raises(ValueError):
            call(system, j0=5, j1=13)
        with pytest.raises(ValueError):
            call(system, scratch=np.empty(6 * (2 + 12) - 1))

    @pytest.mark.parametrize("tier", ["host", "numpy"])
    def test_tile_bytes_count_the_predictor(self, monkeypatch, workload, tier):
        """``kernel.tile_bytes_total``, one rule on both tiers: the pair
        stream (7 values) plus the resident row (14 values) of every
        source and sink the predictor reads."""
        from repro.obs import Observability

        system, active = workload
        engine = (numpy_engine(monkeypatch) if tier == "numpy"
                  else small_engine())
        per_pair = engine_module.ROW_KERNEL_VALUES
        n_i, n_j = active.size, system.n
        try:
            obs = Observability()
            engine.observe(obs)
            engine.acc_jerk_active(system, active, T_NOW, EPS)
            full = obs.metrics.snapshot()["kernel.tile_bytes_total"]
            assert full == 8 * (n_i * n_j * per_pair + (n_i + n_j) * 14)
            engine.acc_jerk_active_chunk(system, active, T_NOW, EPS, 10, 74)
            chunk = obs.metrics.snapshot()["kernel.tile_bytes_total"] - full
            assert chunk == 8 * (n_i * 64 * per_pair + (n_i + 64) * 14)
        finally:
            engine.close()


class TestNativeBuild:
    """Fallback without a compiler; concurrent first builds."""

    @staticmethod
    def _unresolved(monkeypatch):
        monkeypatch.setattr(native, "_resolved", False)
        monkeypatch.setattr(native, "_tile", None)
        monkeypatch.setattr(native, "_report", {})

    def test_no_compiler_falls_back_with_one_log_line(self, monkeypatch, caplog,
                                                      workload):
        system, active = workload
        reference = numpy_engine(monkeypatch)
        self._unresolved(monkeypatch)
        monkeypatch.setenv("CC", "false")
        with caplog.at_level(logging.WARNING, logger="repro.accel.native"):
            engines = [small_engine(), small_engine()]
        try:
            assert [r.name for r in caplog.records] == ["repro.accel.native"]
            assert "repro.core oracles" in caplog.text
            assert native.tier() == "numpy" and native.describe()["error"]
            for engine in engines:
                assert engine.tier == "numpy"
                got = engine.acc_jerk_active(system, active, 5e-4, EPS)
                want = reference.acc_jerk_active(system, active, 5e-4, EPS)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
        finally:
            for engine in (*engines, reference):
                engine.close()

    @requires_native
    def test_two_processes_racing_to_build_both_load(self, tmp_path):
        script = (
            "import numpy as np; from repro.accel import native\n"
            "tile = native.load(); assert tile is not None, native.describe()\n"
            "p = np.arange(12.).reshape(4, 3); out = np.zeros((4, 3))\n"
            "tile.acc_jerk_rows(p, p, p, p, np.ones(4), 0.01, out, out.copy(),"
            " 0, np.arange(4))\n"
            "assert np.isfinite(out).all() and out.any()\n"
            "print(tile.path)\n"
        )
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=100) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        paths = {out.strip() for out, _ in outs}
        assert len(paths) == 1
        assert sorted(os.listdir(tmp_path / "repro")) == [
            os.path.basename(paths.pop())
        ]

    def test_object_is_never_in_the_source_tree(self):
        where = native.describe().get("object")
        if where is not None:
            repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            assert not os.path.abspath(where).startswith(repo + os.sep)

    def test_no_orphan_entry_point(self):
        """Every ``ISA_CLONES`` function of ``_tile.c`` is bound by
        ``NativeTile`` and called by some test, and nothing else is
        bound."""
        exported = re.findall(r"^ISA_CLONES\s+\w+\s+repro_(\w+)\s*\(",
                              native.SOURCE.read_text(), re.M)
        assert len(exported) >= 5  # the pattern still finds them
        assert sorted(exported) == sorted(native.ENTRY_POINTS)
        tests = "".join(path.read_text()
                        for path in Path(__file__).parent.glob("test_*.py"))
        for name in exported:
            assert callable(getattr(native.NativeTile, name, None)), name
            assert re.search(rf"\.{name}\(", tests), f"no test calls {name}"
        tile = native.load()
        if tile is not None:
            assert set(tile._fn) == set(exported)
            assert native.describe()["entry_points"] == [
                f"repro_{name}" for name in native.ENTRY_POINTS]

    def test_pair_arithmetic_lives_in_core(self):
        """The pair arithmetic is ``repro.core`` (the oracles, the NumPy
        tier) or ``_tile.c``: no module of ``repro.accel`` calls
        ``np.sqrt``, ``np.einsum`` or ``np.divide``."""
        forbidden = {"sqrt", "einsum", "divide"}
        offenders = []
        for path in sorted(native.SOURCE.parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in forbidden
                        and getattr(node.func.value, "id", None) in ("np", "numpy")):
                    offenders.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
        assert offenders == []

    def test_one_step_body(self):
        """``core/integrator.py`` has one Hermite step body: ``correct``
        is called only in ``block_correct``, and the predictors only in
        ``block_predict`` and ``predicted_state``."""
        allowed = {
            "correct": {"block_correct"},
            "predict_positions": {"block_predict", "predicted_state"},
            "predict_velocities": {"block_predict", "predicted_state"},
        }
        offenders = []

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in allowed and where not in allowed[name]:
                        offenders.append(f"{where}:{child.lineno} {name}")
                visit(child, where)

        visit(ast.parse(Path(integrator.__file__).read_text()), "<module>")
        assert offenders == []


def make_block_system(n=64, seed=5):
    """Resident rows on the block grid (power-of-two steps), a few at
    the 1e+12 scale, and row 4 in the positive octant with velocity,
    acceleration and jerk -0.0, so its predicted ``r . v`` is a sum of
    -0.0 products (numpy's einsum makes that +0.0)."""
    system = make_system(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    system.dt[...] = 2.0 ** -rng.integers(0, 12, n).astype(float)
    system.t[...] = system.dt * rng.integers(0, 64, n)
    system.pos[:4] *= 1e12
    system.pos[4] = np.abs(system.pos[4])
    for name in ("vel", "acc", "jerk"):
        getattr(system, name)[4] = -0.0
    return system


def numpy_block_step(system, active, acc1, jerk1, t_next, field, params):
    """The NumPy step's host work on ``active``, written back."""
    from repro.core.hermite import correct
    from repro.core.predictor import predict_positions, predict_velocities
    from repro.core.timestep import aarseth_dt, quantize

    dt = system.dt[active]
    pos0, vel0 = system.pos[active], system.vel[active]
    acc0, jerk0 = system.acc[active], system.jerk[active]
    pred_pos = predict_positions(pos0, vel0, acc0, jerk0, dt)
    pred_vel = predict_velocities(vel0, acc0, jerk0, dt)
    if field is not None:
        ea, ej = field.acc_jerk(pred_pos, pred_vel)
        acc1, jerk1 = acc1 + ea, jerk1 + ej
    pos1, vel1, derivs = correct(pred_pos, pred_vel, acc0, jerk0, acc1, jerk1, dt)
    system.pos[active], system.vel[active] = pos1, vel1
    system.acc[active], system.jerk[active] = acc1, jerk1
    system.t[active] = t_next
    dt_raw = aarseth_dt(acc1, jerk1, derivs.snap, derivs.crackle, params.eta)
    system.dt[active] = quantize(dt_raw, system.t[active], dt, params)


@requires_native
class TestBlockStepEntryPoints:
    """``block_predict`` / ``block_correct``: the NumPy step's host work
    bit for bit, errors before any write, pointers never stale."""

    STATE = ("pos", "vel", "acc", "jerk", "t", "dt")

    @staticmethod
    def _operands(system, seed=9):
        rng = np.random.default_rng(seed)
        active = np.concatenate([[4, 0], rng.permutation(system.n)[:30]])
        active = np.unique(active).astype(np.int64)
        acc1 = rng.normal(size=(active.size, 3)) * 1e-4
        jerk1 = rng.normal(size=(active.size, 3)) * 1e-6
        row = np.searchsorted(active, 4)
        acc1[row] = jerk1[row] = -0.0
        return active, acc1, jerk1

    @pytest.mark.parametrize("mass", [1.0, 0.3, None])
    def test_bits_are_the_numpy_steps(self, mass):
        """Against the NumPy step written out, and against its twins in
        ``core/integrator.py`` on a buffer of their own."""
        from repro.core import KeplerField, TimestepParams

        params = TimestepParams(eta=0.02, dt_max=16.0)
        field = None if mass is None else KeplerField(mass)
        tile = native.load()
        ours, theirs, twins = (make_block_system() for _ in range(3))
        active, acc1, jerk1 = self._operands(ours)
        block = np.full((active.size + 3, native.BLOCK_COLS), np.nan)
        assert tile.block_predict(ours, active, block)
        from repro.core.predictor import predict_positions, predict_velocities

        dt = ours.dt[active]
        args = (ours.vel[active], ours.acc[active], ours.jerk[active], dt)
        assert np.array_equal(block[:active.size, 12], dt)
        assert np.array_equal(block[:active.size, 13:16],
                              predict_positions(ours.pos[active], *args))
        assert np.array_equal(block[:active.size, 16:19],
                              predict_velocities(*args))
        twin_block = np.full_like(block, np.nan)
        assert integrator.block_predict(twins, active, twin_block)
        got, want = block[:, :19], twin_block[:, :19]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

        tile.block_correct(ours, active, acc1, jerk1, block, 6.0, mass, params)
        numpy_block_step(theirs, active, acc1, jerk1, 6.0, field, params)
        integrator.block_correct(twins, active, acc1, jerk1, twin_block, 6.0,
                                 mass, params)
        for other in (theirs, twins):
            for name in self.STATE:
                got, want = getattr(ours, name), getattr(other, name)
                assert np.array_equal(got, want), name
                assert np.array_equal(np.signbit(got), np.signbit(want)), name
        # the -0.0 row: backend jerk -0.0 plus the field's +0.0 is +0.0
        assert np.signbit(ours.jerk[4]).all() == (mass is None)

    @pytest.mark.parametrize("mass", [1.0, None])
    def test_the_twins_off_the_grid_are_the_numpy_step(self, mass):
        """Off the block grid the tile declines (``block_predict`` says
        ``False``) and the twins take the step: the NumPy step's bits."""
        from repro.core import KeplerField, TimestepParams

        params = TimestepParams(eta=0.02, dt_max=16.0)
        ours, theirs = make_block_system(), make_block_system()
        active, acc1, jerk1 = self._operands(ours)
        for system in (ours, theirs):
            system.dt[active[::3]] *= 0.75
        block = np.empty((active.size, native.BLOCK_COLS))
        assert not native.load().block_predict(ours, active, block)
        assert not integrator.block_predict(ours, active, block)
        integrator.block_correct(ours, active, acc1, jerk1, block, 6.0, mass,
                                 params)
        numpy_block_step(theirs, active, acc1, jerk1, 6.0,
                         None if mass is None else KeplerField(mass), params)
        for name in self.STATE:
            got, want = getattr(ours, name), getattr(theirs, name)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name

    def test_aarseth_norms_sum_in_numpy_order(self, monkeypatch):
        """``block_correct`` sums each Aarseth norm ``(x0² + x1²) + x2²``
        as ``timestep._norm`` does.  The backend's ``acc1`` rows are ones
        where the other order rounds apart, and ``eta`` is searched so
        that on one row the two orders quantise to different steps; the
        native ``dt`` is the NumPy step's on every row."""
        from repro.core import timestep
        from repro.core.hermite import correct
        from repro.core.predictor import predict_positions, predict_velocities

        system = make_block_system()
        active = np.arange(8, 16, dtype=np.int64)
        system.dt[active], system.t[active] = 0.125, 1.0
        acc1 = np.resize(ORDER_SENSITIVE_ROWS, (active.size, 3)) * 1e-3
        jerk1 = np.random.default_rng(1).normal(size=(active.size, 3)) * 1e-7

        # the corrector's snap and crackle, then the eta that puts a row
        # on the boundary between the steps 0.0625 and 0.125
        dt = system.dt[active]
        pos0, vel0 = system.pos[active], system.vel[active]
        acc0, jerk0 = system.acc[active], system.jerk[active]
        _, _, derivs = correct(
            predict_positions(pos0, vel0, acc0, jerk0, dt),
            predict_velocities(vel0, acc0, jerk0, dt),
            acc0, jerk0, acc1, jerk1, dt)
        j, s, c = (timestep._norm(v)
                   for v in (jerk1, derivs.snap, derivs.crackle))
        den = j * c + s**2
        nums = [a * s + j**2
                for a in (timestep._norm(acc1), norm_other_order(acc1))]
        eta = None
        for row in range(active.size):
            etas = (0.125**2 * den[row] / nums[0][row]
                    * (1.0 + np.arange(-200, 200) * 2.0**-52))
            steps = [2.0 ** np.floor(np.log2(np.sqrt(etas * num[row] / den[row])))
                     for num in nums]
            apart = np.flatnonzero(steps[0] != steps[1])
            if apart.size:
                eta = float(etas[apart[0]])
                break
        assert eta is not None, "no eta separates the two orders"
        params = timestep.TimestepParams(eta=eta, dt_max=16.0)

        ours, theirs, other = (make_block_system() for _ in range(3))
        for sys_ in (ours, theirs, other):
            sys_.dt[active], sys_.t[active] = 0.125, 1.0
        tile = native.load()
        block = np.empty((active.size, native.BLOCK_COLS))
        assert tile.block_predict(ours, active, block)
        tile.block_correct(ours, active, acc1, jerk1, block, 1.125, None, params)
        numpy_block_step(theirs, active, acc1, jerk1, 1.125, None, params)
        with monkeypatch.context() as patch:
            patch.setattr(timestep, "_norm", norm_other_order)
            numpy_block_step(other, active, acc1, jerk1, 1.125, None, params)
        assert not np.array_equal(other.dt, theirs.dt)  # not vacuous
        assert np.array_equal(ours.dt, theirs.dt)

    def test_errors_write_nothing(self):
        from repro.core import TimestepParams
        from repro.errors import ConfigurationError, IntegrationError

        params = TimestepParams(dt_max=16.0)
        tile = native.load()
        system = make_block_system()
        active, acc1, jerk1 = self._operands(system)
        block = np.empty((active.size, native.BLOCK_COLS))
        before = {name: getattr(system, name).copy() for name in self.STATE}

        def unchanged():
            return all(np.array_equal(getattr(system, name), before[name])
                       for name in self.STATE)

        for bad in (np.array([0, system.n]), np.array([-1, 3])):
            with pytest.raises(IndexError):
                tile.block_predict(system, bad, block)
            with pytest.raises(IndexError):
                tile.block_correct(system, bad, acc1[:2], jerk1[:2], block,
                                   6.0, 1.0, params)
        assert tile.block_predict(system, active, block)
        poisoned = acc1.copy()
        poisoned[-1, 2] = np.inf
        with pytest.raises(IntegrationError):
            tile.block_correct(system, active, poisoned, jerk1, block, 6.0,
                               1.0, params)
        assert unchanged()
        system.pos[active[-1]] = system.vel[active[-1]] = 0.0
        system.acc[active[-1]] = system.jerk[active[-1]] = 0.0
        before = {name: getattr(system, name).copy() for name in self.STATE}
        assert tile.block_predict(system, active, block)
        with pytest.raises(ConfigurationError, match="origin"):
            tile.block_correct(system, active, acc1, jerk1, block, 6.0, 1.0,
                               params)
        assert unchanged()
        system.dt[active[0]] *= 0.75  # off the block grid: NumPy's job
        assert not tile.block_predict(system, active, block)

    def test_a_replaced_array_is_never_read_through_a_stale_pointer(self):
        from repro.core import TimestepParams

        tile = native.load()
        system = make_block_system()
        active = np.arange(0, system.n, 3, dtype=np.int64)
        block = np.empty((active.size, native.BLOCK_COLS))
        tile.block_predict(system, active, block)
        first = block[:, :3].copy()
        old = weakref.ref(system.pos)
        system.pos = system.pos + 1.0
        gc.collect()
        assert old() is None  # the tile held no strong reference
        tile.block_predict(system, active, block)
        assert np.array_equal(block[:, :3], first + 1.0)

        # held as an input, checked again as an output
        system.pos.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            tile.block_correct(system, active, np.zeros((active.size, 3)),
                               np.zeros((active.size, 3)), block, 6.0, 1.0,
                               TimestepParams(dt_max=16.0))
        system.pos = system.pos.copy()

        twin = make_block_system()
        twin.pos = system.pos.copy()
        scratch = np.empty((active.size + system.n, 6))
        outs = [np.zeros((active.size, 3)) for _ in range(4)]
        tile.acc_jerk_active_chunk(system, active, 0.5, EPS**2, 0, system.n,
                                   scratch, *outs[:2])
        system.pos = system.pos * 2.0
        tile.acc_jerk_active_chunk(system, active, 0.5, EPS**2, 0, system.n,
                                   scratch, *outs[2:])
        twin.pos *= 2.0
        fresh = [np.zeros((active.size, 3)) for _ in range(2)]
        tile.acc_jerk_active_chunk(twin, active, 0.5, EPS**2, 0, system.n,
                                   scratch, *fresh)
        assert not np.array_equal(outs[0], outs[2])
        assert np.array_equal(outs[2], fresh[0])
        assert np.array_equal(outs[3], fresh[1])


class TestEdgeCases:
    def test_empty_active_block(self):
        system = make_system(n=16)
        engine = small_engine()
        empty = np.empty(0, dtype=np.intp)
        try:
            acc, jerk = engine.acc_jerk_active(system, empty, 0.0, EPS)
            assert acc.shape == (0, 3) and jerk.shape == (0, 3)
            acc = engine.acc_jerk(
                np.empty((0, 3)), np.empty((0, 3)),
                system.pos, system.vel, system.mass, EPS,
            )[0]
            assert acc.shape == (0, 3)
            phi = engine.pairwise_potential(np.empty((0, 3)), system.pos,
                                            system.mass, EPS)
            assert phi.shape == (0,)
        finally:
            engine.close()

    def test_self_interaction_excluded(self):
        """A particle feels no force from itself (no softened self-term)."""
        system = make_system(n=3)
        active = np.arange(3)
        engine = small_engine()
        try:
            for acc, jerk in (run_op("acc_jerk", engine, system, active),
                              run_oracle("acc_jerk", system, active)):
                # with self-terms removed, momentum balances: sum(m*a) ~ 0
                net = (system.mass[active, None] * acc).sum(axis=0)
                assert np.linalg.norm(net) < 1e-20
        finally:
            engine.close()

    def test_minus_one_self_index_excludes_nothing(self, monkeypatch):
        """``-1`` is "this sink has no column in the source list" to the
        engine and to its oracles — not NumPy's "last column"."""
        system = make_system(n=5, seed=21)
        pos_i = np.array([[0.3, -0.2, 0.1], system.pos[2], [1.0, 2.0, -1.0]])
        vel_i = np.array([[0.0, 0.1, 0.0], system.vel[2], [0.2, 0.0, 0.1]])
        idx = np.array([-1, 2, -1])
        pair = (pos_i, vel_i, system.pos, system.vel, system.mass, EPS)
        point = (pos_i, system.pos, system.mass, EPS)
        engines = [small_engine(), numpy_engine(monkeypatch)]
        try:
            for e in engines:
                # one chunk: the NumPy tier is the oracle call itself
                same = np.array_equal if e.tier == "numpy" else norm_close
                for got, want in (
                    (e.acc_jerk(*pair, self_indices=idx),
                     forces.acc_jerk(*pair, self_indices=idx)),
                    (e.pairwise_potential(*point, self_indices=idx),
                     forces.pairwise_potential(*point, self_indices=idx)),
                ):
                    for g, w in zip(as_tuple(got), as_tuple(want)):
                        assert same(g, w), e.tier
        finally:
            for e in engines:
                e.close()

    def test_single_particle_promotion(self):
        system = make_system(n=32)
        engine = small_engine()
        try:
            acc, jerk = engine.acc_jerk(
                system.pos[0], system.vel[0], system.pos, system.vel,
                system.mass, EPS, self_indices=np.array([0]),
            )
        finally:
            engine.close()
        assert acc.shape == (1, 3) and jerk.shape == (1, 3)

    def test_masked_full_mask_matches_acc_jerk(self):
        """Everything included (minus self) reproduces the plain op."""
        system = make_system(n=65, seed=13)
        active = np.arange(0, 65, 2)
        include = np.ones((active.size, system.n), dtype=bool)
        include[np.arange(active.size), active] = False
        engine = small_engine()
        try:
            acc_m, jerk_m = engine.acc_jerk_masked(
                system.pos[active], system.vel[active], system.pos,
                system.vel, system.mass, EPS, include,
            )
            acc_r, jerk_r = engine.acc_jerk(
                system.pos[active], system.vel[active], system.pos,
                system.vel, system.mass, EPS, self_indices=active,
            )
        finally:
            engine.close()
        assert norm_close(acc_m, acc_r)
        assert norm_close(jerk_m, jerk_r)

    def test_masked_excluded_pairs_are_exact_zero(self):
        """An all-False mask must produce bitwise zero, not tiny residue."""
        system = make_system(n=16)
        active = np.arange(4)
        include = np.zeros((4, system.n), dtype=bool)
        engine = small_engine()
        try:
            acc, jerk = engine.acc_jerk_masked(
                system.pos[active], system.vel[active], system.pos,
                system.vel, system.mass, EPS, include,
            )
        finally:
            engine.close()
        assert not acc.any() and not jerk.any()

    def test_masked_shape_mismatch_rejected(self):
        system = make_system(n=8)
        engine = small_engine()
        try:
            with pytest.raises(ValueError):
                engine.acc_jerk_masked(
                    system.pos[:2], system.vel[:2], system.pos, system.vel,
                    system.mass, EPS, np.ones((3, 8), dtype=bool),
                )
        finally:
            engine.close()


class TestDispatchAndConfig:
    def test_from_env_overrides(self, monkeypatch):
        """``threads`` is scheduling; every field that shapes a sum is
        out of the environment's reach."""
        monkeypatch.setenv("REPRO_KERNEL_JCHUNK", "64")
        monkeypatch.setenv("REPRO_TILE_BUDGET", "1024")
        monkeypatch.setenv("REPRO_KERNEL_AUTOTUNE", "1")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert EngineConfig.from_env() == EngineConfig(threads=3)
        assert len(dataclasses.fields(EngineConfig)) == 4

    def test_ops_take_no_kernel_keyword(self, workload):
        system, active = workload
        engine = small_engine()
        pair = _pair_args(system, active)
        try:
            for call in (
                lambda **kw: engine.acc_jerk(*pair, **kw),
                lambda **kw: engine.acc_jerk_masked(
                    *pair, make_mask(system, active), **kw),
                lambda **kw: engine.node_force(*pair, **kw),
                lambda **kw: engine.acc_jerk_active(system, active, 0.0, EPS, **kw),
            ):
                call()
                with pytest.raises(TypeError):
                    call(kernel="accel")
        finally:
            engine.close()

    def test_from_env_ignores_garbage(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        default = EngineConfig.from_env()
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "banana")
        assert EngineConfig.from_env() == default
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "")
        assert EngineConfig.from_env(threads=2).threads == 2

    def test_get_engine_singleton(self):
        assert get_engine() is get_engine()


class TestMetricsBinding:
    def test_kernel_metrics_flow(self, workload):
        from repro.obs import Observability

        system, active = workload
        obs = Observability()
        # threaded, so that the calling thread holds partial-sum slabs
        # on either tier
        engine = small_engine(threads=2)
        try:
            engine.observe(obs)
            engine.acc_jerk_active(system, active, 5e-4, EPS)
        finally:
            engine.close()
        snap = obs.metrics.snapshot()
        assert snap["kernel.calls_total"] >= 1
        assert snap["kernel.tile_bytes_total"] > 0
        assert snap["kernel.threads"] == engine.config.threads
        assert snap["kernel.native"] == (engine.tier == "native")
        assert snap["kernel.workspace_bytes"] == engine.workspace_bytes
        assert engine.workspace_bytes > 0
