"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.forces import acc_jerk, potential_energy
from repro.core.scheduler import BlockScheduler
from repro.core.timestep import TimestepParams, quantize
from repro.grape.board import round_robin_slices
from repro.grape.fixedpoint import round_mantissa
from repro.planetesimal.massfunction import PowerLawMassFunction
from repro.planetesimal.orbital import solve_kepler

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def positions(n):
    return hnp.arrays(
        np.float64, (n, 3),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )


class TestForceProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    @settings(max_examples=30, deadline=None)
    def test_momentum_conservation(self, seed, n):
        """Mutual forces: sum_i m_i a_i = 0 and sum_i m_i jdot_i = 0."""
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(n, 3)) * 10
        vel = rng.normal(size=(n, 3))
        mass = rng.uniform(0.1, 10, n)
        a, j = acc_jerk(pos, vel, pos, vel, mass, eps=0.01, self_indices=np.arange(n))
        scale = np.abs(mass[:, None] * a).max() + 1e-30
        assert np.abs((mass[:, None] * a).sum(axis=0)).max() < 1e-10 * scale * n
        jscale = np.abs(mass[:, None] * j).max() + 1e-30
        assert np.abs((mass[:, None] * j).sum(axis=0)).max() < 1e-10 * jscale * n

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_potential_energy_negative(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(8, 3))
        mass = rng.uniform(0.1, 1, 8)
        assert potential_energy(pos, mass, eps=0.01) < 0

    @given(seed=st.integers(0, 10_000), eps1=st.floats(0.01, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_softening_weakens_binding(self, seed, eps1):
        """More softening -> shallower (less negative) potential."""
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(8, 3))
        mass = rng.uniform(0.1, 1, 8)
        w_soft = potential_energy(pos, mass, eps=eps1 * 2)
        w_hard = potential_energy(pos, mass, eps=eps1)
        assert w_soft >= w_hard

    @given(seed=st.integers(0, 10_000), shift=finite_floats)
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, seed, shift):
        """Mutual forces are invariant under global translation."""
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(6, 3))
        vel = rng.normal(size=(6, 3))
        mass = rng.uniform(0.1, 1, 6)
        idx = np.arange(6)
        a1, j1 = acc_jerk(pos, vel, pos, vel, mass, 0.01, self_indices=idx)
        pos2 = pos + shift
        a2, j2 = acc_jerk(pos2, vel, pos2, vel, mass, 0.01, self_indices=idx)
        atol = 1e-9 * (np.abs(a1).max() + 1e-30) * max(1.0, abs(shift))
        assert np.allclose(a1, a2, atol=atol)


class TestTimestepProperties:
    @given(
        dts=hnp.arrays(
            np.float64, st.integers(1, 50),
            elements=st.floats(min_value=1e-12, max_value=1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_quantize_bounds(self, dts):
        """A power of two inside [dt_min, dt_max], above half the bounded
        input and at most 16 ulps above it: numpy's ``log2`` rounds
        values a few ulps below 2**k up to k, so the floor can land just
        above its input."""
        params = TimestepParams(dt_max=2.0**20, dt_min=2.0**-40)
        out = quantize(dts, np.zeros_like(dts), None, params)
        bounded = np.fmin(np.fmax(dts, params.dt_min), params.dt_max)
        assert np.all(np.frexp(out)[0] == 0.5)
        assert np.all((out >= params.dt_min) & (out <= params.dt_max))
        assert np.all(out > bounded / 2.0)
        assert np.all(out <= bounded + 16 * np.spacing(bounded))

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantize_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        params = TimestepParams(dt_max=1.0, dt_min=2.0**-20)
        desired = 10.0 ** rng.uniform(-8, 3, n)
        dt = quantize(desired, np.zeros(n), None, params)
        assert np.all(dt >= params.dt_min)
        assert np.all(dt <= params.dt_max)
        levels = np.log2(params.dt_max / dt)
        assert np.allclose(levels, np.round(levels))
        # never larger than the (clipped) desired step
        assert np.all(dt <= np.clip(desired, params.dt_min, params.dt_max) + 1e-15)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_scheduler_block_nonempty_and_minimal(self, seed, n):
        rng = np.random.default_rng(seed)
        t = np.zeros(n)
        dt = 2.0 ** rng.integers(-8, 0, n).astype(float)
        sched = BlockScheduler()
        t_next, active = sched.next_block(t, dt)
        assert active.size >= 1
        assert t_next == (t + dt).min()
        # all selected share the update time; none excluded wrongly
        assert np.all((t + dt)[active] == t_next)
        others = np.setdiff1d(np.arange(n), active)
        assert np.all((t + dt)[others] > t_next)


class TestRoundRobinProperties:
    @given(n=st.integers(0, 500), bins=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_partition(self, n, bins):
        slices = round_robin_slices(n, bins)
        assert len(slices) == bins
        joined = np.sort(np.concatenate(slices)) if n else np.array([])
        assert np.array_equal(joined, np.arange(n))
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= 1


class TestFixedPointProperties:
    @given(
        x=st.floats(min_value=-1e10, max_value=1e10, allow_nan=False),
        bits=st.integers(1, 52),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_mantissa_relative_error(self, x, bits):
        y = round_mantissa(np.array([x]), bits)[0]
        if x == 0:
            assert y == 0
        else:
            assert abs(y - x) <= 2.0 ** (-bits) * abs(x) * (1 + 1e-12)

    @given(x=st.floats(min_value=-1e10, max_value=1e10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_round_mantissa_idempotent(self, x):
        a = round_mantissa(np.array([x]), 12)
        b = round_mantissa(a, 12)
        assert np.array_equal(a, b)


class TestMassFunctionProperties:
    @given(
        alpha=st.floats(-4.0, 1.0),
        lo_exp=st.floats(-14, -6),
        ratio=st.floats(1.5, 1e4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_in_bounds(self, alpha, lo_exp, ratio, seed):
        lo = 10.0**lo_exp
        mf = PowerLawMassFunction(alpha, lo, lo * ratio)
        m = mf.sample(200, np.random.default_rng(seed))
        assert np.all(m >= lo * (1 - 1e-12))
        assert np.all(m <= lo * ratio * (1 + 1e-12))

    @given(alpha=st.floats(-4.0, 1.0), ratio=st.floats(1.5, 1e4))
    @settings(max_examples=40, deadline=None)
    def test_mean_between_cutoffs(self, alpha, ratio):
        mf = PowerLawMassFunction(alpha, 1.0, ratio)
        assert 1.0 <= mf.mean_mass() <= ratio

    @given(
        n=st.integers(10, 10_000),
        total_exp=st.floats(-8, -2),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_mean_exact(self, n, total_exp):
        total = 10.0**total_exp
        mf = PowerLawMassFunction(-2.5, 2e-12, 4e-10).scaled_to(n, total)
        assert abs(n * mf.mean_mass() - total) < 1e-9 * total


class TestKeplerProperties:
    @given(
        m=st.floats(-50, 50, allow_nan=False),
        e=st.floats(0, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_kepler_residual(self, m, e):
        E = solve_kepler(np.array([m]), np.array([e]))[0]
        assert abs(E - e * np.sin(E) - m) < 1e-10
