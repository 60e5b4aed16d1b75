"""Tests for timestep criteria and block quantisation."""

import numpy as np
import pytest

from repro.accel import native
from repro.core.timestep import (
    TimestepParams,
    _norm,
    aarseth_dt,
    quantize,
    startup_dt,
)
from repro.errors import ConfigurationError

from conftest import ORDER_SENSITIVE_ROWS, norm_other_order


class TestParams:
    def test_defaults_valid(self):
        p = TimestepParams()
        assert p.dt_min < p.dt_max
        assert p.max_level > 0

    def test_rejects_negative_eta(self):
        with pytest.raises(ConfigurationError):
            TimestepParams(eta=-1.0)

    def test_rejects_non_power_of_two_ratio(self):
        with pytest.raises(ConfigurationError):
            TimestepParams(dt_max=1.0, dt_min=0.3)

    def test_rejects_dt_min_above_dt_max(self):
        with pytest.raises(ConfigurationError):
            TimestepParams(dt_max=0.25, dt_min=1.0)

    def test_max_level(self):
        p = TimestepParams(dt_max=1.0, dt_min=2.0**-10)
        assert p.max_level == 10


class TestAarseth:
    def test_scale_invariance(self):
        """dt is homogeneous: scaling all derivatives consistently rescales dt."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        j = rng.normal(size=(4, 3))
        s = rng.normal(size=(4, 3))
        c = rng.normal(size=(4, 3))
        dt1 = aarseth_dt(a, j, s, c, eta=0.01)
        # scale time by k: a->a, j->j/k, s->s/k^2, c->c/k^3
        k = 2.0
        dt2 = aarseth_dt(a, j / k, s / k**2, c / k**3, eta=0.01)
        assert np.allclose(dt2, k * dt1)

    def test_eta_scaling(self):
        rng = np.random.default_rng(1)
        args = [rng.normal(size=(3, 3)) for _ in range(4)]
        dt1 = aarseth_dt(*args, eta=0.01)
        dt4 = aarseth_dt(*args, eta=0.04)
        assert np.allclose(dt4, 2.0 * dt1)

    def test_degenerate_zero_derivatives_gives_inf(self):
        z = np.zeros((2, 3))
        dt = aarseth_dt(z, z, z, z, eta=0.01)
        assert np.all(np.isinf(dt))

    def test_all_positive(self):
        rng = np.random.default_rng(2)
        args = [rng.normal(size=(10, 3)) for _ in range(4)]
        dt = aarseth_dt(*args, eta=0.02)
        assert np.all(dt > 0)


def _norm_by_hand(x):
    sq = x * x
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])


class TestNormSummationOrder:
    """``_norm`` sums ``(x0² + x1²) + x2²``, NumPy's row reduce and the
    native step's order, on rows where the other order rounds apart."""

    def test_norm_bits(self):
        rows = ORDER_SENSITIVE_ROWS
        want = _norm_by_hand(rows)
        assert (want != norm_other_order(rows)).all()  # not vacuous
        assert np.array_equal(_norm(rows), want)
        for row, w in zip(rows, want):
            assert _norm(row)[0] == w  # one bare vector

    def test_aarseth_dt_bits(self):
        rows = ORDER_SENSITIVE_ROWS
        acc, jerk = rows, rows[::-1] * 0.5
        snap, crackle = rows[[1, 2, 3, 0]] * 2.0, rows[[2, 3, 0, 1]] * 0.25

        def by_hand(norm):
            a, j, s, c = (norm(v) for v in (acc, jerk, snap, crackle))
            return np.sqrt(0.02 * (a * s + j**2) / (j * c + s**2))

        want = by_hand(_norm_by_hand)
        assert not np.array_equal(want, by_hand(norm_other_order))
        assert np.array_equal(aarseth_dt(acc, jerk, snap, crackle, 0.02), want)


class TestStartup:
    def test_formula(self):
        a = np.array([[3.0, 0, 0]])
        j = np.array([[0.0, 4.0, 0]])
        dt = startup_dt(a, j, eta_start=0.02)
        assert dt[0] == pytest.approx(0.02 * 3.0 / 4.0)

    def test_zero_jerk_gives_inf(self):
        a = np.array([[1.0, 0, 0]])
        j = np.zeros((1, 3))
        assert np.isinf(startup_dt(a, j, 0.01)[0])


class TestQuantize:
    def setup_method(self):
        self.params = TimestepParams(dt_max=1.0, dt_min=2.0**-16)

    def test_startup_quantisation(self):
        dt = quantize(np.array([0.7, 0.3, np.inf]), np.zeros(3), None, self.params)
        assert np.array_equal(dt, [0.5, 0.25, 1.0])

    def test_clipped_to_dt_min(self):
        dt = quantize(np.array([1e-30]), np.zeros(1), None, self.params)
        assert dt[0] == self.params.dt_min

    def test_clipped_to_dt_max(self):
        dt = quantize(np.array([123.0]), np.zeros(1), None, self.params)
        assert dt[0] == 1.0

    def test_shrink_always_allowed(self):
        dt = quantize(
            np.array([0.1]), np.array([0.375]), np.array([0.25]), self.params
        )
        assert dt[0] == 0.0625

    def test_growth_requires_commensurate_time(self):
        # particle at t=0.375 with dt=0.125 wants 0.5: 0.375/0.25 is not
        # an integer, so the step must stay at 0.125.
        dt = quantize(
            np.array([0.5]), np.array([0.375]), np.array([0.125]), self.params
        )
        assert dt[0] == 0.125

    def test_growth_allowed_on_grid(self):
        # particle at t=0.5 with dt=0.25 may double to 0.5 (0.5/0.5 = 1).
        dt = quantize(
            np.array([0.9]), np.array([0.5]), np.array([0.25]), self.params
        )
        assert dt[0] == 0.5

    def test_growth_is_at_most_doubling(self):
        # even at a commensurate time, a particle cannot jump 0.125 -> 1.0
        dt = quantize(
            np.array([1.0]), np.array([2.0]), np.array([0.125]), self.params
        )
        assert dt[0] == 0.25

    def test_result_is_always_power_of_two_of_dt_max(self):
        rng = np.random.default_rng(3)
        desired = 10.0 ** rng.uniform(-4, 2, size=100)
        dt = quantize(desired, np.zeros(100), None, self.params)
        levels = np.log2(self.params.dt_max / dt)
        assert np.allclose(levels, np.round(levels))
        assert np.all(dt >= self.params.dt_min)
        assert np.all(dt <= self.params.dt_max)


@pytest.mark.skipif(native.tier() != "native", reason="no C compiler: NumPy tier only")
class TestNativeQuantize:
    """The quantisation the native block step applies, bit for bit
    ``quantize``.  NumPy floors ``log2``, which rounds values a few ulps
    below 2**k up to k (``frexp``'s exponent would not); the C calls
    libm's ``log2`` and ``floor``, and these inputs pin the two together
    where they could part: on both sides of every power of two the
    block grid can reach."""

    #: the benchmark's settings (``repro run`` defaults, ``dt_max`` 16)
    PARAMS = TimestepParams(eta=0.02, eta_start=0.01, dt_max=16.0)

    def _same(self, want, t_now, dt_old):
        got = native.load().quantize(want, t_now, dt_old, self.PARAMS)
        assert np.array_equal(got, quantize(want, t_now, dt_old, self.PARAMS))
        return got

    def boundary_values(self):
        lo = int(np.log2(self.PARAMS.dt_min))
        hi = int(np.log2(self.PARAMS.dt_max))
        values = []
        for k in range(lo, hi + 1):
            below = np.full(300, 2.0**k)
            above = np.full(50, 2.0**k)
            for i in range(1, 300):
                below[i] = np.nextafter(below[i - 1], 0.0)
            for i in range(1, 50):
                above[i] = np.nextafter(above[i - 1], np.inf)
            values += [below, above]
        return np.concatenate(values)

    def test_on_both_sides_of_every_power_of_two(self):
        want = self.boundary_values()
        zeros = np.zeros_like(want)
        got = self._same(want, zeros, None)
        # not vacuous: numpy's floor lands above some inputs here
        bounded = np.fmin(np.fmax(want, self.PARAMS.dt_min), self.PARAMS.dt_max)
        assert (got > bounded).any()

    def test_log_uniform(self):
        rng = np.random.default_rng(7)
        want = 2.0 ** rng.uniform(-34.0, 8.0, 100_000)
        self._same(want, np.zeros_like(want), None)

    def test_growth_rule(self):
        """``dt_old`` below and above the floor, ``t_next`` on and off
        the doubled grid."""
        rng = np.random.default_rng(8)
        want = np.concatenate([self.boundary_values(),
                               2.0 ** rng.uniform(-34.0, 8.0, 20_000)])
        n = want.size
        dt_old = 2.0 ** rng.integers(-30, 5, n).astype(float)
        steps = rng.integers(0, 1 << 20, n).astype(float)
        on_grid = steps * 2.0 * dt_old
        off_grid = (2.0 * steps + 1.0) * dt_old
        grown = self._same(want, on_grid, dt_old)
        assert (grown == 2.0 * dt_old).any() and (grown < dt_old).any()
        kept = self._same(want, off_grid, dt_old)
        assert (kept <= dt_old).all() and (kept == dt_old).any()
