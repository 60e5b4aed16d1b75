"""Tests for Kepler orbital mechanics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.planetesimal.orbital import (
    OrbitalElements,
    cartesian_to_elements,
    elements_to_cartesian,
    solve_kepler,
)


class TestKeplerEquation:
    def test_circular(self):
        M = np.linspace(0, 2 * np.pi, 7)
        E = solve_kepler(M, np.zeros_like(M))
        assert np.allclose(E, M)

    def test_residual_is_zero(self):
        rng = np.random.default_rng(0)
        M = rng.uniform(-10, 10, 50)
        e = rng.uniform(0, 0.99, 50)
        E = solve_kepler(M, e)
        assert np.allclose(E - e * np.sin(E), M, atol=1e-12)

    def test_high_eccentricity(self):
        E = solve_kepler(np.array([0.1]), np.array([0.999]))
        assert np.allclose(E - 0.999 * np.sin(E), 0.1, atol=1e-12)

    def test_rejects_hyperbolic(self):
        with pytest.raises(ConfigurationError):
            solve_kepler(np.array([1.0]), np.array([1.5]))


class TestElementsToCartesian:
    def test_circular_orbit_radius_and_speed(self):
        el = OrbitalElements(
            a=np.array([4.0]),
            e=np.zeros(1),
            inc=np.zeros(1),
            Omega=np.zeros(1),
            omega=np.zeros(1),
            M=np.array([1.234]),
        )
        pos, vel = elements_to_cartesian(el, mu=1.0)
        assert np.linalg.norm(pos[0]) == pytest.approx(4.0)
        assert np.linalg.norm(vel[0]) == pytest.approx(0.5)
        assert pos[0, 2] == 0.0

    def test_pericenter_apocenter(self):
        a, e = 2.0, 0.5
        el_peri = OrbitalElements(*[np.array([x]) for x in (a, e, 0, 0, 0, 0.0)])
        pos, _ = elements_to_cartesian(el_peri)
        assert np.linalg.norm(pos[0]) == pytest.approx(a * (1 - e))
        el_apo = OrbitalElements(*[np.array([x]) for x in (a, e, 0, 0, 0, np.pi)])
        pos, _ = elements_to_cartesian(el_apo)
        assert np.linalg.norm(pos[0]) == pytest.approx(a * (1 + e))

    def test_vis_viva(self):
        rng = np.random.default_rng(5)
        n = 40
        el = OrbitalElements(
            a=rng.uniform(1, 30, n),
            e=rng.uniform(0, 0.9, n),
            inc=rng.uniform(0, np.pi / 3, n),
            Omega=rng.uniform(0, 2 * np.pi, n),
            omega=rng.uniform(0, 2 * np.pi, n),
            M=rng.uniform(0, 2 * np.pi, n),
        )
        pos, vel = elements_to_cartesian(el)
        r = np.linalg.norm(pos, axis=1)
        v2 = np.einsum("ij,ij->i", vel, vel)
        assert np.allclose(v2, 2.0 / r - 1.0 / el.a, rtol=1e-10)

    def test_inclination_sets_z_extent(self):
        el = OrbitalElements(*[np.array([x]) for x in (1.0, 0.0, 0.3, 0.0, 0.0, np.pi / 2)])
        pos, _ = elements_to_cartesian(el)
        # at M=pi/2 from the node, z = r*sin(i)*sin(u)
        assert abs(pos[0, 2]) > 0.1

    def test_rejects_nonpositive_a(self):
        el = OrbitalElements(*[np.array([x]) for x in (-1.0, 0.0, 0, 0, 0, 0)])
        with pytest.raises(ConfigurationError):
            elements_to_cartesian(el)


class TestRoundTrip:
    def test_elements_roundtrip(self):
        rng = np.random.default_rng(9)
        n = 60
        el = OrbitalElements(
            a=rng.uniform(1, 30, n),
            e=rng.uniform(0.01, 0.9, n),
            inc=rng.uniform(0.01, np.pi / 2.5, n),
            Omega=rng.uniform(0.1, 2 * np.pi - 0.1, n),
            omega=rng.uniform(0.1, 2 * np.pi - 0.1, n),
            M=rng.uniform(0.1, 2 * np.pi - 0.1, n),
        )
        pos, vel = elements_to_cartesian(el)
        back = cartesian_to_elements(pos, vel)
        assert np.allclose(back.a, el.a, rtol=1e-9)
        assert np.allclose(back.e, el.e, rtol=1e-8, atol=1e-10)
        assert np.allclose(back.inc, el.inc, rtol=1e-9, atol=1e-12)
        assert np.allclose(
            np.mod(back.Omega, 2 * np.pi), np.mod(el.Omega, 2 * np.pi), atol=1e-8
        )
        assert np.allclose(
            np.mod(back.omega, 2 * np.pi), np.mod(el.omega, 2 * np.pi), atol=1e-7
        )
        assert np.allclose(
            np.mod(back.M, 2 * np.pi), np.mod(el.M, 2 * np.pi), atol=1e-7
        )

    def test_hyperbolic_classified(self):
        # radial escape: r = 10, v > v_esc
        pos = np.array([[10.0, 0, 0]])
        vel = np.array([[1.0, 0.2, 0]])  # v^2 = 1.04 >> 2/10
        el = cartesian_to_elements(pos, vel)
        assert el.a[0] < 0
        assert el.e[0] > 1
        assert np.isnan(el.M[0])

    def test_radial_orbit_safe(self):
        """Zero angular momentum: no 0/0 warning (an error under the
        suite's filterwarnings), inclination reported as 0."""
        pos = np.array([[30.0, 0, 0], [1.0, 0, 0]])
        vel = np.array([[0.5, 0, 0], [0.0, 1.0, 0]])  # radial, circular
        el = cartesian_to_elements(pos, vel)
        assert el.inc[0] == 0.0 and el.Omega[0] == 0.0
        assert el.e[0] == pytest.approx(1.0)
        assert el.a[0] < 0
        assert el.inc[1] == pytest.approx(0.0)

    def test_planar_circular_orbit_safe(self):
        """Degenerate orbit (e=0, i=0) must not produce NaNs."""
        pos = np.array([[1.0, 0, 0]])
        vel = np.array([[0.0, 1.0, 0]])
        el = cartesian_to_elements(pos, vel)
        assert el.a[0] == pytest.approx(1.0)
        assert el.e[0] == pytest.approx(0.0, abs=1e-14)
        assert el.inc[0] == pytest.approx(0.0)
        assert np.isfinite(el.Omega[0]) and np.isfinite(el.omega[0])
