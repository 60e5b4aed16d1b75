"""Tests for analytic Kepler propagation, tree quadrupoles, escaper removal."""

import numpy as np
import pytest
from _persink_oracle import persink_accelerations

from repro.baselines import Octree
from repro.core import HostDirectBackend, KeplerField, ParticleSystem, Simulation, TimestepParams
from repro.core.forces import acc_jerk
from repro.errors import ConfigurationError, IntegrationError
from repro.planetesimal import (
    OrbitalElements,
    elements_to_cartesian,
    propagate_kepler,
)


class TestPropagateKepler:
    def test_circular_orbit_quarter_turn(self):
        pos = np.array([[1.0, 0.0, 0.0]])
        vel = np.array([[0.0, 1.0, 0.0]])
        p2, v2 = propagate_kepler(pos, vel, dt=np.pi / 2)
        assert np.allclose(p2, [[0.0, 1.0, 0.0]], atol=1e-12)
        assert np.allclose(v2, [[-1.0, 0.0, 0.0]], atol=1e-12)

    def test_full_period_identity(self):
        el = OrbitalElements(*[np.array([v]) for v in (2.0, 0.4, 0.2, 1.0, 0.5, 0.3)])
        pos, vel = elements_to_cartesian(el)
        period = 2 * np.pi * 2.0**1.5
        p2, v2 = propagate_kepler(pos, vel, dt=period)
        assert np.allclose(p2, pos, atol=1e-10)
        assert np.allclose(v2, vel, atol=1e-10)

    def test_energy_invariant(self, rng):
        n = 20
        el = OrbitalElements(
            a=rng.uniform(1, 30, n), e=rng.uniform(0, 0.8, n),
            inc=rng.uniform(0, 0.5, n), Omega=rng.uniform(0, 6, n),
            omega=rng.uniform(0, 6, n), M=rng.uniform(0, 6, n),
        )
        pos, vel = elements_to_cartesian(el)
        p2, v2 = propagate_kepler(pos, vel, dt=123.456)
        e1 = 0.5 * np.einsum("ij,ij->i", vel, vel) - 1.0 / np.linalg.norm(pos, axis=1)
        e2 = 0.5 * np.einsum("ij,ij->i", v2, v2) - 1.0 / np.linalg.norm(p2, axis=1)
        assert np.allclose(e1, e2, rtol=1e-10)

    def test_hyperbolic_rejected(self):
        pos = np.array([[10.0, 0, 0]])
        vel = np.array([[1.0, 0, 0]])
        with pytest.raises(ConfigurationError):
            propagate_kepler(pos, vel, dt=1.0)

    def test_integrator_matches_analytic(self):
        """The Hermite integrator in a pure solar field tracks the
        analytic ellipse to truncation accuracy."""
        el = OrbitalElements(*[np.array([v]) for v in (20.0, 0.3, 0.1, 0.0, 0.0, 0.0)])
        pos, vel = elements_to_cartesian(el)
        # a nearly massless particle: mutual forces negligible
        s = ParticleSystem(np.array([1e-14]), pos, vel)
        sim = Simulation(
            s, HostDirectBackend(eps=0.0), external_field=KeplerField(),
            timestep_params=TimestepParams(eta=0.01, eta_start=0.005, dt_max=1.0),
        )
        sim.initialize()
        t_end = 64.0
        sim.evolve(t_end)
        sim.synchronize(t_end)
        p_ref, v_ref = propagate_kepler(pos, vel, dt=t_end)
        assert np.allclose(sim.system.pos, p_ref, atol=1e-6)
        assert np.allclose(sim.system.vel, v_ref, atol=1e-7)


class TestQuadrupole:
    @pytest.fixture
    def blob(self, rng):
        n = 400
        pos = rng.normal(size=(n, 3)) * 10
        mass = rng.uniform(0.1, 1, n)
        return pos, mass

    def test_quadrupole_beats_monopole(self, blob):
        pos, mass = blob
        n = len(pos)
        z = np.zeros_like(pos)
        a_d, _ = acc_jerk(pos, z, pos, z, mass, 0.01, self_indices=np.arange(n))

        def med_err(quad):
            tree = Octree(pos, mass, quadrupole=quad)
            # the per-sink oracle's MAC: the grouped walk's conservative
            # group-radius acceptance degenerates to (exact) direct
            # summation at this small N, leaving no approximation error
            # for the quadrupole to improve on
            a_t, _ = persink_accelerations(tree, pos, theta=0.6, eps=0.01,
                                           exclude_self=np.arange(n))
            return np.median(
                np.linalg.norm(a_t - a_d, axis=1) / np.linalg.norm(a_d, axis=1)
            )

        assert med_err(True) < 0.7 * med_err(False)

    def test_quadrupole_exact_at_theta_zero(self, blob):
        pos, mass = blob
        n = len(pos)
        z = np.zeros_like(pos)
        a_d, _ = acc_jerk(pos, z, pos, z, mass, 0.01, self_indices=np.arange(n))
        tree = Octree(pos, mass, quadrupole=True)
        a_t, _ = tree.accelerations(pos, theta=0.0, eps=0.01,
                                    exclude_self=np.arange(n))
        assert np.allclose(a_t, a_d, rtol=1e-12, atol=1e-15)

    def test_node_quadrupole_traceless(self, blob):
        pos, mass = blob
        tree = Octree(pos, mass, quadrupole=True)
        traces = np.trace(tree.node_quad, axis1=1, axis2=2)
        scale = np.abs(tree.node_quad).max() + 1e-300
        assert np.all(np.abs(traces) < 1e-9 * scale)

    def test_single_particle_node_zero_quad(self):
        tree = Octree(np.zeros((1, 3)), np.ones(1), quadrupole=True)
        assert np.allclose(tree.node_quad[tree.root], 0.0)


class TestRemoveEscapers:
    def make_sim(self):
        # one bound ring particle + one hyperbolic runaway far out
        pos = np.array([[20.0, 0, 0], [80.0, 0, 0], [25.0, 0, 0]])
        vel = np.array([
            [0.0, 1 / np.sqrt(20.0), 0],
            [0.4, 0.0, 0],  # v >> v_esc(80) = 0.158
            [0.0, 1 / np.sqrt(25.0), 0],
        ])
        s = ParticleSystem(np.full(3, 1e-9), pos, vel)
        sim = Simulation(s, HostDirectBackend(eps=0.001),
                         external_field=KeplerField(),
                         timestep_params=TimestepParams())
        sim.initialize()
        return sim

    def test_removes_and_logs(self):
        sim = self.make_sim()
        removed = sim.remove_escapers(r_min=50.0)
        assert removed == 1
        assert sim.system.n == 2
        assert sim.events.count("escape") == 1
        assert sim.events.of_kind("escape")[0].key == 1

    def test_noop_when_none(self):
        sim = self.make_sim()
        assert sim.remove_escapers(r_min=500.0) == 0
        assert sim.system.n == 3

    def test_integration_continues_after_removal(self):
        sim = self.make_sim()
        sim.evolve(5.0)
        sim.remove_escapers(r_min=50.0)
        sim.evolve(10.0)
        sim.system.validate()

    def test_refuses_to_empty_system(self):
        pos = np.array([[80.0, 0, 0]])
        vel = np.array([[0.4, 0, 0]])
        s = ParticleSystem(np.array([1e-9]), pos, vel)
        sim = Simulation(s, HostDirectBackend(eps=0.001),
                         external_field=KeplerField())
        sim.initialize()
        with pytest.raises(IntegrationError):
            sim.remove_escapers(r_min=50.0)

    def test_requires_initialize(self):
        pos = np.array([[20.0, 0, 0]])
        s = ParticleSystem(np.array([1e-9]), pos, np.zeros((1, 3)))
        sim = Simulation(s, HostDirectBackend(eps=0.001))
        with pytest.raises(IntegrationError):
            sim.remove_escapers()
