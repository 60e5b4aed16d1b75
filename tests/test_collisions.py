"""Tests for collision detection and perfect merging (accretion)."""

import numpy as np
import pytest

from repro.core import (
    CollisionPolicy,
    HostDirectBackend,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
    find_collision_pairs,
    merge_state,
)
from repro.core import forces
from repro.core.collisions import _find_collision_pairs_reference
from repro.errors import ConfigurationError
from repro.planetesimal.sizes import (
    ICE_DENSITY_CODE,
    mass_from_radius,
    radius_from_mass,
)


class TestSizes:
    def test_paper_planetesimal_is_km_sized(self):
        """Paper: 'km-sized bodies'. 2e-12 Msun icy body ~ 100 km."""
        from repro.units import au_to_m

        r_au = radius_from_mass(2e-12)
        r_km = float(au_to_m(r_au)) / 1e3
        assert 50 < r_km < 200

    def test_roundtrip(self):
        m = np.array([1e-12, 1e-10, 1e-5])
        assert np.allclose(mass_from_radius(radius_from_mass(m)), m, rtol=1e-12)

    def test_enhancement_linear(self):
        assert radius_from_mass(1e-10, f_enhance=5.0) == pytest.approx(
            5.0 * radius_from_mass(1e-10)
        )

    def test_mass_scaling_cube_root(self):
        assert radius_from_mass(8e-10) == pytest.approx(2.0 * radius_from_mass(1e-10))

    def test_rejects_bad_density(self):
        with pytest.raises(ConfigurationError):
            radius_from_mass(1e-10, density=-1.0)

    def test_ice_density_magnitude(self):
        # 1 g/cm^3 in Msun/AU^3
        assert ICE_DENSITY_CODE == pytest.approx(1.68e6, rel=0.02)


class TestFindPairs:
    def test_disjoint_particles_no_pairs(self):
        pos = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        radii = np.full(3, 0.1)
        assert find_collision_pairs(pos, radii, np.arange(3)) == []

    def test_overlapping_pair_found_once(self):
        pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [20.0, 0, 0]])
        radii = np.full(3, 0.1)
        pairs = find_collision_pairs(pos, radii, np.arange(3))
        assert pairs == [(0, 1)]

    def test_active_only_detection(self):
        pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [20.0, 0, 0], [20.05, 0, 0]])
        radii = np.full(4, 0.1)
        # only particle 3 active: finds only (3, 2)
        pairs = find_collision_pairs(pos, radii, np.array([3]))
        assert pairs == [(2, 3)]

    def test_asymmetric_radii(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        radii = np.array([0.9, 0.2])  # sum 1.1 > separation 1.0
        assert find_collision_pairs(pos, radii, np.arange(2)) == [(0, 1)]

    def test_empty_active(self):
        pos = np.zeros((3, 3))
        assert find_collision_pairs(pos, np.ones(3), np.array([], dtype=int)) == []

    def test_chunked_sweep_matches_reference(self, monkeypatch):
        """Active rows taken five at a time give the full-matrix
        reference's pairs in its order."""
        rng = np.random.default_rng(42)
        n = 200
        pos = rng.normal(size=(n, 3))
        radii = rng.uniform(0.05, 0.2, n)  # dense enough to overlap
        active = np.arange(0, n, 3)
        monkeypatch.setattr(forces, "_PLANE_TILE_BUDGET", 5 * n)
        ref = _find_collision_pairs_reference(pos, radii, active)
        assert len(ref) > 0  # the workload must actually produce pairs
        assert find_collision_pairs(pos, radii, active) == ref

    def test_chunked_sweep_empty(self, monkeypatch):
        """Chunks without a hit: no pairs, on either path."""
        pos = np.zeros((4, 3)) + np.arange(4)[:, None] * 10.0
        radii = np.full(4, 1e-3)
        monkeypatch.setattr(forces, "_PLANE_TILE_BUDGET", 4)
        assert find_collision_pairs(pos, radii, np.arange(4)) == []
        assert _find_collision_pairs_reference(pos, radii, np.arange(4)) == []


class TestMergeState:
    def test_mass_and_momentum_conserved(self, rng):
        m1, m2 = 3.0, 1.0
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        v1, v2 = rng.normal(size=3), rng.normal(size=3)
        out = merge_state(m1, p1, v1, 10, m2, p2, v2, 20)
        assert out.mass == pytest.approx(4.0)
        assert np.allclose(out.mass * out.vel, m1 * v1 + m2 * v2)
        assert np.allclose(out.mass * out.pos, m1 * p1 + m2 * p2)

    def test_survivor_is_more_massive(self):
        z = np.zeros(3)
        out = merge_state(1.0, z, z, 10, 2.0, z, z, 20)
        assert out.survivor_key == 20
        assert out.absorbed_key == 10

    def test_equal_mass_ties_to_first(self):
        z = np.zeros(3)
        out = merge_state(1.0, z, z, 10, 1.0, z, z, 20)
        assert out.survivor_key == 10

    def test_massless_rejected(self):
        z = np.zeros(3)
        with pytest.raises(ConfigurationError):
            merge_state(0.0, z, z, 1, 0.0, z, z, 2)


class TestPolicy:
    def test_radii_shape(self):
        p = CollisionPolicy()
        r = p.radii(np.array([1e-12, 1e-10]))
        assert r.shape == (2,)
        assert np.all(r > 0)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            CollisionPolicy(density=-1.0)
        with pytest.raises(ConfigurationError):
            CollisionPolicy(f_enhance=0.0)


def colliding_pair_sim(f_enhance=500.0, extra=True):
    """Two nearly co-orbital bodies bound to overlap, plus a spectator."""
    pos = [[20.0, 0.0, 0.0], [20.001, 0.0, 0.0]]
    v = 1 / np.sqrt(20.0)
    vel = [[0.0, v, 0.0], [0.0, v * 0.999, 0.0]]
    mass = [1e-8, 1e-8]
    if extra:
        pos.append([25.0, 0.0, 0.0])
        vel.append([0.0, 1 / np.sqrt(25.0), 0.0])
        mass.append(1e-8)
    s = ParticleSystem(np.array(mass), np.array(pos), np.array(vel))
    return Simulation(
        s,
        HostDirectBackend(eps=1e-5),
        external_field=KeplerField(),
        timestep_params=TimestepParams(dt_max=0.25),
        collision_policy=CollisionPolicy(f_enhance=f_enhance),
    )


class TestIntegratedMerging:
    def test_merger_happens_and_conserves_mass(self):
        sim = colliding_pair_sim()
        sim.initialize()
        m0 = sim.system.total_mass()
        sim.evolve(20.0)
        assert sim.mergers == 1
        assert sim.system.n == 2
        assert sim.system.total_mass() == pytest.approx(m0)

    def test_merger_event_logged(self):
        sim = colliding_pair_sim()
        sim.initialize()
        sim.evolve(20.0)
        events = sim.events.of_kind("merger")
        assert len(events) == 1
        assert "absorbed_key" in events[0].data

    def test_survivor_key_preserved(self):
        sim = colliding_pair_sim()
        sim.initialize()
        keys_before = set(sim.system.key.tolist())
        sim.evolve(20.0)
        keys_after = set(sim.system.key.tolist())
        assert keys_after < keys_before

    def test_integration_continues_after_merge(self):
        """The run proceeds cleanly past the merger with valid state."""
        sim = colliding_pair_sim()
        sim.initialize()
        sim.evolve(40.0)
        sim.system.validate()
        assert np.all(sim.system.t <= 40.0 + 1e-9)
        ratio = sim.system.t / sim.system.dt
        assert np.allclose(ratio, np.round(ratio), atol=1e-9)

    def test_no_collision_without_policy(self):
        sim = colliding_pair_sim()
        sim.collision_policy = None
        sim.initialize()
        sim.evolve(20.0)
        assert sim.system.n == 3
        assert sim.mergers == 0

    def test_no_collision_with_tiny_radii(self):
        """Radii far below the softening-limited closest approach: the
        pair interacts but never touches."""
        sim = colliding_pair_sim(f_enhance=1e-3)
        sim.initialize()
        sim.evolve(20.0)
        assert sim.mergers == 0

    def test_merged_body_on_reasonable_orbit(self):
        from repro.planetesimal import cartesian_to_elements

        sim = colliding_pair_sim()
        sim.initialize()
        sim.evolve(20.0)
        merged_row = int(np.argmax(sim.system.mass))
        el = cartesian_to_elements(
            sim.system.pos[merged_row : merged_row + 1],
            sim.system.vel[merged_row : merged_row + 1],
        )
        assert el.a[0] == pytest.approx(20.0, rel=0.05)
        assert el.e[0] < 0.1
