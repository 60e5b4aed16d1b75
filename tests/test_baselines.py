"""Tests for the tree, shared-step and host-only baselines."""

import numpy as np
import pytest

from repro.baselines import (
    HostOnlyBackend,
    Octree,
    SharedHermite,
    SharedLeapfrog,
    TreeBackend,
)
from repro.core import (
    ExternalField,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
    energy,
)
from repro.core.forces import acc_jerk, acc_only
from repro.errors import ConfigurationError

from conftest import make_random_cluster, make_two_body


@pytest.fixture
def cluster300(rng):
    pos = rng.normal(size=(300, 3)) * 10
    vel = rng.normal(size=(300, 3))
    mass = rng.uniform(0.1, 1, 300)
    return pos, vel, mass


class TestOctreeBuild:
    def test_counts(self, cluster300):
        pos, vel, mass = cluster300
        tree = Octree(pos, mass, vel=vel, leaf_size=8)
        assert tree.stats.n_nodes >= tree.stats.n_leaves
        assert tree.node_mass[tree.root] == pytest.approx(mass.sum())

    def test_root_com(self, cluster300):
        pos, vel, mass = cluster300
        tree = Octree(pos, mass)
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        assert np.allclose(tree.node_com[tree.root], com)

    def test_leaf_perm_is_permutation(self, cluster300):
        pos, _, mass = cluster300
        tree = Octree(pos, mass)
        assert np.array_equal(np.sort(tree.leaf_perm), np.arange(300))

    def test_leaf_size_respected(self, cluster300):
        pos, _, mass = cluster300
        tree = Octree(pos, mass, leaf_size=4)
        leaf_counts = tree.node_leaf_count[tree.node_leaf_start >= 0]
        assert leaf_counts.max() <= 4

    def test_single_particle_tree(self):
        tree = Octree(np.zeros((1, 3)), np.ones(1))
        acc, _ = tree.accelerations(np.array([[1.0, 0, 0]]), theta=0.5, eps=0.0)
        assert np.allclose(acc, [[-1.0, 0, 0]])

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ConfigurationError):
            Octree(np.zeros((2, 3)), np.ones(2), leaf_size=0)


class TestOctreeForces:
    def test_theta_zero_exact(self, cluster300):
        pos, vel, mass = cluster300
        tree = Octree(pos, mass, vel=vel)
        a_t, j_t = tree.accelerations(
            pos, theta=0.0, eps=0.01, vel_i=vel, exclude_self=np.arange(300)
        )
        a_d, j_d = acc_jerk(pos, vel, pos, vel, mass, 0.01, self_indices=np.arange(300))
        assert np.allclose(a_t, a_d, rtol=1e-12, atol=1e-15)
        assert np.allclose(j_t, j_d, rtol=1e-12, atol=1e-15)

    def test_accuracy_improves_with_smaller_theta(self, cluster300):
        pos, _, mass = cluster300
        a_d, _ = acc_jerk(pos, np.zeros_like(pos), pos, np.zeros_like(pos), mass,
                          0.01, self_indices=np.arange(300))
        errs = []
        for theta in (1.0, 0.5, 0.25):
            tree = Octree(pos, mass)
            a_t, _ = tree.accelerations(pos, theta=theta, eps=0.01,
                                        exclude_self=np.arange(300))
            # the mean: at theta <= 0.5 the median sink opens every node
            # and its force is the direct sum, exact on the NumPy tier
            errs.append(np.mean(
                np.linalg.norm(a_t - a_d, axis=1) / np.linalg.norm(a_d, axis=1)
            ))
        assert errs[0] > errs[1] > errs[2]

    def test_opening_reduces_interactions(self, rng):
        """theta=0.7 must evaluate far fewer terms than direct at N=2000."""
        n = 2000
        pos = rng.normal(size=(n, 3)) * 10
        mass = rng.uniform(0.1, 1, n)
        tree = Octree(pos, mass)
        tree.accelerations(pos, theta=0.7, eps=0.01, exclude_self=np.arange(n))
        assert tree.stats.total_interactions < 0.5 * n * n

    def test_negative_theta_rejected(self, cluster300):
        pos, _, mass = cluster300
        tree = Octree(pos, mass)
        with pytest.raises(ConfigurationError):
            tree.accelerations(pos, theta=-1.0, eps=0.0)

    def test_theta_zero_exact_singleton_leaves(self, cluster300):
        """Regression: self-interaction must be excluded when every leaf
        holds exactly one particle (leaf_size=1)."""
        pos, vel, mass = cluster300
        tree = Octree(pos, mass, vel=vel, leaf_size=1)
        a_t, j_t = tree.accelerations(
            pos, theta=0.0, eps=0.01, vel_i=vel, exclude_self=np.arange(300)
        )
        a_d, j_d = acc_jerk(pos, vel, pos, vel, mass, 0.01,
                            self_indices=np.arange(300))
        assert np.allclose(a_t, a_d, rtol=1e-12, atol=1e-15)
        assert np.allclose(j_t, j_d, rtol=1e-12, atol=1e-15)

    def test_zero_mass_nodes_give_finite_jerk(self, rng):
        """Regression: massless subtrees used to produce NaN node
        velocities (0/0) that poisoned the far-field jerk."""
        pos = rng.normal(size=(64, 3)) * 10
        vel = rng.normal(size=(64, 3))
        mass = rng.uniform(0.1, 1, 64)
        mass[32:] = 0.0  # a whole spatial octant can end up massless
        pos[32:, 0] += 100.0
        tree = Octree(pos, mass, vel=vel)
        with np.errstate(invalid="raise", divide="raise"):
            acc, jerk = tree.accelerations(
                pos, theta=0.8, eps=0.01, vel_i=vel,
                exclude_self=np.arange(64),
            )
        assert np.all(np.isfinite(acc))
        assert np.all(np.isfinite(jerk))

    def test_large_theta_does_not_absorb_self_mass(self, cluster300):
        """Regression: for theta > 2/sqrt(3) a node containing the sink
        could pass the MAC and contribute the sink's own mass.  The
        containment guard caps the error at the multipole level."""
        pos, _, mass = cluster300
        a_d, _ = acc_jerk(pos, np.zeros_like(pos), pos, np.zeros_like(pos),
                          mass, 0.01, self_indices=np.arange(300))
        tree = Octree(pos, mass)
        a_t, _ = tree.accelerations(pos, theta=2.5, eps=0.01,
                                    exclude_self=np.arange(300))
        err = np.median(
            np.linalg.norm(a_t - a_d, axis=1) / np.linalg.norm(a_d, axis=1)
        )
        assert err < 0.3  # was ~5.6 with the self-mass leak

    def test_h_i_moves_pairs_between_lists_not_out_of_the_force(self, rng):
        """Per-sink radii act through the acceptance guard alone: the
        node list shrinks, the pp list grows, and the result is still
        the full force (the in-sphere pairs are summed, not dropped)."""
        n = 400
        pos = rng.normal(size=(n, 3)) * 2
        vel = rng.normal(size=(n, 3))
        mass = rng.uniform(0.1, 1, n)
        eps = 0.01
        tree = Octree(pos, mass, vel=vel)
        kw = dict(eps=eps, vel_i=vel, exclude_self=np.arange(n))
        a_d, j_d = acc_jerk(pos, vel, pos, vel, mass, eps,
                            self_indices=np.arange(n))

        a_0, j_0 = tree.accelerations(pos, theta=0.0, h_i=1.5, **kw)
        a_n, j_n = tree.accelerations(pos, theta=0.0, **kw)
        assert np.array_equal(a_0, a_n) and np.array_equal(j_0, j_n)
        assert np.allclose(a_0, a_d, rtol=1e-12, atol=1e-15)

        a_plain, _ = tree.accelerations(pos, theta=1.0, **kw)
        plain = tree.walk_stats
        a_h, _ = tree.accelerations(pos, theta=1.0, h_i=1.5, **kw)
        sphered = tree.walk_stats
        assert 0 < sphered.node_terms < plain.node_terms
        assert sphered.pp_terms > plain.pp_terms

        def err(a):
            return np.median(np.linalg.norm(a - a_d, axis=1)
                             / np.linalg.norm(a_d, axis=1))

        assert err(a_h) <= err(a_plain) < 0.1

    def test_h_i_negative_rejected(self, cluster300):
        pos, _, mass = cluster300
        tree = Octree(pos, mass)
        with pytest.raises(ConfigurationError):
            tree.accelerations(pos, theta=0.5, eps=0.01, h_i=-1.0)


class TestTreeBackend:
    def test_energy_conservation_under_block_steps(self):
        from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

        sys_ = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=48, seed=21))
        backend = TreeBackend(eps=0.008, theta=0.3)
        sim = Simulation(
            sys_, backend, external_field=KeplerField(),
            timestep_params=TimestepParams(),
        )
        sim.initialize()
        e0 = energy(sim.system, 0.008, sim.external_field).total
        sim.evolve(5.0)
        sim.synchronize(5.0)
        e1 = energy(sim.system, 0.008, sim.external_field).total
        # multipole error dominates; must still be well-behaved
        assert abs(e1 - e0) / abs(e0) < 1e-3
        # one build at init, one more at synchronize unless nothing was pending
        assert backend.builds in (sim.block_steps + 1, sim.block_steps + 2)

    def test_rebuild_count_tracks_blocks(self):
        from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

        sys_ = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=24, seed=22))
        backend = TreeBackend(eps=0.008, theta=0.5)
        sim = Simulation(sys_, backend, external_field=KeplerField(),
                         timestep_params=TimestepParams())
        sim.initialize()
        builds0 = backend.builds
        sim.evolve(2.0)
        assert backend.builds == builds0 + sim.block_steps


class TestSharedHermite:
    def test_two_body_energy(self):
        s = make_two_body(e=0.3)
        integ = SharedHermite(s, eps=0.0, dt=0.005)
        e0 = energy(s, eps=0.0).total
        integ.evolve(2 * np.pi)
        e1 = energy(s, eps=0.0).total
        assert abs(e1 - e0) / abs(e0) < 1e-10

    def test_matches_block_integrator_at_fixed_dt(self):
        """Shared Hermite and the block driver agree when the block
        driver is forced to a single global step."""
        from repro.core import HostDirectBackend

        s1 = make_random_cluster(16, seed=31)
        s2 = s1.copy()
        dt = 2.0**-6
        shared = SharedHermite(s1, eps=0.05, dt=dt)
        shared.evolve(0.25)

        sim = Simulation(
            s2, HostDirectBackend(eps=0.05),
            timestep_params=TimestepParams(
                eta=1e9, eta_start=1e9, dt_max=dt, dt_min=dt
            ),
        )
        sim.initialize()
        sim.evolve(0.25)
        assert np.allclose(s1.pos, s2.pos, rtol=1e-12, atol=1e-14)

    def test_steps_counted(self):
        s = make_two_body()
        integ = SharedHermite(s, eps=0.0, dt=0.01)
        integ.evolve(0.1)
        assert integ.steps == 10

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            SharedHermite(make_two_body(), eps=0.0, dt=0.0)


class TestSharedLeapfrog:
    def test_two_body_energy_bounded(self):
        s = make_two_body(e=0.2)
        integ = SharedLeapfrog(s, eps=0.0, dt=0.005)
        e0 = energy(s, eps=0.0).total
        integ.evolve(4 * np.pi)
        e1 = energy(s, eps=0.0).total
        assert abs(e1 - e0) / abs(e0) < 1e-4

    def test_second_order_convergence(self):
        def final_error(dt):
            s = make_two_body(e=0.3)
            e0 = energy(s, eps=0.0).total
            integ = SharedLeapfrog(s, eps=0.0, dt=dt)
            integ.evolve(1.0)
            return abs(energy(s, eps=0.0).total - e0) / abs(e0)

        # energy error of leapfrog scales ~dt^2
        assert final_error(0.01) / final_error(0.005) == pytest.approx(4.0, rel=0.5)

    def test_hermite_beats_leapfrog_at_same_dt(self):
        """Mid-orbit (where the symplectic error oscillation is maximal)
        the 4th-order Hermite energy error is orders of magnitude below
        leapfrog's at the same step size."""

        def err(cls):
            s = make_two_body(e=0.5)
            e0 = energy(s, eps=0.0).total
            integ = cls(s, eps=0.0, dt=0.01)
            integ.evolve(2.5)  # deliberately not a full period
            return abs(energy(s, eps=0.0).total - e0) / abs(e0)

        assert err(SharedHermite) < err(SharedLeapfrog) / 100

    def test_one_mutual_force_per_step(self):
        """A step's closing kick and the next step's opening kick sit at
        the same positions and share one mutual force evaluation; the
        trajectory is a recomputing KDK loop's, bit for bit, with a
        velocity-dependent field evaluated at every kick."""

        class Drag(ExternalField):
            def acc_jerk(self, pos, vel):
                return -0.1 * vel, np.zeros_like(vel)

        k, dt, eps, field = 7, 0.01, 0.05, Drag()
        s = make_random_cluster(24, seed=5)
        ref = s.copy()
        integ = SharedLeapfrog(s, eps=eps, dt=dt, external_field=field)
        for _ in range(k):
            integ.step()
        assert integ.counter.force_calls == k + 1
        assert integ.counter.force_interactions == (k + 1) * s.n * s.n
        assert integ.counter.jerk_interactions == 0

        def total_acc():
            acc = acc_only(ref.pos, ref.pos, ref.mass, eps,
                           self_indices=np.arange(ref.n))
            return acc + field.acc_jerk(ref.pos, ref.vel)[0]

        for _ in range(k):
            ref.vel += 0.5 * dt * total_acc()
            ref.pos += dt * ref.vel
            ref.vel += 0.5 * dt * total_acc()
        assert np.array_equal(s.pos, ref.pos)
        assert np.array_equal(s.vel, ref.vel)


class TestHostOnly:
    def test_modelled_time_accumulates(self):
        s = make_random_cluster(32, seed=41)
        backend = HostOnlyBackend(eps=0.05, host_flops=4e8)
        sim = Simulation(s, backend, timestep_params=TimestepParams())
        sim.initialize()
        sim.evolve(0.5)
        expected = backend.counter.force_interactions * 57 / 4e8
        assert backend.modelled_seconds == pytest.approx(expected)
        assert backend.achieved_flops() == pytest.approx(4e8)

    def test_rejects_bad_flops(self):
        with pytest.raises(ConfigurationError):
            HostOnlyBackend(eps=0.0, host_flops=-1)
