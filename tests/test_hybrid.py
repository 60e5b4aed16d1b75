"""Tests for the tree/direct hybrid neighbour-scheme backend.

The contract under test (see ``docs/HYBRID.md``):

* one pass over one set of lists — at ``theta = 0`` the hybrid *is*
  direct summation, bit for bit, for any ``r_neighbour`` and on both
  kernel tiers (stated in ``tests/contracts.py``);
* for finite theta the per-particle acceleration error is bounded by
  the documented ``0.1 * theta**2`` envelope on Plummer-like clusters;
* the pass inherits the accel engine's fixed-order reduction, so
  serial and threaded runs are bit-identical (``tests/contracts.py``);
* the neighbour lists that fall out of the pass (``last_neighbours``)
  are ``neighbour_search``'s, and no call allocates at N x N width;
* per-particle ``h_nb`` radii override the backend default and survive
  snapshot round trips.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_random_cluster
from contracts import MATRIX, Disk, check

from repro.core import HostDirectBackend, energy
from repro.errors import ConfigurationError
from repro.grape.neighbours import neighbour_search
from repro.hybrid import HybridBackend
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

EPS = 0.01


def fresh_disk(n, seed):
    return build_disk_system(PlanetesimalDiskConfig(n_planetesimals=n, seed=seed))


@pytest.fixture(scope="module")
def cluster():
    return make_random_cluster(200, seed=9)


@pytest.fixture(scope="module")
def direct_forces(cluster):
    backend = HostDirectBackend(eps=EPS)
    active = np.arange(cluster.n)
    return backend.forces_on(cluster, active, 0.0)


def per_particle_err(a, a_ref):
    return np.linalg.norm(a - a_ref, axis=1) / np.linalg.norm(a_ref, axis=1)


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            HybridBackend(eps=-1.0)
        with pytest.raises(ConfigurationError):
            HybridBackend(eps=0.01, theta=-0.5)
        with pytest.raises(ConfigurationError):
            HybridBackend(eps=0.01, r_neighbour=-0.1)


class TestForceSplit:
    def test_theta_zero_matches_direct(self, cluster, direct_forces):
        """theta = 0 degrades to exact direct summation."""
        a_d, j_d = direct_forces
        backend = HybridBackend(eps=EPS, theta=0.0, r_neighbour=0.3)
        a_h, j_h = backend.forces_on(cluster, np.arange(cluster.n), 0.0)
        assert per_particle_err(a_h, a_d).max() < 1e-13
        assert per_particle_err(j_h, j_d).max() < 1e-12

    def test_partition_is_exact_for_any_radius(self, cluster):
        """The sphere radius decides which pairs are *reported* as
        neighbours — never which pairs are summed, nor in what order."""
        active = np.arange(cluster.n)
        results = []
        for rnb in (0.0, 0.3, 1.0):
            backend = HybridBackend(eps=EPS, theta=0.0, r_neighbour=rnb)
            results.append(backend.forces_on(cluster, active, 0.0))
        (a0, j0), (a1, j1), (a2, j2) = results
        assert np.array_equal(a0, a1) and np.array_equal(a0, a2)
        assert np.array_equal(j0, j1) and np.array_equal(j0, j2)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_acc_error_within_documented_bound(self, cluster, direct_forces,
                                               theta):
        """Per-particle acceleration error <= 0.1 * theta**2 (HYBRID.md)."""
        a_d, _ = direct_forces
        backend = HybridBackend(eps=EPS, theta=theta, r_neighbour=0.3)
        a_h, _ = backend.forces_on(cluster, np.arange(cluster.n), 0.0)
        assert per_particle_err(a_h, a_d).max() <= 0.1 * theta**2

    def test_near_field_engaged_and_counted(self, cluster):
        backend = HybridBackend(eps=EPS, theta=0.5, r_neighbour=0.3)
        active = np.arange(cluster.n)
        backend.forces_on(cluster, active, 0.0)
        assert backend.builds == 1
        assert backend.near_interactions > 0
        assert backend.far_interactions > 0
        # cross-backend comparability: counter books the direct-sum load
        assert backend.counter.force_interactions == cluster.n * cluster.n


class TestThetaZeroIsDirect:
    """Each group's kernel call is a row-subset of the full direct
    call, so there is nothing left to differ by (``evaluation_is_host``
    of ``tests/contracts.py``, here on a blob with near pairs)."""

    @pytest.mark.parametrize("n_active", [200, 7])
    def test_bitwise_equal_to_host_direct(self, n_active):
        *_, hybrid = check("evaluation_is_host", Disk(
            cluster=True, n=200, seed=9, eps=EPS, field=None,
            r_neighbour=0.3, n_active=n_active))
        assert hybrid.near > 0


@pytest.mark.usefixtures("numpy_tier")
class TestThetaZeroIsDirectNumpyTier(TestThetaZeroIsDirect):
    """The same contract without the compiled row kernel."""


class TestDeterminism:
    """The pass inherits the engine's fixed-order reduction
    (``hybrid_evaluation_serial_is_threaded`` and
    ``hybrid_serial_is_threaded`` of ``tests/contracts.py``)."""

    def test_serial_vs_threaded_bit_identical_forces(self):
        """All 200 rows of a blob, threaded over four chunks."""
        check("hybrid_evaluation_serial_is_threaded", Disk(
            cluster=True, n=200, seed=9, eps=EPS, field=None, theta=0.5,
            r_neighbour=0.3, threads=4, j_chunk=64, parallel_pairs=1,
            n_active=200))

    def test_serial_vs_threaded_bit_identical_run(self):
        check("hybrid_serial_is_threaded",
              Disk(n=28, seed=77, dt_max=1.0, t_end=2.0, theta=0.4,
                   r_neighbour=0.5, threads=4, j_chunk=64, parallel_pairs=1))


@pytest.mark.usefixtures("numpy_tier")
class TestDeterminismNumpyTier(TestDeterminism):
    """Serial == threaded without the compiled row kernel (the plain
    class runs on the host's tier)."""


class TestEnergyDrift:
    def _drift(self, backend, t_end=4.0):
        sim = MATRIX.simulation(backend)
        e0 = energy(sim.system, 0.008, sim.external_field).total
        sim.evolve(t_end)
        sim.synchronize(t_end)
        e1 = energy(sim.system, 0.008, sim.external_field).total
        return abs(e1 - e0) / abs(e0)

    def test_drift_within_twice_direct(self):
        d_direct = self._drift(HostDirectBackend(eps=0.008))
        d_hybrid = self._drift(
            HybridBackend(eps=0.008, theta=0.5, r_neighbour=0.05)
        )
        assert d_hybrid <= max(2.0 * d_direct, 1e-10)


class TestNeighbourRadii:
    def test_h_nb_overrides_backend_default(self, cluster):
        active = np.arange(cluster.n)
        tiny = HybridBackend(eps=EPS, theta=0.0, r_neighbour=1e-3)
        tiny.forces_on(cluster, active, 0.0)
        sys_ = cluster.copy()
        sys_.h_nb[:] = 0.6
        wide = HybridBackend(eps=EPS, theta=0.0, r_neighbour=1e-3)
        wide.forces_on(sys_, active, 0.0)
        assert wide.near_interactions > tiny.near_interactions

    def test_h_nb_snapshot_round_trip(self, tmp_path):
        from repro.core.snapshots import load_snapshot, save_snapshot

        sys_ = fresh_disk(n=12, seed=3)
        sys_.h_nb[:] = np.linspace(0.0, 0.4, sys_.n)
        path = save_snapshot(tmp_path / "snap.npz", sys_)
        loaded, _ = load_snapshot(path)
        assert np.array_equal(loaded.h_nb, sys_.h_nb)

    def test_legacy_snapshot_defaults_to_zero(self, tmp_path):
        """Snapshots written before h_nb existed load with h_nb = 0."""
        from repro.core.snapshots import load_snapshot, save_snapshot

        sys_ = fresh_disk(n=12, seed=3)
        path = save_snapshot(tmp_path / "snap.npz", sys_)
        # simulate an old file by stripping the optional array
        data = dict(np.load(path, allow_pickle=False))
        meta = data.pop("__metadata__", None)
        data.pop("h_nb")
        if meta is not None:
            data["__metadata__"] = meta
        np.savez(path, **data)
        loaded, _ = load_snapshot(path)
        assert np.all(loaded.h_nb == 0.0)

    def test_negative_h_nb_rejected(self):
        from repro.errors import ParticleError

        sys_ = fresh_disk(n=12, seed=3)
        sys_.h_nb[0] = -0.1
        with pytest.raises(ParticleError):
            sys_.validate()


class TestLastNeighbours:
    """The lists the force pass leaves behind are neighbour_search's."""

    @pytest.fixture(scope="class")
    def mixed(self):
        sys_ = make_random_cluster(300, seed=21)
        rng = np.random.default_rng(4)
        sys_.h_nb[:] = rng.uniform(0.05, 0.7, sys_.n)
        sys_.h_nb[::5] = 0.0  # these fall back to r_neighbour
        sys_.key[:] = rng.permutation(sys_.n) + 1000  # keys != indices
        return sys_

    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_all_active_block_matches_neighbour_search(self, mixed, theta):
        backend = HybridBackend(eps=EPS, theta=theta, r_neighbour=0.4)
        assert backend.last_neighbours is None
        active = np.arange(mixed.n)
        backend.forces_on(mixed, active, 0.0)
        got = backend.last_neighbours
        h = np.where(mixed.h_nb > 0.0, mixed.h_nb, 0.4)
        ref = neighbour_search(mixed.pos, mixed.pos, mixed.key, h,
                               exclude_keys=mixed.key)
        assert backend.near_interactions == sum(len(x) for x in ref.lists) > 0
        assert len(got.lists) == mixed.n
        for mine, theirs in zip(got.lists, ref.lists):
            assert np.array_equal(mine, theirs)
        inside = ref.nearest_dist < h
        assert inside.any() and not inside.all()
        assert np.array_equal(got.nearest_key[inside], ref.nearest_key[inside])
        assert np.array_equal(got.nearest_dist[inside],
                              ref.nearest_dist[inside])
        assert (got.nearest_key[~inside] == -1).all()
        assert np.isinf(got.nearest_dist[~inside]).all()

    def test_rows_follow_the_active_block(self, mixed):
        backend = HybridBackend(eps=EPS, theta=0.6, r_neighbour=0.4)
        active = np.array([250, 3, 117, 42])
        backend.forces_on(mixed, active, 0.0)
        h = np.where(mixed.h_nb > 0.0, mixed.h_nb, 0.4)[active]
        ref = neighbour_search(mixed.pos[active], mixed.pos, mixed.key, h,
                               exclude_keys=mixed.key[active])
        got = backend.last_neighbours
        assert got is backend.last_neighbours  # built once per call
        for mine, theirs in zip(got.lists, ref.lists):
            assert np.array_equal(mine, theirs)

    def test_no_n_by_n_allocation(self):
        """An all-active call at N = 4096 stays under a quarter of the
        403 MB ``N x N x 3`` float64 array the two-pass scheme built."""
        big = make_random_cluster(4096, seed=3)
        backend = HybridBackend(eps=EPS, theta=0.5, r_neighbour=0.1)
        backend.forces_on(big, np.arange(64), 0.0)  # warm the workspace
        tracemalloc.start()
        try:
            backend.forces_on(big, np.arange(big.n), 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backend.last_neighbours.nearest_key.shape == (big.n,)
        assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


class TestNeighboursOf:
    def test_matches_bruteforce(self):
        sys_ = fresh_disk(n=30, seed=6)
        backend = HybridBackend(eps=0.008, theta=0.5)
        active = np.arange(sys_.n)
        res = backend.neighbours_of(sys_, active, 0.0, h=2.0)
        for i in range(sys_.n):
            d = np.linalg.norm(sys_.pos - sys_.pos[i], axis=1)
            d[i] = np.inf
            expect = set(sys_.key[d < 2.0].tolist())
            assert set(res.lists[i].tolist()) == expect
            assert res.nearest_key[i] == sys_.key[np.argmin(d)]


class TestObservability:
    def test_hybrid_metrics_emitted(self):
        from repro.obs import Observability

        obs = Observability()
        backend = HybridBackend(eps=0.008, theta=0.4, r_neighbour=0.05)
        sim = MATRIX.simulation(backend, obs=obs)
        sim.evolve(2.0)
        snap = obs.metrics.snapshot()
        assert snap["hybrid.tree_builds_total"] == backend.builds
        assert snap["hybrid.far_interactions_total"] == backend.far_interactions
        assert snap["hybrid.near_interactions_total"] == backend.near_interactions
        assert snap["hybrid.theta"] == pytest.approx(0.4)
        assert snap["hybrid.tree_seconds"] > 0.0

    def test_report_renders_hybrid_split(self):
        from repro.obs.report import hybrid_breakdown, render_time_breakdown

        metrics = {
            "hybrid.tree_seconds": 0.75,
            "hybrid.direct_seconds": 0.25,
            "hybrid.near_interactions_total": 123,
            "hybrid.far_interactions_total": 456,
            "hybrid.tree_builds_total": 7,
        }
        bd = hybrid_breakdown(metrics)
        assert bd is not None and bd.total_seconds == pytest.approx(1.0)
        text = render_time_breakdown(metrics)
        assert "t_tree" in text and "t_direct" in text
        assert "tree rebuilds" in text

    def test_report_renders_a_split_with_no_direct_time(self):
        """One pass: t_direct is the neighbour bookkeeping and may
        round to zero; the table must not divide by it."""
        from repro.obs.report import render_time_breakdown

        text = render_time_breakdown({
            "hybrid.tree_seconds": 1.5,
            "hybrid.direct_seconds": 0.0,
            "hybrid.near_interactions_total": 0,
            "hybrid.far_interactions_total": 456,
            "hybrid.tree_builds_total": 7,
        })
        assert "100.0%" in text and "0.0%" in text

    def test_neighbour_count_observed_per_call(self):
        from repro.obs import Observability

        obs = Observability()
        backend = HybridBackend(eps=EPS, theta=0.5, r_neighbour=0.3)
        backend.observe(obs)
        cluster = make_random_cluster(200, seed=9)
        for _ in range(3):
            backend.forces_on(cluster, np.arange(cluster.n), 0.0)
        snap = obs.metrics.snapshot()
        assert snap["hybrid.neighbour_count.count"] == 3
        assert snap["hybrid.neighbour_count.max"] == pytest.approx(
            backend.near_interactions / 3 / cluster.n)

    def test_no_hybrid_metrics_renders_nothing(self):
        from repro.obs.report import hybrid_breakdown

        assert hybrid_breakdown({}) is None
