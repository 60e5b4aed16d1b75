"""Cross-walk equivalence matrix for the octree force engines.

The tree exposes two walk strategies — the legacy per-sink python walk
(``walk="persink"``) and the vectorised grouped walk
(``walk="grouped"``, the default).  These tests pin down the contracts
that make them interchangeable:

* at ``theta = 0`` the grouped walk is *bitwise* identical to direct
  summation through the tiled kernels (the per-sink walk is exact up
  to summation order — it associates the same pairs differently);
* at finite ``theta`` both walks stay inside the documented
  ``0.1 * theta**2`` median relative-error envelope, and the grouped
  walk (whose group-radius acceptance is strictly more conservative
  than the per-sink MAC) is never less accurate;
* per-sink neighbour spheres carve the same near/far partition out of
  either walk — near + far reassembles direct summation exactly;
* the grouped walk is bit-identical between serial and threaded
  kernel engines;
* a sink coinciding with a node's centre of mass stays finite
  (regression for the guarded ``1/(r2*sqrt(r2))`` sites).
"""

import os

import numpy as np
import pytest
from conftest import make_random_cluster

from repro.accel import EngineConfig, KernelEngine
from repro.baselines.tree import WALK_MODES, Octree, resolve_walk_mode
from repro.errors import ConfigurationError
from repro.hybrid.walk import build_groups, walk_groups

EPS = 0.01


@pytest.fixture(scope="module")
def cluster():
    return make_random_cluster(300, seed=9)


@pytest.fixture(scope="module")
def tree(cluster):
    return Octree(cluster.pos, cluster.mass, vel=cluster.vel)


def _direct(c):
    from repro.accel import get_engine

    return get_engine().acc_jerk(c.pos, c.vel, c.pos, c.vel, c.mass, EPS,
                                 self_indices=np.arange(c.n), kernel="accel")


@pytest.fixture(scope="module")
def direct(cluster):
    """Direct summation through the same ``accel`` kernel the grouped
    walk evaluates its lists with — the bit-identity baseline."""
    return _direct(cluster)


def _walk(tree, cluster, theta, walk, **kw):
    return tree.accelerations(
        cluster.pos, theta=theta, eps=EPS, vel_i=cluster.vel,
        exclude_self=np.arange(cluster.n), walk=walk, **kw,
    )


def med_rel_err(a, a_ref):
    return np.median(
        np.linalg.norm(a - a_ref, axis=1) / np.linalg.norm(a_ref, axis=1)
    )


class TestWalkModeResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_WALK", "persink")
        assert resolve_walk_mode("grouped") == "grouped"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_WALK", "persink")
        assert resolve_walk_mode(None) == "persink"

    def test_default_is_grouped(self, monkeypatch):
        monkeypatch.delenv("REPRO_TREE_WALK", raising=False)
        assert resolve_walk_mode(None) == "grouped"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_walk_mode("warp")

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_WALK", "warp")
        with pytest.raises(ConfigurationError):
            resolve_walk_mode(None)

    def test_modes_enumerated(self):
        assert set(WALK_MODES) == {"grouped", "persink"}


class TestThetaZeroBitIdentity:
    """theta = 0 opens everything: both walks ARE direct summation.

    The grouped walk evaluates its per-group source lists (each the
    full ascending particle range at theta = 0) through the same tiled
    ``accel`` kernel as the direct baseline, so it is *bitwise*
    identical.  The legacy per-sink walk sums leaf-by-leaf in python —
    the same pairs in a different association order — so it is exact
    only up to floating-point summation order (a few ulp).
    """

    def test_grouped_matches_direct_bitwise(self, cluster, tree, direct):
        acc, jerk = _walk(tree, cluster, 0.0, "grouped")
        a_d, j_d = direct
        assert np.array_equal(acc, a_d)
        assert np.array_equal(jerk, j_d)

    def test_persink_matches_direct_to_summation_order(self, cluster, tree,
                                                       direct):
        acc, jerk = _walk(tree, cluster, 0.0, "persink")
        assert med_rel_err(acc, direct[0]) < 1e-13
        assert np.max(np.linalg.norm(acc - direct[0], axis=1)
                      / np.linalg.norm(direct[0], axis=1)) < 1e-12
        assert np.max(np.linalg.norm(jerk - direct[1], axis=1)
                      / np.linalg.norm(direct[1], axis=1)) < 1e-12

    def test_quadrupole_tree_also_exact(self, cluster, direct):
        qtree = Octree(cluster.pos, cluster.mass, vel=cluster.vel,
                       quadrupole=True)
        acc, _ = _walk(qtree, cluster, 0.0, "grouped")
        assert np.array_equal(acc, direct[0])
        acc_p, _ = _walk(qtree, cluster, 0.0, "persink")
        assert np.max(np.linalg.norm(acc_p - direct[0], axis=1)
                      / np.linalg.norm(direct[0], axis=1)) < 1e-12


class TestThetaZeroBitIdentityNumpyTier(TestThetaZeroBitIdentity):
    """The same contract without the compiled row kernel (the plain
    class runs on the host's tier)."""

    @pytest.fixture
    def direct(self, numpy_tier, cluster):
        return _direct(cluster)


class TestErrorEnvelope:
    @pytest.mark.parametrize("theta", [0.3, 0.6, 1.0])
    def test_both_walks_within_envelope(self, cluster, tree, direct, theta):
        envelope = 0.1 * theta**2
        errs = {}
        for walk in WALK_MODES:
            acc, _ = _walk(tree, cluster, theta, walk)
            errs[walk] = med_rel_err(acc, direct[0])
            assert errs[walk] < envelope, (walk, theta, errs[walk])
        # the group-radius MAC is strictly more conservative than the
        # per-sink MAC, so grouped accuracy never degrades
        assert errs["grouped"] <= errs["persink"]

    def test_grouped_actually_approximates_at_scale(self, cluster, tree):
        """Guard against the grouped walk silently degenerating to
        direct summation (zero accepted nodes) on a generic cluster."""
        _walk(tree, cluster, 1.0, "grouped")
        assert tree.walk_stats.node_terms > 0


class TestNeighbourSphereExactness:
    @pytest.mark.parametrize("walk", WALK_MODES)
    def test_near_plus_far_reassembles_direct(self, cluster, tree, direct,
                                              walk):
        c = cluster
        n = c.n
        h = np.full(n, 0.5)
        far, _ = _walk(tree, c, 0.0, walk, h_i=h)

        dr = c.pos[None, :, :] - c.pos[:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", dr, dr)
        within = dist2 < h[:, None] ** 2
        within[np.arange(n), np.arange(n)] = False
        assert within.any(), "h too small: near field empty, test vacuous"

        r2 = dist2 + EPS**2
        inv_r3 = 1.0 / (r2 * np.sqrt(r2))
        near = np.einsum("ij,ijk->ik", np.where(within, c.mass * inv_r3, 0.0),
                         dr)
        np.testing.assert_allclose(far + near, direct[0], rtol=1e-12,
                                   atol=1e-13)


class TestGroupedDeterminism:
    def _engine(self, threads):
        return KernelEngine(EngineConfig(threads=threads, j_chunk=64,
                                         parallel_pairs=1))

    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_serial_vs_threaded_bit_identical(self, cluster, tree, theta):
        serial, threaded = self._engine(1), self._engine(4)
        try:
            a1, j1 = _walk(tree, cluster, theta, "grouped", engine=serial)
            a4, j4 = _walk(tree, cluster, theta, "grouped", engine=threaded)
        finally:
            serial.close()
            threaded.close()
        assert np.array_equal(a1, a4)
        assert np.array_equal(j1, j4)


@pytest.mark.usefixtures("numpy_tier")
class TestGroupedDeterminismNumpyTier(TestGroupedDeterminism):
    """Serial == threaded without the compiled row kernel."""


class TestGroupStructure:
    def test_groups_partition_the_sinks(self, cluster, tree):
        groups = build_groups(tree, cluster.pos, n_crit=16)
        seen = np.concatenate(
            [groups.rows(g) for g in range(groups.n_groups)]
        )
        assert np.array_equal(np.sort(seen), np.arange(cluster.n))
        assert (groups.sizes >= 1).all()

    def test_lists_cover_every_source_exactly_once(self, cluster, tree):
        """Accepted nodes + opened leaves tile the particle set: each
        source contributes to each group through exactly one term."""
        groups = build_groups(tree, cluster.pos, n_crit=16)
        lists = walk_groups(tree, groups, 0.8)
        for g in range(groups.n_groups):
            counts = np.zeros(tree.n, dtype=np.int64)
            src = lists.sources(g)
            np.add.at(counts, src, 1)
            for node in lists.nodes(g):
                counts[_subtree_particles(tree, node)] += 1
            assert (counts == 1).all()

    def test_pp_lists_sorted_ascending(self, cluster, tree):
        groups = build_groups(tree, cluster.pos, n_crit=16)
        lists = walk_groups(tree, groups, 0.8)
        for g in range(groups.n_groups):
            src = lists.sources(g)
            assert (np.diff(src) > 0).all()


def _subtree_particles(tree, node):
    out = []
    stack = [node]
    while stack:
        v = stack.pop()
        if tree.node_leaf_start[v] >= 0:
            s = tree.node_leaf_start[v]
            out.append(tree.leaf_perm[s:s + tree.node_leaf_count[v]])
        else:
            stack.extend(tree.children(v))
    return np.concatenate(out)


class TestCoincidentSinkRegression:
    """A sink sitting exactly on a node's centre of mass must not
    produce NaN/inf — the ``1/(r2*sqrt(r2))`` sites are guarded and
    only ever evaluated with softening or with the self pair excluded.
    """

    @pytest.fixture()
    def symmetric(self):
        # two mirrored pairs whose COM (and the root's COM) is the
        # origin, plus a probe particle exactly at the origin
        pos = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        mass = np.ones(5)
        return pos, mass

    @pytest.mark.parametrize("walk", WALK_MODES)
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_stays_finite(self, symmetric, walk, theta):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        com = tree.node_com[tree.root]
        assert np.allclose(com, 0.0)  # probe coincides with root COM
        acc, _ = tree.accelerations(
            pos, theta=theta, eps=0.05, exclude_self=np.arange(5), walk=walk,
        )
        assert np.isfinite(acc).all()
        # symmetry: the probe at the origin feels zero net force
        np.testing.assert_allclose(acc[4], 0.0, atol=1e-12)

    @pytest.mark.parametrize("walk", WALK_MODES)
    def test_unsoftened_theta_zero_finite(self, symmetric, walk):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        acc, _ = tree.accelerations(
            pos, theta=0.0, eps=0.0, exclude_self=np.arange(5), walk=walk,
        )
        assert np.isfinite(acc).all()


class TestEnvSelection:
    def test_tree_walk_env_reaches_accelerations(self, cluster, tree,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TREE_WALK", "persink")
        _walk(tree, cluster, 0.6, None)
        assert tree.walk_stats is None  # persink path records no WalkStats
        monkeypatch.setenv("REPRO_TREE_WALK", "grouped")
        _walk(tree, cluster, 0.6, None)
        assert tree.walk_stats is not None
        assert os.environ["REPRO_TREE_WALK"] == "grouped"
