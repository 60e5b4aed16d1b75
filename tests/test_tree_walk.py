"""Contracts of the grouped tree walk, checked against an independent
per-sink walk.

``Octree.accelerations`` has one walk, the vectorised grouped walk of
``repro.hybrid.walk``.  The per-sink python frontier it replaced lives
on in ``tests/_persink_oracle.py`` as an oracle that shares nothing
with it but the tree arrays (``"persink"`` below).  Pinned here:

* at ``theta = 0`` the grouped walk is *bitwise* identical to direct
  summation through the tiled kernels (the per-sink oracle is exact up
  to summation order — it associates the same pairs differently);
* at finite ``theta`` both walks stay inside the documented
  ``0.1 * theta**2`` median relative-error envelope, and the grouped
  walk (whose group-radius acceptance is strictly more conservative
  than the per-sink MAC) is never less accurate;
* per-sink neighbour spheres change which list a source is on, never
  the force: every sink's pp list plus the leaves under its accepted
  nodes covers every source exactly once, every in-sphere source is on
  the pp list, and the in-sphere pairs the walk emits are exactly
  ``neighbour_search``'s;
* the grouped walk is bit-identical between serial and threaded
  kernel engines;
* a sink coinciding with a node's centre of mass stays finite
  (regression for the guarded ``1/(r2*sqrt(r2))`` sites).
"""

import numpy as np
import pytest
from _persink_oracle import persink_accelerations
from conftest import make_random_cluster

from repro.accel import EngineConfig, KernelEngine
from repro.baselines.tree import Octree
from repro.grape.neighbours import neighbour_search
from repro.hybrid.walk import build_groups, walk_groups

EPS = 0.01
WALKS = ("grouped", "persink")


def _accelerations(tree, walk, pos_i, **kw):
    """The product walk, or the oracle standing in for it."""
    if walk == "persink":
        return persink_accelerations(tree, pos_i, **kw)
    return tree.accelerations(pos_i, **kw)


@pytest.fixture(scope="module")
def cluster():
    return make_random_cluster(300, seed=9)


@pytest.fixture(scope="module")
def tree(cluster):
    return Octree(cluster.pos, cluster.mass, vel=cluster.vel)


def _direct(c):
    from repro.accel import get_engine

    return get_engine().acc_jerk(c.pos, c.vel, c.pos, c.vel, c.mass, EPS,
                                 self_indices=np.arange(c.n))


@pytest.fixture(scope="module")
def direct(cluster):
    """Direct summation through the same ``accel`` kernel the grouped
    walk evaluates its lists with — the bit-identity baseline."""
    return _direct(cluster)


def _walk(tree, cluster, theta, walk, **kw):
    return _accelerations(
        tree, walk, cluster.pos, theta=theta, eps=EPS, vel_i=cluster.vel,
        exclude_self=np.arange(cluster.n), **kw,
    )


def med_rel_err(a, a_ref):
    return np.median(
        np.linalg.norm(a - a_ref, axis=1) / np.linalg.norm(a_ref, axis=1)
    )


class TestThetaZeroBitIdentity:
    """theta = 0 opens everything: both walks ARE direct summation.

    The grouped walk evaluates its per-group source lists (each the
    full ascending particle range at theta = 0) through the same tiled
    ``accel`` kernel as the direct baseline, so it is *bitwise*
    identical.  The per-sink oracle sums leaf-by-leaf in python —
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
        for walk in WALKS:
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
    """Spheres move sources between the node list and the pp list and
    never out of the force."""

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_force_with_spheres_is_the_full_force(self, cluster, tree, direct,
                                                  theta):
        h = np.full(cluster.n, 1.0)
        plain, _ = _walk(tree, cluster, theta, "grouped")
        nodes_plain = tree.walk_stats.node_terms
        pp_plain = tree.walk_stats.pp_terms
        sphered, _ = _walk(tree, cluster, theta, "grouped", h_i=h)
        if theta == 0.0:
            # nothing is ever accepted: same lists, same bits
            assert np.array_equal(sphered, direct[0])
            assert np.array_equal(plain, direct[0])
            return
        # the guard only turns multipoles into exact pair sums
        assert tree.walk_stats.node_terms < nodes_plain
        assert tree.walk_stats.pp_terms > pp_plain
        assert med_rel_err(sphered, direct[0]) <= med_rel_err(plain, direct[0])
        assert med_rel_err(sphered, direct[0]) < 0.1 * theta**2

    @pytest.mark.parametrize("n_crit", [1, 8, 64])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 1.2])
    def test_lists_cover_sources_and_spheres(self, cluster, tree, theta,
                                             n_crit):
        """pp list ∪ leaves under accepted nodes is a partition of all
        sources, and every source with dist2 < h**2 is on the pp list."""
        rng = np.random.default_rng(1000 * n_crit + int(10 * theta))
        h = rng.uniform(0.0, 0.8, cluster.n)
        groups = build_groups(tree, cluster.pos, h_i=h, n_crit=n_crit)
        lists = walk_groups(tree, groups, theta)
        dr = cluster.pos[None, :, :] - cluster.pos[:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", dr, dr)
        n_in_sphere = 0
        for g in range(groups.n_groups):
            src = lists.sources(g)
            counts = np.bincount(src, minlength=tree.n)
            for node in lists.nodes(g):
                counts[_subtree_particles(tree, node)] += 1
            assert (counts == 1).all()
            on_pp = np.zeros(tree.n, dtype=bool)
            on_pp[src] = True
            for i in groups.rows(g):
                inside = dist2[i] < h[i] ** 2
                assert on_pp[inside].all()
                n_in_sphere += int(inside.sum()) - 1  # self
        assert n_in_sphere > 0, "h too small: no neighbours, test vacuous"

    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_emitted_pairs_are_neighbour_search(self, cluster, tree, theta):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.0, 0.8, cluster.n)
        _walk(tree, cluster, theta, "grouped", h_i=h)
        rows, src, d2 = tree.walk_stats.neighbours
        ref = neighbour_search(cluster.pos, cluster.pos, np.arange(cluster.n),
                               h, exclude_keys=np.arange(cluster.n))
        assert rows.size == sum(len(x) for x in ref.lists) > 0
        for i in range(cluster.n):
            assert np.array_equal(src[rows == i], ref.lists[i])
        delta = cluster.pos[src] - cluster.pos[rows]
        assert np.array_equal(d2, np.einsum("ij,ij->i", delta, delta))

    def test_no_spheres_no_pairs(self, cluster, tree):
        _walk(tree, cluster, 0.6, "grouped")
        assert tree.walk_stats.neighbours is None


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

    @pytest.mark.parametrize("walk", WALKS)
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_stays_finite(self, symmetric, walk, theta):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        com = tree.node_com[tree.root]
        assert np.allclose(com, 0.0)  # probe coincides with root COM
        acc, _ = _accelerations(
            tree, walk, pos, theta=theta, eps=0.05, exclude_self=np.arange(5),
        )
        assert np.isfinite(acc).all()
        # symmetry: the probe at the origin feels zero net force
        np.testing.assert_allclose(acc[4], 0.0, atol=1e-12)

    @pytest.mark.parametrize("walk", WALKS)
    def test_unsoftened_theta_zero_finite(self, symmetric, walk):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        acc, _ = _accelerations(
            tree, walk, pos, theta=0.0, eps=0.0, exclude_self=np.arange(5),
        )
        assert np.isfinite(acc).all()
