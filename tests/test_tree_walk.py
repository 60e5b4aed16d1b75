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
  (regression for the guarded ``1/(r2*sqrt(r2))`` sites);
* on the native tier the one-call tree force (``KernelEngine.tree_force``)
  forms exactly ``build_groups``' groups, walks exactly
  ``walk_groups``' lists, sums them to exactly the bits of the
  per-group engine calls (``evaluate_lists``) and keeps exactly
  ``_neighbour_pairs``' in-sphere pairs, growing its buffers when a
  list or the pairs outgrow them.
"""

import numpy as np
import pytest
from _persink_oracle import persink_accelerations
from conftest import ORDER_SENSITIVE_ROWS, make_random_cluster

from repro.accel import EngineConfig, KernelEngine, native
from repro.baselines.tree import _SQRT3, Octree, concat_ranges
from repro.core import forces
from repro.grape.neighbours import neighbour_search
from repro.hybrid.walk import build_groups, evaluate_lists, walk_groups
from repro.hybrid.walk.engine import _neighbour_pairs

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


@pytest.mark.parametrize("lengths", [[2, 0, 3, 0, 1], [0, 2, 3, 1, 0],
                                     [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
def test_concat_ranges_with_empty_ranges(lengths):
    """Empty ranges anywhere (``_neighbour_pairs`` meets one for every
    sink whose window holds no candidate) add nothing and shift no
    other range."""
    starts = np.array([0, 5, 9, 2, 7])
    want = np.concatenate(
        [np.arange(s, s + n) for s, n in zip(starts, lengths)]).astype(np.int64)
    assert np.array_equal(concat_ranges(starts, np.array(lengths)), want)


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


requires_native = pytest.mark.skipif(
    native.tier() != "native", reason="no C compiler: NumPy tier only"
)


def _native_and_oracle(tree, pos_i, theta, vel_i=None, exclude_self=None,
                       h_i=None, n_crit=32, engine=None):
    """``KernelEngine.tree_force`` and what it must reproduce:
    ``build_groups`` + ``walk_groups`` + ``evaluate_lists`` on the same
    engine, and ``_neighbour_pairs`` with ``h_i``.  Returns ``(forces,
    walk, reference forces, reference walk)``, a walk being ``(groups,
    csr, pairs)``; the native pairs come back sorted by sink row the way
    ``grouped_accelerations`` sorts them."""
    engine = engine or KernelEngine(EngineConfig(threads=1))
    try:
        acc, jerk, groups, csr, pairs = engine.tree_force(
            tree, pos_i, vel_i, theta, EPS, exclude_self, h_i, n_crit)
        want_groups = build_groups(tree, pos_i, h_i=h_i, n_crit=n_crit)
        lists = walk_groups(tree, want_groups, theta)
        ref = evaluate_lists(tree, want_groups, lists, pos_i, vel_i, EPS,
                             exclude_self, engine)
    finally:
        engine.close()
    want_pairs = None
    if h_i is not None:
        want_pairs = _neighbour_pairs(tree, want_groups, lists, pos_i, h_i,
                                      exclude_self)
        by_row = np.argsort(pairs[0], kind="stable")
        pairs = tuple(column[by_row] for column in pairs)
    want = (
        (want_groups.order, want_groups.ptr, want_groups.centroid,
         want_groups.radius, want_groups.h_max),
        (lists.node_ptr, lists.node_idx, lists.pp_ptr, lists.pp_idx),
        want_pairs,
    )
    return (acc, jerk), (groups, csr, pairs), ref, want


def _assert_same_bits(name, got, expected):
    if expected is None:
        assert got is None, name
        return
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape, name
    assert got.tobytes() == expected.tobytes(), name


def _assert_same_walk(walk, want):
    """Groups, lists and pairs equal element for element (floats bit
    for bit, signed zeros included)."""
    groups, csr, pairs = walk
    want_groups, want_csr, want_pairs = want
    for name, got, expected in zip(
            ("order", "ptr", "centroid", "radius", "h_max"), groups, want_groups):
        _assert_same_bits(name, got, expected)
    for name, got, expected in zip(("node_ptr", "node_idx", "pp_ptr", "pp_idx"),
                                   csr, want_csr):
        assert got.dtype == np.int64, name
        _assert_same_bits(name, got, expected)
    if want_pairs is None:
        assert pairs is None
        return
    for name, got, expected in zip(("row", "src", "dist2"), pairs, want_pairs):
        _assert_same_bits(name, got, expected.astype(got.dtype))


def _einsum_norm(d):
    """|d| the way ``walk_groups`` sums it."""
    d = np.asarray(d, dtype=np.float64)[None]
    return np.sqrt(np.einsum("ij,ij->i", d, d))[0]


#: |d| summed in the two other orders a C loop would naturally use
_OTHER_NORMS = (
    lambda d: np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]),
    lambda d: np.sqrt(d[0] * d[0] + (d[1] * d[1] + d[2] * d[2])),
)


def _symmetric_dyadic_tree():
    """Mirrored particle pairs on a dyadic grid with equal power-of-two
    masses: every sum is exact, so the root's centre and COM are 0."""
    rng = np.random.default_rng(3)
    side = rng.integers(-64, 65, size=(100, 3)) / 64.0
    pos = np.concatenate([side, -side, [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]])
    tree = Octree(pos, np.full(pos.shape[0], 1.0 / 128.0), leaf_size=4)
    assert not tree.node_center[0].any() and not tree.node_com[0].any()
    return tree


def _order_sensitive_blocks(tree, spheres, theta=1.0):
    """One sink block per (``ORDER_SENSITIVE_ROWS`` row, other summation
    order that rounds it apart), each one group whose root acceptance
    turns on the order: on ``dist`` (no spheres; the group radius sits
    at the threshold) or on ``cdist`` (spheres; ``h_max`` sits there).

    The root's centre and COM are 0, so a centroid ``-d`` puts ``d``
    (an order-sensitive row scaled by a power of two) into both sums.
    With spheres the block is one sink at ``-d`` whose radius is the
    threshold.  Without, it is two sinks at ``-d ± x e_k`` along the
    axis where ``d`` is smallest: ``d``'s components are short dyadics,
    so their centroid is ``-d`` and their radius ``x``, exactly.
    Returns ``[(sinks, h_i or None, root accepted)]``.
    """
    half = tree.node_half[0]
    blocks = []
    for row in ORDER_SENSITIVE_ROWS:
        d = row * (8.0 / np.abs(row).max())
        ours = _einsum_norm(d)
        for other_norm in _OTHER_NORMS:
            other = other_norm(d)
            if other == ours:
                continue
            if spheres:
                def accepted(norm, h):
                    return norm - 0.0 > h + _SQRT3 * half
                start = ours - _SQRT3 * half
            else:
                def accepted(norm, r):
                    return 2.0 * half < theta * (norm - r)
                start = ours - 2.0 * half / theta
            candidates = [start]
            up = down = start
            for _ in range(64):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                candidates += [up, down]
            x = next(x for x in candidates
                     if accepted(ours, x) != accepted(other, x))
            if spheres:
                blocks.append((-d[None], np.array([x]), accepted(ours, x)))
            else:
                offset = np.zeros(3)
                offset[np.argmin(np.abs(d))] = x
                sinks = np.array([-d + offset, -d - offset])
                blocks.append((sinks, None, accepted(ours, x)))
    return blocks


@requires_native
class TestNativeWalkLists:
    """The one-call tree force groups the sinks as ``build_groups``
    does, emits ``walk_groups``' CSR and ``_neighbour_pairs``' pairs,
    array for array."""

    @pytest.mark.parametrize("spheres", [False, True])
    @pytest.mark.parametrize("n_crit", [1, 8, 64])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 0.8, 1.2])
    def test_cluster(self, cluster, tree, theta, n_crit, spheres):
        rng = np.random.default_rng(1000 * n_crit + int(10 * theta))
        h = rng.uniform(0.0, 0.8, cluster.n) if spheres else None
        forces_, walk, ref, want = _native_and_oracle(
            tree, cluster.pos, theta, cluster.vel, np.arange(cluster.n), h,
            n_crit)
        _assert_same_walk(walk, want)
        assert np.array_equal(forces_[0], ref[0])
        if theta >= 0.6 and n_crit <= 8 and not spheres:
            assert want[1][1].size > 0, "no node accepted: test vacuous"
        if spheres:
            assert want[2][0].size > 0, "no pair in a sphere: test vacuous"

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_coincident_sink_cluster(self, theta):
        pos = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        tree = Octree(pos, np.ones(5), leaf_size=1)
        sinks = np.concatenate([pos, np.zeros((6, 3))])  # six more on the COM
        for h in (None, np.full(11, 0.5)):
            forces_, walk, ref, want = _native_and_oracle(
                tree, sinks, theta, exclude_self=np.arange(11), h_i=h,
                n_crit=2)
            _assert_same_walk(walk, want)
            assert np.array_equal(forces_[0], ref[0])
            assert np.isfinite(forces_[0]).all()

    def test_sinks_predicted_outside_their_cells(self, cluster, tree):
        """Sinks drifted off the positions the tree sorted them by: some
        stop in coarser cells, groups overlap cells they are not in."""
        drift = np.random.default_rng(4).normal(scale=0.1, size=cluster.pos.shape)
        sinks = cluster.pos + drift
        h = np.full(cluster.n, 0.2)
        groups = build_groups(tree, sinks, n_crit=8)
        descended = build_groups(tree, cluster.pos, n_crit=8)
        assert groups.n_groups != descended.n_groups, "no sink drifted: vacuous"
        for theta in (0.3, 0.8):
            forces_, walk, ref, want = _native_and_oracle(
                tree, sinks, theta, cluster.vel, np.arange(cluster.n), h, 8)
            _assert_same_walk(walk, want)
            assert np.array_equal(forces_[0], ref[0])

    def test_zero_radii(self, cluster, tree):
        """``h_i = 0``: the guard is as tight as it gets and no pair is
        inside a sphere of radius 0."""
        h = np.zeros(cluster.n)
        forces_, walk, ref, want = _native_and_oracle(
            tree, cluster.pos, 0.6, cluster.vel, np.arange(cluster.n), h, 8)
        _assert_same_walk(walk, want)
        assert np.array_equal(forces_[0], ref[0])
        assert want[2][0].size == 0 and not want[0][4].any()

    def test_pairs_without_exclude_self(self, cluster, tree):
        """Without ``exclude_self`` a sink's own particle is a pair of
        distance 0, on both sides."""
        h = np.full(cluster.n, 0.3)
        _, walk, _, want = _native_and_oracle(
            tree, cluster.pos, 0.6, cluster.vel, None, h, 8)
        _assert_same_walk(walk, want)
        rows, src, dist2 = want[2]
        own = rows == src
        assert own.sum() == cluster.n and not dist2[own].any()

    @pytest.mark.parametrize("edge", ["on_the_sphere", "inside_the_slack"])
    def test_sphere_edges(self, edge):
        """One sink per group on a dyadic lattice, where distances are
        exact: a source exactly on a sphere (``dist2 == h**2``) is out,
        and one just inside it survives the group cut, whose 0.1 %
        slack is all that lets it through when the group is one sink."""
        side = np.arange(4) * 0.25
        pos = np.stack(np.meshgrid(side, side, side), axis=-1).reshape(-1, 3)
        tree = Octree(pos, np.ones(pos.shape[0]), leaf_size=1)
        diagonal = 0.25 * np.sqrt(3.0)
        h = np.full(pos.shape[0], 0.5 if edge == "on_the_sphere"
                    else diagonal * 1.0005)
        _, walk, _, want = _native_and_oracle(
            tree, pos, 0.6, exclude_self=np.arange(pos.shape[0]), h_i=h,
            n_crit=1)
        _assert_same_walk(walk, want)
        assert (np.diff(want[0][1]) == 1).all()  # one sink per group
        rows, src, dist2 = want[2]
        ref = neighbour_search(pos, pos, np.arange(pos.shape[0]), h,
                               exclude_keys=np.arange(pos.shape[0]))
        assert rows.size == sum(len(x) for x in ref.lists)
        if edge == "on_the_sphere":
            assert (dist2 < 0.25).all() and rows.size > 0
        else:
            assert np.isclose(dist2, diagonal**2).any()

    def test_refuses_bad_input(self, cluster, tree):
        """Sinks, radii and self columns are read by index in C, so a
        wrong shape or a group size below 1 raises before any read."""
        engine = KernelEngine(EngineConfig(threads=1))
        try:
            with pytest.raises(ValueError, match="n_crit"):
                engine.tree_force(tree, cluster.pos, None, 0.6, EPS, n_crit=0)
            with pytest.raises(ValueError):
                engine.tree_force(tree, cluster.pos[:, :2], None, 0.6, EPS)
            with pytest.raises(ValueError):
                engine.tree_force(tree, cluster.pos, None, 0.6, EPS,
                                  h_i=np.ones(cluster.n - 1))
            with pytest.raises(ValueError):
                engine.tree_force(tree, cluster.pos, None, 0.6, EPS,
                                  exclude_self=np.arange(cluster.n + 1))
        finally:
            engine.close()

    @pytest.mark.parametrize("spheres", [False, True])
    def test_acceptance_sums_in_numpy_order(self, spheres):
        """Centroid offsets whose ``dist`` (or ``cdist``) rounds apart
        in another summation order, at the acceptance threshold: the
        root is accepted in one order and opened in the other, so a
        reordered sum changes the lists."""
        tree = _symmetric_dyadic_tree()
        blocks = _order_sensitive_blocks(tree, spheres)
        assert len(blocks) == len(ORDER_SENSITIVE_ROWS)
        for sinks, h, accept in blocks:
            _, walk, _, want = _native_and_oracle(tree, sinks, 1.0, h_i=h,
                                                  n_crit=2)
            _assert_same_walk(walk, want)
            groups = walk[0]
            assert np.array_equal(groups[1], [0, sinks.shape[0]])
            assert np.array_equal(groups[2][0], sinks.mean(axis=0))
            if not spheres:
                assert groups[3][0] == np.abs(sinks[0] - sinks[1]).max() / 2
            root_only = np.diff(want[1][0]) == 1  # accepted: the root is the list
            assert root_only[0] == accept


@requires_native
class TestNativePipelineBits:
    """``tree_force`` sums to the bits of the per-group engine calls."""

    @pytest.mark.parametrize("exclude", [True, False])
    @pytest.mark.parametrize("velocities", [True, False])
    @pytest.mark.parametrize("j_chunk", [64, 2048])
    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_matches_the_per_group_path(self, cluster, theta, j_chunk,
                                        velocities, exclude):
        vel = cluster.vel if velocities else None
        tree = Octree(cluster.pos, cluster.mass, vel=vel)
        h = np.random.default_rng(2).uniform(0.0, 0.5, cluster.n)
        engine = KernelEngine(EngineConfig(threads=1, j_chunk=j_chunk))
        (acc, jerk), walk, (a_ref, j_ref), want = _native_and_oracle(
            tree, cluster.pos, theta, vel,
            np.arange(cluster.n) if exclude else None, h, 8, engine)
        _assert_same_walk(walk, want)
        assert np.array_equal(acc, a_ref)
        assert np.array_equal(jerk, j_ref)

    def test_tree_without_velocities_gives_no_jerk(self, cluster):
        tree = Octree(cluster.pos, cluster.mass)
        acc, jerk = tree.accelerations(cluster.pos, 0.6, EPS, vel_i=cluster.vel,
                                       exclude_self=np.arange(cluster.n))
        assert jerk is None
        (got, _), _, ref, _ = _native_and_oracle(
            tree, cluster.pos, 0.6, cluster.vel, np.arange(cluster.n))
        assert np.array_equal(acc, got)
        assert np.array_equal(acc, ref[0])

    def test_one_engine_call_per_tree_force(self, cluster, tree):
        from repro.obs import Observability

        obs = Observability()
        engine = KernelEngine(EngineConfig(threads=1), obs=obs)
        try:
            tree.accelerations(cluster.pos, 0.6, EPS, vel_i=cluster.vel,
                               exclude_self=np.arange(cluster.n), n_crit=8,
                               engine=engine)
        finally:
            engine.close()
        assert obs.metrics.counter("kernel.calls_total").value == 1
        stats = tree.walk_stats
        assert obs.metrics.counter("kernel.tile_bytes_total").value == (
            8 * 7 * (stats.node_terms + stats.pp_terms))

    @pytest.mark.parametrize("theta", [0.3, 0.8])
    def test_quadrupole_within_1e12_of_the_oracle(self, cluster, theta):
        """The native quadrupole arm against ``forces.node_force``
        group by group (pp lists through ``forces.acc_jerk``)."""
        tree = Octree(cluster.pos, cluster.mass, vel=cluster.vel,
                      quadrupole=True)
        (acc, _), walk, ref, want = _native_and_oracle(
            tree, cluster.pos, theta, cluster.vel, np.arange(cluster.n),
            n_crit=8)
        _assert_same_walk(walk, want)
        assert np.array_equal(acc, ref[0])
        groups = build_groups(tree, cluster.pos, n_crit=8)
        lists = walk_groups(tree, groups, theta)
        assert lists.node_idx.size > 0
        node_vel = np.zeros_like(tree.node_mom)
        oracle = np.zeros_like(acc)
        for g in range(groups.n_groups):
            rows, nodes, src = groups.rows(g), lists.nodes(g), lists.sources(g)
            a = np.zeros((rows.size, 3))
            if nodes.size:
                a += forces.node_force(
                    cluster.pos[rows], cluster.vel[rows], tree.node_com[nodes],
                    node_vel[nodes], tree.node_mass[nodes], EPS,
                    quad_j=tree.node_quad[nodes])[0]
            own = np.searchsorted(src, rows)
            a += forces.acc_jerk(
                cluster.pos[rows], cluster.vel[rows], tree.pos[src],
                cluster.vel[src], tree.mass[src], EPS,
                self_indices=np.where(src[np.minimum(own, src.size - 1)] == rows,
                                      own, -1))[0]
            oracle[rows] = a
        err = np.linalg.norm(acc - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
        assert err.max() < 1e-12

    def test_quadrupole_serial_vs_threaded(self, cluster):
        tree = Octree(cluster.pos, cluster.mass, vel=cluster.vel,
                      quadrupole=True)
        out = []
        for threads in (1, 4):
            engine = KernelEngine(EngineConfig(threads=threads, j_chunk=64,
                                               parallel_pairs=1))
            try:
                out.append(tree.accelerations(
                    cluster.pos, 0.6, EPS, vel_i=cluster.vel,
                    exclude_self=np.arange(cluster.n), engine=engine))
            finally:
                engine.close()
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])

    def test_lists_outgrowing_their_buffers(self, cluster, tree):
        """A walk longer than the held list capacity is walked again
        into buffers of the size it reported."""
        tile = native.load()
        caps = list(tile._list_caps)
        tile._list_caps[:] = [1, 1, 1]
        try:
            h = np.full(cluster.n, 0.2)
            _, walk, _, want = _native_and_oracle(
                tree, cluster.pos, 0.6, cluster.vel, np.arange(cluster.n), h, 8)
        finally:
            tile._list_caps[:] = caps
        _assert_same_walk(walk, want)

    def test_pairs_outgrowing_their_buffer(self, cluster, tree):
        """Lists that fit and more in-sphere pairs than the held pair
        capacity: the walk is run again with room for the pairs it
        counted, and that room is kept for the next walk."""
        tile = native.load()
        caps = list(tile._list_caps)
        tile._list_caps[:] = [1 << 16, 1 << 20, 2]
        try:
            h = np.full(cluster.n, 0.3)
            _, walk, _, want = _native_and_oracle(
                tree, cluster.pos, 0.6, cluster.vel, np.arange(cluster.n), h, 8)
            grown = tile._list_caps[2]
        finally:
            tile._list_caps[:] = caps
        _assert_same_walk(walk, want)
        assert grown == want[2][0].size > 2
