"""The native tree build against ``predict_system`` + ``Octree``.

``repro_tree_build`` (``KernelEngine.tree_build`` on the native tier)
predicts every source to the block time and builds the octree over the
predicted rows in one call.  It has no freedom of order: every array it
fills must carry the bits the NumPy build computes, so that the tree
walk, the lists and the forces after it do not depend on which side
built the tree.  Pinned here:

* NumPy's ``np.add.reduceat`` still sums a segment the way the native
  build copies it (``a[0] + (((a[1] + a[2]) + ...) + a[k])``, pairwise
  past eight): if an upgrade changes that form this fails, instead of
  the two builds drifting apart unnoticed;
* every node array, ``leaf_perm``, the octant masks, the CSR adjacency
  and the predicted rows equal the NumPy build's byte for byte, on
  random, clustered, coincident (depth cut-off) and rounding-sensitive
  inputs, for leaf sizes 1, 4, 8 and past 8, with and without
  velocities;
* a ``HybridBackend`` and a ``TreeBackend`` run end on the same bytes
  whichever build they stepped with.
"""

import numpy as np
import pytest

from conftest import ORDER_SENSITIVE_ROWS, make_random_cluster

from repro.accel import get_engine, native
from repro.baselines import TreeBackend
from repro.baselines.tree import _NODE_ARRAYS, Octree
from repro.core import KeplerField, Simulation, TimestepParams
from repro.core.predictor import predict_system
from repro.errors import ConfigurationError
from repro.hybrid import HybridBackend
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

requires_native = pytest.mark.skipif(
    native.tier() != "native", reason="no C compiler: NumPy tier only"
)


# -- the summation form ---------------------------------------------------


def _pairwise(a):
    """NumPy's pairwise sum of a run of doubles, written out."""
    n = len(a)
    if n < 8:
        res = np.float64(-0.0)
        for x in a:
            res = res + x
        return res
    if n <= 128:
        r = list(a[:8])
        i = 8
        while i < n - n % 8:
            r = [r[k] + a[i + k] for k in range(8)]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res = res + x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


def _segment(a):
    """One ``reduceat`` segment: ``a[0] + (((a[1] + a[2]) + ...) + a[k])``."""
    return a[0] if len(a) == 1 else a[0] + _pairwise(a[1:])


def _left_fold(a):
    res = a[0]
    for x in a[1:]:
        res = res + x
    return res


def test_numpy_reduceat_sums_in_the_form_the_native_build_copies():
    """Segments of 1-8 (the children of a node, a leaf of at most 8)
    and longer ones (leaf_size > 8, a leaf at the depth cut-off), 1-D
    and 2-D ``axis=0``, at mixed magnitudes a left fold gets wrong."""
    rng = np.random.default_rng(42)
    lengths = list(range(1, 9)) * 40 + [9, 15, 16, 17, 64, 127, 128, 129, 300]
    fold_differs = 0
    for length in lengths:
        values = rng.standard_normal((3 * length, 3))
        values *= 10.0 ** rng.integers(-9, 9, values.shape)
        starts = [0, length, 3 * length - 1]  # the middle segment is 2 * length - 1 long
        for got_1d, got_2d, (lo, hi) in zip(
            np.add.reduceat(values[:, 0], starts),
            np.add.reduceat(values, starts, axis=0),
            [(0, length), (length, 3 * length - 1), (3 * length - 1, 3 * length)],
        ):
            seg = list(values[lo:hi])
            want = _segment([row[0] for row in seg])
            assert got_1d == want, (
                f"np.add.reduceat no longer sums a {hi - lo}-element 1-D "
                "segment as a[0] + pairwise(a[1:]): repro_tree_build "
                "(_tile.c) copies that form and would drift from Octree"
            )
            for k in range(3):
                assert got_2d[k] == _segment([row[k] for row in seg]), (
                    f"np.add.reduceat(axis=0) no longer sums a {hi - lo}-row "
                    "segment as a[0] + pairwise(a[1:]): repro_tree_build "
                    "(_tile.c) copies that form and would drift from Octree"
                )
            fold_differs += want != _left_fold([row[0] for row in seg])
    assert fold_differs > 50  # the values tell the two forms apart
    for length in (2, 5, 9):  # the rest starts from -0.0, not +0.0
        zeros = np.full((length, 3), -0.0)
        assert np.signbit(np.add.reduceat(zeros, [0], axis=0)).all(), (
            "np.add.reduceat of -0.0 rows is no longer -0.0: "
            "repro_tree_build (_tile.c) starts its sums from -0.0"
        )


# -- the build ------------------------------------------------------------


def _random(rng, n):
    return rng.standard_normal((n, 3))


def _clustered(rng, n):
    centres = rng.standard_normal((4, 3))
    return centres[rng.integers(0, 4, n)] + 1e-7 * rng.standard_normal((n, 3))


def _coincident(rng, n):
    """Groups of 12 identical rows: those cells split down to the depth
    cut-off and end as leaves of 12, past any leaf size."""
    return np.repeat(rng.standard_normal((n // 12 + 1, 3)), 12, axis=0)[:n]


def _order_sensitive(rng, n):
    signs = rng.choice([-1.0, 1.0], (n, 3))
    scale = 2.0 ** rng.integers(-3, 4, (n, 1))
    return np.resize(ORDER_SENSITIVE_ROWS, (n, 3)) * signs * scale


INPUTS = {"random": _random, "clustered": _clustered,
          "coincident": _coincident, "order_sensitive": _order_sensitive}


def _particles(kind, n=300, seed=5):
    rng = np.random.default_rng(seed)
    pos = np.ascontiguousarray(INPUTS[kind](rng, n))
    # masses over twelve decades, some zero: sums that round, and nodes
    # whose centre is the centroid
    mass = rng.random(n) * 10.0 ** rng.integers(-12, 0, n)
    mass[rng.random(n) < 0.1] = 0.0
    return pos, mass, rng.standard_normal((n, 3))


def _assert_same_tree(tree, ref):
    for name in _NODE_ARRAYS + ("leaf_perm", "octant_masks", "child_ptr",
                                "child_idx"):
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert list(tree._level_offsets) == list(ref._level_offsets)
    for name in ("n_nodes", "n_leaves", "max_depth"):
        assert getattr(tree.stats, name) == getattr(ref.stats, name), name


def _native_tree(pos, mass, vel, leaf_size):
    fields = native.load().tree_build(pos, mass, vel, leaf_size)
    return Octree.from_arrays(pos, mass, vel, leaf_size, fields)


@requires_native
class TestNativeBuild:
    @pytest.mark.parametrize("with_vel", [True, False])
    @pytest.mark.parametrize("leaf_size", [1, 4, 8])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_bits_equal_the_numpy_build(self, kind, leaf_size, with_vel):
        pos, mass, vel = _particles(kind)
        vel = vel if with_vel else None
        _assert_same_tree(_native_tree(pos, mass, vel, leaf_size),
                          Octree(pos, mass, vel=vel, leaf_size=leaf_size))

    @pytest.mark.parametrize("leaf_size", [9, 16, 200])
    @pytest.mark.parametrize("kind", ["random", "coincident"])
    def test_leaves_past_eight_sum_pairwise(self, kind, leaf_size):
        pos, mass, vel = _particles(kind, n=700)
        _assert_same_tree(_native_tree(pos, mass, vel, leaf_size),
                          Octree(pos, mass, vel=vel, leaf_size=leaf_size))

    def test_long_leaf_at_the_depth_cut_off(self):
        """300 identical rows: one cut-off leaf summed in halves."""
        rng = np.random.default_rng(8)
        pos = np.concatenate([np.tile(rng.standard_normal(3), (300, 1)),
                              rng.standard_normal((20, 3))])
        mass = rng.random(320) * 10.0 ** rng.integers(-9, 0, 320)
        vel = rng.standard_normal((320, 3))
        tree = _native_tree(pos, mass, vel, 8)
        _assert_same_tree(tree, Octree(pos, mass, vel=vel))
        assert tree.stats.max_depth == 61
        assert tree.node_leaf_count.max() == 300

    def test_signed_zeros(self):
        """Massless particles moving in -x: every m v is -0.0, and the
        sums keep or drop that sign the way the NumPy build does."""
        pos, _, vel = _particles("random", n=200)
        vel[:, 0] = -np.abs(vel[:, 0])
        mass = np.zeros(200)
        for leaf_size in (1, 4, 8):
            tree = _native_tree(pos, mass, vel, leaf_size)
            _assert_same_tree(tree, Octree(pos, mass, vel=vel,
                                           leaf_size=leaf_size))
            assert np.signbit(tree.node_mom[:, 0]).any()

    def test_single_particle(self):
        pos, mass = np.array([[0.5, -1.0, 2.0]]), np.array([3.0])
        _assert_same_tree(_native_tree(pos, mass, None, 8), Octree(pos, mass))

    def test_node_capacity_grows(self, monkeypatch):
        """A tree with more nodes than rows outgrows the first buffers:
        the call builds again in bigger ones, same bits."""
        tile = native.load()
        monkeypatch.setattr(tile, "_node_cap", 1)
        pos, mass, vel = _particles("coincident", n=60)
        tree = _native_tree(pos, mass, vel, 4)
        assert tree.stats.n_nodes > 60
        assert tile._node_cap >= tree.stats.n_nodes
        _assert_same_tree(tree, Octree(pos, mass, vel=vel, leaf_size=4))

    def test_rejects_what_octree_rejects(self):
        tile = native.load()
        with pytest.raises(ConfigurationError):
            tile.tree_build(np.zeros((2, 3)), np.ones(2), None, 0)
        with pytest.raises(ValueError):
            tile.tree_build(np.zeros((0, 3)), np.zeros(0), None, 8)
        with pytest.raises(ValueError):
            tile.tree_build(np.zeros((4, 2)), np.ones(4), None, 8)

    @pytest.mark.parametrize("leaf_size", [1, 8])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_engine_predicts_then_builds(self, kind, leaf_size):
        """``KernelEngine.tree_build``: the predicted rows are
        ``predict_system``'s, and the tree the NumPy build over them."""
        pos, mass, vel = _particles(kind, n=257, seed=11)
        rng = np.random.default_rng(12)
        system = make_random_cluster(257, seed=3)
        system.pos[:] = pos
        system.vel[:] = vel
        system.mass[:] = mass
        system.acc[:] = rng.standard_normal((257, 3))
        system.jerk[:] = rng.standard_normal((257, 3))
        system.t[:] = -rng.random(257) / 64.0
        oracle = system.copy()
        predict_system(oracle, 0.25)
        fields = get_engine().tree_build(system, 0.25, leaf_size)
        tree = Octree.from_arrays(system.pred_pos, system.mass,
                                  system.pred_vel, leaf_size, fields)
        assert system.pred_pos.tobytes() == oracle.pred_pos.tobytes()
        assert system.pred_vel.tobytes() == oracle.pred_vel.tobytes()
        _assert_same_tree(tree, Octree(oracle.pred_pos, oracle.mass,
                                       vel=oracle.pred_vel,
                                       leaf_size=leaf_size))


# -- stepping -------------------------------------------------------------


def _numpy_build(self, system, t_now):
    """``TreeBackend._build`` as the NumPy tier runs it."""
    predict_system(system, t_now)
    return Octree(system.pred_pos, system.mass, vel=system.pred_vel,
                  leaf_size=self.leaf_size)


def _run(make_backend):
    system = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=254, seed=5))
    backend = make_backend()
    sim = Simulation(system, backend, external_field=KeplerField(),
                     timestep_params=TimestepParams(dt_max=1.0))
    sim.initialize()
    for _ in range(40):
        sim.step()
    return system, backend


@requires_native
@pytest.mark.parametrize("make_backend", [
    lambda: HybridBackend(eps=0.008, theta=0.6, r_neighbour=0.05),
    lambda: TreeBackend(eps=0.008, theta=0.6),
], ids=["hybrid", "tree"])
def test_stepping_is_the_same_on_either_build(make_backend, monkeypatch):
    native_run, native_backend = _run(make_backend)
    assert native_backend.engine.tier == "native"  # so _build took tree_build
    with monkeypatch.context() as patch:
        patch.setattr(TreeBackend, "_build", _numpy_build)
        numpy_run, numpy_backend = _run(make_backend)
    for name in ("pos", "vel", "t", "dt"):
        assert getattr(native_run, name).tobytes() == getattr(numpy_run, name).tobytes(), name
    assert native_backend.builds == numpy_backend.builds == 41
    assert native_backend.walk_interactions == numpy_backend.walk_interactions
    if isinstance(native_backend, HybridBackend):
        assert native_backend.far_interactions == numpy_backend.far_interactions
        assert native_backend.near_interactions == numpy_backend.near_interactions
        assert native_backend.near_interactions > 0
