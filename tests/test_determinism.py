"""Reproducibility guarantees: same seed, same bits."""

import numpy as np
from contracts import Disk, check

from conftest import make_disk_sim


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        """Two runs from the same seed produce identical trajectories,
        schedules, and counters — the property that makes regression
        comparisons and restart tests meaningful."""
        check("repeat_is_repeat", Disk(n=40, seed=123, dt_max=1.0, t_end=8.0))

    def test_different_seeds_diverge(self):
        a = make_disk_sim(n=40, seed=1)
        b = make_disk_sim(n=40, seed=2)
        assert not np.array_equal(a.system.pos, b.system.pos)

    def test_ic_generation_isolated_from_global_rng(self):
        """Disk building must not consume or depend on global numpy
        random state."""
        from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

        np.random.seed(0)
        s1 = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=16, seed=9))
        np.random.seed(999)
        s2 = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=16, seed=9))
        assert np.array_equal(s1.pos, s2.pos)
        assert np.array_equal(s1.mass, s2.mass)
