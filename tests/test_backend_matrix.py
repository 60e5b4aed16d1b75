"""Backend consistency matrix: one disk, every force engine.

The library's central contract: the physics must not depend on which
force engine runs it.  The bitwise equalities (host direct = GRAPE
flat = tree and hybrid at theta = 0; serial = threaded) and the GRAPE
hierarchy's floor are stated once, in ``tests/contracts.py``; the
tests named after them here hold them on this file's disk
(``contracts.MATRIX``).  What stays local:

* tree and hybrid at finite theta — same macro state (energy);
* distributed ring forces — equal at a single force evaluation;
* every backend conserves energy.
"""

from dataclasses import replace

import numpy as np
import pytest
from contracts import MATRIX, check

from repro.baselines import TreeBackend
from repro.core import HostDirectBackend, energy
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.hybrid import HybridBackend


def run_with(backend):
    sim = MATRIX.simulation(backend)
    sim.evolve(MATRIX.t_end)
    return sim


def final_energy(sim):
    return energy(sim.predicted_state(MATRIX.t_end), MATRIX.eps,
                  sim.external_field).total


@pytest.fixture(scope="module")
def reference():
    return run_with(HostDirectBackend(eps=MATRIX.eps))


class TestBackendMatrix:
    def test_grape_flat_bitwise(self):
        check("grape_flat_is_host", MATRIX)

    def test_grape_hierarchy_close(self):
        check("grape_hierarchy_near_host", MATRIX)

    def test_tree_theta_zero_close(self):
        """Bitwise, like the hybrid's (``theta_zero_is_direct``)."""
        check("theta_zero_is_direct", MATRIX)

    def test_tree_finite_theta_physical(self, reference):
        """theta = 0.4: same macro state (energy) despite force error."""
        sim = run_with(TreeBackend(eps=MATRIX.eps, theta=0.4))
        assert final_energy(sim) == pytest.approx(final_energy(reference), rel=1e-4)

    def test_hybrid_theta_zero_close(self):
        """Bitwise, for a neighbour radius that holds pairs too."""
        *_, hybrid = check("theta_zero_is_direct", replace(MATRIX, r_neighbour=2.0))
        assert hybrid.near > 0

    def test_hybrid_finite_theta_physical(self, reference):
        """theta = 0.5: same macro state (energy) despite force error."""
        sim = run_with(HybridBackend(eps=MATRIX.eps, theta=0.5, r_neighbour=0.05))
        assert final_energy(sim) == pytest.approx(final_energy(reference), rel=1e-4)

    def test_hybrid_thread_count_invariant(self):
        """REPRO_KERNEL_THREADS must not change hybrid trajectories."""
        check("hybrid_serial_is_threaded",
              replace(MATRIX, theta=0.4, r_neighbour=0.1, threads=4))

    def test_ring_single_evaluation(self):
        from repro.core.forces import acc_jerk
        from repro.parallel import ring_forces

        s = MATRIX.system()
        a_ref, j_ref = acc_jerk(
            s.pos, s.vel, s.pos, s.vel, s.mass, MATRIX.eps,
            self_indices=np.arange(s.n),
        )
        res = ring_forces(s.pos, s.vel, s.mass, MATRIX.eps, n_ranks=4)
        assert np.allclose(res.acc, a_ref, rtol=1e-12, atol=1e-18)
        assert np.allclose(res.jerk, j_ref, rtol=1e-12, atol=1e-18)

    def test_all_backends_conserve_energy(self):
        backends = [
            HostDirectBackend(eps=MATRIX.eps),
            Grape6Backend(
                Grape6Machine(Grape6Config.single_board(), eps=MATRIX.eps, mode="flat")
            ),
            TreeBackend(eps=MATRIX.eps, theta=0.2),
            HybridBackend(eps=MATRIX.eps, theta=0.2, r_neighbour=0.05),
        ]
        for backend in backends:
            sim = MATRIX.simulation(backend)
            e0 = energy(sim.system, MATRIX.eps, sim.external_field).total
            sim.evolve(MATRIX.t_end)
            sim.synchronize(MATRIX.t_end)
            e1 = energy(sim.system, MATRIX.eps, sim.external_field).total
            assert abs(e1 - e0) / abs(e0) < 1e-5, type(backend).__name__
