"""Recovery: mask bad hardware, reload, re-evaluate, fall back to host.

The operational loop of a production GRAPE installation, reproduced in
software.  When a block's forces fail the sanity guard (or the hardware
raises), the :class:`RecoveryManager`:

1. reloads the j-distribution from the host's master copy — dead chips
   are skipped by the distribution layer, so masking plus reload
   re-routes their slice onto working silicon and cures j-memory
   corruption in one stroke;
2. re-evaluates the failed block on the remaining hardware;
3. if alive capacity no longer fits the particle set, degrades the
   machine to the host kernel permanently (``host_only``) — the run
   finishes slowly rather than dying;

and charges the re-evaluation to the timing model as overhead, so the
run's achieved-flops figure honestly reflects the lost time.
"""

from __future__ import annotations

import numpy as np

from ..errors import GrapeError, GrapeMemoryError
from ..grape.host import JWRITE_BYTES
from .detect import force_guard, scan_jmem

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Detection hooks + block re-evaluation for one machine."""

    def __init__(self, machine, obs=None, max_attempts: int = 2) -> None:
        self.machine = machine
        self.max_attempts = int(max_attempts)
        #: Set when alive hardware can no longer hold the particle set;
        #: from then on every block runs on the host kernel.
        self.host_only = False
        self.observe(obs)

    def observe(self, obs) -> None:
        from ..obs import NULL_OBS

        self.obs = obs or NULL_OBS
        m = self.obs.metrics
        self._c_detected = m.counter("faults.detected_total")
        self._c_recovered = m.counter("faults.recovered_total")
        self._c_reloads = m.counter("recovery.reloads_total")
        self._c_fallback = m.counter("recovery.host_fallback_total")
        self._c_sweeps = m.counter("recovery.selftest_sweeps_total")
        self._c_seconds = m.counter("recovery.seconds")

    # -- detection -------------------------------------------------------

    def check_forces(self, acc: np.ndarray, jerk: np.ndarray) -> None:
        """Per-block sanity guard (raises HardwareFaultError on garbage)."""
        force_guard(acc, jerk)

    # -- recovery --------------------------------------------------------

    def _charge(self, n_active: int, n_total: int) -> None:
        """Price the re-evaluation + reload as timing-model overhead."""
        m = self.machine
        step = m.timing_model.block_step(n_active, n_total)
        reload_s = n_total * JWRITE_BYTES / m.timing_model.pci_bandwidth
        m.totals.add_overhead(
            host=step.host,
            pci=step.pci + reload_s,
            lvds=step.lvds,
            pipe=step.pipe,
            gbe=step.gbe,
        )
        total = step.total + reload_s
        self._c_seconds.inc(total)
        if self.obs.enabled:
            self.obs.tracer.model_span(
                "recovery.reevaluate",
                total,
                attrs={"n_active": int(n_active), "n_total": int(n_total)},
            )

    def recover_block(self, system, active, t_now: float, exc: GrapeError):
        """Re-evaluate a failed block; returns ``(acc, jerk)``.

        Raises the detection error onward only if even the host kernel
        produces garbage (i.e. the problem is not hardware).
        """
        active = np.asarray(active)
        m = self.machine
        self._c_detected.inc()
        with self.obs.tracer.span(
            "recovery.block",
            error=type(exc).__name__,
            bad_chips=len(scan_jmem(m)),
        ):
            if not self.host_only:
                for _ in range(self.max_attempts):
                    try:
                        m.load(system)
                        self._c_reloads.inc()
                        if m.mode == "flat":
                            acc, jerk = m._compute_flat(system, active, t_now)
                        else:
                            acc, jerk = m._compute_hierarchy(system, active, t_now)
                        force_guard(acc, jerk)
                    except GrapeMemoryError:
                        self.host_only = True
                        break
                    except GrapeError:
                        continue
                    else:
                        self._charge(active.size, system.n)
                        self._c_recovered.inc()
                        return acc, jerk
            # Host-kernel fallback: correct but slow — exactly what the
            # operators did when a whole board was pulled mid-run.
            acc, jerk = m._compute_flat(system, active, t_now)
            force_guard(acc, jerk)
            self._c_fallback.inc()
            self._c_recovered.inc()
            self._charge(active.size, system.n)
            return acc, jerk

    # -- in-run self-test ------------------------------------------------

    def selftest_sweep(self, system, n_vectors: int = 8, rel_tol: float | None = None):
        """Self-test every chip mid-run, mask failures, restore j-memory.

        Returns the :class:`~repro.grape.selftest.SelfTestReport`
        (``None`` in flat mode — no per-chip hardware exists).  The test
        vectors clobber resident j-memory, so the live ``system`` is
        reloaded afterwards; if masking shrank capacity below the
        particle set, the machine degrades to ``host_only``.
        """
        from ..grape.selftest import self_test

        m = self.machine
        if not m.clusters or self.host_only:
            return None
        if rel_tol is None:
            rel_tol = 1e-3 if m.emulate_precision else 1e-8
        report = self_test(
            m, n_vectors=n_vectors, seed=m._block_index, rel_tol=rel_tol
        )
        for rep in report.failures():
            chip = (
                m.clusters[rep.cluster]
                .nodes[rep.node]
                .boards[rep.board]
                .chips[rep.chip]
            )
            chip.pipelines.mask_pipelines(chip.pipelines.n_pipelines)
        try:
            m.load(system)
        except GrapeMemoryError:
            self.host_only = True
        self._c_sweeps.inc()
        return report
