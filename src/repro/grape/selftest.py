"""Hardware self-test: bring-up diagnostics for a GRAPE-6 machine.

Real special-purpose hardware ships with test programs (the paper's
Figure 8 shows "the GRAPE-6 processor board under testing").  This
module provides the simulator's equivalent: push known test vectors
through every chip of a machine and compare against the host reference
kernel, reporting per-chip pass/fail — which is how masked-pipeline or
mis-seated-board conditions are found before a production run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.forces import acc_jerk
from ..errors import GrapeError

__all__ = ["ChipReport", "SelfTestReport", "self_test"]


@dataclass(frozen=True)
class ChipReport:
    """Result of testing one chip."""

    cluster: int
    node: int
    board: int
    chip: int
    ok: bool
    max_rel_error: float
    n_resident: int
    active_pipelines: int
    #: Chip was skipped because every pipeline is masked.  Masked chips
    #: count as ``ok`` (they are excluded from the j-distribution, so
    #: they cannot corrupt results) but are reported separately.
    masked: bool = False


@dataclass
class SelfTestReport:
    """Aggregate of a full machine self-test."""

    chips: list = field(default_factory=list)

    @property
    def n_tested(self) -> int:
        return len(self.chips)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.chips if not c.ok)

    @property
    def n_masked(self) -> int:
        return sum(1 for c in self.chips if c.masked)

    @property
    def all_ok(self) -> bool:
        return self.n_failed == 0

    def failures(self) -> list:
        return [c for c in self.chips if not c.ok]

    def masked_chips(self) -> list:
        return [c for c in self.chips if c.masked]

    def summary(self) -> str:
        status = "PASS" if self.all_ok else "FAIL"
        masked = f", {self.n_masked} masked" if self.n_masked else ""
        return (
            f"GRAPE-6 self-test: {status} "
            f"({self.n_tested - self.n_failed}/{self.n_tested} chips ok{masked})"
        )


def self_test(
    machine,
    n_vectors: int = 24,
    seed: int = 0,
    rel_tol: float = 1e-10,
) -> SelfTestReport:
    """Run test vectors through every chip of a hierarchy-mode machine.

    Each chip receives a synthetic j-load and an i-block; its partial
    forces are checked against the host kernel evaluated on the same
    slice.  Requires ``mode="hierarchy"`` (in flat mode there is no
    per-chip hardware to test).

    With ``emulate_precision`` machines, pass a looser ``rel_tol``
    (~1e-3) — the short-mantissa datapath is *supposed* to round.

    .. warning::
       The test vectors overwrite resident j-memory (as the real test
       programs did).  Run before loading a simulation, or call
       ``machine.load(system)`` again afterwards (in-run sweeps,
       :meth:`repro.resilience.RecoveryManager.selftest_sweep`, do).
    """
    if not machine.clusters:
        raise GrapeError("self_test requires a hierarchy-mode machine")
    rng = np.random.default_rng(seed)
    report = SelfTestReport()

    for ci, ni, bi, chi, chip in machine.iter_chips():
        if chip.pipelines.is_dead:
            report.chips.append(
                ChipReport(
                    cluster=ci, node=ni, board=bi, chip=chi,
                    ok=True, max_rel_error=0.0, n_resident=0,
                    active_pipelines=0, masked=True,
                )
            )
            continue
        n_j = n_vectors
        key = np.arange(n_j, dtype=np.int64) + 1000
        mass = rng.uniform(0.5, 1.5, n_j)
        pos = rng.normal(size=(n_j, 3)) * 2.0
        vel = rng.normal(size=(n_j, 3)) * 0.3
        zero3 = np.zeros((n_j, 3))
        chip.jmem.load(key, mass, pos, vel, zero3, zero3, np.zeros(n_j))

        pos_i = rng.normal(size=(4, 3)) * 2.0 + 5.0
        vel_i = rng.normal(size=(4, 3)) * 0.3
        res = chip.compute(pos_i, vel_i, np.array([-1, -2, -3, -4]), t_now=0.0)
        a_ref, j_ref = acc_jerk(pos_i, vel_i, pos, vel, mass, machine.eps)
        scale = np.linalg.norm(a_ref, axis=1) + 1e-300
        err_a = float(np.max(np.linalg.norm(res.acc - a_ref, axis=1) / scale))
        jscale = np.linalg.norm(j_ref, axis=1) + 1e-300
        err_j = float(np.max(np.linalg.norm(res.jerk - j_ref, axis=1) / jscale))
        err = max(err_a, err_j)
        report.chips.append(
            ChipReport(
                cluster=ci, node=ni, board=bi, chip=chi,
                ok=err <= rel_tol, max_rel_error=err,
                n_resident=chip.n_resident,
                active_pipelines=chip.pipelines.active_pipelines,
            )
        )
    return report
