"""Alternative softening kernels: the compact cubic spline.

The paper uses Plummer softening (``1/(r^2+eps^2)^{3/2}``, never exactly
Newtonian).  The other standard choice — used by tree/SPH codes of the
same era (Hernquist & Katz 1989; GADGET) — is the **cubic-spline**
kernel: exactly Newtonian beyond the softening length ``h`` and
polynomial inside.  Having both lets the ablation tests show what the
paper's softening choice does and does not affect.

The force factor (acceleration = ``m * g(r) * dr`` with ``u = r/h``):

.. math::

    g(r) = \\frac{1}{h^3}\\times\\begin{cases}
      \\frac{32}{3} + u^2(32 u - \\frac{192}{5}) & u < \\tfrac12 \\\\
      \\frac{64}{3} - 48 u + \\frac{192}{5} u^2 - \\frac{32}{3} u^3
          - \\frac{1}{15 u^3} & \\tfrac12 \\le u < 1 \\\\
      1/u^3 & u \\ge 1,
    \\end{cases}

continuous at both break points and equal to ``1/r^3`` outside ``h``.

No force backend calls the spline, so :func:`acc_spline` is its one
implementation — chunked NumPy broadcasting, like
:func:`repro.core.forces.acc_only` — and the :mod:`repro.accel` engine
has no spline op.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .forces import _fill_self_pairs, _i_chunk_size

__all__ = ["spline_force_factor", "acc_spline"]


def spline_force_factor(u: np.ndarray) -> np.ndarray:
    """Dimensionless g(u) such that ``acc = m * g(u)/h^3 * dr``.

    ``u = r/h``; returns ``1/u^3`` for ``u >= 1`` (Newtonian branch).
    ``u = 0`` returns the finite central value 32/3.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0):
        raise ConfigurationError("u must be non-negative")
    out = np.empty_like(u)

    inner = u < 0.5
    mid = (u >= 0.5) & (u < 1.0)
    outer = u >= 1.0

    ui = u[inner]
    out[inner] = 32.0 / 3.0 + ui * ui * (32.0 * ui - 192.0 / 5.0)

    um = u[mid]
    out[mid] = (
        64.0 / 3.0
        - 48.0 * um
        + (192.0 / 5.0) * um * um
        - (32.0 / 3.0) * um**3
        - 1.0 / (15.0 * um**3)
    )

    uo = u[outer]
    with np.errstate(divide="ignore"):
        out[outer] = 1.0 / (uo**3)
    return out


def acc_spline(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    mass_j: np.ndarray,
    h: float,
    self_indices: np.ndarray | None = None,
    counter=None,
) -> np.ndarray:
    """Spline-softened acceleration on sinks ``i`` from sources ``j``.

    Exactly Newtonian for separations beyond ``h``; finite (linear in
    ``r``) at the centre.  Arguments mirror
    :func:`repro.core.forces.acc_only`, including the ``counter`` for
    flop accounting (38-op convention, no jerk).
    """
    if h <= 0:
        raise ConfigurationError("spline softening length must be positive")
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    pos_j = np.atleast_2d(np.asarray(pos_j, dtype=np.float64))
    mass_j = np.asarray(mass_j, dtype=np.float64)

    n_i, n_j = pos_i.shape[0], pos_j.shape[0]
    acc = np.zeros((n_i, 3))
    inv_h3 = 1.0 / h**3

    chunk = _i_chunk_size(n_j)
    for start in range(0, n_i, chunk):
        stop = min(start + chunk, n_i)
        dr = pos_j[None, :, :] - pos_i[start:stop, None, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", dr, dr))
        g = spline_force_factor(r / h) * inv_h3
        _fill_self_pairs(g, self_indices, start, stop, 0.0)
        acc[start:stop] = np.einsum("ij,ijk->ik", mass_j[None, :] * g, dr)

    if counter is not None:
        counter.add(n_i, n_j, with_jerk=False)
    return acc
