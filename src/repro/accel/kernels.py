"""Allocation-free tile kernels over :class:`~repro.accel.workspace.TileView`.

Each function evaluates one ``(n_i, n_j)`` interaction tile entirely in
preallocated workspace buffers (``out=`` ufunc and einsum forms) and
**adds** its contribution into caller-owned accumulators.  There is one
tile per thing a force path computes — force + jerk
(:func:`acc_jerk_tile`), the quadrupole term of a tree node
(:func:`quad_tile`) and the potential (:func:`potential_tile`) — and
the maths is identical to :mod:`repro.core.forces`; only the memory
discipline differs.

Memory layout: every pairwise quantity is a C-contiguous ``(rows,
cols)`` *component plane* of the tile view (``dx``/``dy``/``dz``,
``dvx``/``dvy``/``dvz`` and five scalar planes), so each pass below is a
unit-stride stream.  Dot products are ``multiply`` / ``+=`` passes in
fixed x, y, z order and row sums one ``einsum("ij,ij->i")`` per
component; a row's sum depends only on that row, never on how the sinks
were tiled.  The force is summed as ``sum_j (m_j / r^3) dr_ij`` directly
— not the BLAS-shaped ``sum_j (m_j / r^3) x_j - x_i sum_j (m_j / r^3)``,
which loses ``|x| / |dr|`` digits to cancellation for close neighbours
in a disk far from the origin.  :data:`TILE_PLANES` records how many
planes each op streams (the ``kernel.tile_bytes_total`` accounting).

Self-interactions are excluded the same way as the reference kernels:
the softened ``r2`` entry of an (i, i) pair is set to ``inf``, which
drives every downstream term (including the jerk's ``rv/r2``) to an
exact zero.

The fused-prediction helper :func:`predict_sources` evaluates the
GRAPE-6 on-chip predictor polynomial for one j-chunk inside the force
loop, so small active blocks never pay a full-system ``pred_pos`` /
``pred_vel`` sweep.  It reuses the exact expression of
:mod:`repro.core.predictor` so fused and unfused paths agree bit for
bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TILE_PLANES",
    "ROW_KERNEL_OPS",
    "ROW_KERNEL_VALUES",
    "QUAD_VALUES",
    "PREDICTOR_VALUES",
    "tile_mask",
    "acc_jerk_tile",
    "potential_tile",
    "quad_tile",
    "predict_sources",
]


#: ``(rows, cols)`` float64 planes the tile pass of each engine op
#: touches — the table behind ``kernel.tile_bytes_total`` (pairs x 8
#: bytes x planes).  Keep it next to the kernels it describes.
_ACC_JERK_PLANES = 11  # dx dy dz dvx dvy dvz r2 rv s mr3 w
TILE_PLANES = {
    "acc_jerk": _ACC_JERK_PLANES,
    "acc_jerk_active": _ACC_JERK_PLANES,
    "acc_jerk_masked": _ACC_JERK_PLANES,
    "node_force": _ACC_JERK_PLANES,  # quad_tile reuses the monopole planes
    "potential": 6,  # dx dy dz r2 s mr3
}

#: Ops whose pair loop is the native row kernel on the native tier (as
#: is all of the native-only ``tree_force``): they stream no planes, only
#: the seven values (x y z vx vy vz m) it reads per source, plus the nine
#: moments of a quadrupole source.
ROW_KERNEL_OPS = frozenset(
    ("acc_jerk", "acc_jerk_active", "acc_jerk_masked", "node_force")
)
ROW_KERNEL_VALUES = 7
QUAD_VALUES = 9

#: The resident row the predictor of ``acc_jerk_active`` reads per
#: source and per sink (x v a j, t, m), on either tier.
PREDICTOR_VALUES = 14


def tile_mask(self_indices, i0: int, i1: int, j0: int, j1: int):
    """Local ``(rows, cols)`` coordinates of excluded self-pairs.

    ``self_indices`` maps sink rows to their global source column; the
    tile covers sink rows ``[i0, i1)`` against source columns
    ``[j0, j1)``.  Returns ``None`` when no self-pair lands in the
    tile.
    """
    if self_indices is None:
        return None
    sel = self_indices[i0:i1]
    inside = (sel >= j0) & (sel < j1)
    if not inside.any():
        return None
    return np.nonzero(inside)[0], sel[inside] - j0


def _differences(a_i, a_j, out_x, out_y, out_z) -> None:
    """``a_j - a_i`` of two ``(n, 3)`` arrays into three component planes."""
    np.subtract(a_j[None, :, 0], a_i[:, None, 0], out=out_x)
    np.subtract(a_j[None, :, 1], a_i[:, None, 1], out=out_y)
    np.subtract(a_j[None, :, 2], a_i[:, None, 2], out=out_z)


def _dot(ax, ay, az, bx, by, bz, out, scratch) -> None:
    """``out = ax*bx + ay*by + az*bz`` summed in x, y, z order."""
    np.multiply(ax, bx, out=out)
    np.multiply(ay, by, out=scratch)
    out += scratch
    np.multiply(az, bz, out=scratch)
    out += scratch


def _row_sums(weight, px, py, pz, vec) -> None:
    """``vec[i, k] = sum_j weight[i, j] * p_k[i, j]`` for k = x, y, z."""
    np.einsum("ij,ij->i", weight, px, out=vec[:, 0])
    np.einsum("ij,ij->i", weight, py, out=vec[:, 1])
    np.einsum("ij,ij->i", weight, pz, out=vec[:, 2])


def _separations(tv, pos_i, pos_j, eps2: float, mask) -> None:
    """Fill ``tv.dx/dy/dz`` and softened ``tv.r2`` (self-pairs at inf).

    Clobbers ``tv.s`` (dot-product scratch; dead until the ``sqrt``).
    """
    _differences(pos_i, pos_j, tv.dx, tv.dy, tv.dz)
    _dot(tv.dx, tv.dy, tv.dz, tv.dx, tv.dy, tv.dz, tv.r2, tv.s)
    tv.r2 += eps2
    if mask is not None:
        tv.r2[mask] = np.inf


def acc_jerk_tile(
    tv, pos_i, vel_i, pos_j, vel_j, mass_j, eps2: float,
    acc_out, jerk_out, mask=None,
) -> None:
    """Add this tile's softened acceleration and jerk into the outputs."""
    _separations(tv, pos_i, pos_j, eps2, mask)
    _differences(vel_i, vel_j, tv.dvx, tv.dvy, tv.dvz)
    _dot(tv.dx, tv.dy, tv.dz, tv.dvx, tv.dvy, tv.dvz, tv.rv, tv.s)
    np.sqrt(tv.r2, out=tv.s)
    tv.s *= tv.r2  # r^3
    np.divide(mass_j[None, :], tv.s, out=tv.mr3)  # m_j / r^3
    _row_sums(tv.mr3, tv.dx, tv.dy, tv.dz, tv.vec1)
    acc_out += tv.vec1
    np.multiply(tv.mr3, tv.rv, out=tv.w)
    tv.w /= tv.r2
    tv.w *= 3.0
    _row_sums(tv.mr3, tv.dvx, tv.dvy, tv.dvz, tv.vec1)
    _row_sums(tv.w, tv.dx, tv.dy, tv.dz, tv.vec2)
    tv.vec1 -= tv.vec2
    jerk_out += tv.vec1


def potential_tile(tv, pos_i, pos_j, mass_j, eps2: float, phi_out, mask=None) -> None:
    """Subtract this tile's ``sum_j m_j / r`` from ``phi_out`` (phi is negative)."""
    _separations(tv, pos_i, pos_j, eps2, mask)
    np.sqrt(tv.r2, out=tv.s)
    np.divide(mass_j[None, :], tv.s, out=tv.mr3)  # m_j / r
    np.einsum("ij->i", tv.mr3, out=tv.row1)
    phi_out -= tv.row1


def quad_tile(tv, quad_j, acc_out) -> None:
    """Add one tile's traceless-quadrupole acceleration into ``acc_out``.

    ``quad_j`` holds the per-node moments ``Q = sum m (3 y y^T - |y|^2 I)``
    (mass included, so no extra mass factor appears here).  The term is

        ``a_quad = Q s / r^5 - 2.5 (s^T Q s) s / r^7``,  ``s = sink - com``,

    evaluated with ``s = -dr`` as ``-(Q dr)/r^5 + 2.5 (dr^T Q dr) dr / r^7``
    (negating before or after the contractions carries the same bits).

    Must run *directly after* :func:`acc_jerk_tile` on the same view: it
    reuses ``tv.dx`` / ``tv.dy`` / ``tv.dz`` (separations), ``tv.r2``
    (softened ``r^2``) and ``tv.s`` (``r^3``) left behind by the
    monopole pass, lands ``Q dr`` in ``tv.dvx`` / ``tv.dvy`` / ``tv.dvz``
    and clobbers ``tv.rv`` / ``tv.mr3`` (dot-product scratch) / ``tv.w``
    / ``tv.vec1`` / ``tv.vec2``.
    """
    for k, qdr in enumerate((tv.dvx, tv.dvy, tv.dvz)):  # Q dr, row k of Q
        _dot(
            quad_j[None, :, k, 0], quad_j[None, :, k, 1], quad_j[None, :, k, 2],
            tv.dx, tv.dy, tv.dz, qdr, tv.mr3,
        )
    _dot(tv.dx, tv.dy, tv.dz, tv.dvx, tv.dvy, tv.dvz, tv.rv, tv.mr3)  # dr^T Q dr
    np.multiply(tv.s, tv.r2, out=tv.w)  # r^5
    np.divide(1.0, tv.w, out=tv.w)
    _row_sums(tv.w, tv.dvx, tv.dvy, tv.dvz, tv.vec1)  # (Q dr) / r^5
    acc_out -= tv.vec1
    tv.w /= tv.r2  # 1 / r^7
    tv.w *= tv.rv
    tv.w *= 2.5
    _row_sums(tv.w, tv.dx, tv.dy, tv.dz, tv.vec2)
    acc_out += tv.vec2


def predict_sources(jpos, jvel, jsc, jdt, jdt6, pos, vel, acc, jerk, t, t_now: float):
    """Predict one j-chunk of sources to ``t_now`` inside the tile loop.

    ``jpos``/``jvel``/``jsc`` are ``(cols, 3)`` workspace buffers,
    ``jdt``/``jdt6`` are ``(cols,)`` scratch; the remaining arguments
    are the *chunk slices* of the system arrays.  Writes the 3rd/2nd
    order Taylor prediction into ``jpos`` / ``jvel`` and returns them.
    The expression mirrors
    :func:`repro.core.predictor.predict_positions` /
    ``predict_velocities`` term for term, so the fused path is
    bit-identical to a full ``predict_system`` sweep.
    """
    np.subtract(t_now, t, out=jdt)
    dt = jdt[:, None]
    # pos + dt*(vel + dt*(0.5*acc + (dt/6)*jerk)); every step below is
    # elementwise and either identical to or a commuted twin of the
    # reference expression (float add/mul are bitwise commutative, and
    # *0.5 is an exact scaling), so the results carry the same bits.
    np.divide(jdt, 6.0, out=jdt6)
    np.multiply(jerk, jdt6[:, None], out=jpos)
    np.multiply(acc, 0.5, out=jsc)
    jpos += jsc
    jpos *= dt
    jpos += vel
    jpos *= dt
    jpos += pos
    # vel + dt*(acc + 0.5*dt*jerk)
    np.multiply(jerk, 0.5, out=jvel)
    jvel *= dt
    jvel += acc
    jvel *= dt
    jvel += vel
    return jpos, jvel
