"""Keplerian orbital mechanics: elements ↔ Cartesian conversions.

Used by the initial-condition generators (place planetesimals on nearly
circular, nearly coplanar heliocentric orbits) and by the analysis code
(extract eccentricity/inclination evolution and detect scattered
orbits).  All functions are vectorised over the leading axis and work in
code units (G = 1, central mass ``mu = G*M`` given explicitly).

Conventions: standard ecliptic elements
``(a, e, inc, Omega, omega, M)`` — semi-major axis, eccentricity,
inclination, longitude of ascending node, argument of pericentre, mean
anomaly; angles in radians.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "OrbitalElements",
    "solve_kepler",
    "elements_to_cartesian",
    "cartesian_to_elements",
    "propagate_kepler",
]


class OrbitalElements(NamedTuple):
    """Bundle of orbital-element arrays (all shape ``(n,)``)."""

    a: np.ndarray  #: semi-major axis (negative for hyperbolic orbits)
    e: np.ndarray  #: eccentricity
    inc: np.ndarray  #: inclination [rad]
    Omega: np.ndarray  #: longitude of ascending node [rad]
    omega: np.ndarray  #: argument of pericentre [rad]
    M: np.ndarray  #: mean anomaly [rad]


def solve_kepler(mean_anomaly: np.ndarray, e: np.ndarray, tol: float = 1e-13, max_iter: int = 64) -> np.ndarray:
    """Solve Kepler's equation ``E - e sin E = M`` for elliptic orbits.

    Newton–Raphson with a Danby-style starting guess; converges to
    ``tol`` in a handful of iterations for all ``0 <= e < 1``.

    Returns the eccentric anomaly ``E`` with the same shape as ``M``.
    """
    M = np.asarray(mean_anomaly, dtype=np.float64)
    e = np.broadcast_to(np.asarray(e, dtype=np.float64), M.shape)
    if np.any((e < 0) | (e >= 1)):
        raise ConfigurationError("solve_kepler requires 0 <= e < 1")
    # Wrap M into [-pi, pi) for a well-behaved starting guess.
    M_wrapped = np.mod(M + np.pi, 2.0 * np.pi) - np.pi
    E = M_wrapped + 0.85 * e * np.sign(M_wrapped)
    E = np.where(M_wrapped == 0.0, 0.0, E)
    for _ in range(max_iter):
        f = E - e * np.sin(E) - M_wrapped
        fp = 1.0 - e * np.cos(E)
        dE = f / fp
        E = E - dE
        if np.all(np.abs(dE) < tol):
            break
    return E + (M - M_wrapped)


def elements_to_cartesian(
    elements: OrbitalElements, mu: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Heliocentric position and velocity from orbital elements.

    Returns ``(pos, vel)`` with shapes ``(n, 3)``.
    """
    a = np.asarray(elements.a, dtype=np.float64)
    e = np.asarray(elements.e, dtype=np.float64)
    inc = np.asarray(elements.inc, dtype=np.float64)
    Om = np.asarray(elements.Omega, dtype=np.float64)
    om = np.asarray(elements.omega, dtype=np.float64)
    M = np.asarray(elements.M, dtype=np.float64)
    if np.any(a <= 0):
        raise ConfigurationError("elements_to_cartesian requires elliptic orbits (a > 0)")

    E = solve_kepler(M, e)
    cosE, sinE = np.cos(E), np.sin(E)
    # Perifocal coordinates.
    b_over_a = np.sqrt(1.0 - e**2)
    x_pf = a * (cosE - e)
    y_pf = a * b_over_a * sinE
    r = a * (1.0 - e * cosE)
    n_mot = np.sqrt(mu / a**3)
    vx_pf = -a * n_mot * sinE * a / r
    vy_pf = a * n_mot * b_over_a * cosE * a / r

    cO, sO = np.cos(Om), np.sin(Om)
    co, so = np.cos(om), np.sin(om)
    ci, si = np.cos(inc), np.sin(inc)

    # Rotation matrix perifocal -> ecliptic, applied per particle.
    r11 = cO * co - sO * so * ci
    r12 = -cO * so - sO * co * ci
    r21 = sO * co + cO * so * ci
    r22 = -sO * so + cO * co * ci
    r31 = so * si
    r32 = co * si

    pos = np.stack(
        [r11 * x_pf + r12 * y_pf, r21 * x_pf + r22 * y_pf, r31 * x_pf + r32 * y_pf],
        axis=-1,
    )
    vel = np.stack(
        [r11 * vx_pf + r12 * vy_pf, r21 * vx_pf + r22 * vy_pf, r31 * vx_pf + r32 * vy_pf],
        axis=-1,
    )
    return pos, vel


def propagate_kepler(
    pos: np.ndarray, vel: np.ndarray, dt: float, mu: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Analytically advance bound two-body orbits by ``dt``.

    Exact (to round-off) propagation along the Keplerian ellipse via
    the element representation: convert to elements, advance the mean
    anomaly by ``n * dt``, convert back.  All orbits must be elliptic.

    The integrator's two-body validation tests use this as ground
    truth; it is also the cheap way to move test particles through a
    pure solar field.
    """
    el = cartesian_to_elements(pos, vel, mu=mu)
    if np.any((el.e >= 1.0) | (el.a <= 0.0)):
        raise ConfigurationError("propagate_kepler requires bound orbits")
    n_motion = np.sqrt(mu / el.a**3)
    advanced = OrbitalElements(
        a=el.a,
        e=el.e,
        inc=el.inc,
        Omega=el.Omega,
        omega=el.omega,
        M=np.mod(el.M + n_motion * dt, 2.0 * np.pi),
    )
    return elements_to_cartesian(advanced, mu=mu)


def cartesian_to_elements(pos: np.ndarray, vel: np.ndarray, mu: float = 1.0) -> OrbitalElements:
    """Orbital elements from heliocentric position and velocity.

    Hyperbolic orbits get ``a < 0``, ``e > 1`` and a mean anomaly of NaN
    (the elliptic mean anomaly is undefined); the scattering analysis
    keys off ``e > 1`` / ``a < 0`` to count ejections.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    vel = np.atleast_2d(np.asarray(vel, dtype=np.float64))

    r = np.linalg.norm(pos, axis=1)
    v2 = np.einsum("ij,ij->i", vel, vel)
    rv = np.einsum("ij,ij->i", pos, vel)

    # Specific angular momentum.
    h_vec = np.cross(pos, vel)
    h = np.linalg.norm(h_vec, axis=1)

    # Semi-major axis from the vis-viva energy.
    energy_ = 0.5 * v2 - mu / r
    with np.errstate(divide="ignore"):
        a = -0.5 * mu / energy_
    a[energy_ == 0.0] = np.inf

    # Eccentricity vector.
    e_vec = (np.cross(vel, h_vec) / mu) - pos / r[:, None]
    e = np.linalg.norm(e_vec, axis=1)

    # Inclination; a radial orbit (h = 0) has no orbital plane and
    # reports 0, like the undefined node of a planar orbit below.
    with np.errstate(invalid="ignore"):
        inc = np.arccos(np.clip(h_vec[:, 2] / h, -1.0, 1.0))
    inc[h == 0.0] = 0.0

    # Node vector (points to the ascending node).
    node = np.stack([-h_vec[:, 1], h_vec[:, 0], np.zeros_like(h)], axis=-1)
    node_norm = np.linalg.norm(node, axis=1)
    planar = node_norm < 1e-14  # equatorial orbit: node undefined
    safe_node = np.where(planar[:, None], np.array([1.0, 0.0, 0.0]), node)
    safe_node_norm = np.where(planar, 1.0, node_norm)

    Omega = np.arctan2(safe_node[:, 1], safe_node[:, 0])
    Omega = np.where(planar, 0.0, Omega)

    # Argument of pericentre from node and eccentricity vectors.
    circular = e < 1e-14
    safe_e_vec = np.where(circular[:, None], safe_node, e_vec)
    safe_e = np.where(circular, 1.0, np.where(e == 0.0, 1.0, e))
    cos_om = np.einsum("ij,ij->i", safe_node, safe_e_vec) / (safe_node_norm * np.linalg.norm(safe_e_vec, axis=1))
    omega = np.arccos(np.clip(cos_om, -1.0, 1.0))
    omega = np.where(safe_e_vec[:, 2] < 0.0, 2.0 * np.pi - omega, omega)
    omega = np.where(circular, 0.0, omega)

    # True anomaly -> eccentric -> mean (elliptic only).
    cos_nu = np.einsum("ij,ij->i", safe_e_vec, pos) / (np.linalg.norm(safe_e_vec, axis=1) * r)
    nu = np.arccos(np.clip(cos_nu, -1.0, 1.0))
    nu = np.where(rv < 0.0, 2.0 * np.pi - nu, nu)

    elliptic = (e < 1.0) & (a > 0.0)
    M = np.full_like(r, np.nan)
    if np.any(elliptic):
        ee = e[elliptic]
        tan_half_E = np.sqrt((1.0 - ee) / (1.0 + ee)) * np.tan(nu[elliptic] / 2.0)
        E = 2.0 * np.arctan(tan_half_E)
        M[elliptic] = E - ee * np.sin(E)
    M = np.mod(M, 2.0 * np.pi)

    return OrbitalElements(a=a, e=e, inc=inc, Omega=Omega, omega=omega, M=M)
