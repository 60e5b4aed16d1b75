"""Timestep selection and block (power-of-two) quantisation.

The paper's algorithm is the *block individual timestep* scheme
([McM86, Mak91] in the paper): each particle carries its own step, but
steps are forced to powers of two of a base step so that groups
("blocks") of particles share update times and can be advanced in
parallel — on GRAPE-6, fed to the pipelines as one i-particle batch.

Two criteria are implemented:

* the startup criterion ``dt = eta_s * |a| / |j|`` (only the force and
  jerk are known before the first step), and
* the standard **Aarseth criterion**

  .. math::

      \\Delta t = \\sqrt{\\eta\\,
          \\frac{|\\mathbf{a}||\\mathbf{a}^{(2)}| + |\\dot{\\mathbf{a}}|^2}
               {|\\dot{\\mathbf{a}}||\\mathbf{a}^{(3)}| + |\\mathbf{a}^{(2)}|^2}},

  evaluated with end-of-step derivatives from the Hermite corrector.

Block rules enforced by :func:`quantize`:

1. ``dt`` is ``dt_max / 2**k`` for an integer ``k >= 0``;
2. a particle's new time ``t + dt`` must be commensurate with the block
   grid, i.e. a step may only *grow* (double) when the particle's current
   time is divisible by the doubled step;
3. steps never exceed ``dt_max`` nor shrink below ``dt_min``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "TimestepParams",
    "aarseth_dt",
    "startup_dt",
    "quantize",
]


class TimestepParams:
    """Bundle of timestep-control parameters.

    Parameters
    ----------
    eta:
        Aarseth accuracy parameter for regular steps (typical 0.01–0.05).
    eta_start:
        Accuracy parameter for the startup criterion (usually smaller).
    dt_max:
        Largest allowed step; also the block grid unit.  Must be a power
        of two times ``dt_min``.  The default (1 code time unit, about
        1/560th of an orbit at 20 AU) suits the paper's disk problem.
    dt_min:
        Smallest allowed step (floor to keep close encounters from
        stalling the integration).
    """

    __slots__ = ("eta", "eta_start", "dt_max", "dt_min", "max_level")

    def __init__(
        self,
        eta: float = 0.02,
        eta_start: float = 0.01,
        dt_max: float = 1.0,
        dt_min: float = 2.0**-30,
    ) -> None:
        if eta <= 0 or eta_start <= 0:
            raise ConfigurationError("eta parameters must be positive")
        if dt_max <= 0 or dt_min <= 0 or dt_min > dt_max:
            raise ConfigurationError("need 0 < dt_min <= dt_max")
        ratio = dt_max / dt_min
        level = round(np.log2(ratio))
        if not np.isclose(2.0**level, ratio):
            raise ConfigurationError("dt_max / dt_min must be a power of two")
        self.eta = float(eta)
        self.eta_start = float(eta_start)
        self.dt_max = float(dt_max)
        self.dt_min = float(dt_min)
        self.max_level = int(level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimestepParams(eta={self.eta}, eta_start={self.eta_start}, "
            f"dt_max={self.dt_max}, dt_min={self.dt_min})"
        )


def _norm(x: np.ndarray) -> np.ndarray:
    """Row norms of ``(n, 3)`` (or one bare vector): the two ufunc calls
    ``np.linalg.norm(x, axis=1)`` makes for real input, without its
    wrapper — same primitives, same bits."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None]
    return np.sqrt(np.add.reduce(x * x, axis=1))


def aarseth_dt(
    acc: np.ndarray,
    jerk: np.ndarray,
    snap: np.ndarray,
    crackle: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Aarseth (1985) timestep from force derivatives, shape ``(n,)``.

    Degenerate cases (all derivatives zero, e.g. an isolated unperturbed
    particle) return ``inf`` so the caller's ``dt_max`` cap applies.
    """
    a = _norm(acc)
    j = _norm(jerk)
    s = _norm(snap)
    c = _norm(crackle)
    num = a * s + j**2
    den = j * c + s**2
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.sqrt(eta * num / den)
    dt[den == 0.0] = np.inf
    # num == 0 with den > 0 gives dt = 0, which would stall; treat as inf.
    dt[(num == 0.0)] = np.inf
    return dt


def startup_dt(acc: np.ndarray, jerk: np.ndarray, eta_start: float) -> np.ndarray:
    """Initial timestep ``eta_s * |a| / |j|`` (only a, j known at t=0)."""
    a = _norm(acc)
    j = _norm(jerk)
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = eta_start * a / j
    dt[j == 0.0] = np.inf
    dt[a == 0.0] = np.inf
    return dt


def quantize(
    dt_desired: np.ndarray,
    t_now: np.ndarray,
    dt_current: np.ndarray | None,
    params: TimestepParams,
) -> np.ndarray:
    """Quantise desired steps onto the block grid.

    Parameters
    ----------
    dt_desired:
        Raw criterion output (positive, possibly ``inf``).
    t_now:
        Current times of the particles (after their step), used for the
        commensurability rule.
    dt_current:
        The steps just completed; ``None`` on startup.  A step may at most
        double relative to ``dt_current``, and only when ``t_now`` is
        divisible by the doubled step.

    Returns
    -------
    Quantised steps, each ``dt_max / 2**k`` clipped to
    ``[dt_min, dt_max]``.
    """
    dt_desired = np.asarray(dt_desired, dtype=np.float64)
    t_now = np.asarray(t_now, dtype=np.float64)

    # Bound first (fmax/fmin send a NaN to dt_min, where the clip +
    # floor + clip this replaces sent it too), then floor: everything is
    # positive and finite by now, and the floor of a value within
    # [dt_min, dt_max] stays in range because both bounds are powers of
    # two of each other.
    dt = np.fmin(np.fmax(dt_desired, params.dt_min), params.dt_max)
    dt = 2.0 ** np.floor(np.log2(dt))

    if dt_current is not None:
        dt_current = np.asarray(dt_current, dtype=np.float64)
        grow = dt > dt_current
        if grow.any():
            doubled = dt_current[grow] * 2.0
            # commensurability: t must sit on the doubled-step grid
            steps = t_now[grow] / doubled
            ok = np.isclose(steps, np.round(steps), rtol=0.0, atol=1e-9)
            allowed = np.where(ok, doubled, dt_current[grow])
            dt[grow] = np.minimum(dt[grow], allowed)
    return dt
