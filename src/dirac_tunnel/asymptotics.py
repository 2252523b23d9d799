"""Closed forms for the emergence of the packet peak from an opaque barrier.

For a wide barrier the transmitted amplitude is dominated by the window's
low-momentum end.  Expanding the integrand around p = 0 with the two
constants

    a1 = sqrt(v0 (v0 + 2 mass)) / (mass v0)    (slope of |t| at p = 0)
    a2 = 1 / (2 mass)                          (curvature of E(p) at p = 0)

reduces the packet amplitude at the downstream face to the elementary
moments

    s(n) = integral_0^mass q^n exp(-q width) dq
         = gamma_lower(n + 1, mass width) / width^(n + 1),

together with their wide-barrier limit n! / width^(n + 1).  The density
envelope P(t) = X(t)^2 + Y(t)^2, with X quadratic and Y linear in t, is a
quartic whose one local maximum is a root of the cubic dP/dt.  Stationarity
of its quadratic truncation gives the peak emergence time in closed form,
and with it the effective tunneling velocity, which saturates at 9/2 for
tall barriers: the origin of the superluminal transit predictions exercised
in :mod:`dirac_tunnel.transit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .kinematics import BarrierConfig, momentum_window

__all__ = [
    "SeriesCoefficients",
    "OpaqueSolution",
    "series_coefficients",
    "moment_s",
    "peak_functional",
    "opaque_tunneling_time",
    "opaque_tunneling_velocity",
    "maximize_peak_functional",
]

_MODES = ("exact", "asymptotic")


@dataclass(frozen=True)
class SeriesCoefficients:
    """Expansion constants of the opaque-barrier peak analysis."""

    a1: float
    a2: float


@dataclass(frozen=True)
class OpaqueSolution:
    """Peak emergence time ``tau`` at the downstream face and the
    wide-barrier tunneling velocity ``v`` (mode independent, see
    :func:`opaque_tunneling_velocity`); ``tau * v = width`` holds exactly
    in asymptotic mode."""

    tau: float
    v: float


def series_coefficients(cfg: BarrierConfig) -> SeriesCoefficients:
    """Expansion constants (a1, a2) of the barrier's opaque limit."""
    _, p_max = momentum_window(cfg)
    return SeriesCoefficients(
        a1=p_max / (cfg.mass * cfg.v0),
        a2=1.0 / (2.0 * cfg.mass),
    )


def _lower_gamma(k: int, x: float) -> float:
    """Lower incomplete gamma for integer order k >= 1 by upward recurrence.

    gamma(1, x) = 1 - exp(-x) and gamma(k+1, x) = k gamma(k, x) - x^k e^-x.
    Stable on the physical domain x = mass * L of order one and larger; for
    x << 1 each step cancels a factor ~x/k of precision.  Its one caller,
    :func:`moment_s`, has validated k and x.
    """
    decay = math.exp(-x)
    value = 1.0 - decay
    power = 1.0
    for j in range(1, k):
        power *= x
        value = j * value - power * decay
    return value


def moment_s(n: int, width: float, mass: float = 1.0, mode: str = "exact") -> float:
    """Moment s(n) of the opaque-limit expansion.

    ``exact`` evaluates gamma(n + 1, mass * width) / width^(n + 1); the
    ``asymptotic`` flavor replaces the incomplete gamma by the full
    n! (its wide-barrier limit), always an upper bound on the exact value.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"moment order must be a non-negative integer, got {n}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = int(n)
    if mode == "exact":
        head = _lower_gamma(n + 1, mass * width)
    else:
        head = float(math.factorial(n))
    return head / width ** (n + 1)


def _moments(width, coeffs, mode):
    return {n: moment_s(n, width, 1.0 / (2.0 * coeffs.a2), mode) for n in (2, 3, 4, 5, 6)}


def _envelope(width, coeffs, mode):
    """X and Y of the envelope P(t) = X(t)^2 + Y(t)^2, as polynomials in t."""
    s = _moments(width, coeffs, mode)
    a1, a2 = coeffs.a1, coeffs.a2
    x = Polynomial([s[2] - a1 * a1 * s[4] / 2.0, a1 * a2 * s[5], -a2 * a2 * s[6] / 2.0])
    y = Polynomial([-a1 * s[3], a2 * s[4]])
    return x, y


def peak_functional(
    t,
    width: float,
    coeffs: SeriesCoefficients,
    mode: str = "exact",
):
    """Density envelope of the emerging peak at the downstream face.

    The transmitted amplitude expanded to second order around the window's
    low-momentum end gives, up to a constant prefactor,

        P(t) = | s2 - [(a2 t)^2 s6 + a1^2 s4] / 2 + a1 a2 t s5
                 + i (a2 t s4 - a1 s3) |^2.

    Scalar ``t`` in, numpy float out; arrays map elementwise.  The mass of
    the moments is recovered from ``coeffs.a2 = 1 / (2 mass)``.  The
    absolute scale is arbitrary; only the position of the maximum carries
    physics.
    """
    x, y = _envelope(width, coeffs, mode)
    t = np.asarray(t, dtype=float)
    return (x(t) ** 2 + y(t) ** 2)[()]


def _expansion_coefficients(width, coeffs, mode):
    """(c1, c2) of P(t) ~ c0 + c1 t + c2 t^2, consistently quadratic in
    the small parameters a1 and a2 t."""
    s = _moments(width, coeffs, mode)
    a1, a2 = coeffs.a1, coeffs.a2
    c1 = 2.0 * a1 * a2 * (s[2] * s[5] - s[3] * s[4])
    c2 = a2 * a2 * (s[4] * s[4] - s[2] * s[6])
    return c1, c2


def opaque_tunneling_time(
    width: float,
    coeffs: SeriesCoefficients,
    mode: str = "asymptotic",
) -> OpaqueSolution:
    """Stationary point of the expanded peak functional.

    In asymptotic mode the moments collapse to factorials and the time
    reduces to the closed form a1 * width / (9 a2), so the emergence
    velocity ``width / tau`` is the width-independent constant 9 a2 / a1.
    Exact mode keeps the incomplete-gamma moments (the particle mass is
    recovered from ``a2 = 1 / (2 mass)``), shifting tau by a relative
    O(exp(-mass * width)) amount.  :func:`moment_s` validates ``mode``.
    """
    c1, c2 = _expansion_coefficients(width, coeffs, mode)
    tau = -c1 / (2.0 * c2)
    return OpaqueSolution(tau=tau, v=9.0 * coeffs.a2 / coeffs.a1)


def opaque_tunneling_velocity(cfg: BarrierConfig) -> float:
    """Wide-barrier tunneling velocity (9/2) sqrt(v0 / (v0 + 2 mass)).

    Exceeds 1 whenever v0 / mass > 8 / 77, so it is superluminal for every
    barrier this library covers, and saturates at 9/2 for v0 >> mass.
    """
    return 4.5 * math.sqrt(cfg.v0 / (cfg.v0 + 2.0 * cfg.mass))


def maximize_peak_functional(
    width: float,
    coeffs: SeriesCoefficients,
    mode: str = "exact",
    bracket: tuple[float, float] | None = None,
) -> float:
    """Maximum of the full peak functional, the root of the cubic dP/dt at
    which d^2P/dt^2 < 0 (the quartic P has at most one).

    Raises ``ValueError`` when P has no local maximum or when it lies outside
    ``bracket``.  The default bracket [0, 10 a1 width / (9 a2)] spans ten
    times the stationary-point prediction.  Agreement with
    :func:`opaque_tunneling_time` is up to the higher-order terms the
    quadratic expansion drops, a relative O((a1 / width)^2).
    """
    if bracket is None:
        bracket = (0.0, 10.0 * coeffs.a1 * width / (9.0 * coeffs.a2))
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"empty bracket {bracket}")
    x, y = _envelope(width, coeffs, mode)
    slope = (x * x + y * y).deriv()
    roots = slope.roots()
    peaks = roots.real[(roots.imag == 0.0) & (slope.deriv()(roots.real) < 0.0)]
    if peaks.size == 0:
        raise ValueError(f"the peak functional has no maximum at width {width}")
    if not lo <= peaks[0] <= hi:
        raise ValueError(f"the maximum at t = {peaks[0]} lies outside {bracket}")
    return float(peaks[0])
