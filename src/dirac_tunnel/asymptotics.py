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
quartic.  Stationarity of its quadratic truncation gives the peak emergence
time in closed form, and with it the effective tunneling velocity, which
saturates at 9/2 for tall barriers: the origin of the superluminal transit
predictions exercised in :mod:`dirac_tunnel.transit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kinematics import BarrierConfig, momentum_window

__all__ = [
    "SeriesCoefficients",
    "OpaqueSolution",
    "series_coefficients",
    "moment_s",
    "opaque_tunneling_time",
    "opaque_tunneling_velocity",
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


def _lower_gamma(k: int, width: float, mass: float) -> float:
    """Lower incomplete gamma of integer order k >= 1 at x = mass width, over width^k.

    From x = 1 up by upward recurrence: gamma(1, x) = 1 - e^-x and gamma(j+1, x) =
    j gamma(j, x) - x^j e^-x.  Below x = 1, where each step cancels a factor ~x/j of
    precision and width^k may underflow, as mass^k gamma(k, x) / x^k, the latter by its
    positive series e^-x sum_i x^i / (k (k+1) ... (k+i)) to i = 18, whose rest is below
    2^-60 of its first term.  Its one caller, :func:`moment_s`, has validated its arguments.
    """
    x = mass * width
    decay = math.exp(-x)
    if x < 1.0:
        term = total = 1.0 / k
        for j in range(k + 1, k + 19):
            term *= x / j
            total += term
        return decay * total * mass ** k
    value = 1.0 - decay
    power = 1.0
    for j in range(1, k):
        power *= x
        value = j * value - power * decay
    return value / width ** k


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
        return _lower_gamma(n + 1, width, mass)
    return math.factorial(n) / width ** (n + 1)


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
    # P = X^2 + Y^2 with X = s2 - ((a2 t)^2 s6 + a1^2 s4) / 2 + a1 a2 t s5 and
    # Y = a2 t s4 - a1 s3, to second order in a1 and a2 t: c0 + c1 t + c2 t^2
    s = {n: moment_s(n, width, 1.0 / (2.0 * coeffs.a2), mode) for n in (2, 3, 4, 5, 6)}
    a1, a2 = coeffs.a1, coeffs.a2
    c1 = 2.0 * a1 * a2 * (s[2] * s[5] - s[3] * s[4])
    c2 = a2 * a2 * (s[4] * s[4] - s[2] * s[6])
    return OpaqueSolution(tau=-c1 / (2.0 * c2), v=9.0 * a2 / a1)


def opaque_tunneling_velocity(cfg: BarrierConfig) -> float:
    """Wide-barrier tunneling velocity (9/2) sqrt(v0 / (v0 + 2 mass)).

    Exceeds 1 whenever v0 / mass > 8 / 77, so it is superluminal for every
    barrier this library covers, and saturates at 9/2 for v0 >> mass.
    """
    return 4.5 * math.sqrt(cfg.v0 / (cfg.v0 + 2.0 * cfg.mass))
