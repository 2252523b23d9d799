"""Stationary scattering of a Dirac plane wave on a rectangular barrier.

The incident wave arrives from the left with momentum ``p`` inside the
evanescent window (see :mod:`dirac_tunnel.kinematics`).  Upstream of the
barrier the field is ``u(p) e^{ipz} + r u(-p) e^{-ipz}``, inside it is a
superposition of decaying and growing evanescent modes with coefficients
``a_coef`` and ``b_coef``, downstream ``t_coef u(p) e^{ipz}``.

The naive elimination of the interior coefficients computes the transmitted
amplitude as a difference of terms growing like ``exp(rho*L)`` and loses all
precision beyond ``rho*L ~ 35``.  The forms used below divide ``exp(rho*L)``
out of the denominator instead, leaving only ``exp(-rho*L)`` and
``(1 - exp(-2*rho*L)) / (2*rho)``: one expression, exact at every width, that
is 1 at ``L = 0`` and underflows gracefully for arbitrarily opaque barriers.
Dropping its ``exp(-2*rho*L)`` multiple-reflection terms gives the opaque
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .kinematics import BarrierConfig, evanescent_rho, total_energy

__all__ = [
    "MatchingSolution",
    "transmission_amplitude",
    "transmission_phase",
    "solve_matching",
]


@dataclass(frozen=True)
class MatchingSolution:
    """Coefficients of the piecewise stationary solution.

    ``r`` and ``t_coef`` multiply the reflected and transmitted plane waves;
    ``a_coef`` and ``b_coef`` multiply the decaying ``exp(-rho z)`` and
    growing ``exp(+rho z)`` interior modes (raw, unscaled convention, so
    ``b_coef`` is exponentially small for opaque barriers).
    """

    r: complex
    a_coef: complex
    b_coef: complex
    t_coef: complex


def _window_factors(p, cfg: BarrierConfig):
    """``p`` as floats, rho and ``p^2 - v0 E``: :func:`_scaled_denominator`'s arguments but L."""
    p = np.asarray(p, dtype=float)
    return p, evanescent_rho(p, cfg), p * p - cfg.v0 * total_energy(p, cfg.mass)


def _scaled_denominator(p, rho, beta, L: float):
    """``e^{-rho L}`` and the real and imaginary parts of ``e^{-rho L} D``.

    ``D = p cosh(rho L) - i beta L sinh(rho L)/(rho L)``, ``beta = p^2 - v0 E``,
    is the denominator of t(p); with ``q(x) = (1 - e^{-2x}) / (2x)``, ``q(0) = 1``,

        e^{-rho L} D = p (1 + e^{-2 rho L}) / 2 - i beta L q(rho L),

    finite at every width, for arrays ``p``, rho and beta of one shape, 0-d included.
    """
    decay = np.exp(-rho * L)
    # L q(rho L) = (1 - e^{-2 rho L}) / (2 rho), which is L at the edge rho = 0
    lq = np.divide(-np.expm1(-2.0 * rho * L), 2.0 * rho, out=np.full_like(rho, L), where=rho > 0.0)
    return decay, 0.5 * p * (1.0 + decay * decay), -beta * lq


def transmission_amplitude(p, cfg: BarrierConfig):
    """Transmitted amplitude t(p) for momenta in the evanescent window.

    Scalar in, numpy complex out; arrays map elementwise.  The closed form

        t = p e^{-ipL} / [p cosh(rho L) - i (p^2 - v0 E) L sinh(rho L)/(rho L)]

    is analytic on the closed window (the apparent rho -> 0 edge singularity
    cancels) and reduces to 1 at L = 0.  It is evaluated with ``e^{rho L}``
    divided out of numerator and denominator, so it stays exact at every
    opacity, down to the underflow of t itself.
    """
    p = np.asarray(p, dtype=float)
    if cfg.width == 0.0:
        # the scaled form is 0/0 at p = 0 here
        return np.ones(p.shape, dtype=complex)[()]
    decay, re, im = _scaled_denominator(*_window_factors(p, cfg), float(cfg.width))
    return (p * decay * np.exp(-1j * p * cfg.width) / (re + 1j * im))[()]


def transmission_phase(p, cfg: BarrierConfig):
    """Phase theta of the transmitted wave relative to free propagation.

    Defined through t = |t| e^{-ipL} e^{i theta}, with

        tan(theta) = (p^2 - v0 E) L tanh(rho L) / (rho L p),

    so theta lies in [-pi/2, pi/2), reaching -pi/2 at p -> 0 where the
    numerator stays negative.  Vanishes identically at L = 0.  Scalar in,
    numpy float out; arrays map elementwise.
    """
    _, re, im = _scaled_denominator(*_window_factors(p, cfg), float(cfg.width))
    return np.arctan2(-im, re)[()]


def solve_matching(p, cfg: BarrierConfig) -> MatchingSolution:
    """Match the piecewise solution at both faces of the barrier.

    Returns the full coefficient set for one momentum.  The interior
    coefficients are eliminated analytically: with

        kappa_hat = -i p w_int / w_free,  w_int = E - v0 + mass,  w_free = E + mass,

    and x = rho L, the denominator with e^{x} divided out,

        Dx = kappa_hat (1 + e^{-2x}) + (rho^2 + kappa_hat^2) (1 - e^{-2x}) / (2 rho)
           = -2i (w_int / w_free) e^{-x} D,

    is built from t(p)'s scaled denominator e^{-x} D of
    :func:`_scaled_denominator`, whose real and imaginary parts never cancel.
    So t is :func:`transmission_amplitude`'s, bit for bit, and

        t = e^{-ipL} 2 kappa_hat e^{-x} / Dx = p e^{-x} e^{-ipL} / (e^{-x} D),
        r = -e^{2ipa} (rho^2 - kappa_hat^2) (1 - e^{-2x}) / (2 rho Dx),

    exact for any opacity.  Interior coefficients are reconstructed from the
    face values, scaled so the growing-mode coefficient underflows cleanly.

    Momenta at the exact upper window edge have rho = 0, where the two
    interior modes coincide and the matching system is singular; that raises
    :class:`NumericalDegeneracyError`.
    """
    p = float(p)
    energy = float(total_energy(p, cfg.mass))
    rho = float(evanescent_rho(p, cfg))
    if rho == 0.0:
        raise NumericalDegeneracyError(
            f"interior decay rate vanishes at p={p:.6g} (window edge); the two "
            "evanescent modes are degenerate and the matching system is singular"
        )
    L = float(cfg.width)
    a = float(cfg.offset)
    w_free = energy + cfg.mass
    w_int = energy - cfg.v0 + cfg.mass

    k1 = p / w_free              # lower/upper spinor ratio, free side
    k2 = 1j * rho / w_int        # same ratio for the exp(-rho z) interior mode
    kappa = k1 / k2
    kappa_hat = rho * kappa      # = -i p w_int / w_free, purely imaginary

    phi_a = np.exp(1j * p * a)
    phi_b = np.exp(1j * p * (a + L))

    decay, re, im = _scaled_denominator(p, rho, p * p - cfg.v0 * energy, L)
    # L q(x), which r needs and im does not give where p^2 = v0 E; rho > 0 here
    lq = -np.expm1(-2.0 * rho * L) / (2.0 * rho)
    dhat = -2j * (w_int / w_free) * (re + 1j * im)
    t_c = p * decay * np.exp(-1j * p * L) / (re + 1j * im)
    r_c = -np.exp(2j * p * a) * (rho * rho - kappa_hat * kappa_hat) * lq / dhat

    # Interior coefficients from the face values of the exterior solution.
    a_scaled = 0.5 * (phi_a * (1.0 + kappa) + r_c * np.conj(phi_a) * (1.0 - kappa))
    b_scaled = 0.5 * t_c * phi_b * (1.0 - kappa)
    return MatchingSolution(
        r=complex(r_c),
        a_coef=complex(a_scaled * np.exp(rho * a)),
        b_coef=complex(b_scaled * np.exp(-rho * (a + L))),
        t_coef=complex(t_c),
    )
