"""Stationary scattering of a Dirac plane wave on a rectangular barrier.

The incident wave arrives from the left with momentum ``p`` inside the
evanescent window (see :mod:`dirac_tunnel.kinematics`).  Upstream of the
barrier the field is ``u(p) e^{ipz} + r u(-p) e^{-ipz}``, inside it is a
superposition of decaying and growing evanescent modes with coefficients
``a_coef`` and ``b_coef``, downstream ``t_coef u(p) e^{ipz}``.

All formulas here are arranged to stay numerically stable for arbitrarily
opaque barriers: the naive elimination of the interior coefficients computes
the transmitted amplitude as a difference of terms growing like
``exp(rho*L)`` and loses all precision beyond ``rho*L ~ 35``.  The forms
used below carry only ``cosh``, ``sinh(x)/x`` and, past the overflow
threshold, explicit ``exp(-rho*L)`` factors, so they remain accurate in the
deep opaque regime where transmitted densities underflow gracefully instead
of degenerating into noise.
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
    "opaque_transmission_magnitude",
    "solve_matching",
]

# cosh overflows near x ~ 710; switch to the explicit exp(-x) form well
# before, where the dropped corrections are O(exp(-2x)) ~ 1e-260.
_OPAQUE_SWITCH = 300.0


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


def _sinhc(x):
    """sinh(x)/x, even and analytic through x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _tanhc(x):
    """tanh(x)/x, even and analytic through x = 0; saturates to 1/x."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 3.0, np.tanh(safe) / safe)


def transmission_amplitude(p, cfg: BarrierConfig):
    """Transmitted amplitude t(p) for momenta in the evanescent window.

    Scalar in, complex out; arrays map elementwise.  The closed form

        t = p e^{-ipL} / [p cosh(rho L) - i (p^2 - v0 E) L sinhc(rho L)]

    is analytic on the closed window (the apparent rho -> 0 edge singularity
    cancels), reduces to 1 at L = 0, and is replaced past
    ``rho L > 300`` by its opaque limit with the ``exp(-rho L)`` factored
    out, which differs only at O(exp(-2 rho L)).
    """
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p1 = np.atleast_1d(p_arr)
    energy = total_energy(p1, cfg.mass)
    rho = np.atleast_1d(np.asarray(evanescent_rho(p1, cfg)))
    L = float(cfg.width)
    if L == 0.0:
        out = np.ones(p1.shape, dtype=complex)
        return complex(out[0]) if scalar else out

    x = rho * L
    beta = (p1 * p1 - cfg.v0 * energy) * L
    out = np.empty(p1.shape, dtype=complex)

    regular = x <= _OPAQUE_SWITCH
    if np.any(regular):
        xr = x[regular]
        denom = p1[regular] * np.cosh(xr) - 1j * beta[regular] * _sinhc(xr)
        out[regular] = p1[regular] * np.exp(-1j * p1[regular] * L) / denom
    opaque = ~regular
    if np.any(opaque):
        pb = p1[opaque]
        rb = rho[opaque]
        denom = pb * rb - 1j * (pb * pb - cfg.v0 * energy[opaque])
        out[opaque] = (
            2.0 * pb * rb * np.exp(-x[opaque]) * np.exp(-1j * pb * L) / denom
        )
    return complex(out[0]) if scalar else out


def transmission_phase(p, cfg: BarrierConfig):
    """Phase theta of the transmitted wave relative to free propagation.

    Defined through t = |t| e^{-ipL} e^{i theta}, with

        tan(theta) = (p^2 - v0 E) L tanhc(rho L) / p,

    so theta lies in [-pi/2, pi/2), reaching -pi/2 at p -> 0 where the
    numerator stays negative.  Vanishes identically at L = 0.
    """
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p1 = np.atleast_1d(p_arr)
    energy = total_energy(p1, cfg.mass)
    rho = np.atleast_1d(np.asarray(evanescent_rho(p1, cfg)))
    L = float(cfg.width)
    if L == 0.0:
        out = np.zeros(p1.shape, dtype=float)
        return float(out[0]) if scalar else out

    num = (p1 * p1 - cfg.v0 * energy) * L * _tanhc(rho * L)
    safe = np.where(p1 != 0.0, p1, 1.0)
    ratio = np.where(p1 != 0.0, num / safe, np.where(num < 0.0, -np.inf, np.inf))
    out = np.arctan(ratio)
    return float(out[0]) if scalar else out


def opaque_transmission_magnitude(p, cfg: BarrierConfig):
    """Opaque-barrier magnitude |t| ~ 2 p rho e^{-rho L} / (mass v0).

    Exact up to relative corrections O(exp(-2 rho L)): the combination
    p^2 rho^2 + (p^2 - v0 E)^2 equals (mass v0)^2 identically on the window.
    """
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p1 = np.atleast_1d(p_arr)
    rho = np.atleast_1d(np.asarray(evanescent_rho(p1, cfg)))
    out = 2.0 * p1 * rho * np.exp(-rho * cfg.width) / (cfg.mass * cfg.v0)
    return float(out[0]) if scalar else out


def solve_matching(p, cfg: BarrierConfig) -> MatchingSolution:
    """Match the piecewise solution at both faces of the barrier.

    Returns the full coefficient set for one momentum.  The interior
    coefficients are eliminated analytically: with

        kappa_hat = -i p (E - v0 + mass) / (E + mass)

    the denominator D = 2 kappa_hat cosh(x) + (rho^2 + kappa_hat^2) L sinhc(x)
    (x = rho L) has a real and an imaginary part that never cancel, giving

        t = e^{-ipL} 2 kappa_hat / D,
        r = -e^{2ipa} (rho^2 - kappa_hat^2) L sinhc(x) / D,

    stable for any opacity; past x > 300 the exp(-x) factor is pulled out
    explicitly.  Interior coefficients are reconstructed from the face
    values, scaled so the growing-mode coefficient underflows cleanly.

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

    x = rho * L
    phi_a = np.exp(1j * p * a)
    phi_b = np.exp(1j * p * (a + L))

    if x <= _OPAQUE_SWITCH:
        lshc = L * float(_sinhc(x))
        dhat = 2.0 * kappa_hat * np.cosh(x) + (rho * rho + kappa_hat * kappa_hat) * lshc
        t_c = np.exp(-1j * p * L) * 2.0 * kappa_hat / dhat
        r_c = -np.exp(2j * p * a) * (rho * rho - kappa_hat * kappa_hat) * lshc / dhat
    else:
        t_c = (
            np.exp(-1j * p * L)
            * 4.0
            * kappa_hat
            * rho
            * np.exp(-x)
            / (rho + kappa_hat) ** 2
        )
        r_c = -np.exp(2j * p * a) * (rho - kappa_hat) / (rho + kappa_hat)

    # Interior coefficients from the face values of the exterior solution.
    a_scaled = 0.5 * (phi_a * (1.0 + kappa) + r_c * np.conj(phi_a) * (1.0 - kappa))
    b_scaled = 0.5 * t_c * phi_b * (1.0 - kappa)
    return MatchingSolution(
        r=complex(r_c),
        a_coef=complex(a_scaled * np.exp(rho * a)),
        b_coef=complex(b_scaled * np.exp(-rho * (a + L))),
        t_coef=complex(t_c),
    )
