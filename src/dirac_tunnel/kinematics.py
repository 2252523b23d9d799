"""Single-particle kinematics for a rectangular barrier on the Dirac equation.

Natural units (hbar = c = 1) are used throughout the library: momenta and
energies are measured in units of the particle mass when ``mass = 1``,
lengths and times in inverse mass units.

The covered regime is a barrier at least as tall as the rest energy,
``v0 >= mass``.  Only there does a momentum window exist whose total energy
falls inside the gap ``v0 <= E <= v0 + mass``, where the interior wave is
evanescent while the barrier is still too low for pair-creating (Klein)
transmission.  All scattering and packet routines in this library operate on
that window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EnergyZoneError, UnsupportedRegimeError

__all__ = [
    "EnergyZone",
    "BarrierConfig",
    "total_energy",
    "group_velocity",
    "momentum_window",
    "classify_zone",
    "evanescent_rho",
]

# Relative slack for window-edge roundoff: the radicand mass^2 - (E - v0)^2 lands on
# zero at p_min or p_max only in exact arithmetic, and rounds by about eps mass (v0 + mass).
_EDGE_RTOL = 1e-12


class EnergyZone(enum.Enum):
    """Energy classification of an incident particle against the barrier."""

    #: E > v0 + mass: the interior wave propagates, ordinary transmission.
    DIFFUSION = "diffusion"
    #: v0 <= E <= v0 + mass: evanescent interior wave, no pair production.
    DIRAC_TUNNELING = "dirac_tunneling"
    #: v0 - mass <= E < v0: evanescent interior wave below the barrier top.
    KLEIN_TUNNELING = "klein_tunneling"
    #: E < v0 - mass: propagating interior wave of negative-energy character.
    KLEIN_ZONE = "klein_zone"


@dataclass(frozen=True)
class BarrierConfig:
    """Rectangular barrier of height ``v0`` occupying ``[offset, offset + width]``.

    Parameters
    ----------
    v0:
        Barrier height.  Must be at least ``mass``; lower barriers have no
        evanescent window and are rejected as an unsupported regime.
    width:
        Barrier length ``L >= 0``.  Zero width is the free particle.
    mass:
        Particle rest mass, ``> 0``.
    offset:
        Position of the upstream barrier face.  Physical observables do not
        depend on it; it is kept explicit so translation invariance can be
        exercised rather than assumed.
    """

    v0: float
    width: float
    mass: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.v0, self.width, self.mass, self.offset])):
            raise ValueError("barrier parameters must be finite")
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.width < 0.0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        if self.v0 < self.mass:
            raise UnsupportedRegimeError(
                f"unsupported regime: barrier height v0={self.v0} is below the "
                f"rest energy mass={self.mass} (lower limit not covered); no "
                "evanescent window exists"
            )
        p_max = momentum_window(self)[1]
        if not np.isfinite(p_max):
            raise ValueError(f"v0={self.v0}, mass={self.mass}: p_max overflows a float")
        # in an amplitude 2 rho L <= 2 m L, (p^2 - v0 E) L <= v0 m L, |p z| <= p_max (|offset| + L)
        if not np.isfinite(max(2.0, self.v0) * self.mass * self.width):
            raise ValueError(f"width={self.width}: max(2, v0) mass width overflows")
        if not np.isfinite(p_max * (abs(self.offset) + self.width)):
            raise ValueError(
                f"offset={self.offset}, width={self.width}: p_max (|offset| + width) overflows"
            )


def total_energy(p, mass: float = 1.0):
    """Relativistic energy E = sqrt(p^2 + mass^2) of a free particle.

    Accepts scalars or arrays of momenta.
    """
    return np.hypot(p, mass)


def group_velocity(p, mass: float = 1.0):
    """Group velocity p / E of a free relativistic particle (always < 1)."""
    return np.asarray(p) / total_energy(p, mass)


def momentum_window(cfg: BarrierConfig) -> tuple[float, float]:
    """Momentum bounds (p_min, p_max) of the evanescent transmission window.

    ``p_min = sqrt(v0^2 - mass^2)`` puts the energy at the barrier top,
    ``p_max = sqrt(v0*(v0 + 2*mass))`` at the upper gap edge ``v0 + mass``.
    """
    p_min = np.sqrt((cfg.v0 - cfg.mass) * (cfg.v0 + cfg.mass))
    p_max = np.sqrt(cfg.v0 * (cfg.v0 + 2.0 * cfg.mass))
    return float(p_min), float(p_max)


def classify_zone(energy: float, cfg: BarrierConfig) -> EnergyZone:
    """Classify a total energy against the barrier's zone boundaries.

    Boundaries are assigned to the evanescent side: ``E = v0`` and
    ``E = v0 + mass`` belong to the Dirac tunneling zone, ``E = v0 - mass``
    to the Klein tunneling zone, so the evanescent zones are closed and the
    propagating ones open.
    """
    e = float(energy)
    if not e >= cfg.mass:
        raise ValueError(
            f"total energy {e} is below the rest energy {cfg.mass}; "
            "not a free-particle energy"
        )
    if e > cfg.v0 + cfg.mass:
        return EnergyZone.DIFFUSION
    if e >= cfg.v0:
        return EnergyZone.DIRAC_TUNNELING
    if e >= cfg.v0 - cfg.mass:
        return EnergyZone.KLEIN_TUNNELING
    return EnergyZone.KLEIN_ZONE


def evanescent_rho(p, cfg: BarrierConfig):
    """Interior decay rate rho = sqrt(mass^2 - (E - v0)^2) inside the window.

    Defined for momenta whose energy lies in the Dirac tunneling zone,
    endpoints included; there the interior wave behaves as exp(-rho z).
    Momenta outside that zone raise :class:`EnergyZoneError` naming the zone
    they actually fall in.  The identity rho^2 + (E - v0)^2 = mass^2 holds on
    the whole window.  Scalar in, numpy float out; arrays map elementwise.
    """
    p_arr = np.asarray(p, dtype=float)
    energy = total_energy(p_arr, cfg.mass)
    radicand = cfg.mass**2 - (energy - cfg.v0) ** 2

    slack = _EDGE_RTOL * cfg.mass * (cfg.v0 + cfg.mass)
    below = energy < cfg.v0 - _EDGE_RTOL * cfg.v0
    outside = (radicand < -slack) | below
    if np.any(outside):
        bad_p = float(np.atleast_1d(p_arr)[np.atleast_1d(outside)][0])
        zone = classify_zone(total_energy(bad_p, cfg.mass), cfg)
        raise EnergyZoneError(
            f"momentum p={bad_p:.6g} lies in the {zone.name} zone, not in the "
            f"Dirac tunneling window of barrier v0={cfg.v0}",
            zone=zone,
        )
    return np.sqrt(np.clip(radicand, 0.0, None))[()]
