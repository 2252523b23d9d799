"""Relativistic wave-packet tunneling through a rectangular barrier.

One-dimensional Dirac scattering in the evanescent energy window: stable
transmission amplitudes at any opacity, Gaussian packet propagation by
direct quadrature, the momentum filter effect, opaque-limit closed forms
for the peak emergence time, and transit-time measurements to a downstream
detector, including the superluminal-average analysis.

Natural units hbar = c = 1 throughout; see :mod:`dirac_tunnel.kinematics`.
"""

from .asymptotics import (
    OpaqueSolution,
    SeriesCoefficients,
    maximize_peak_functional,
    moment_s,
    opaque_tunneling_time,
    opaque_tunneling_velocity,
    peak_functional,
    series_coefficients,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateWeightError,
    DiracTunnelError,
    EnergyZoneError,
    NumericalDegeneracyError,
    UnsupportedRegimeError,
)
from .kinematics import (
    BarrierConfig,
    EnergyZone,
    classify_zone,
    evanescent_rho,
    group_velocity,
    momentum_window,
    total_energy,
)
from .scattering import (
    MatchingSolution,
    opaque_transmission_magnitude,
    solve_matching,
    transmission_amplitude,
    transmission_phase,
)
from .transit import (
    PeakKind,
    PeakRecord,
    TransitReport,
    numeric_tunneling_time,
    scan_peaks,
    superluminal_detector_bound,
    transit_measure,
    transit_time_predicted,
)
from .wavepacket import (
    DensityGrid,
    FilterStats,
    PacketIntegrator,
    PacketSpec,
    converged_integrator,
    filter_stats,
    filtered_distributions,
    momentum_weight,
    transmitted_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DiracTunnelError",
    "UnsupportedRegimeError",
    "EnergyZoneError",
    "NumericalDegeneracyError",
    "ConvergenceError",
    "DegenerateWeightError",
    "ConfigError",
    # kinematics
    "EnergyZone",
    "BarrierConfig",
    "total_energy",
    "group_velocity",
    "momentum_window",
    "classify_zone",
    "evanescent_rho",
    # scattering
    "MatchingSolution",
    "transmission_amplitude",
    "transmission_phase",
    "opaque_transmission_magnitude",
    "solve_matching",
    # wave packets
    "PacketSpec",
    "DensityGrid",
    "FilterStats",
    "PacketIntegrator",
    "momentum_weight",
    "transmitted_density",
    "filter_stats",
    "filtered_distributions",
    "converged_integrator",
    # asymptotics
    "SeriesCoefficients",
    "OpaqueSolution",
    "series_coefficients",
    "moment_s",
    "peak_functional",
    "opaque_tunneling_time",
    "opaque_tunneling_velocity",
    "maximize_peak_functional",
    # transit
    "PeakKind",
    "PeakRecord",
    "TransitReport",
    "scan_peaks",
    "numeric_tunneling_time",
    "transit_time_predicted",
    "transit_measure",
    "superluminal_detector_bound",
]
