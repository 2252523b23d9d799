"""Relativistic wave-packet tunneling through a rectangular barrier.

One-dimensional Dirac scattering in the evanescent energy window: stable
transmission amplitudes at any opacity, Gaussian packet propagation by
direct quadrature, the momentum filter effect, opaque-limit closed forms
for the peak emergence time, and transit-time measurements to a downstream
detector, including the superluminal-average analysis.

Natural units hbar = c = 1 throughout; see :mod:`dirac_tunnel.kinematics`.
"""

from . import asymptotics, errors, kinematics, scattering, transit, wavepacket
from .asymptotics import *
from .errors import *
from .kinematics import *
from .scattering import *
from .transit import *
from .wavepacket import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += asymptotics.__all__
__all__ += errors.__all__
__all__ += kinematics.__all__
__all__ += scattering.__all__
__all__ += transit.__all__
__all__ += wavepacket.__all__
