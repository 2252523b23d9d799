"""Split-operator evolution of the Dirac equation, an independent check of the packet's timing.

Every other check of the transmitted packet shares the library's formalism:
stationary scattering states summed in momentum space.  This one evolves the
incident packet in time instead, under H = sigma_x p + sigma_z m + V(z), by
Strang splitting on a periodic Fourier grid (Braun, Su and Grobe, Phys. Rev.
A 59, 604 (1999); Mocken and Keitel, Comput. Phys. Commun. 178, 868 (2008)).
The kinetic step is the exact 2x2 propagator of each grid momentum k,
cos(E_k dt) - i sin(E_k dt) (sigma_x k + sigma_z m) / E_k, and the potential
step the exact phase exp(-i V dt); V is v0 inside the barrier and v0/2 on the
two grid nodes at its faces.  Only the incident packet comes from the
library: its weight, spinor (1, p/(E + m)) and clock, summed directly from
the free rule's coefficients at the start time.  The barrier's effect comes
from the evolution alone.

The face kink of the exact state leaves O(dx^2) content at high k, so the
density at the downstream face converges as dx^2 and two grids give a
Richardson value.  That content crosses the barrier unattenuated, so once
exp(-rho L) is near dx^2 (L about 8 at dx = 0.025 for the default packet) it
swamps the transmitted signal: the check holds for thin barriers only.
"""

import numpy as np

from dirac_tunnel import BarrierConfig, PacketIntegrator, PacketSpec


DT = 0.02
# the evolution's start, before the incident packet reaches the barrier, and end
T_START, T_STOP = -110.0, 10.0
# The grid's length is a multiple of this, so the node counts at dx = 0.05 and
# 0.025 are multiples of 256 and 512, where the FFT is fast
_PERIOD = 12.8


def face_density(spec: PacketSpec, cfg: BarrierConfig, dx: float):
    """Times and density at the downstream face z = offset + L, every ``DT`` to ``T_STOP``.

    The periodic grid of spacing ``dx`` runs from offset - 150 to at least
    offset + L + 40, its length rounded up to a multiple of ``_PERIOD``;
    both faces must fall on grid nodes.
    """
    lo = cfg.offset - 150.0
    n = round(_PERIOD * np.ceil((cfg.width + 190.0) / _PERIOD) / dx)
    z = lo + dx * np.arange(n)
    front, back = round((cfg.offset - lo) / dx), round((cfg.offset + cfg.width - lo) / dx)
    assert abs(z[front] - cfg.offset) < 1e-9 and abs(z[back] - cfg.offset - cfg.width) < 1e-9

    # the free packet scale * sum of c exp(i(p z - E t)), c in rows c0 and c0 p / (E + m)
    free = PacketIntegrator(spec, None)
    phase = np.exp(1j * (np.outer(z, free.p) - free.energy * T_START))
    psi = free._scale * (phase @ free._coef.T).T

    v = np.zeros(n)
    v[front + 1 : back] = cfg.v0
    v[[front, back]] = 0.5 * cfg.v0
    half_kick, kick = np.exp(-0.5j * DT * v), np.exp(-1j * DT * v)
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    energy = np.hypot(k, cfg.mass)
    cos, sin = np.cos(energy * DT), np.sin(energy * DT) / energy
    diag = (cos - 1j * sin * cfg.mass, cos + 1j * sin * cfg.mass)
    off = -1j * sin * k

    steps = round((T_STOP - T_START) / DT)
    density = np.empty(steps)
    # Strang steps V/2 K V/2, the half kicks of adjacent steps merged: a kick
    # changes phases only, so the density after K is the step's
    psi *= half_kick
    for i in range(steps):
        a, b = np.fft.fft(psi)
        psi = np.fft.ifft((diag[0] * a + off * b, off * a + diag[1] * b))
        density[i] = (psi[:, back] * psi[:, back].conj()).real.sum()
        psi *= kick
    return T_START + DT * np.arange(1, steps + 1), density


def face_peak(spec: PacketSpec, cfg: BarrierConfig, dx: float) -> tuple[float, float]:
    """Time and density of the largest maximum at the downstream face, from the
    parabola through the three samples around the sampled maximum."""
    t, rho = face_density(spec, cfg, dx)
    i = int(np.argmax(rho))
    lo, mid, hi = rho[i - 1 : i + 2]
    curve = lo - 2.0 * mid + hi
    shift = 0.5 * (lo - hi) / curve
    return t[i] + shift * DT, mid - 0.125 * (lo - hi) ** 2 / curve
