"""Gaussian wave packets filtered through the barrier's momentum window.

A packet is assembled from stationary scattering states with a Gaussian
momentum weight ``g(p) = exp(-(p - p0)^2 d^2 / 4)`` truncated to the
evanescent window.  The weight is deliberately unnormalized (peak value 1
at ``p0``); every amplitude additionally carries the constant factor
``2 E(p0)``, the spinor norm ``u^+ u = 2E`` evaluated at the packet center.
Peak positions, transit times, velocities and all density ratios are
independent of these constants, which only pin the absolute density scale.

Densities are evaluated by direct quadrature of the momentum integral on
composite Gauss-Legendre panels.  The transmitted integrand is analytic on
the closed window (the window-edge square roots enter only through even
combinations), so the rule converges spectrally and the same node table is
reliable from the almost transparent to the deeply opaque regime, where the
integral itself shrinks below 1e-25 while staying far above the rounding
floor of the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, DegenerateWeightError
from .kinematics import BarrierConfig, momentum_window, total_energy
from .scattering import transmission_amplitude

__all__ = [
    "PacketSpec",
    "DensityGrid",
    "FilterStats",
    "PacketIntegrator",
    "momentum_weight",
    "transmitted_density",
    "filter_stats",
    "filtered_distributions",
    "converged_integrator",
]

_PANEL = 64          # Gauss-Legendre points per panel
_TIME_CHUNK = 512    # spacetime points per matrix block
# Node ceiling of the convergence gate; a start rule above half of it
# cannot be doubled even once.
MAX_NODES = 65536


@dataclass(frozen=True)
class PacketSpec:
    """Momentum-space description of a Gaussian packet on a window.

    ``d`` is the packet's spatial width parameter (momentum spread 2/d);
    ``p_min``/``p_max`` bound the window the weight is truncated to.
    """

    p0: float
    d: float
    p_min: float
    p_max: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError(f"packet width d must be positive, got {self.d}")
        if not 0.0 <= self.p_min < self.p_max:
            raise ValueError(
                f"invalid momentum window [{self.p_min}, {self.p_max}]"
            )
        if not self.p_min <= self.p0 <= self.p_max:
            raise ValueError(
                f"central momentum {self.p0} outside window "
                f"[{self.p_min}, {self.p_max}]"
            )

    @property
    def window(self) -> tuple[float, float]:
        return (self.p_min, self.p_max)

    @classmethod
    def for_barrier(cls, cfg: BarrierConfig, p0: float, d: float) -> "PacketSpec":
        """Packet truncated to the barrier's own evanescent window."""
        lo, hi = momentum_window(cfg)
        return cls(p0=p0, d=d, p_min=lo, p_max=hi)


@dataclass(frozen=True)
class FilterStats:
    """Means of the transmitted momentum distribution.

    ``p_mean`` is the weighted mean momentum after the barrier filtered the
    packet, ``e_mean = E(p_mean)`` and ``v_out = p_mean / e_mean`` the
    corresponding energy and group velocity.  ``transmitted_weight`` is the
    integral of the filtered distribution (unnormalized weight convention),
    a measure of how much of the packet survives.
    """

    p_mean: float
    e_mean: float
    v_out: float
    transmitted_weight: float


@dataclass(frozen=True)
class DensityGrid:
    """A sampled density curve: strictly increasing axis, non-negative values."""

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if axis.ndim != 1 or values.ndim != 1 or axis.shape != values.shape:
            raise ValueError("axis and values must be 1-d arrays of equal length")
        if axis.size >= 2 and not np.all(np.diff(axis) > 0.0):
            raise ValueError("axis must be strictly increasing")
        if np.any(values < 0.0):
            raise ValueError("densities cannot be negative")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)


def momentum_weight(p, spec: PacketSpec):
    """Gaussian weight g(p), truncated to the window, peak value 1 at p0."""
    p_arr = np.asarray(p, dtype=float)
    g = np.exp(-((p_arr - spec.p0) ** 2) * spec.d**2 / 4.0)
    out = np.where((p_arr >= spec.p_min) & (p_arr <= spec.p_max), g, 0.0)
    if p_arr.ndim == 0:
        return float(out)
    return out


@cache
def _panel_rule(n: int):
    return np.polynomial.legendre.leggauss(n)


def _composite_rule(lo: float, hi: float, nodes: int):
    """Composite Gauss-Legendre rule with ~nodes points in panels of 64."""
    panels = max(1, round(nodes / _PANEL))
    xs, ws = _panel_rule(_PANEL)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    p = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    w = (half[:, None] * ws[None, :]).ravel()
    return p, w


def _modulus2(g, f):
    """Spinor density |g|^2 + |f|^2 of the two component amplitudes."""
    return (g * np.conj(g) + f * np.conj(f)).real


class PacketIntegrator:
    """Evaluates packet amplitudes on a fixed quadrature rule.

    The node table (momenta, energies, weighted coefficients) is built once
    and never mutated, so a single instance can be shared freely.  ``cfg=None``
    builds the free (incident) packet at unit mass; otherwise the
    coefficients include the transmitted amplitude of ``cfg``.
    """

    def __init__(
        self,
        spec: PacketSpec,
        cfg: BarrierConfig | None = None,
        nodes: int = 2048,
    ):
        self.spec = spec
        self.cfg = cfg
        self.mass = 1.0 if cfg is None else float(cfg.mass)
        p, w = _composite_rule(spec.p_min, spec.p_max, nodes)
        self.nodes = p.size
        self.p = p
        self.energy = total_energy(p, self.mass)
        self._u2 = p / (self.energy + self.mass)
        coef = w * momentum_weight(p, spec).astype(complex)
        if cfg is not None:
            coef = coef * transmission_amplitude(p, cfg)
        # Constant amplitude normalization, see the module docstring.
        self._scale = 2.0 * float(total_energy(spec.p0, self.mass))
        self._c0 = coef
        self._c2 = coef * self._u2

    # -- core evaluation ---------------------------------------------------

    def _sum_over_nodes(self, fixed0, fixed2, rows, cols):
        """fixed @ exp(rows x cols), chunked over columns."""
        n_out = cols.size
        out0 = np.empty(n_out, dtype=complex)
        out2 = np.empty(n_out, dtype=complex)
        # exp(rows x cols) is materialized one column chunk at a time so the
        # footprint stays at nodes * _TIME_CHUNK regardless of grid size.
        for i in range(0, n_out, _TIME_CHUNK):
            sl = slice(i, min(i + _TIME_CHUNK, n_out))
            block = np.exp(rows[:, None] * cols[None, sl])
            out0[sl] = fixed0 @ block
            out2[sl] = fixed2 @ block
        return out0, out2

    def amplitudes(self, z: float, ts):
        """Large and small component amplitudes at position z over times ts."""
        ts = np.asarray(ts, dtype=float)
        phase_z = np.exp(1j * self.p * float(z))
        g, f = self._sum_over_nodes(
            self._c0 * phase_z, self._c2 * phase_z, -1j * self.energy, ts
        )
        return self._scale * g, self._scale * f

    def density(self, z: float, ts):
        """|psi|^2 at position z for each time in ts."""
        return _modulus2(*self.amplitudes(z, ts))

    def density_z(self, zs, t: float):
        """|psi|^2 on a position grid at one time."""
        zs = np.asarray(zs, dtype=float)
        evolve = np.exp(-1j * self.energy * float(t))
        g, f = self._sum_over_nodes(
            self._c0 * evolve, self._c2 * evolve, 1j * self.p, zs
        )
        return _modulus2(self._scale * g, self._scale * f)


def transmitted_density(
    z: float, t_axis, spec: PacketSpec, cfg: BarrierConfig, nodes: int = 2048
) -> DensityGrid:
    """Transmitted density over a time axis at fixed position."""
    t_axis = np.asarray(t_axis, dtype=float)
    eng = PacketIntegrator(spec, cfg, nodes=nodes)
    return DensityGrid(axis=t_axis, values=eng.density(z, t_axis))


def filtered_distributions(p, spec: PacketSpec, cfg: BarrierConfig):
    """Filtered momentum distributions (g_T, f_T) of the transmitted packet.

    ``g_T = g |t|`` weights the large component, ``f_T = g_T p / (E + m)``
    the small one; both use the bare (peak value 1) weight convention.
    """
    p_arr = np.asarray(p, dtype=float)
    g_t = momentum_weight(p_arr, spec) * np.abs(transmission_amplitude(p_arr, cfg))
    f_t = g_t * p_arr / (total_energy(p_arr, cfg.mass) + cfg.mass)
    return g_t, f_t


def filter_stats(spec: PacketSpec, cfg: BarrierConfig, nodes: int = 2048) -> FilterStats:
    """Mean momentum, energy and velocity of the transmitted distribution.

    Means are taken against the full spinor weight ``g_T^2 + f_T^2``.  The
    barrier suppresses low momenta exponentially harder than high ones, so
    ``p_mean`` grows with the barrier width; for very wide barriers the
    weight underflows entirely and the means become undefined, which raises
    :class:`DegenerateWeightError`.
    """
    p, w = _composite_rule(spec.p_min, spec.p_max, nodes)
    g_t, f_t = filtered_distributions(p, spec, cfg)
    weight = g_t * g_t + f_t * f_t
    total = float(np.sum(w * weight))
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightError(
            f"transmitted weight underflows for width={cfg.width}; "
            "filter statistics are undefined"
        )
    p_mean = float(np.sum(w * p * weight) / total)
    e_mean = float(total_energy(p_mean, cfg.mass))
    return FilterStats(
        p_mean=p_mean,
        e_mean=e_mean,
        v_out=p_mean / e_mean,
        transmitted_weight=total,
    )


def converged_integrator(
    spec: PacketSpec,
    cfg: BarrierConfig | None,
    z: float,
    t: float,
    tol: float = 1e-8,
    nodes: int = 2048,
    max_nodes: int = MAX_NODES,
) -> PacketIntegrator:
    """Double the node count until the probe density stabilizes.

    The density at the probe point ``(z, t)`` is compared between
    consecutive rules; once the relative change drops below ``tol`` the
    finer rule is returned.  If ``max_nodes`` is exhausted first a
    :class:`ConvergenceError` carrying the last estimate is raised.

    Before any finer rule is built, the relative rounding floor of the
    start rule's probe density is estimated as
    ``eps * (|g| S0 + |f| S2) / density``, where ``S0`` and ``S2`` are the
    scaled sums of the node coefficients' moduli (the rounding bound of an
    inner product, without its ``sqrt(N)`` factor).  A ``tol`` below that
    floor cannot be told apart from rounding noise, so it is refused at
    once with a :class:`ConvergenceError` that names the floor and carries
    the start density as its estimate; a zero relative change between two
    rules that agree bit for bit is never taken as convergence to such a
    tolerance.  A start density of exactly 0 has no relative floor: the
    check is skipped and the doubling loop handles it as before.
    """
    start = PacketIntegrator(spec, cfg, nodes=nodes)
    g, f = start.amplitudes(z, [t])
    d_prev = float(_modulus2(g, f)[0])
    if d_prev > 0.0:
        s0 = start._scale * float(np.sum(np.abs(start._c0)))
        s2 = start._scale * float(np.sum(np.abs(start._c2)))
        eps = np.finfo(float).eps
        floor = eps * (abs(g[0]) * s0 + abs(f[0]) * s2) / d_prev
        if tol < floor:
            raise ConvergenceError(
                f"tolerance {tol:g} at probe (z={z}, t={t}) is below the "
                f"rounding floor {floor:.2g} of the probe density",
                estimate=d_prev,
            )
    n = nodes
    while n * 2 <= max_nodes:
        n *= 2
        finer = PacketIntegrator(spec, cfg, nodes=n)
        d_next = float(finer.density(z, [t])[0])
        scale = max(abs(d_next), abs(d_prev))
        if scale == 0.0 or abs(d_next - d_prev) <= tol * scale:
            return finer
        d_prev = d_next
    raise ConvergenceError(
        f"density at probe (z={z}, t={t}) did not stabilize to {tol:g} "
        f"within {max_nodes} quadrature nodes",
        estimate=d_prev,
    )
