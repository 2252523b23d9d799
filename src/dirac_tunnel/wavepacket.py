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

A curve is the sum over the N nodes of the coefficients times the phase
``exp(i p z - i E t)`` at each of its K points.  On an evenly spaced grid
(the scan grids in time, position grids) the phase block factorizes into a
coarse and a fine block of about sqrt(K) columns each, the chirp-z
factorization of Rabiner, Schafer and Rader (1969), so a curve costs about
``2 N sqrt(K)`` complex exps and one matrix product per chunk instead of
``N K`` exps; other grids, and axes of fewer than four points, take the
direct sum (see ``PacketIntegrator._sum_over_nodes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL)
_TIME_CHUNK = 512    # spacetime points per matrix block
_EVEN_ULPS = 4       # spacing error, in ulps of max|x|, of an evenly spaced axis
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


def _composite_rule(lo: float, hi: float, nodes: int):
    """Composite Gauss-Legendre rule of ``nodes`` points, a positive multiple of 64."""
    if nodes <= 0 or nodes % _PANEL:
        raise ValueError(f"nodes must be a positive multiple of {_PANEL}, got {nodes}")
    panels = nodes // _PANEL
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    p = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    w = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return p, w


def _fine_offsets(axis: np.ndarray) -> np.ndarray:
    """Fine-block offsets ``j h``, ``j < b``, of the phase factorization on ``axis``.

    ``b = isqrt(K)`` (at most ``_TIME_CHUNK``) when the K points are evenly
    spaced, that is when each lies within ``_EVEN_ULPS`` ulps of ``max|x|``
    of the line through the first and last point; otherwise, or when
    ``K < 4``, ``b = 1`` and the only offset is 0.
    """
    k = axis.size
    if k < 4:
        return np.zeros(1)
    h = (axis[-1] - axis[0]) / (k - 1)
    drift = np.max(np.abs(axis - (axis[0] + h * np.arange(k))))
    if not drift <= _EVEN_ULPS * np.finfo(float).eps * np.max(np.abs(axis)):
        return np.zeros(1)
    return h * np.arange(min(math.isqrt(k), _TIME_CHUNK))


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
        coef = w * momentum_weight(p, spec).astype(complex)
        if cfg is not None:
            coef = coef * transmission_amplitude(p, cfg)
        # Constant amplitude normalization, see the module docstring.
        self._scale = 2.0 * float(total_energy(spec.p0, self.mass))
        # the two coefficient rows c0 (large component) and c2 (small)
        self._coef = np.stack((coef, coef * (p / (self.energy + self.mass))))

    # -- core evaluation ---------------------------------------------------

    def _sum_over_nodes(self, fixed, rows, cols):
        """Every row of ``fixed @ exp(rows x cols)``, by a factorized phase block.

        ``fixed`` stacks R coefficient rows (shape ``(R, N)``); the result
        has shape ``(R, K)`` for the ``K`` points of ``cols``.  On an
        evenly spaced axis ``x_k = x_0 + k h`` the phase splits at the fine
        block length ``b`` (:func:`_fine_offsets`) as
        ``exp(r x_{ab+j}) = exp(r x_{ab}) exp(r j h)``: the fine block
        ``fixed * exp(rows x jh)`` (``N x b`` per row) is built once, and
        each chunk of ``_TIME_CHUNK // b`` coarse columns ``exp(rows x
        x_{ab})`` is contracted with it in one matrix product.  A K-point
        axis then costs about ``2 N sqrt(K)`` complex exps instead of
        ``N K``, and no phase block larger than ``N x _TIME_CHUNK`` is
        materialized.  An axis that is not evenly spaced, or has fewer than
        4 points, gets ``b = 1``: every column is a coarse column and the
        sum is the plain matrix-vector product of ``exp(rows x cols)``.
        """
        offsets = _fine_offsets(cols)
        b = offsets.size
        weighted = fixed[:, :, None] * np.exp(rows[:, None] * offsets[None, :])
        starts = cols[::b]
        out = np.empty((fixed.shape[0], starts.size, b), dtype=complex)
        width = _TIME_CHUNK // b
        for i in range(0, starts.size, width):
            sl = slice(i, i + width)
            coarse = np.exp(rows[:, None] * starts[None, sl])
            out[:, sl] = coarse.T @ weighted
        return out.reshape(fixed.shape[0], -1)[:, : cols.size]

    def amplitudes(self, z: float, ts):
        """Large and small component amplitudes at position z over times ts."""
        ts = np.asarray(ts, dtype=float)
        phase_z = np.exp(1j * self.p * float(z))
        g, f = self._sum_over_nodes(self._coef * phase_z, -1j * self.energy, ts)
        return self._scale * g, self._scale * f

    def density(self, z: float, ts):
        """|psi|^2 at position z for each time in ts."""
        return _modulus2(*self.amplitudes(z, ts))

    def density_dt(self, z: float, ts):
        """|psi|^2 and its first two time derivatives at z, as arrays over times ts.

        The two coefficient rows, stacked with their ``-i E`` and ``-E^2``
        multiples (d/dt of ``exp(-i E t)``), give g, f, g', f', g'', f'' in
        one contraction at every time; d|psi|^2/dt = 2 Re(g* g' + f* f') and
        d^2|psi|^2/dt^2 = 2 Re(g* g'' + f* f'') + 2 (|g'|^2 + |f'|^2).
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        rates = -1j * self.energy
        fixed = self._coef * np.exp(1j * self.p * float(z))
        stacked = np.concatenate((fixed, fixed * rates, fixed * rates**2))
        a0, a1, a2 = self._scale * self._sum_over_nodes(stacked, rates, ts).reshape(3, 2, -1)
        first = (a0.conj() * a1).real.sum(axis=0)
        second = (a0.conj() * a2).real.sum(axis=0) + _modulus2(*a1)
        return _modulus2(*a0), 2.0 * first, 2.0 * second

    def density_z(self, zs, t: float):
        """|psi|^2 on a position grid at one time."""
        zs = np.asarray(zs, dtype=float)
        evolve = np.exp(-1j * self.energy * float(t))
        g, f = self._sum_over_nodes(self._coef * evolve, 1j * self.p, zs)
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
) -> PacketIntegrator:
    """Double the node count until the probe density stabilizes.

    The density at the probe point ``(z, t)`` is compared between
    consecutive rules; once the relative change drops below ``tol`` the
    finer rule is returned.  If the ceiling of ``MAX_NODES`` nodes is
    reached first a :class:`ConvergenceError` carrying the last estimate
    is raised.

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

    A start rule that cannot be doubled (``2 * nodes > MAX_NODES``) raises
    ``ValueError`` before any rule is built.
    """
    if 2 * nodes > MAX_NODES:
        raise ValueError(f"the gate needs 2 * nodes <= MAX_NODES={MAX_NODES}, got {nodes}")
    start = PacketIntegrator(spec, cfg, nodes=nodes)
    g, f = start.amplitudes(z, [t])
    d_prev = float(_modulus2(g, f)[0])
    if d_prev > 0.0:
        s0, s2 = start._scale * np.sum(np.abs(start._coef), axis=1)
        eps = np.finfo(float).eps
        floor = eps * (abs(g[0]) * s0 + abs(f[0]) * s2) / d_prev
        if tol < floor:
            raise ConvergenceError(
                f"tolerance {tol:g} at probe (z={z}, t={t}) is below the "
                f"rounding floor {floor:.2g} of the probe density",
                estimate=d_prev,
            )
    n = nodes
    while n * 2 <= MAX_NODES:
        n *= 2
        finer = PacketIntegrator(spec, cfg, nodes=n)
        d_next = float(finer.density(z, [t])[0])
        scale = max(abs(d_next), abs(d_prev))
        if scale == 0.0 or abs(d_next - d_prev) <= tol * scale:
            return finer
        d_prev = d_next
    raise ConvergenceError(
        f"density at probe (z={z}, t={t}) did not stabilize to {tol:g} "
        f"within {MAX_NODES} quadrature nodes",
        estimate=d_prev,
    )
