"""Gaussian wave packets filtered through the barrier's momentum window.

A packet is assembled from stationary scattering states with a Gaussian
momentum weight ``g(p) = exp(-(p - p0)^2 d^2 / 4)`` truncated to the
evanescent window.  The weight is deliberately unnormalized (peak value 1
at ``p0``); every amplitude additionally carries the constant factor
``2 E(p0)``, the spinor norm ``u^+ u = 2E`` evaluated at the packet center.
Peak positions, transit times, velocities and all density ratios are
independent of these constants, which only pin the absolute density scale.

Densities are evaluated by direct quadrature of the momentum integral on
64-point Gauss-Legendre panels.  The transmitted integrand is analytic on
the closed window (the window-edge square roots enter only through even
combinations), so the rule converges spectrally, from the almost
transparent to the deeply opaque regime, where the integral itself shrinks
below 1e-25 while staying far above the rounding floor of the quadrature.
For a wide barrier, though, the transmitted weight sits in a layer about
``1/(c L)^2`` wide at the upper window edge, where ``rho ~ c sqrt(p_max - p)``
with ``c^2 = 2 m p_max / (v0 + m)``.  So the rule of ``nodes`` nodes is
graded toward that edge, as hp-finite elements grade toward a boundary
layer (Schwab 1998): of its ``nodes // 64`` uniform panels the last is
split geometrically toward ``p_max``, the first piece ``0.25/(c L)^2`` wide
and each next one twice as wide, the last taking the rest.  The free
packet and width 0 keep that panel whole.  Either way the widest piece of
the last panel is halved if the panel count would be odd, so every rule
has an even panel count and merging its panels in pairs leaves none
shared.  ``nodes`` is the rule's uniform base; its node count is larger by
64 per piece of the last panel beyond the first.  The packet densities
and the filter statistics are integrated on this one rule.

A curve is the sum over the N nodes of the coefficients times the phase
``exp(i p z - i E t)`` at each of its K points.  On an evenly spaced grid
(the scan grids in time, position grids) the phase block factorizes into a
coarse and a fine block of about sqrt(K) columns each, the chirp-z
factorization of Rabiner, Schafer and Rader (1969), so a curve costs about
``2 N sqrt(K)`` unit phases (each a cos and a sin of a real argument,
written in place) and one matrix product per chunk instead of ``N K``
phases; other grids, and axes of fewer than four points, take the direct
sum (see ``PacketIntegrator._sum_over_nodes``).
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
# Node ceiling of the convergence gate's splits
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


def momentum_weight(p, spec: PacketSpec):
    """Gaussian weight g(p), truncated to the window, peak value 1 at p0.

    Scalar in, numpy float out; arrays map elementwise.
    """
    p_arr = np.asarray(p, dtype=float)
    g = np.exp(-((p_arr - spec.p0) ** 2) * spec.d**2 / 4.0)
    return np.where((p_arr >= spec.p_min) & (p_arr <= spec.p_max), g, 0.0)[()]


def _graded_edges(spec: PacketSpec, cfg: BarrierConfig | None, nodes: int) -> np.ndarray:
    """Panel edges of the rule of ``nodes`` nodes (see the module docstring)."""
    if nodes <= 0 or nodes % _PANEL:
        raise ValueError(f"nodes must be a positive multiple of {_PANEL}, got {nodes}")
    edges = np.linspace(spec.p_min, spec.p_max, nodes // _PANEL + 1)
    # the last panel, kept whole for the free packet and width 0
    graded = edges[-1:]
    if cfg is not None and cfg.width > 0.0:
        c2 = 2.0 * cfg.mass * spec.p_max / (cfg.v0 + cfg.mass)
        # no piece narrower than the spacing of floats at p_max
        first = max(0.25 / (c2 * cfg.width * cfg.width), np.finfo(float).eps * spec.p_max)
        # from p_max: first, 2 first, ..., 2^(pieces-2) first, then the rest of
        # the panel, at least 2^(pieces-1) first wide; one piece keeps it whole
        pieces = max(1, int(math.log2((spec.p_max - edges[-2]) / first + 1.0)))
        distances = first * (2.0 ** np.arange(pieces - 1, 0, -1) - 1.0)
        graded = np.append(spec.p_max - distances, spec.p_max)
    if (edges.size + graded.size) % 2:
        graded = np.insert(graded, 0, 0.5 * (edges[-2] + graded[0]))
    return np.concatenate((edges[:-1], graded))


def _split(edges: np.ndarray) -> np.ndarray:
    """Every panel halved."""
    out = np.empty(2 * edges.size - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _merged(edges: np.ndarray) -> np.ndarray:
    """Panels merged in pairs; ``edges`` of an even panel count."""
    return edges[::2]


def _gauss_panels(edges: np.ndarray):
    """Nodes and weights of the 64-point Gauss-Legendre rule on each panel of ``edges``."""
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


def _unit_phase(freqs, xs):
    """exp(i freqs x xs) of real ``freqs`` and ``xs``, by cos and sin filled in place."""
    out = np.empty(np.shape(freqs) + np.shape(xs), dtype=complex)
    arg = np.multiply.outer(freqs, xs, out=out.imag)
    np.cos(arg, out=out.real)
    np.sin(arg, out=arg)
    return out


def _modulus2(g, f):
    """Spinor density |g|^2 + |f|^2 of the two component amplitudes."""
    return (g * np.conj(g) + f * np.conj(f)).real


class PacketIntegrator:
    """Evaluates packet amplitudes on a fixed quadrature rule.

    The node table (momenta, energies, weighted coefficients) is built once
    and never mutated, so a single instance can be shared freely.  ``cfg=None``
    builds the free (incident) packet at unit mass; otherwise the
    coefficients include the transmitted amplitude of ``cfg``.

    The rule is the graded rule of uniform base ``nodes``, a positive
    multiple of 64 (see the module docstring); ``self.nodes`` holds its
    node count.  Every evaluation returns arrays over its axis of times
    or positions; a scalar axis is an axis of one point.
    """

    def __init__(
        self,
        spec: PacketSpec,
        cfg: BarrierConfig | None = None,
        nodes: int = 2048,
        *,
        _edges: np.ndarray | None = None,
    ):
        self.spec = spec
        self.cfg = cfg
        self.mass = 1.0 if cfg is None else float(cfg.mass)
        # the gate's split and merged rules pass their panels instead
        self._edges = _graded_edges(spec, cfg, nodes) if _edges is None else _edges
        p, w = _gauss_panels(self._edges)
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

    def _sum_over_nodes(self, fixed, freqs, cols):
        """Every row of ``fixed @ exp(i freqs x cols)``, by a factorized phase block.

        ``fixed`` stacks R coefficient rows (shape ``(R, N)``), ``freqs`` the
        N real phase rates (``-E`` on a time axis, ``p`` on a position axis);
        the result has shape ``(R, K)`` for the ``K`` points of ``cols``, a
        scalar ``cols`` being an axis of one point.  On an evenly spaced axis
        ``x_k = x_0 + k h`` the phase splits at the fine block length ``b``
        (:func:`_fine_offsets`): the fine block ``fixed * exp(i freqs x jh)``
        (``N x b`` per row) is built once, and each chunk of
        ``_TIME_CHUNK // b`` coarse columns ``exp(i freqs x x_{ab})`` is
        contracted with it in one matrix product.  A K-point axis then costs
        about ``2 N sqrt(K)`` unit phases (:func:`_unit_phase`) instead of
        ``N K``, and no phase block larger than ``N x _TIME_CHUNK`` is
        materialized.  An axis that is not evenly spaced, or has fewer than
        4 points, gets ``b = 1`` and no fine block (it would be 1): every column
        is coarse, and the sum is the matrix-vector product of ``exp(i freqs x cols)``.
        """
        cols = np.atleast_1d(np.asarray(cols, dtype=float))
        offsets = _fine_offsets(cols)
        b = offsets.size
        weighted = fixed[:, :, None] if b == 1 else fixed[:, :, None] * _unit_phase(freqs, offsets)
        starts = cols[::b]
        out = np.empty((fixed.shape[0], starts.size, b), dtype=complex)
        width = _TIME_CHUNK // b
        for i in range(0, starts.size, width):
            sl = slice(i, i + width)
            coarse = _unit_phase(freqs, starts[sl])
            out[:, sl] = coarse.T @ weighted
        return out.reshape(fixed.shape[0], -1)[:, : cols.size]

    def amplitudes(self, z: float, ts):
        """Large and small component amplitudes at position z over times ts."""
        phase_z = _unit_phase(self.p, float(z))
        g, f = self._sum_over_nodes(self._coef * phase_z, -self.energy, ts)
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
        rates = -1j * self.energy
        fixed = self._coef * _unit_phase(self.p, float(z))
        stacked = np.concatenate((fixed, fixed * rates, fixed * rates**2))
        a0, a1, a2 = self._scale * self._sum_over_nodes(stacked, -self.energy, ts).reshape(3, 2, -1)
        first = (a0.conj() * a1).real.sum(axis=0)
        second = (a0.conj() * a2).real.sum(axis=0) + _modulus2(*a1)
        return _modulus2(*a0), 2.0 * first, 2.0 * second

    def density_z(self, zs, t: float):
        """|psi|^2 on a position grid at one time."""
        evolve = _unit_phase(-self.energy, float(t))
        g, f = self._sum_over_nodes(self._coef * evolve, self.p, zs)
        return _modulus2(self._scale * g, self._scale * f)


def transmitted_density(
    z: float, t_axis, spec: PacketSpec, cfg: BarrierConfig, nodes: int = 2048
) -> np.ndarray:
    """Transmitted density at fixed position over a time axis, on the rule of ``nodes``."""
    return PacketIntegrator(spec, cfg, nodes=nodes).density(z, t_axis)


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

    Means are taken against the full spinor weight ``g_T^2 + f_T^2``, on
    the graded rule of ``nodes`` (see the module docstring).  The
    barrier suppresses low momenta exponentially harder than high ones, so
    ``p_mean`` grows with the barrier width; for very wide barriers the
    weight underflows entirely and the means become undefined, which raises
    :class:`DegenerateWeightError`.
    """
    p, w = _gauss_panels(_graded_edges(spec, cfg, nodes))
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


def _agree(a: float, b: float, tol: float) -> bool:
    scale = max(abs(a), abs(b))
    return scale == 0.0 or abs(a - b) <= tol * scale


def converged_integrator(
    spec: PacketSpec,
    cfg: BarrierConfig | None,
    z: float,
    t: float,
    tol: float = 1e-8,
    nodes: int = 2048,
    *,
    integrator: PacketIntegrator | None = None,
) -> PacketIntegrator:
    """A rule whose density at the probe ``(z, t)`` is stable to ``tol``, checked downward.

    ``integrator`` is the rule to keep (a gated scan passes the rule it
    evaluated its grid on); by default it is the graded rule of ``nodes``
    with every panel split, and a ``nodes`` above ``MAX_NODES // 2``, whose
    split would exceed ``MAX_NODES``, is refused with ``ValueError`` before
    any rule is built.  The kept rule's probe density is compared with that
    of its pairwise-merged rule, which coarsens every panel, the graded
    ones at the window edge too (for the default, exactly the rule of
    ``nodes``); if the relative change is at most ``tol``, that rule is
    returned.  Each check that fails splits every panel of the finer rule
    and compares again; no table is built twice.  The gate splits no rule
    into one of more than ``MAX_NODES`` nodes: when the next split would
    exceed that, it raises :class:`ConvergenceError` that names the
    largest rule compared and carries its density as the estimate.  (A
    rule is built whole: from a start near the limit it has somewhat more
    than ``MAX_NODES`` nodes.)

    Before any other rule is built, the relative rounding floor of the
    kept rule's probe density is estimated as
    ``eps * (|g| S0 + |f| S2) / density``, where ``S0`` and ``S2`` are the
    scaled sums of the node coefficients' moduli (the rounding bound of an
    inner product, without its ``sqrt(N)`` factor).  A ``tol`` below that
    floor is refused with a :class:`ConvergenceError` that names the floor
    and carries that density as its estimate: two rules that agree bit for
    bit do not count as converged to it.  A density of exactly 0 has no
    relative floor and skips the check.
    """
    rule = integrator
    if rule is None:
        if nodes > MAX_NODES // 2:
            raise ValueError(
                f"the gate's default start needs nodes <= MAX_NODES // 2 = {MAX_NODES // 2}, "
                f"got {nodes}"
            )
        rule = PacketIntegrator(spec, cfg, _edges=_split(_graded_edges(spec, cfg, nodes)))
    g, f = rule.amplitudes(z, t)
    density = float(_modulus2(g, f)[0])
    if density > 0.0:
        s0, s2 = rule._scale * np.sum(np.abs(rule._coef), axis=1)
        floor = np.finfo(float).eps * (abs(g[0]) * s0 + abs(f[0]) * s2) / density
        if tol < floor:
            raise ConvergenceError(
                f"tolerance {tol:g} at probe (z={z}, t={t}) is below the "
                f"rounding floor {floor:.2g} of the probe density",
                estimate=density,
            )
    coarse = float(PacketIntegrator(spec, cfg, _edges=_merged(rule._edges)).density(z, t)[0])
    while not _agree(density, coarse, tol):
        if 2 * rule.nodes > MAX_NODES:
            raise ConvergenceError(
                f"density at probe (z={z}, t={t}) did not stabilize to {tol:g}: the "
                f"largest rule compared has {rule.nodes} nodes, and its split would "
                f"exceed the ceiling of {MAX_NODES}",
                estimate=density,
            )
        rule = PacketIntegrator(spec, cfg, _edges=_split(rule._edges))
        coarse, density = density, float(rule.density(z, t)[0])
    return rule
