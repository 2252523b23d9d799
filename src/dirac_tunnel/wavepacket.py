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
and each next one 4 times as wide, the last taking the rest.  (A panel
next to one R times narrower errs by about r^-128, with r = d + sqrt(d^2 -
1) and d = (R + 1)/(R - 1) (Trefethen 2013, Thm 19.3): 4e-29 at the
merged rule's ratio 16, but 1e-14 at 64.)  Width 0 keeps that panel whole;
the free packet is the barrier of width 0 at unit mass, where t(p) = 1.
Either way the widest piece of the last panel is halved if the panel count
would be odd, so every rule has an even panel count and merging its panels
in pairs leaves none shared.  ``nodes`` is the rule's uniform base; its
node count is larger by 64 per piece of the last panel beyond the first:
at v0 = m = 1 the base 512 has 768, 896 and 1152 nodes at L = 10, 100 and
800, of which a packet sums its live panels, 768, 512 and 512.  The packet
densities and the filter statistics are integrated on this one rule, in edge
coordinates (Higham 2002, ch. 1-3): edges and nodes are distances
``u = p_max - p``, the graded edges exact, and ``s = E(p_max) - E`` and rho
follow from u without cancellation (``_Nodes``, the one table of per-node
factors the packet coefficients and the filter share), so a node in the
layer sits where its weight assumes.

A curve is the sum over the N nodes of the coefficients times the phase
``exp(i p z - i E t)`` at each of its K points.  On an evenly spaced grid
(the scan grids in time, position grids) the phase block factorizes into a
coarse and a fine block of about sqrt(K) columns each, the chirp-z
factorization of Rabiner, Schafer and Rader (1969); each block is geometric
along its columns, so doubling fills it from a few unit phases (a cos and a
sin of a real argument, written in place): the doubling steps once per
axis, and a start per chunk of coarse columns.  Per node a curve costs
about ``2 log2(sqrt(K))`` unit phases, one per chunk and ``2 sqrt(K)``
complex products, plus one matrix product per chunk; other grids, and axes
of fewer than four points, take the direct sum, a unit phase per point.

Every sum measures its phases from one origin per rule, the |c|-weighted
centre ``(p_c, E_c) = (p_max - u_c, E(p_max) - s_c)`` of its nodes, as
``(u_c - u) z - (s_c - s) t``, small where the weight sits: ``amplitudes``
lack the phase ``exp(i(p_c z - E_c t - p_max L))`` common to both
components, which the densities drop.  Near one time t0 the amplitudes are
a Taylor series in (t - t0) / T, T a power of two the rates set
(``PacketIntegrator._taylor``, a unit phase per node in all), from which
``_refine`` and ``density_dt`` read densities and time derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateWeightError
from .kinematics import BarrierConfig, evanescent_rho, momentum_window, total_energy
# transmission_amplitude is not called here: perfbench/tracer.py wraps it by this name
from .scattering import _scaled_denominator, transmission_amplitude  # noqa: F401

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
NODES = 512          # default base of the graded rule, the library's and the CLI's
# Node ceiling of the convergence gate's splits
MAX_NODES = 65536
# Terms, reach and term factors (-i)^k / k! of the Taylor series of the amplitudes in time
# (PacketIntegrator._taylor): while |E - E_c| |t - t0| <= 1/2, the first
# dropped terms of the amplitude and of its time derivative, 0.5**16 / 16!
# = 7e-19 and 0.5**15 / 15! = 2e-17, lie below eps = 2.2e-16 of sum |c|
_TAYLOR_TERMS = 16
_TAYLOR_REACH = 0.5
_TAYLOR_FACTORS = np.array([(-1j) ** k / math.factorial(k) for k in range(_TAYLOR_TERMS)])
# The free packet: at width 0 the coefficients take no t(p), so v0 does not enter
_FREE = BarrierConfig(v0=1.0, width=0.0)


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
        if not 0.0 <= self.p_min < self.p_max:
            raise ValueError(f"invalid momentum window [{self.p_min}, {self.p_max}]")
        # the weight's exponent (p - p0)^2 d^2, multiplied: float ** raises on overflow
        span = self.p_max - self.p_min
        if not (self.d > 0.0 and math.isfinite(span * span * (self.d * self.d))):
            raise ValueError(
                f"packet width d must be positive, (p_max - p_min)^2 d^2 finite, got {self.d}"
            )
        if not self.p_min <= self.p0 <= self.p_max:
            raise ValueError(
                f"central momentum {self.p0} outside window "
                f"[{self.p_min}, {self.p_max}]"
            )

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


def _graded_edges(spec: PacketSpec, cfg: BarrierConfig, nodes: int) -> np.ndarray:
    """Panel edges, distances u = p_max - p, of the rule of ``nodes`` nodes (module docstring)."""
    if nodes <= 0 or nodes % _PANEL:
        raise ValueError(f"nodes must be a positive multiple of {_PANEL}, got {nodes}")
    edges = np.linspace(spec.p_max - spec.p_min, 0.0, nodes // _PANEL + 1)
    # the last panel, kept whole at width 0
    graded = edges[-1:]
    if cfg.width > 0.0:
        c2 = 2.0 * cfg.mass * spec.p_max / (cfg.v0 + cfg.mass)
        # no piece narrower than the spacing of floats at p_max
        first = max(0.25 / (c2 * cfg.width * cfg.width), np.finfo(float).eps * spec.p_max)
        # from p_max: first, 4 first, ..., 4^(pieces-2) first, then the rest of
        # the panel, at least 4^(pieces-1) first wide; one piece keeps it whole
        pieces = max(1, int(math.log(3.0 * edges[-2] / first + 1.0, 4.0)))
        graded = np.append(first * (4.0 ** np.arange(pieces - 1, 0, -1) - 1.0) / 3.0, 0.0)
    if (edges.size + graded.size) % 2:
        graded = np.insert(graded, 0, 0.5 * (edges[-2] + graded[0]))
    return np.concatenate((edges[:-1], graded))


def _split(edges: np.ndarray) -> np.ndarray:
    """Every panel halved."""
    out = np.empty(2 * edges.size - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _gauss_panels(edges: np.ndarray):
    """64-point Gauss-Legendre nodes and weights on each panel of rising or falling ``edges``."""
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + np.outer(half, _PANEL_NODES)).ravel()
    return x, np.outer(np.abs(half), _PANEL_WEIGHTS).ravel()


class _Nodes:
    """The factors of a packet's coefficients and of its filter that no width changes, for a
    packet and a barrier's v0 and mass: p, E, s = E(p_max) - E, rho, beta = p^2 - v0 E, the
    weight g and E + m.

    On a caller's momenta ``p``, rho is :func:`evanescent_rho`'s, which refuses a momentum off
    the barrier's window, and s is not taken.  On a rule's distances ``u`` from p_max,
    ``p = p_max - u`` and ``s = u (p_max + p) / (E(p_max) + E)``; rho = sqrt(s (2m - s)) then
    follows from u without cancellation on a packet in the barrier's window up to its edge
    (E = v0 + m), else from p, and at width 0, where no t(p) is taken, not at all.  The table
    records no packet, barrier or momenta: a caller that reuses it passes the same ones.
    """

    def __init__(self, spec: PacketSpec, cfg: BarrierConfig, p=None, *, u=None):
        p = np.asarray(p, dtype=float) if u is None else spec.p_max - u
        energy = total_energy(p, cfg.mass)
        self.s = self.rho = None
        if u is not None:
            self.s = u * (spec.p_max + p) / (total_energy(spec.p_max, cfg.mass) + energy)
            lo, hi = momentum_window(cfg)
            if spec.p_max == hi and spec.p_min >= lo:
                self.rho = np.sqrt(self.s * (2.0 * cfg.mass - self.s))
        if self.rho is None and (u is None or cfg.width):
            self.rho = evanescent_rho(p, cfg)
        self.p, self.energy, self.beta = p, energy, p * p - cfg.v0 * energy
        self.g, self.e_m = momentum_weight(p, spec), energy + cfg.mass

    def filtered(self, width: float):
        """(g_T, f_T) at ``width``, |t| = p e^{-rho L} / |e^{-rho L} D| in real arithmetic, 1 at 0."""
        g_t = self.g
        if width:
            decay, re, im = _scaled_denominator(self.p, self.rho, self.beta, width)
            g_t = g_t * (self.p * decay / np.hypot(re, im))
        return g_t, g_t * self.p / self.e_m


def _fine_block(axis: np.ndarray) -> tuple[float, int]:
    """Step ``h`` and length ``b`` of the fine block of the phase factorization on ``axis``.

    ``b = isqrt(K)`` (at most ``_TIME_CHUNK``) when the K points each lie within
    ``_EVEN_ULPS`` ulps of ``max|x|`` of the line through the first and last
    one; otherwise, or when ``K < 4``, ``b = 1`` and ``h = 0``.
    """
    k = axis.size
    if k < 4:
        return 0.0, 1
    h = (axis[-1] - axis[0]) / (k - 1)
    drift = np.max(np.abs(axis - (axis[0] + h * np.arange(k))))
    if not drift <= _EVEN_ULPS * np.finfo(float).eps * np.max(np.abs(axis)):
        return 0.0, 1
    return h, min(math.isqrt(k), _TIME_CHUNK)


def _unit_phase(freqs, xs, shift=None):
    """exp(i (shift + freqs x xs)) of real arguments, by cos and sin filled in place.

    ``shift``, if given, holds one phase per rate of ``freqs``.
    """
    out = np.empty(np.shape(freqs) + np.shape(xs), dtype=complex)
    arg = np.multiply.outer(freqs, xs, out=out.imag)
    if shift is not None:
        np.add(arg.T, shift, out=arg.T)
    np.cos(arg, out=out.real)
    np.sin(arg, out=arg)
    return out


def _ladder_steps(freqs, h, k):
    """The unit phases at ``n h``, n = 1, 2, 4, ... below ``k``: the steps of a k-row ladder."""
    return [_unit_phase(freqs, (1 << e) * h) for e in range((k - 1).bit_length())]


def _phase_ladder(first, steps, k):
    """Rows ``first x exp(i freqs x j h)``, ``j < k``, by doubling with ``steps``.

    ``steps`` are the ladder steps at ``h`` (:func:`_ladder_steps`, of a
    ladder of k rows or more, so one list serves every shorter ladder).  Row
    0 is ``first``, and rows n to 2n - 1 are rows 0 to n - 1 times the step
    at ``n h``: each row is ``first`` times a product of at most
    ``ceil(log2 k)`` unit phases, off by about that many eps (Higham 2002,
    ch. 3) beyond the rounding of their arguments, ``eps/2 |freqs| j|h|``.
    """
    out = np.empty((k, np.size(first)), dtype=complex)
    out[0] = first
    for e in range((k - 1).bit_length()):
        n = 1 << e
        np.multiply(out[: min(n, k - n)], steps[e], out=out[n : 2 * n])
    return out


def _modulus2(g, f):
    """Spinor density |g|^2 + |f|^2 of the two component amplitudes."""
    return (g * np.conj(g) + f * np.conj(f)).real


class PacketIntegrator:
    """Evaluates packet amplitudes, up to their shared phase, on a fixed quadrature rule.

    The node table (momenta, energies, weighted coefficients) is built once
    and never mutated, so a single instance can be shared freely.  The
    coefficients are taken from the rule's node factors (``_Nodes``, as the
    filter statistics take theirs) and include the transmitted amplitude
    of ``cfg``; ``cfg=None`` is the barrier of width 0 at unit mass, where
    t(p) = 1: the free (incident) packet.

    The rule is the graded rule of uniform base ``nodes``, a positive
    multiple of 64 (see the module docstring); ``self.nodes`` counts its
    nodes, and the tables (``p``, ``energy``, the coefficients) hold its live
    panels, those whose sum |c| is above 2^-64 of the rule's (all if it is 0):
    a dropped panel moves no sum by more than 5.4e-20 sum |c|.  Every
    evaluation returns arrays over its axis of times or positions (a scalar
    axis is one point); ``density`` is the modulus of ``amplitudes``.
    """

    def __init__(
        self,
        spec: PacketSpec,
        cfg: BarrierConfig | None = None,
        nodes: int = NODES,
        *,
        _edges: np.ndarray | None = None,
    ):
        cfg = _FREE if cfg is None else cfg
        # the gate's split and merged rules pass their panels instead
        self._edges = _graded_edges(spec, cfg, nodes) if _edges is None else _edges
        u, w = _gauss_panels(self._edges)
        n = _Nodes(spec, cfg, u=u)
        coef = w * n.g
        if cfg.width:
            # t(p) without its phase e^{-i p_max L}, common to every node
            decay, re, im = _scaled_denominator(n.p, n.rho, n.beta, cfg.width)
            coef = coef * (n.p * decay * np.exp(1j * u * cfg.width) / (re + 1j * im))
        mass = np.abs(coef).reshape(-1, _PANEL).sum(axis=1)
        live = np.repeat((mass > math.ldexp(mass.sum(), -64)) | (not mass.any()), _PANEL)
        self.p, self.energy, self.nodes = n.p[live], n.energy[live], n.p.size
        coef, u, s = coef[live], u[live], n.s[live]
        # Constant amplitude normalization, see the module docstring.
        self._scale = 2.0 * float(total_energy(spec.p0, cfg.mass))
        # the two coefficient rows c0 (large component) and c2 (small)
        self._coef = np.stack((coef, coef * (self.p / n.e_m[live])))
        # the rates from the phase origin of every sum, the |c|-weighted centre (u_c, s_c);
        # the series' unit of time, the power of two at or below its reach (1 with no rate)
        weight = np.abs(coef) / (np.sum(np.abs(coef)) or 1.0)
        self._wave, self._rate = weight @ u - u, weight @ s - s
        top = np.max(np.abs(self._rate))
        self._unit = math.ldexp(1.0, math.frexp(_TAYLOR_REACH / top)[1] - 1) if top else 1.0

    # -- core evaluation ---------------------------------------------------

    def _sum_over_nodes(self, freqs, axis, shift):
        """The scaled amplitudes ``(g, f)``, shape ``(2, K)``, of the integrator's table.

        Each row is ``_scale`` times a coefficient row of ``_coef`` (shape ``(2, N)``)
        contracted with ``exp(i (shift + freqs x axis))`` at the ``K >= 0`` points of
        ``axis``.  The N rates ``freqs`` and the N phases ``shift`` added to every point's
        argument are read from the rule's origin, ``(-_rate, _wave z)`` on a time axis and
        ``(_wave, -_rate t)`` on a position axis.  On an evenly spaced axis ``x_k = x_0 + k
        h`` the phase splits at the fine block length ``b`` (:func:`_fine_block`): the fine
        block ``_coef * exp(i freqs x jh)`` is built once, and each chunk of ``_TIME_CHUNK
        // b`` coarse columns ``exp(i (shift + freqs x x_{ab}))`` is contracted with it in
        one matrix product.  Both are phase ladders (:func:`_phase_ladder`), the fine one
        from exact ones and each coarse one from a unit phase at its chunk's start; the
        steps of both are built once per axis.  That is the cost per node of the module
        docstring, and no block larger than ``N x _TIME_CHUNK`` is materialized.  An axis
        that is not evenly spaced, or has fewer than 4 points, gets ``b = 1`` and no fine
        block: each column is a unit phase (:func:`_unit_phase`) of its own.
        """
        axis = np.atleast_1d(np.asarray(axis, dtype=float))
        h, b = _fine_block(axis)
        starts = axis[::b]
        width = max(1, min(_TIME_CHUNK // b, starts.size))
        weighted = self._coef[:, :, None]
        if b > 1:
            ones = np.ones(np.size(freqs), dtype=complex)
            weighted = weighted * _phase_ladder(ones, _ladder_steps(freqs, h, b), b).T
            steps = _ladder_steps(freqs, b * h, width)
        out = np.empty((2, starts.size, b), dtype=complex)
        for i in range(0, starts.size, width):
            sl = slice(i, i + width)
            first = _unit_phase(freqs, starts[sl] if b == 1 else starts[i], shift)
            coarse = first.T if b == 1 else _phase_ladder(first, steps, starts[sl].size)
            out[:, sl] = coarse @ weighted
        return self._scale * out.reshape(2, -1)[:, : axis.size]

    def amplitudes(self, z: float, ts):
        """Large and small component amplitudes ``(g, f)`` at position z over times ts.

        Summed from the rule's origin, so both lack the phase ``exp(i(p_c z
        - E_c t - p_max L))`` they share, which no density sees.
        """
        g, f = self._sum_over_nodes(-self._rate, ts, self._wave * z)
        return g, f

    def density(self, z: float, ts):
        """|psi|^2 at position z for each time in ts: the modulus of :meth:`amplitudes`."""
        return _modulus2(*self.amplitudes(z, ts))

    def density_dt(self, z: float, ts):
        """|psi|^2 and its first two time derivatives at z, as arrays over times ts.

        Read at offset 0 from the Taylor series about each time (:meth:`_taylor`).
        """
        return self._series_density(self._taylor(z, ts), 0.0)

    def _taylor(self, z: float, t0s):
        """Taylor coefficients in ``s = (t - t0) / _unit`` of the amplitudes at z about times ``t0s``.

        Term k of component c about the K times ``t0s`` (shape ``(16, 2, K)``)
        is ``M_k = sum_n c_n exp(i(_wave_n z - _rate_n t0)) (-i _rate_n
        _unit)^k / k!``, phases from the rule's origin, so the amplitudes at
        ``t0 + s _unit`` are ``exp(i(p_c z - E_c (t0 + s _unit) - p_max L))
        sum_k M_k s^k``; that common phase drops out of |psi|^2 and its derivatives.  The
        coefficients times a unit phase per time meet the real table ``(_rate_n _unit)^k`` in
        one real matrix product, sum k taken times ``(-i)^k / k!``.  As ``|_rate_n _unit| <=
        1/2``, no term overflows, and the sums are exact to below eps x sum |c| while |s| <= 1.
        """
        rate, powers = self._rate * self._unit, np.ones((_TAYLOR_TERMS, self.p.size))
        for k in range(1, _TAYLOR_TERMS):
            np.multiply(powers[k - 1], rate, out=powers[k])
        phase = _unit_phase(-self._rate, np.atleast_1d(t0s), self._wave * z)
        phased = np.multiply(self._coef.T[:, :, None], phase[:, None], order="C")
        sums = (powers @ phased.reshape(rate.size, -1).view(float)).view(complex)
        return self._scale * _TAYLOR_FACTORS[:, None, None] * sums.reshape(_TAYLOR_TERMS, 2, -1)

    def _series_density(self, series, delta):
        """|psi|^2 and its first two time derivatives at offsets ``delta`` from the series' times.

        ``series`` is :meth:`_taylor`'s.  With G, F its sums ``sum_k M_k s^k``
        at ``s = delta / _unit``, |psi|^2 = |G|^2 + |F|^2, d|psi|^2/ds = 2 Re(G*
        G' + F* F') and d^2|psi|^2/ds^2 = 2 Re(G* G'' + F* F'') + 2 (|G'|^2 +
        |F'|^2), which over ``_unit`` and ``_unit^2`` are the time derivatives.
        """
        k = np.arange(_TAYLOR_TERMS)[:, None, None]
        powers = (np.asarray(delta, dtype=float) / self._unit) ** k
        value = (series * powers).sum(axis=0)
        first = (series[1:] * (k[1:] * powers[:-1])).sum(axis=0)
        second = (series[2:] * (k[2:] * (k[2:] - 1) * powers[:-2])).sum(axis=0)
        slope = (value.conj() * first).real.sum(axis=0)
        curve = (value.conj() * second).real.sum(axis=0) + _modulus2(*first)
        return _modulus2(*value), 2.0 * slope / self._unit, 2.0 * curve / self._unit**2

    def _refine(self, z: float, ts: np.ndarray, step: float):
        """(times, densities) of the extrema near grid times ``ts``, by Newton on d|psi|^2/dt.

        Each round opens with the one read of the extrema still moving: their
        densities and first two time derivatives from the Taylor series of their
        amplitudes (:meth:`_series_density`), built together about their grid
        times at ``z`` (:meth:`_taylor`, a unit phase per extremum); an iterate
        more than ``_unit`` away re-centres its series on itself.  Iterates are
        clamped to one ``step`` around their grid times; an extremum stops at its
        first step no smaller than the one before (or zero), keeping the density
        read at its last iterate, so steps strictly decrease and no tolerance is
        needed.  A maximum and a minimum are roots alike.
        """
        t = ts.astype(float)
        centre = t.copy()
        series = self._taylor(z, centre)
        density, last = np.empty(t.size), np.full(t.size, np.inf)
        moving = np.arange(t.size)
        while moving.size:
            density[moving], first, second = self._series_density(
                series[:, :, moving], t[moving] - centre[moving]
            )
            newton = np.divide(first, second, out=np.zeros_like(first), where=second != 0.0)
            t_next = np.clip(t[moving] - newton, ts[moving] - step, ts[moving] + step)
            move = np.abs(t_next - t[moving])
            shrinks = (0.0 < move) & (move < last[moving])
            moving = moving[shrinks]
            t[moving], last[moving] = t_next[shrinks], move[shrinks]
            far = moving[np.abs(t[moving] - centre[moving]) > self._unit]
            if far.size:
                centre[far] = t[far]
                series[:, :, far] = self._taylor(z, centre[far])
        return t, density

    def density_z(self, zs, t: float):
        """|psi|^2 on a position grid at one time."""
        return _modulus2(*self._sum_over_nodes(self._wave, zs, -self._rate * t))


def transmitted_density(
    z: float, t_axis, spec: PacketSpec, cfg: BarrierConfig, nodes: int = NODES
) -> np.ndarray:
    """Transmitted density at fixed position over a time axis, on the rule of ``nodes``."""
    return PacketIntegrator(spec, cfg, nodes=nodes).density(z, t_axis)


def filtered_distributions(p, spec: PacketSpec, cfg: BarrierConfig, *, _filter=None):
    """Filtered momentum distributions (g_T, f_T) of the transmitted packet.

    ``g_T = g |t|`` weights the large component, ``f_T = g_T p / (E + m)``
    the small one; both use the bare (peak value 1) weight convention.  |t|
    is taken in real arithmetic, so every ``p`` must lie in the window, at
    width 0 too.  ``_filter``, if given, stands for ``_Nodes(spec, cfg, p)``
    built at any width of the same v0 and mass: the factors no width
    changes, hoisted out of a loop over widths.
    """
    return (_filter or _Nodes(spec, cfg, p)).filtered(cfg.width)


def filter_stats(spec: PacketSpec, cfg: BarrierConfig, nodes: int = NODES) -> FilterStats:
    """Mean momentum, energy and velocity of the transmitted distribution.

    Means are taken against the full spinor weight ``g_T^2 + f_T^2``, on
    the graded rule of ``nodes`` (see the module docstring), its node
    factors built in one pass.  The barrier suppresses low momenta
    exponentially harder than high ones, so ``p_mean`` grows with the
    barrier width; for very wide barriers the weight underflows entirely and
    the means become undefined, which raises :class:`DegenerateWeightError`.
    """
    u, w = _gauss_panels(_graded_edges(spec, cfg, nodes))
    table = _Nodes(spec, cfg, u=u)
    g_t, f_t = table.filtered(cfg.width)
    weight = g_t * g_t + f_t * f_t
    total = float(np.sum(w * weight))
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightError(
            f"transmitted weight underflows for width={cfg.width}; "
            "filter statistics are undefined"
        )
    p_mean = float(np.sum(w * table.p * weight) / total)
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
    *,
    integrator: PacketIntegrator | None = None,
) -> PacketIntegrator:
    """A rule whose density at the probe ``(z, t)`` is stable to ``tol``, checked downward.

    ``integrator`` is the rule to keep (a gated scan passes the rule it
    evaluated its grid on); by default it is the graded rule of ``nodes`` with
    every panel split.  Its default ``nodes``, 2048, is the gate's own start,
    not ``NODES``: a probe checked alone keeps at least 4096 nodes, as
    acceptance criterion 6 expects.  A ``nodes`` above ``MAX_NODES // 2``,
    whose split would exceed ``MAX_NODES``, is refused with ``ValueError``
    before any rule is built.  The kept rule's probe density is compared with
    that of its pairwise-merged rule, which coarsens every panel, the graded
    ones at the window edge too (for the default, exactly the rule of
    ``nodes``); if the relative change is at most ``tol``, that rule is
    returned.  Each check that fails splits every panel of the finer rule and
    compares again; no table is built twice.  The gate splits no rule into one
    of more than ``MAX_NODES`` nodes: when the next split would exceed that,
    it raises :class:`ConvergenceError` that names the largest rule compared
    and carries its density as the estimate.  (A rule is built whole: from a
    start near the limit it has somewhat more than ``MAX_NODES`` nodes.)

    Before any other rule is built, the relative rounding floor of the
    kept rule's probe density is estimated as
    ``eps * (|g| S0 + |f| S2) / density``, where ``S0`` and ``S2`` are the
    scaled sums of the node coefficients' moduli (the rounding bound of an
    inner product, without its ``sqrt(N)`` factor).  A ``tol`` below that
    floor is refused with a :class:`ConvergenceError` that names the floor
    and carries that density as its estimate: two rules that agree bit for
    bit do not count as converged to it.  A density of exactly 0 has no
    relative floor and skips the check.  The floor leaves out the rounding
    of the phase arguments, which grows with |z| and |t|: at the transmitted
    peak behind L = 10, (z, t) = (30010, 43278.75), it reads 4.3e-15, yet
    resolved rules differ there by 1e-13 to 2.4e-12, so a ``tol`` of 1e-14
    runs out of nodes instead of being refused up front.
    """
    cfg = _FREE if cfg is None else cfg
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
    coarse = float(PacketIntegrator(spec, cfg, _edges=rule._edges[::2]).density(z, t)[0])
    while not abs(density - coarse) <= tol * max(abs(density), abs(coarse)):
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
