"""Peak tracking of the transmitted density and transit-time analysis.

All times are on one clock: t = 0 is the instant the incident packet's
envelope peaks at z = 0 (that is how the packet phases are set up in
:mod:`dirac_tunnel.wavepacket`).  Peak emergence times at the downstream
barrier face, arrival times at a distant detector, and the velocities
derived from them are all reported on this clock, so they can be composed
and compared directly.

The arrival-time picture this module implements is the phase-time one: the
observable is the local maximum of the density as a function of time at a
fixed position.  For thin barriers the transmitted density shows several
maxima; the scanner reports every strict local maximum above a relative
density floor, the global one labeled as the central peak.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kinematics import BarrierConfig
from .wavepacket import PacketSpec, PacketIntegrator, converged_integrator

__all__ = [
    "PeakKind",
    "PeakRecord",
    "TransitReport",
    "scan_peaks",
    "numeric_tunneling_time",
    "transit_time_predicted",
    "transit_measure",
    "superluminal_detector_bound",
]

# time spacing at which parabolic refinement of an extremum stops
_REFINE_TOL = 1e-3


class PeakKind(enum.Enum):
    CENTRAL_MAX = "central_max"
    SECONDARY_MAX = "secondary_max"
    MINIMUM = "minimum"


@dataclass(frozen=True)
class PeakRecord:
    """One extremum of the density-versus-time curve at a fixed position."""

    time: float
    density: float
    kind: PeakKind


@dataclass(frozen=True)
class TransitReport:
    """Arrival of the transmitted peak at a detector past the barrier.

    ``v_dl = detector / t_dl`` exactly; ``superluminal`` flags ``v_dl > 1``.
    """

    detector: float
    barrier_width: float
    t_dl: float
    v_dl: float
    superluminal: bool


def _refine_extremum(evaluate, t0: float, step: float, tol: float) -> float:
    """Iterated three-point parabolic refinement of an extremum position.

    The vertex formula is sign-independent, so the same loop serves maxima
    and minima.  Each round halves the probe spacing; shifts are clamped to
    one spacing so a flat or noisy triple cannot throw the iterate out of
    the bracket.
    """
    t = float(t0)
    dt = float(step)
    while dt > tol:
        va, vb, vc = evaluate(np.array([t - dt, t, t + dt]))
        denom = va - 2.0 * vb + vc
        if denom != 0.0:
            shift = 0.5 * dt * (va - vc) / denom
            t += float(np.clip(shift, -dt, dt))
        dt *= 0.5
    return t


def scan_grid(t_range: tuple[float, float], step: float) -> np.ndarray:
    """The coarse time grid of a scan: ``t_range`` inclusive, spaced ``step``.

    Raises ``ValueError`` when the range is empty or holds fewer than three
    grid points, too few for an interior maximum.
    """
    t_start, t_stop = float(t_range[0]), float(t_range[1])
    if not t_stop > t_start:
        raise ValueError(f"empty time range {t_range}")
    ts = np.arange(t_start, t_stop + 0.5 * step, step)
    if ts.size < 3:
        raise ValueError("time range shorter than three scan steps")
    return ts


def scan_peaks(
    z_eval: float,
    t_range: tuple[float, float],
    spec: PacketSpec,
    cfg: BarrierConfig,
    *,
    step: float = 0.25,
    nodes: int = 2048,
    tol: float | None = None,
    min_density_ratio: float = 1e-6,
) -> list[PeakRecord]:
    """All density extrema in time at a fixed position, sorted by time.

    A coarse grid (:func:`scan_grid`) with spacing ``step`` locates strict
    local maxima, each then refined by iterated parabolic interpolation to
    a time spacing of 1e-3.  A range too short for that grid raises
    ``ValueError``.
    Maxima whose density falls below ``min_density_ratio`` times the
    central (largest) one are treated as quadrature noise and dropped; one
    minimum is reported between each adjacent pair of surviving maxima.

    ``tol`` switches on the quadrature convergence gate: the node count is
    doubled until the density at the coarse global maximum is stable to
    that relative tolerance.  Secondary peaks sit many orders of magnitude
    below the central one, so scans that must resolve them should pass a
    tight gate (1e-14) and a correspondingly low ``min_density_ratio``.
    A ``tol`` below the rounding floor of the probe density (about 2e-16
    relative) is refused with :class:`ConvergenceError` before any finer
    rule is built: two rules that agree bit for bit do not count as
    converged to it.  A probe density of exactly 0 skips that check.

    Raises ``ValueError`` when the range contains no strict local maximum.
    """
    ts = scan_grid(t_range, step)
    eng = PacketIntegrator(spec, cfg, nodes=nodes)
    dens = eng.density(z_eval, ts)
    if tol is not None:
        probe = float(ts[int(np.argmax(dens))])
        eng = converged_integrator(spec, cfg, z_eval, probe, tol=tol, nodes=nodes)
        dens = eng.density(z_eval, ts)

    interior = np.arange(1, ts.size - 1)
    is_max = (dens[interior] > dens[interior - 1]) & (dens[interior] > dens[interior + 1])
    max_idx = interior[is_max]
    if max_idx.size == 0:
        raise ValueError(
            f"no local density maximum at z={z_eval} for t in "
            f"[{float(t_range[0])}, {float(t_range[1])}]"
        )

    def evaluate(t_arr):
        return eng.density(z_eval, t_arr)

    refined = []
    for i in max_idx:
        t_peak = _refine_extremum(evaluate, float(ts[i]), step, _REFINE_TOL)
        refined.append((t_peak, float(evaluate(np.array([t_peak]))[0]), int(i)))

    central_density = max(r[1] for r in refined)
    kept = [r for r in refined if r[1] >= min_density_ratio * central_density]
    kept.sort(key=lambda r: r[0])

    records = []
    for t_peak, d_peak, _ in kept:
        kind = PeakKind.CENTRAL_MAX if d_peak == central_density else PeakKind.SECONDARY_MAX
        records.append(PeakRecord(time=t_peak, density=d_peak, kind=kind))

    # One minimum between each adjacent pair of surviving maxima.
    for (t_a, _, i_a), (t_b, _, i_b) in zip(kept[:-1], kept[1:]):
        lo, hi = sorted((i_a, i_b))
        if hi - lo < 2:
            continue
        segment = slice(lo + 1, hi)
        j = lo + 1 + int(np.argmin(dens[segment]))
        t_min = _refine_extremum(evaluate, float(ts[j]), step, _REFINE_TOL)
        if not t_a < t_min < t_b:
            t_min = float(ts[j])
        records.append(
            PeakRecord(
                time=t_min,
                density=float(evaluate(np.array([t_min]))[0]),
                kind=PeakKind.MINIMUM,
            )
        )
    records.sort(key=lambda r: r.time)
    return records


def _central_peak(records: list[PeakRecord]) -> PeakRecord:
    for rec in records:
        if rec.kind is PeakKind.CENTRAL_MAX:
            return rec
    raise ValueError("no central maximum in scan result")


def numeric_tunneling_time(
    spec: PacketSpec,
    cfg: BarrierConfig,
    *,
    t_range: tuple[float, float] = (-100.0, 100.0),
    step: float = 0.25,
    nodes: int = 2048,
    tol: float | None = 1e-8,
) -> tuple[float, float]:
    """Emergence time of the central peak at the downstream face, and L/tau.

    The peak of the transmitted density is located at ``z = offset + width``
    and its time read on the common clock (incident peak at z = 0 at t = 0).
    """
    if not cfg.width > 0.0:
        raise ValueError("tunneling time needs a positive barrier width")
    records = scan_peaks(
        cfg.offset + cfg.width,
        t_range,
        spec,
        cfg,
        step=step,
        nodes=nodes,
        tol=tol,
    )
    tau = _central_peak(records).time
    return tau, cfg.width / tau


def transit_time_predicted(d: float, width: float, v_tun: float, v_out: float) -> float:
    """Two-leg arrival time: width at v_tun, the remaining d - width at v_out."""
    if not 0.0 <= width <= d:
        raise ValueError(f"need 0 <= width <= d, got width={width}, d={d}")
    if not v_tun > 0.0 or not 0.0 < v_out < 1.0:
        raise ValueError(
            f"velocities out of range: v_tun={v_tun}, v_out={v_out} "
            "(need v_tun > 0 and 0 < v_out < 1)"
        )
    return width / v_tun + (d - width) / v_out


def transit_measure(
    d: float,
    spec: PacketSpec,
    cfg: BarrierConfig,
    *,
    t_range: tuple[float, float] = (-100.0, 200.0),
    step: float = 0.25,
    nodes: int = 2048,
    tol: float | None = 1e-8,
) -> TransitReport:
    """Measured arrival of the transmitted peak at a detector ``d``.

    The detector must sit at or past the downstream barrier face.  The
    transit velocity is the straight-line average d / t_dl from the packet's
    t = 0 position at the origin.
    """
    if d < cfg.offset + cfg.width:
        raise ValueError(
            f"detector at {d} sits inside the barrier "
            f"[{cfg.offset}, {cfg.offset + cfg.width}]"
        )
    records = scan_peaks(d, t_range, spec, cfg, step=step, nodes=nodes, tol=tol)
    central = _central_peak(records)
    if not central.time > 0.0:
        raise ValueError(
            f"central peak at t={central.time} is not a forward arrival; "
            "extend t_range or check the geometry"
        )
    v = d / central.time
    return TransitReport(
        detector=d,
        barrier_width=cfg.width,
        t_dl=central.time,
        v_dl=v,
        superluminal=v > 1.0,
    )


def superluminal_detector_bound(v_tun: float, v_out: float, width: float) -> float:
    """Largest detector distance with a superluminal two-leg average.

    Composing a superluminal barrier leg with a subluminal free leg gives an
    average above 1 only while the detector is close enough:

        d < width (v_tun - v_out) / (v_tun (1 - v_out)).

    Returns that bound, or 0 when it is vacuous (v_tun <= 1 composes two
    subluminal legs; the bound is a length, not a negative number).
    """
    if not 0.0 < v_out < 1.0:
        raise ValueError(f"v_out must lie in (0, 1), got {v_out}")
    if width < 0.0:
        raise ValueError(f"width must be non-negative, got {width}")
    if v_tun <= 1.0:
        return 0.0
    return width * (v_tun - v_out) / (v_tun * (1.0 - v_out))
