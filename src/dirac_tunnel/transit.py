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
from .wavepacket import NODES, PacketIntegrator, PacketSpec, converged_integrator

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


_MAX_POINTS = 1_000_000  # of any axis (time grid, filter curve, sweep), counted before it is built


def _check_grid(t_range: tuple[float, float], step: float) -> None:
    """:func:`scan_grid`'s rules, checked on the count of its grid, not the grid."""
    t_start, t_stop = float(t_range[0]), float(t_range[1])
    if not (0.0 < step < np.inf and np.isfinite([t_start, t_stop]).all()):
        raise ValueError(f"scan step {step} must be positive and the range {t_range} finite")
    if not t_stop > t_start:
        raise ValueError(f"empty time range {t_range}")
    count = (t_stop + 0.5 * step - t_start) / step  # np.arange holds ceil(count)
    if count > _MAX_POINTS:
        raise ValueError(
            f"scan step {step} makes {np.ceil(count):.7g} grid points, "
            f"over the limit of {_MAX_POINTS}"
        )
    if count <= 2.0:
        raise ValueError("time range shorter than three scan steps")


def scan_grid(t_range: tuple[float, float], step: float) -> np.ndarray:
    """The coarse time grid of a scan: ``t_range`` inclusive, spaced ``step``.

    Raises ``ValueError`` when the step is not positive and finite or the
    range not finite, when the range is empty or holds fewer than three
    grid points, too few for an interior maximum, and when it would hold
    more than ``_MAX_POINTS`` (1,000,000), counted before the grid is built.
    """
    _check_grid(t_range, step)
    return np.arange(float(t_range[0]), float(t_range[1]) + 0.5 * step, step)


def scan_peaks(
    z_eval: float,
    t_range: tuple[float, float],
    spec: PacketSpec,
    cfg: BarrierConfig,
    *,
    step: float = 0.25,
    nodes: int = NODES,
    tol: float | None = None,
    min_density_ratio: float = 1e-6,
) -> list[PeakRecord]:
    """All density extrema in time at a fixed position, sorted by time.

    A coarse grid (:func:`scan_grid`) with spacing ``step`` locates strict
    local maxima.  The floor applies to grid densities, before refinement:
    maxima below ``min_density_ratio`` (in (0, 1], else ``ValueError``)
    times the largest grid maximum, the central peak, are dropped as
    quadrature noise, and one grid minimum is taken between each adjacent
    pair of kept maxima.  These extrema are refined together on the same
    node table, each within one ``step`` of its grid point
    (:meth:`~dirac_tunnel.wavepacket.PacketIntegrator._refine`).  A range
    too short for that grid, or a grid of more than 1,000,000 points,
    raises ``ValueError``.

    The grid is evaluated once, on the graded rule of ``nodes`` nodes.
    ``tol`` switches on the quadrature convergence gate
    (:func:`~dirac_tunnel.wavepacket.converged_integrator`): at the grid's
    global maximum it checks that rule against its pairwise-merged rule,
    and keeps it if the densities agree to that relative tolerance; only a
    failed check makes the gate split every panel until two rules agree,
    and the grid be evaluated again, on the rule it keeps.  A rule the
    gate cannot split within its ``MAX_NODES`` ceiling ends in
    :class:`ConvergenceError` when its check fails.  Secondary peaks sit
    many orders of magnitude below the central one, so scans that must
    resolve them should pass a tight gate (1e-14) and a correspondingly low
    ``min_density_ratio``.  A ``tol`` below the rounding floor of the probe
    density (about 2e-16 relative) is refused with
    :class:`ConvergenceError` before any other rule is built: two rules
    that agree bit for bit do not count as converged to it.  A probe
    density of exactly 0 skips that check.

    Raises ``ValueError`` when the range contains no strict local maximum.
    """
    ts = scan_grid(t_range, step)
    if not 0.0 < min_density_ratio <= 1.0:
        raise ValueError(f"min_density_ratio must lie in (0, 1], got {min_density_ratio}")
    eng = PacketIntegrator(spec, cfg, nodes=nodes)
    dens = eng.density(z_eval, ts)
    if tol is not None:
        probe = float(ts[int(np.argmax(dens))])
        gated = converged_integrator(spec, cfg, z_eval, probe, tol=tol, integrator=eng)
        if gated is not eng:
            eng = gated
            dens = eng.density(z_eval, ts)

    max_idx = 1 + np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]))
    if max_idx.size == 0:
        raise ValueError(
            f"no local density maximum at z={z_eval} for t in "
            f"[{float(t_range[0])}, {float(t_range[1])}]"
        )

    central = max_idx[np.argmax(dens[max_idx])]
    kept = max_idx[dens[max_idx] >= min_density_ratio * dens[central]]
    # kept maxima at the even places of idx, a grid minimum between each pair
    lows = [a + 1 + int(np.argmin(dens[a + 1 : b])) for a, b in zip(kept[:-1], kept[1:])]
    idx = np.insert(kept, np.arange(1, kept.size), lows)
    times, values = eng._refine(z_eval, ts[idx], step)

    records = []
    for k, i in enumerate(idx):
        kind = PeakKind.CENTRAL_MAX if i == central else PeakKind.SECONDARY_MAX
        if k % 2:
            kind = PeakKind.MINIMUM
            if not times[k - 1] < times[k] < times[k + 1]:
                times[k], values[k] = ts[i], dens[i]
        records.append(PeakRecord(time=float(times[k]), density=float(values[k]), kind=kind))
    return records


def numeric_tunneling_time(
    spec: PacketSpec,
    cfg: BarrierConfig,
    *,
    t_range: tuple[float, float] = (-100.0, 100.0),
    step: float = 0.25,
    nodes: int = NODES,
    tol: float | None = 1e-8,
) -> tuple[float, float]:
    """Emergence time of the central peak at the downstream face, and L/tau.

    The peak of the transmitted density is located at ``z = offset + width``
    and its time read on the common clock (incident peak at z = 0 at t = 0).
    """
    if not cfg.width > 0.0:
        raise ValueError("tunneling time needs a positive barrier width")
    records = scan_peaks(
        cfg.offset + cfg.width, t_range, spec, cfg, step=step, nodes=nodes, tol=tol
    )
    tau = next(r.time for r in records if r.kind is PeakKind.CENTRAL_MAX)
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
    nodes: int = NODES,
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
    central = next(r for r in records if r.kind is PeakKind.CENTRAL_MAX)
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
