"""Write ``references.json``: converged outputs for every candidate width.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py

Every value is computed through the library's public functions at a fixed
high node count with the convergence gate off, so widths whose gated run
fails at the seed (table1 at L >= 67, the wide ladder near L = 800) get
references too.  Each value is also computed at twice the node count and
must agree to a tenth of its check tolerance; overlapping values are
cross-checked against the frozen oracles of ``tests/test_acceptance.py``.
Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests")]

import test_acceptance as oracles  # noqa: E402
import workloads as wl  # noqa: E402
from dirac_tunnel import wavepacket  # noqa: E402
from dirac_tunnel.asymptotics import (  # noqa: E402
    opaque_tunneling_time,
    opaque_tunneling_velocity,
    series_coefficients,
)
from dirac_tunnel.kinematics import BarrierConfig, momentum_window  # noqa: E402
from dirac_tunnel.transit import numeric_tunneling_time, scan_peaks  # noqa: E402
from dirac_tunnel.wavepacket import (  # noqa: E402
    PacketSpec,
    filter_stats,
    filtered_distributions,
    momentum_weight,
)

# Smaller column blocks keep 131072-node evaluations near 300 MB; chunking
# does not change which values are summed.
wavepacket._TIME_CHUNK = 64

NODES = {"times_ladder": 16384, "tight_catalog": 16384, "wide_ladder": 65536, "filter_sweep": 16384}

P0 = math.sqrt(3.0) / 2.0
BARRIER0 = BarrierConfig(v0=1.0, width=0.0)
LO, HI = momentum_window(BARRIER0)
SPEC = PacketSpec(p0=P0, d=10.0, p_min=LO, p_max=HI)
COEFFS = series_coefficients(BARRIER0)
V_OPAQUE = opaque_tunneling_velocity(BARRIER0)


def barrier(width: float) -> BarrierConfig:
    return BarrierConfig(v0=1.0, width=width)


def agree(a: float, b: float, rel: float, what: str):
    if not abs(a - b) <= rel * abs(b):
        raise SystemExit(f"not converged: {what}: {a!r} vs {b!r} (rel {rel:g})")


def times(width: float, t_range, nodes: int) -> dict:
    def tau_at(n):
        return numeric_tunneling_time(
            SPEC, barrier(width), t_range=t_range, step=0.25, nodes=n, tol=None
        )[0]

    tau = tau_at(nodes)
    agree(tau, tau_at(2 * nodes), wl.TAU_REL / 10, f"tau L={width}")
    return {
        "tau": tau,
        "v": width / tau,
        "tau_opaque": opaque_tunneling_time(width, COEFFS, mode="exact").tau,
        "v_opaque": V_OPAQUE,
    }


def catalog(width: float, nodes: int) -> list:
    def scan(n):
        return [
            [r.kind.value, r.time, r.density]
            for r in scan_peaks(
                width, (-100.0, 100.0), SPEC, barrier(width),
                step=0.25, nodes=n, tol=None, min_density_ratio=1e-13,
            )
        ]

    ref, finer = scan(nodes), scan(2 * nodes)
    if [r[0] for r in ref] != [r[0] for r in finer]:
        raise SystemExit(f"not converged: catalog kinds at L={width}")
    for (_, t, d), (_, t2, d2) in zip(ref, finer):
        if abs(t - t2) > wl.PEAK_TIME_ABS / 10:
            raise SystemExit(f"not converged: catalog time at L={width}: {t} vs {t2}")
        agree(d, d2, wl.PEAK_DENSITY_REL / 10, f"catalog density L={width} t={t}")
    return ref


def filter_row(width: float, nodes: int, samples: int) -> dict:
    cfg = barrier(width)
    stats, finer = filter_stats(SPEC, cfg, nodes=nodes), filter_stats(SPEC, cfg, nodes=2 * nodes)
    agree(stats.p_mean, finer.p_mean, wl.FILTER_REL / 10, f"p_mean L={width}")
    p_axis = np.linspace(SPEC.p_min, SPEC.p_max, samples)
    g_t, f_t = filtered_distributions(p_axis, SPEC, cfg)
    columns = {"p": p_axis, "weight": momentum_weight(p_axis, SPEC), "g_t": g_t, "f_t": f_t}
    row = {
        "p_mean": stats.p_mean,
        "e_mean": stats.e_mean,
        "v_out": stats.v_out,
        "transmitted_weight": stats.transmitted_weight,
        "component_ratio": stats.p_mean / (stats.e_mean + 1.0),
        "samples": samples,
    }
    row.update({f"sum_{n}": math.fsum(c.tolist()) for n, c in columns.items()})
    return row


def cross_check(refs: dict):
    """The references must agree with the repository's frozen oracles."""
    tight = refs["tight_catalog"]

    def central(width):
        return next(r for r in tight[wl.key(width)] if r[0] == "central_max")

    emergence = {**oracles.CENTRAL_TIME_REFS, **oracles.WIDE_TIME_REFS}
    for width, t_ref in emergence.items():
        agree(central(width)[1], t_ref, 0.05, f"oracle central time L={width}")
    # the tightest overlap: tau(50) = 15.67 to 0.1% (README)
    agree(central(50.0)[1], 15.67, 1e-3, "README tau L=50")
    for width, d_ref in oracles.CENTRAL_DENSITY_REFS.items():
        if not d_ref / 3 <= central(width)[2] <= 3 * d_ref:
            raise SystemExit(f"oracle central density L={width}: {central(width)[2]} vs {d_ref}")
    for t_ref in oracles.SECONDARY_REFS_10:
        nearest = min(
            (r for r in tight[wl.key(10.0)] if r[0] == "secondary_max"),
            key=lambda r: abs(r[1] - t_ref),
        )
        agree(nearest[1], t_ref, 0.02, f"oracle secondary time near {t_ref}")
    # fig3_times and table1 locate the same central peak
    agree(refs["times_ladder"][wl.key(100.0)]["tau"], central(100.0)[1], wl.TAU_REL, "tau L=100")
    filt = refs["filter_sweep"]
    for width, target in ((0.0, 37.3), (50.0, 57.7)):
        ratio = 100.0 * filt[wl.key(width)]["component_ratio"]
        if abs(ratio - target) > 0.5:
            raise SystemExit(f"oracle component ratio L={width}: {ratio} vs {target}")


def main():
    refs: dict = {"nodes": NODES}
    w = wl.WORKLOADS
    wide_stop = max(w["wide_ladder"].candidates()) / 2.0
    samples = w["filter_sweep"].settings["curve_samples"]
    jobs = {
        "times_ladder": lambda L: times(L, (-100.0, 100.0), NODES["times_ladder"]),
        "tight_catalog": lambda L: catalog(L, NODES["tight_catalog"]),
        "wide_ladder": lambda L: times(L, (0.0, wide_stop), NODES["wide_ladder"]),
        "filter_sweep": lambda L: filter_row(L, NODES["filter_sweep"], samples),
    }
    for name, job in jobs.items():
        refs[name] = {}
        for width in w[name].candidates():
            refs[name][wl.key(width)] = job(width)
            wavepacket._cached_integrator.cache_clear()
        print(f"{name}: {len(refs[name])} widths", flush=True)
    cross_check(refs)
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCES}")


if __name__ == "__main__":
    main()
