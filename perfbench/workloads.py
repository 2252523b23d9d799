"""Benchmark workloads: seeded scenario inputs and the reference check.

Each workload is one CLI scenario over a ladder of barrier widths.  Every
canonical width owns a slot of candidate widths (the canonical one plus
small offsets); seed 0 takes the canonical width in every slot, any other
seed draws one candidate per slot.  The offsets are small enough that every
candidate of a slot falls in the same convergence-gate class as the
canonical width (same node count reached, same pass or fail), so the
cost of a run and its seed-state failures do not depend on the seed.

An item is one width.  It passes when its output rows match the frozen
references in ``references.json`` (written by ``make_references.py``)
within the tolerances below.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Relative tolerance on measured emergence times (and L/tau): the accuracy
# the converged quadrature must reach, whatever rule computes it.
TAU_REL = 1e-4
# Closed forms do not depend on quadrature.
CLOSED_REL = 1e-9
# Extremum catalogs: times absolute, densities relative.  Fringes twelve
# orders below the central peak carry the rounding noise of the sum.
PEAK_TIME_ABS = 1e-4
PEAK_DENSITY_REL = 1e-4
# Filter statistics (fixed 2048-node rule against the reference rule, whose
# error in transmitted_weight grows to 2.5e-9 at L = 100) and the sums of
# the filter curves (closed forms on the sample axis).
FILTER_REL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    canonical: tuple[float, ...]
    offsets: tuple[float, ...]  # candidate offsets of every slot; 0 is canonical
    settings: dict = field(default_factory=dict)
    # scan t = 0 ... max(L) / 2, which holds every emergence peak (tau < L / 2.6)
    window_from_widths: bool = False

    def slot(self, width: float) -> list[float]:
        return [round(width + off, 6) for off in self.offsets]

    def candidates(self) -> list[float]:
        return sorted({c for w in self.canonical for c in self.slot(w)})

    def widths(self, seed: int) -> list[float]:
        if seed == 0:
            return [float(w) for w in self.canonical]
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.choice(self.slot(w)) for w in self.canonical]

    def config_text(self, widths: list[float]) -> str:
        """The generated config file: the only input the library receives."""
        numerics = dict(self.settings)
        if self.window_from_widths:
            numerics["t_start"] = 0.0
            numerics["t_stop"] = max(widths) / 2.0
        lines = ["[geometry]", "L = " + ", ".join(repr(w) for w in widths)]
        if numerics:
            lines.append("[numerics]")
            lines += [f"{key} = {value!r}" for key, value in numerics.items()]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "times_ladder",
            "fig3_times",
            canonical=tuple(float(w) for w in range(4, 101, 4)),
            offsets=(0.0, -1.0, 1.0),
        ),
        Workload(
            "tight_catalog",
            "table1",
            canonical=(10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 75.0, 100.0),
            offsets=(0.0, -1.0, 1.0),
        ),
        Workload(
            "wide_ladder",
            "fig3_times",
            canonical=(200.0, 400.0, 800.0),
            offsets=(0.0, -4.0, -2.0, 2.0, 4.0),
            window_from_widths=True,
        ),
        Workload(
            "filter_sweep",
            "fig1_filter",
            canonical=tuple(0.5 * i for i in range(201)),
            offsets=(0.0, 0.1, 0.2),
            settings={"curve_samples": 2048},
        ),
    )
}


def key(width: float) -> str:
    return repr(float(width))


def width_tag(width: float) -> str:
    """File-name tag of a width, as the CLI writes it."""
    return format(float(width), "g").replace(".", "p").replace("-", "m")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV file (comment and header lines dropped)."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    return rows[1:]


def _close(value: float, ref: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref)


def _read_times(out: Path) -> dict:
    return {float(r[0]): [float(x) for x in r[1:]] for r in _rows(out / "times.csv")}


def _match_times(row, ref) -> bool:
    tau, v, tau_opaque, v_opaque = row
    return (
        _close(tau, ref["tau"], TAU_REL)
        and _close(v, ref["v"], TAU_REL)
        and _close(tau_opaque, ref["tau_opaque"], CLOSED_REL)
        and _close(v_opaque, ref["v_opaque"], CLOSED_REL)
    )


def _read_catalogs(out: Path) -> dict:
    catalogs: dict[float, list] = {}
    for r in _rows(out / "peaks.csv"):
        catalogs.setdefault(float(r[0]), []).append((r[1], float(r[2]), float(r[3])))
    return catalogs


def _match_catalog(got, ref) -> bool:
    return len(got) == len(ref) and all(
        kind == r_kind and abs(t - r_t) <= PEAK_TIME_ABS and _close(d, r_d, PEAK_DENSITY_REL)
        for (kind, t, d), (r_kind, r_t, r_d) in zip(got, ref)
    )


_FILTER_STATS = ("p_mean", "e_mean", "v_out", "transmitted_weight", "component_ratio")


def _curve_sums(path: Path) -> dict:
    """Column sums of one filter curve file, with its row count."""
    rows = _rows(path)
    cols = list(zip(*[[float(x) for x in r] for r in rows]))
    sums = {f"sum_{n}": math.fsum(c) for n, c in zip(("p", "weight", "g_t", "f_t"), cols)}
    sums["samples"] = len(rows)
    return sums


def _read_filter(out: Path) -> dict:
    """Per width: its filter_stats.csv row and its curve file's sums."""
    items = {}
    for r in _rows(out / "filter_stats.csv"):
        width = float(r[0])
        curve = out / f"filter_L{width_tag(width)}.csv"
        if curve.is_file():
            items[width] = dict(zip(_FILTER_STATS, map(float, r[1:])), **_curve_sums(curve))
    return items


def _match_filter(got, ref) -> bool:
    return got["samples"] == ref["samples"] and all(
        _close(value, ref[name], FILTER_REL) for name, value in got.items() if name != "samples"
    )


_CHECKS = {
    "fig3_times": (_read_times, _match_times),
    "table1": (_read_catalogs, _match_catalog),
    "fig1_filter": (_read_filter, _match_filter),
}


def _failed_widths(manifest: dict) -> set[float]:
    """Widths that carry a manifest failure record ("<stage> L=<width>")."""
    out = set()
    for record in manifest.get("failures", []):
        for part in record["item"].split():
            if part.startswith("L="):
                out.add(float(part[2:]))
    return out


def check_outputs(workload: Workload, widths: list[float], out: Path, references: dict) -> dict:
    """Per-width status: "pass", "failed" (manifest record), "missing" or "mismatch"."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    failed = _failed_widths(manifest)
    read, match = _CHECKS[workload.scenario]
    got = read(out)
    refs = references[workload.name]
    status = {}
    for w in widths:
        if w in failed:
            status[w] = "failed"
        elif w not in got:
            status[w] = "missing"
        else:
            status[w] = "pass" if match(got[w], refs[key(w)]) else "mismatch"
    return status
