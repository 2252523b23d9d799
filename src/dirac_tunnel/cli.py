"""Reproducibility front end: named scenarios emitting plot-ready CSV.

Scenarios
---------
``fig1_filter``
    Momentum-filter curves: the transmitted momentum distributions and
    their means for a list of barrier widths.
``fig2_peaks``
    Density extrema (central, secondary, minima) versus time at the
    downstream face for thin barriers, plus the density curves themselves.
``fig3_times``
    Numeric peak-emergence time and velocity versus barrier width, next to
    the opaque-limit closed forms.
``fig4_transit``
    Arrival of the transmitted peak at a fixed downstream detector for a
    list of widths; the superluminal transit comparison.
``table1``
    The full extremum catalog at the downstream face for the canonical
    width ladder, with quadrature tightened enough to resolve secondary
    peaks twelve orders below the central one.
``custom``
    Whatever the config file asks for: peak scans and filter curves for
    each width, transit reports when detectors are given.

Output contract: every run writes CSV (or JSON) files plus ``manifest.json``
recording parameters and sha256 checksums; a CSV run also writes a gnuplot
stub ``plot.gp``.  Reruns with identical configuration produce
byte-identical files: node counts are fixed, nothing depends on wall clock
or RNG.  Exit codes: 0 success, 2 invalid configuration or unwritable
output directory, 3 numeric non-convergence (partial manifest with
failure records).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .asymptotics import (
    opaque_tunneling_time,
    opaque_tunneling_velocity,
    series_coefficients,
)
from ._text import _row_texts, _text_rows
from .errors import ConfigError, DiracTunnelError
# momentum_window and filtered_distributions are not called here, but the
# benchmark's tracer (perfbench/tracer.py) wraps them under this module's name
from .kinematics import BarrierConfig, momentum_window  # noqa: F401
from .transit import (
    _MAX_POINTS,
    _check_grid,
    numeric_tunneling_time,
    scan_grid,
    scan_peaks,
    superluminal_detector_bound,
    transit_measure,
    transit_time_predicted,
)
from .wavepacket import (
    MAX_NODES,
    NODES,
    PacketSpec,
    _Nodes,
    _PANEL,
    filter_stats,
    filtered_distributions,  # noqa: F401
    momentum_weight,
    transmitted_density,
)

__all__ = ["main", "run_scenario", "validate_config", "parse_config_text", "ScenarioConfig"]


# -- configuration loading --------------------------------------------------

def parse_config_text(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    """Parse the flat sectioned key-value format.

    Returns ``{(section, key): (raw value, line number)}``.  Sections are
    ``[name]`` headers; assignments are ``key = value``; ``#`` starts a
    comment.  Unknown keys are rejected later, in :func:`validate_config`,
    where scenario context is available.
    """
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw_line.strip()!r}", line=lineno)
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", line=lineno)
        if section is None:
            raise ConfigError("assignment before any [section] header", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {section}.{key}", line=lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _parse_float(value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out + 0.0  # -0 is 0: a width of -0 must not write a second file


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}") from None


def _parse_float_list(value: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in map(str.strip, value.split(",")) if part)


# Every config key: (section, key) -> (field of the section's dataclass,
# default, converter[, test, rule]).  A converter maps the text (stripped, save
# --out's) or raises ValueError with its message's tail; a key bound on its own
# has a test of its value and the rule it states.  validate_config checks in order.
_KEYS = {
    ("physics", "v0"): ("v0", "1.0", _parse_float),
    ("physics", "mass"): ("mass", "1.0", _parse_float),
    ("physics", "p0"): ("p0", repr(math.sqrt(3.0) / 2.0), _parse_float),
    ("physics", "d"): ("d", "10.0", _parse_float),
    ("geometry", "L"): ("widths", "10", _parse_float_list, bool, "must list a barrier width"),
    ("geometry", "D"): ("detectors", "", _parse_float_list),
    ("geometry", "offset"): ("offset", "0.0", _parse_float),
    # whole Gauss-Legendre panels, up to the gate's node ceiling
    ("numerics", "nodes"): ("nodes", str(NODES), _parse_int,
                            lambda n: _PANEL <= n <= MAX_NODES and not n % _PANEL,
                            f"must be a multiple of {_PANEL} from {_PANEL} to {MAX_NODES}"),
    ("numerics", "tolerance"): ("tolerance", "1e-8", _parse_float,
                                lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"),
    ("numerics", "t_start"): ("t_start", "-100.0", _parse_float),
    ("numerics", "t_stop"): ("t_stop", "100.0", _parse_float),
    ("numerics", "t_step"): ("t_step", "0.25", _parse_float),
    ("numerics", "peak_floor"): ("peak_floor", "1e-6", _parse_float,
                                 lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"),
    ("numerics", "curve_samples"): ("curve_samples", "512", _parse_int,
                                    lambda n: 2 <= n <= _MAX_POINTS,
                                    f"must be from 2 to {_MAX_POINTS}"),
    ("output", "directory"): ("directory", ".", str),
    ("output", "format"): ("format", "csv", str.lower,
                           ("csv", "json").__contains__, "must be csv or json"),
}

# PhysicsParams to OutputParams: a frozen dataclass per section, its fields in _KEYS order
_SECTIONS = {
    section: dataclasses.make_dataclass(
        f"{section.title()}Params",
        [field for (where, _), (field, *_) in _KEYS.items() if where == section],
        namespace={"__module__": __name__},
        frozen=True,
    )
    for section in dict.fromkeys(section for section, _ in _KEYS)
}
PhysicsParams, GeometryParams, NumericsParams, OutputParams = _SECTIONS.values()


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    physics: PhysicsParams
    geometry: GeometryParams
    numerics: NumericsParams
    output: OutputParams


def validate_config(
    raw: dict[tuple[str, str], tuple[str, int]],
    scenario: str,
    overrides: dict[tuple[str, str], str] | None = None,
) -> ScenarioConfig:
    """Apply defaults, types and bounds; reject unknown keys.

    ``raw`` comes from :func:`parse_config_text`; ``overrides`` (from
    ``--set``, then ``--out`` as ``output.directory``) win over the file.

    Each rule is checked once: a key's type and bound by its ``_KEYS`` row, its
    errors prefixed here alone with the key and line; the physics, every width's
    too, by ``BarrierConfig`` and ``PacketSpec``, the time grid as :func:`scan_grid`
    counts it, without building it, and rules that span keys here, naming values.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")

    merged: dict[tuple[str, str], tuple[str, int | None]] = {
        path: (default, None) for path, (_, default, *_) in _KEYS.items()
    }
    merged.update({path: (value, None) for path, value in _SCENARIOS[scenario][1].items()})
    for path, (value, line) in raw.items():
        if path not in _KEYS:
            raise ConfigError(f"unknown key {path[0]}.{path[1]}", line=line)
        merged[path] = (value, line)
    for path, value in (overrides or {}).items():
        if path not in _KEYS:
            raise ConfigError(f"unknown key {path[0]}.{path[1]} in --set")
        merged[path] = (value, None)

    fields: dict[str, dict] = {}
    for (section, key), (field, _, convert, *rule) in _KEYS.items():
        value, line = merged[(section, key)]
        try:
            parsed = convert(value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}", line=line) from None
        if rule and not rule[0](parsed):
            raise ConfigError(f"{section}.{key} {rule[1]}, got {value!r}", line=line)
        fields.setdefault(section, {})[field] = parsed
    config = ScenarioConfig(scenario, **{s: cls(**fields[s]) for s, cls in _SECTIONS.items()})
    geometry, numerics = config.geometry, config.numerics

    # physics bounds; barrier and packet constructors own the detailed rules
    try:
        spec = _packet(config)
        for width in geometry.widths:
            _barrier(config, width)
    except (DiracTunnelError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    # these scenarios write one file per width, named by its tag
    if scenario in ("fig1_filter", "fig2_peaks", "custom"):
        tagged: dict[str, float] = {}
        for width in geometry.widths:
            tag = _width_tag(width)
            if tag in tagged:
                raise ConfigError(
                    f"geometry.L: widths {tagged[tag]!r} and {width!r} would both "
                    f"write files tagged L{tag}"
                )
            tagged[tag] = width
    if scenario == "fig3_times" and 0.0 in geometry.widths:
        raise ConfigError("geometry.L must list only positive widths for fig3_times, got 0")
    if scenario == "fig4_transit" and not geometry.detectors:
        raise ConfigError("geometry.D must list at least one detector for fig4_transit")
    if geometry.detectors:
        needed = geometry.offset + max(geometry.widths)
        for det in geometry.detectors:
            if det < needed:
                raise ConfigError(
                    f"geometry.D: detector {det} sits before the downstream "
                    f"barrier face at {needed}"
                )
            if not math.isfinite(spec.p_max * abs(det)):
                raise ConfigError(f"geometry.D: detector {det}: p_max |D| overflows")
    try:
        _check_grid((numerics.t_start, numerics.t_stop), numerics.t_step)
    except ValueError as exc:
        raise ConfigError(f"numerics.t_start, t_stop, t_step: {exc}") from None
    return config


# -- output plumbing ---------------------------------------------------------


class _Emitter:
    """Collects tabular outputs and writes them with checksums."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.directory = Path(config.output.directory)
        self.outputs: list[dict] = []
        self.failures: list[dict] = []

    def _comment(self, width=None) -> str:
        p = self.config.physics
        parts = ["V0=%.17g" % p.v0, "m=%.17g" % p.mass]
        if width is not None:
            parts.append("L=%.17g" % width)
        parts += ["p0=%.17g" % p.p0, "d=%.17g" % p.d]
        parts.append(f"nodes={self.config.numerics.nodes}")
        return " ".join(parts)

    def table(self, name: str, header: list[str], columns, width=None):
        self.lines(name, header, _text_rows(columns), width)

    def lines(self, name: str, header: list[str], cells, width=None):
        """Write one table from its CSV lines ``cells`` (none: only the header): CSV
        is the comment line and header, then ``cells``; JSON ``rows`` are those lines
        split at commas (no cell holds one).  The comment names a table's one width."""
        if self.config.output.format == "json":
            rows = [line.split(",") for line in cells.decode().splitlines()]
            payload = {"comment": self._comment(width), "columns": header, "rows": rows}
            body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            self.write(Path(name).with_suffix(".json").name, body.encode())
            return
        self.write(name, f"# {self._comment(width)}\n{','.join(header)}\n".encode() + cells)

    def write(self, name: str, data: bytes):
        """Write ``data`` to ``name`` as it is and list it with its sha256."""
        (self.directory / name).write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        self.outputs.append({"file": name, "sha256": digest, "bytes": len(data)})

    def item(self, label: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` for one item of a scenario (a width, a detector).

        A numeric failure (``DiracTunnelError``, or ``ValueError`` from a
        scan that finds no peak or no forward arrival) is recorded under
        ``label`` with its estimate, if any, and None is returned, so the
        remaining items still run.
        """
        try:
            return fn(*args, **kwargs)
        except (DiracTunnelError, ValueError) as exc:
            record = {"item": label, "error": f"{type(exc).__name__}: {exc}"}
            estimate = getattr(exc, "estimate", None)
            if estimate is not None:
                record["estimate"] = float(estimate)
            self.failures.append(record)
            return None

    def manifest(self) -> dict:
        return {
            "scenario": self.config.scenario,
            "parameters": dataclasses.asdict(self.config),
            "outputs": sorted(self.outputs, key=lambda o: o["file"]),
            "failures": self.failures,
        }


def _plot_stub(outputs: list[dict]) -> bytes:
    csv_files = sorted(out["file"] for out in outputs if out["file"].endswith(".csv"))
    lines = [
        "# gnuplot stub for the CSV files in this directory",
        "set datafile separator ','",
        "set key autotitle columnhead",
        *(f"# plot '{name}' using 1:2 with lines" for name in csv_files),
    ]
    return ("\n".join(lines) + "\n").encode()


# -- scenario bodies ---------------------------------------------------------


def _width_tag(width: float) -> str:
    return format(float(width), "g").replace(".", "p").replace("-", "m")


def _barrier(config: ScenarioConfig, width: float) -> BarrierConfig:
    p = config.physics
    return BarrierConfig(
        v0=p.v0, width=width, mass=p.mass, offset=config.geometry.offset
    )


def _packet(config: ScenarioConfig) -> PacketSpec:
    p = config.physics
    return PacketSpec.for_barrier(_barrier(config, 0.0), p0=p.p0, d=p.d)


def _filter(config, emitter, spec, scan):
    p_axis = np.linspace(spec.p_min, spec.p_max, config.numerics.curve_samples)
    curve, stats_rows = _Nodes(spec, _barrier(config, 0.0), p_axis), []
    curves = map(curve.filtered, config.geometry.widths)
    texts = _row_texts([p_axis, momentum_weight(p_axis, spec)], curves, 2)
    for width, cells in zip(config.geometry.widths, texts):
        cfg = _barrier(config, width)
        emitter.lines(f"filter_L{_width_tag(width)}.csv", ["p", "weight", "g_t", "f_t"], cells, width)
        s = emitter.item(
            "filter_stats L=%.17g" % width, filter_stats, spec, cfg, nodes=config.numerics.nodes
        )
        if s is not None:
            ratio = s.p_mean / (s.e_mean + config.physics.mass)
            stats_rows.append((width, s.p_mean, s.e_mean, s.v_out, s.transmitted_weight, ratio))
    stats_header = ["L", "p_mean", "e_mean", "v_out", "transmitted_weight", "component_ratio"]
    emitter.table("filter_stats.csv", stats_header, zip(*stats_rows))


def _peaks(config, emitter, spec, scan, curves=False):
    n = config.numerics
    peak_rows = []
    for width in config.geometry.widths:
        z = config.geometry.offset + width
        cfg = _barrier(config, width)
        records = emitter.item(
            "scan L=%.17g" % width,
            scan_peaks,
            z,
            spec=spec,
            cfg=cfg,
            min_density_ratio=n.peak_floor,
            **scan,
        )
        if records is None:
            continue
        for rec in records:
            peak_rows.append((width, rec.kind.value, rec.time, rec.density))
        if curves:
            t_axis = scan_grid(scan["t_range"], scan["step"])
            values = transmitted_density(z, t_axis, spec, cfg, nodes=n.nodes)
            name = f"density_L{_width_tag(width)}.csv"
            emitter.table(name, ["t", "density"], [t_axis, values], width)
    emitter.table("peaks.csv", ["L", "kind", "t_peak", "density"], zip(*peak_rows))


def _times(config, emitter, spec, scan):
    coeffs = series_coefficients(_barrier(config, 0.0))
    v_closed = opaque_tunneling_velocity(_barrier(config, 0.0))
    rows = []
    for width in config.geometry.widths:
        cfg = _barrier(config, width)
        measured = emitter.item("times L=%.17g" % width, numeric_tunneling_time, spec, cfg, **scan)
        if measured is not None:
            tau, v = measured
            opaque = opaque_tunneling_time(width, coeffs, mode="exact")
            rows.append((width, tau, v, opaque.tau, v_closed))
    emitter.table("times.csv", ["L", "tau", "v", "tau_opaque", "v_opaque"], zip(*rows))


def _transit(config, emitter, spec, scan):
    if not config.geometry.detectors:
        return
    v_closed = opaque_tunneling_velocity(_barrier(config, 0.0))

    def measure(detector, width):
        cfg = _barrier(config, width)
        report = transit_measure(detector, spec, cfg, **scan)
        stats = filter_stats(spec, cfg, nodes=config.numerics.nodes)
        predicted = transit_time_predicted(detector, width, v_closed, stats.v_out)
        bound = superluminal_detector_bound(v_closed, stats.v_out, width)
        return (
            (detector, width, report.t_dl, report.v_dl, report.superluminal),
            (detector, width, predicted, stats.v_out, v_closed, bound),
        )

    transit_rows = []
    context_rows = []
    for detector in config.geometry.detectors:
        for width in config.geometry.widths:
            label = "transit D=%.17g L=%.17g" % (detector, width)
            rows = emitter.item(label, measure, detector, width)
            if rows is not None:
                transit_rows.append(rows[0])
                context_rows.append(rows[1])
    emitter.table("transit.csv", ["D", "L", "t_dl", "v_dl", "superluminal"], zip(*transit_rows))
    context_header = ["D", "L", "t_predicted", "v_out", "v_tun", "d_bound"]
    emitter.table("transit_context.csv", context_header, zip(*context_rows))


# Every scenario: name -> (its steps in run order, each called as
# step(config, emitter, spec, scan); where its defaults depart from _KEYS).
_SCENARIOS = {
    "fig1_filter": ((_filter,), {("geometry", "L"): "0, 5, 10, 20, 50"}),
    "fig2_peaks": (
        (partial(_peaks, curves=True),),
        {
            ("geometry", "L"): "10, 15, 20, 25, 30",
            ("numerics", "tolerance"): "1e-14",
            ("numerics", "peak_floor"): "1e-13",
        },
    ),
    "fig3_times": ((_times,), {("geometry", "L"): ", ".join(str(w) for w in range(4, 101, 4))}),
    "fig4_transit": (
        (_transit,),
        {
            ("geometry", "L"): "0, 10, 20, 30",
            ("geometry", "D"): "40",
            ("numerics", "t_stop"): "200.0",
        },
    ),
    "table1": (
        (_peaks,),
        {
            ("geometry", "L"): "10, 15, 20, 25, 30, 40, 50, 75, 100",
            ("numerics", "tolerance"): "1e-14",
            ("numerics", "peak_floor"): "1e-13",
        },
    ),
    "custom": ((_peaks, _filter, _transit), {}),
}

SCENARIOS = tuple(_SCENARIOS)


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute one scenario; write outputs, plot stub and manifest.

    Returns the manifest dict (also written to ``manifest.json``).  Numeric
    failures do not abort the run: they are recorded in the manifest's
    ``failures`` list and reflected in the process exit code.
    """
    emitter = _Emitter(config)
    emitter.directory.mkdir(parents=True, exist_ok=True)
    spec = _packet(config)
    n = config.numerics
    # the arguments every scan takes, whatever it measures
    scan = dict(t_range=(n.t_start, n.t_stop), step=n.t_step, nodes=n.nodes, tol=n.tolerance)
    for step in _SCENARIOS[config.scenario][0]:
        step(config, emitter, spec, scan)

    if config.output.format == "csv":
        emitter.write("plot.gp", _plot_stub(emitter.outputs))
    manifest = emitter.manifest()
    body = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (emitter.directory / "manifest.json").write_bytes(body.encode("utf-8"))
    return manifest


# -- argument handling -------------------------------------------------------


def _parse_set_items(items: list[str]) -> dict[tuple[str, str], str]:
    overrides: dict[tuple[str, str], str] = {}
    for item in items:
        path, equals, value = item.partition("=")
        if not equals or "." not in path:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        section, key = path.split(".", 1)
        overrides[(section.strip(), key.strip())] = value.strip()
    return overrides


def _parse_sweep_range(text: str) -> str:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--L expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"--L expects numbers in start:stop:step, got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"--L expects finite start:stop:step, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"--L range is empty: {text!r}")
    # the widths are start + i * step for i = 0 ... floor(last), inf included
    last = (stop - start) / step + 1e-9
    if last >= _MAX_POINTS:
        raise ConfigError(f"--L: {np.floor(last) + 1:.7g} points exceed the limit of {_MAX_POINTS}")
    # exact values: sweep writes no per-width files, so no tag is needed
    return ", ".join(repr(start + i * step) for i in range(int(last) + 1))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-tunnel",
        description="Relativistic wave-packet tunneling scenarios",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--config", default=None, help="config file path")
    common.add_argument(
        "--set",
        dest="set_items",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="run a named scenario")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)

    sweep = sub.add_parser("sweep", parents=[common], help="sweep barrier widths (times scenario)")
    sweep.add_argument("--L", required=True, metavar="START:STOP:STEP")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        raw = {}
        if args.config is not None:
            raw = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        overrides = _parse_set_items(args.set_items)
        if args.command == "sweep":
            scenario = "fig3_times"
            overrides[("geometry", "L")] = _parse_sweep_range(args.L)
        else:
            scenario = args.scenario
        if args.out is not None:
            overrides[("output", "directory")] = args.out
        config = validate_config(raw, scenario, overrides=overrides)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = run_scenario(config)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for out in manifest["outputs"]:
        print(f"wrote {Path(config.output.directory) / out['file']}")
    if manifest["failures"]:
        for failure in manifest["failures"]:
            print(f"failed: {failure['item']}: {failure['error']}", file=sys.stderr)
        return 3
    return 0
