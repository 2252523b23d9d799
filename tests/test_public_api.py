"""The public surface: the package exports a frozen set of names, the union of its
library modules' `__all__`; every exported name resolves, removed names stay gone;
the elementwise functions share numpy's scalar-in, scalar-out convention."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import dirac_tunnel
from dirac_tunnel import (
    PacketIntegrator,
    PacketSpec,
    converged_integrator,
    evanescent_rho,
    filter_stats,
    group_velocity,
    momentum_weight,
    numeric_tunneling_time,
    scan_peaks,
    solve_matching,
    total_energy,
    transit_measure,
    transmission_amplitude,
    transmission_phase,
    transmitted_density,
)
from dirac_tunnel import cli, transit
from dirac_tunnel.kinematics import BarrierConfig

# the modules whose __all__ the package re-exports, in the package's order
LIBRARY_MODULES = [
    importlib.import_module(f"dirac_tunnel.{name}")
    for name in ("asymptotics", "errors", "kinematics", "scattering", "transit", "wavepacket")
]
MODULES = [dirac_tunnel, cli] + LIBRARY_MODULES

# Each of these was a second way into the packet quadrature; the only entry
# points are PacketIntegrator.density and density_z.
REMOVED = [
    "SpinorAmplitude",
    "free_spinor",
    "density",
    "transmitted_packet",
    "incident_packet",
    "incident_density",
    "_cached_integrator",
    "_workers",
    "check_gate_start",
    "_composite_rule",
    "_uniform_edges",
    "DensityGrid",
    "_extremum",
    # no scenario called these; the opaque limit reaches the outputs through
    # opaque_tunneling_time and opaque_tunneling_velocity
    "peak_functional",
    "maximize_peak_functional",
    "opaque_transmission_magnitude",
    # one table of node factors (wavepacket._Nodes) serves the packet and the filter
    "_stats_at",
    "_edge_nodes",
    "_Filter",
]


PACKAGE_SURFACE = [
    "BarrierConfig", "ConfigError", "ConvergenceError", "DegenerateWeightError",
    "DiracTunnelError", "EnergyZone", "EnergyZoneError", "FilterStats",
    "MatchingSolution", "NumericalDegeneracyError", "OpaqueSolution", "PacketIntegrator",
    "PacketSpec", "PeakKind", "PeakRecord", "SeriesCoefficients", "TransitReport",
    "UnsupportedRegimeError", "__version__", "classify_zone", "converged_integrator",
    "evanescent_rho", "filter_stats", "filtered_distributions", "group_velocity",
    "moment_s", "momentum_weight", "momentum_window", "numeric_tunneling_time",
    "opaque_tunneling_time", "opaque_tunneling_velocity", "scan_peaks",
    "series_coefficients", "solve_matching", "superluminal_detector_bound", "total_energy",
    "transit_measure", "transit_time_predicted", "transmission_amplitude",
    "transmission_phase", "transmitted_density",
]


def test_package_surface_is_frozen():
    assert sorted(dirac_tunnel.__all__) == PACKAGE_SURFACE


def test_package_surface_is_the_union_of_the_library_modules():
    union = ["__version__"] + [name for m in LIBRARY_MODULES for name in m.__all__]
    assert len(set(union)) == len(union)
    assert dirac_tunnel.__all__ == union


def readme_module_names():
    """The backticked identifiers of each ``- `module`:`` bullet under the README's
    "Modules (...)" paragraph, by module."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("\nModules ("):]
    bullets = re.findall(r"^- `(\w+)`:(.*?)(?=^\S|\Z)", section, re.M | re.S)
    return {name: set(re.findall(r"`([A-Za-z_]\w*)`", body)) for name, body in bullets}


@pytest.mark.parametrize("module", [cli] + LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_readme_documents_exactly_the_public_surface(module):
    documented = readme_module_names()
    assert documented[module.__name__.rpartition(".")[2]] == set(module.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_resolve(module):
    assert not [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert not [name for name in REMOVED if hasattr(module, name)]


def test_removed_switches_are_gone():
    assert not hasattr(PacketIntegrator, "spinor")
    assert not hasattr(PacketIntegrator, "_accumulate")
    assert "dense_oracle" not in inspect.signature(solve_matching).parameters
    assert "mass" not in inspect.signature(converged_integrator).parameters


def test_removed_knobs_are_gone():
    for fn in (scan_peaks, numeric_tunneling_time, transit_measure):
        assert "refine_tol" not in inspect.signature(fn).parameters
    assert "mass" not in inspect.signature(PacketIntegrator.__init__).parameters
    assert "max_nodes" not in inspect.signature(converged_integrator).parameters
    # the Taylor series in time has one length, for refinement and density_dt alike
    assert "terms" not in inspect.signature(PacketIntegrator._taylor).parameters
    # filter_stats builds the factors of its whole rule in one pass
    assert "_uniform" not in inspect.signature(filter_stats).parameters
    # the packet kernel sums the integrator's own coefficient table
    assert "rows" not in inspect.signature(PacketIntegrator._sum_over_nodes).parameters


def _library_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _cli_default(key, value=None):
    """The CLI's default of ``numerics.<key>``, or ``value`` for it, after the key's converter."""
    _, default, convert, *_ = cli._KEYS[("numerics", key)]
    return convert(default if value is None else value)


# Every entry point that builds a rule of its own takes the CLI's default base;
# only the gate's own start differs, 2048, whose split acceptance criterion 6 expects.
RULE_BUILDERS = [
    PacketIntegrator.__init__, transmitted_density, filter_stats, scan_peaks,
    numeric_tunneling_time, transit_measure,
]


@pytest.mark.parametrize("fn", RULE_BUILDERS, ids=lambda fn: fn.__qualname__)
def test_library_and_cli_share_one_default_rule_size(fn):
    assert _library_default(fn, "nodes") == _cli_default("nodes")


# (library function, its parameter, the numerics key the CLI passes to it)
SHARED_DEFAULTS = [
    (scan_peaks, "step", "t_step"),
    (numeric_tunneling_time, "step", "t_step"),
    (transit_measure, "step", "t_step"),
    (numeric_tunneling_time, "tol", "tolerance"),
    (transit_measure, "tol", "tolerance"),
    (scan_peaks, "min_density_ratio", "peak_floor"),
]


@pytest.mark.parametrize(
    "fn, name, key", SHARED_DEFAULTS, ids=[f"{fn.__name__}.{arg}" for fn, arg, _ in SHARED_DEFAULTS]
)
def test_library_and_cli_share_numeric_defaults(fn, name, key):
    assert _library_default(fn, name) == _cli_default(key)


def test_library_and_cli_share_default_time_ranges():
    start, stop = _cli_default("t_start"), _cli_default("t_stop")
    assert _library_default(numeric_tunneling_time, "t_range") == (start, stop)
    # fig4_transit stops its scans later, where transit_measure's range ends
    override = cli._SCENARIOS["fig4_transit"][1][("numerics", "t_stop")]
    assert _library_default(transit_measure, "t_range") == (start, _cli_default("t_stop", override))


def test_the_gate_starts_from_its_own_default():
    assert inspect.signature(converged_integrator).parameters["nodes"].default == 2048


# The benchmark's tracer (perfbench/tracer.py) replaces these names with
# timing wrappers where the CLI and the scan look them up.
TRACED_ON_CLI = [
    "scan_peaks", "filter_stats", "numeric_tunneling_time", "transit_measure",
    "transit_time_predicted", "superluminal_detector_bound", "filtered_distributions",
    "momentum_weight", "transmitted_density", "momentum_window", "opaque_tunneling_time",
    "opaque_tunneling_velocity", "series_coefficients", "run_scenario",
]


@pytest.mark.parametrize("name", TRACED_ON_CLI)
def test_traced_names_resolve_on_cli(name):
    assert callable(getattr(cli, name))


# Imports a module does not use: the benchmark's tracer (perfbench/tracer.py)
# wraps each of these by its name in that module.
TRACED_IMPORTS = {"cli.momentum_window", "wavepacket.transmission_amplitude"}


def test_every_top_level_import_is_used_or_exported():
    unused = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "dirac_tunnel").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused |= {f"{path.stem}.{name}" for name in names if name not in used}
    assert unused == TRACED_IMPORTS


def test_scan_calls_the_gate_through_its_module_name(monkeypatch):
    calls = []

    def gate(*args, **kwargs):
        calls.append(kwargs["tol"])
        return converged_integrator(*args, **kwargs)

    monkeypatch.setattr(transit, "converged_integrator", gate)
    spec = PacketSpec(p0=3.0**0.5 / 2.0, d=10.0, p_min=0.0, p_max=3.0**0.5)
    cfg = BarrierConfig(v0=1.0, width=10.0, mass=1.0)
    transit.scan_peaks(10.0, (0.0, 20.0), spec, cfg, step=1.0, tol=1e-6)
    assert calls == [1e-6]


_CFG = BarrierConfig(v0=1.0, width=10.0)
_SPEC = PacketSpec.for_barrier(_CFG, p0=3.0**0.5 / 2.0, d=10.0)

# each elementwise function of one argument, at an interior point of its domain
ELEMENTWISE = {
    "total_energy": (total_energy, 0.8),
    "group_velocity": (group_velocity, 0.8),
    "momentum_weight": (lambda p: momentum_weight(p, _SPEC), 0.8),
    "evanescent_rho": (lambda p: evanescent_rho(p, _CFG), 0.8),
    "transmission_amplitude": (lambda p: transmission_amplitude(p, _CFG), 0.8),
    "transmission_phase": (lambda p: transmission_phase(p, _CFG), 0.8),
}


@pytest.mark.parametrize("name", ELEMENTWISE)
def test_scalar_in_scalar_out(name):
    fn, x = ELEMENTWISE[name]
    scalar = fn(x)
    array = fn(np.array([0.5 * x, x]))
    assert np.ndim(scalar) == 0
    assert isinstance(scalar, (float, complex))
    assert array.shape == (2,)
    assert scalar == array[1]
