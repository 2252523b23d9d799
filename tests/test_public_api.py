"""The public surface: every exported name resolves, removed names stay gone."""

import importlib
import inspect

import pytest

import dirac_tunnel
from dirac_tunnel import PacketIntegrator, converged_integrator, solve_matching

MODULES = [dirac_tunnel] + [
    importlib.import_module(f"dirac_tunnel.{name}")
    for name in ("asymptotics", "cli", "errors", "kinematics", "scattering",
                 "transit", "wavepacket")
]

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
]


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
