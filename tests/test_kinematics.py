import math
import re

import numpy as np
import pytest

from dirac_tunnel import (
    BarrierConfig,
    EnergyZone,
    EnergyZoneError,
    PacketSpec,
    UnsupportedRegimeError,
    classify_zone,
    evanescent_rho,
    group_velocity,
    momentum_window,
    total_energy,
    transmission_amplitude,
    transmitted_density,
)

CANON = BarrierConfig(v0=1.0, width=10.0)


class TestBarrierConfig:
    def test_rejects_low_barrier(self):
        with pytest.raises(UnsupportedRegimeError):
            BarrierConfig(v0=0.5, width=1.0)

    def test_equal_height_allowed(self):
        cfg = BarrierConfig(v0=1.0, width=0.0)
        assert momentum_window(cfg)[0] == 0.0

    def test_rejects_bad_mass_and_width(self):
        with pytest.raises(ValueError):
            BarrierConfig(v0=1.0, width=1.0, mass=0.0)
        with pytest.raises(ValueError):
            BarrierConfig(v0=1.0, width=-1.0)
        with pytest.raises(ValueError):
            BarrierConfig(v0=math.inf, width=1.0)

    @pytest.mark.parametrize("field", ["v0", "width", "mass", "offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        params = {"v0": 1.0, "width": 5.0, "mass": 1.0, "offset": 0.0}
        params[field] = value
        # a plain ValueError, not UnsupportedRegimeError (mass=inf > v0)
        with pytest.raises(ValueError, match="finite"):
            BarrierConfig(**params)

    @pytest.mark.parametrize("v0, mass", [(1e155, 1e155), (1e155, 1.0)])
    def test_rejects_window_edge_that_overflows(self, v0, mass):
        # p_max = sqrt(v0 (v0 + 2 mass)) would be inf
        with pytest.raises(ValueError, match=r"v0=1e\+155"):
            BarrierConfig(v0=v0, width=1.0, mass=mass)

    def test_largest_window_edge_is_finite(self):
        cfg = BarrierConfig(v0=1e150, width=1.0, mass=1e150)
        assert momentum_window(cfg)[1] == pytest.approx(math.sqrt(3.0) * 1e150, rel=1e-15)

    @pytest.mark.parametrize("params, named", [
        ({"width": 9e307}, "width=9e+307: max(2, v0)"),  # 2 mass width
        ({"v0": 10.0, "width": 2e307}, "width=2e+307: max(2, v0)"),  # v0 mass width
        ({"mass": 0.1, "width": 1.7e308}, "width=1.7e+308: p_max"),  # p_max width
        # the downstream face offset + width, and p_max |offset| alone
        ({"width": 8e307, "offset": 1e308}, "offset=1e+308, width=8e+307: p_max"),
        ({"width": 0.0, "offset": -1.7e308}, "offset=-1.7e+308, width=0.0: p_max"),
    ])
    def test_rejects_positions_that_overflow(self, params, named):
        with pytest.raises(ValueError, match=re.escape(named) + ".* overflows$"):
            BarrierConfig(**{"v0": 1.0, **params})

    @pytest.mark.parametrize("params", [
        {"v0": 1.0, "mass": 1.0, "width": 8e307},
        {"v0": 10.0, "mass": 10.0, "width": 1.7e306},
        {"v0": 1.0, "mass": 0.1, "width": 1.6e308},
        {"v0": 1.0, "mass": 1.0, "width": 1e307, "offset": 8e307},
        {"v0": 1.0, "mass": 1.0, "width": 0.0, "offset": -1e308},
    ])
    def test_widest_positions_compute_without_overflow(self, params):
        # just inside every bound: the amplitude over the window, both edges
        # included, and the density at the downstream face raise no warning
        cfg = BarrierConfig(**params)
        p = np.linspace(*momentum_window(cfg), 65)
        assert np.all(np.isfinite(transmission_amplitude(p, cfg)))
        spec = PacketSpec.for_barrier(cfg, p0=p[32], d=10.0)
        z = cfg.offset + cfg.width
        assert np.all(np.isfinite(transmitted_density(z, np.array([-1.0, 0.0, 1.0]), spec, cfg)))


class TestWindow:
    def test_canonical_window(self):
        lo, hi = momentum_window(CANON)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_taller_barrier(self):
        lo, hi = momentum_window(BarrierConfig(v0=2.0, width=1.0))
        assert lo == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert hi == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_window_energies_hit_zone_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mass = float(rng.uniform(0.2, 3.0))
            v0 = mass * float(rng.uniform(1.0, 6.0))
            cfg = BarrierConfig(v0=v0, width=1.0, mass=mass)
            lo, hi = momentum_window(cfg)
            assert total_energy(lo, mass) == pytest.approx(v0, rel=1e-12)
            assert total_energy(hi, mass) == pytest.approx(v0 + mass, rel=1e-12)

    def test_mass_scaling(self):
        lo1, hi1 = momentum_window(BarrierConfig(v0=1.5, width=1.0, mass=1.0))
        lo2, hi2 = momentum_window(BarrierConfig(v0=3.0, width=1.0, mass=2.0))
        assert lo2 == pytest.approx(2.0 * lo1, rel=1e-14)
        assert hi2 == pytest.approx(2.0 * hi1, rel=1e-14)


class TestZones:
    def test_boundaries_belong_to_evanescent_zones(self):
        assert classify_zone(2.5, CANON) is EnergyZone.DIFFUSION
        assert classify_zone(2.0, CANON) is EnergyZone.DIRAC_TUNNELING
        assert classify_zone(1.0, CANON) is EnergyZone.DIRAC_TUNNELING
        tall = BarrierConfig(v0=3.0, width=1.0)
        assert classify_zone(4.0001, tall) is EnergyZone.DIFFUSION
        assert classify_zone(4.0, tall) is EnergyZone.DIRAC_TUNNELING
        assert classify_zone(3.0, tall) is EnergyZone.DIRAC_TUNNELING
        assert classify_zone(2.9999, tall) is EnergyZone.KLEIN_TUNNELING
        assert classify_zone(2.0, tall) is EnergyZone.KLEIN_TUNNELING
        assert classify_zone(1.5, tall) is EnergyZone.KLEIN_ZONE

    def test_below_rest_energy_rejected(self):
        with pytest.raises(ValueError):
            classify_zone(0.5, CANON)


class TestEvanescentRho:
    def test_frozen_value(self):
        assert evanescent_rho(1.0, CANON) == pytest.approx(
            0.9101797211244547, rel=1e-14
        )

    def test_circle_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            mass = float(rng.uniform(0.2, 3.0))
            v0 = mass * float(rng.uniform(1.0, 6.0))
            cfg = BarrierConfig(v0=v0, width=1.0, mass=mass)
            lo, hi = momentum_window(cfg)
            p = float(rng.uniform(lo, hi))
            rho = evanescent_rho(p, cfg)
            gap = total_energy(p, mass) - v0
            assert rho * rho + gap * gap == pytest.approx(mass * mass, rel=1e-12)

    def test_window_edges(self):
        lo, hi = momentum_window(CANON)
        assert evanescent_rho(lo, CANON) == pytest.approx(CANON.mass, rel=1e-12)
        assert evanescent_rho(hi, CANON) == pytest.approx(0.0, abs=1e-7)
        tall = BarrierConfig(v0=2.0, width=1.0)
        lo_t, _ = momentum_window(tall)
        assert evanescent_rho(lo_t, tall) == pytest.approx(tall.mass, rel=1e-12)

    def test_window_edges_far_above_the_mass(self):
        # v0 four orders above the mass: the radicand at p_max rounds by about eps m v0
        tall = BarrierConfig(v0=6.435517211357928e43, width=1.0, mass=2.4388651849676553e39)
        rho = evanescent_rho(np.linspace(*momentum_window(tall), 5), tall)
        assert rho[0] == pytest.approx(tall.mass, rel=1e-12)
        assert rho[-1] == 0.0
        assert np.all(np.diff(rho) < 0.0)

    def test_zone_errors_name_the_zone(self):
        with pytest.raises(EnergyZoneError) as excinfo:
            evanescent_rho(2.0, CANON)  # E ~ 2.24 > v0 + m
        assert excinfo.value.zone is EnergyZone.DIFFUSION
        assert "DIFFUSION" in str(excinfo.value)

        tall = BarrierConfig(v0=3.0, width=1.0)
        with pytest.raises(EnergyZoneError) as excinfo:
            evanescent_rho(math.sqrt(5.25), tall)  # E = 2.5 in [v0 - m, v0)
        assert excinfo.value.zone is EnergyZone.KLEIN_TUNNELING

        with pytest.raises(EnergyZoneError) as excinfo:
            evanescent_rho(math.sqrt(1.25), tall)  # E = 1.5 < v0 - m
        assert excinfo.value.zone is EnergyZone.KLEIN_ZONE

    def test_array_input_with_offender(self):
        good = np.array([0.3, 0.9, 1.5])
        assert evanescent_rho(good, CANON).shape == (3,)
        with pytest.raises(EnergyZoneError):
            evanescent_rho(np.array([0.3, 2.5]), CANON)


class TestVelocity:
    def test_value_and_bounds(self):
        p0 = math.sqrt(3.0) / 2.0
        assert group_velocity(p0) == pytest.approx(0.6546536707079771, rel=1e-14)
        p = np.linspace(0.0, 50.0, 400)
        v = group_velocity(p)
        assert np.all(v < 1.0)
        assert np.all(np.diff(v) > 0.0)

    def test_energy_momentum_consistency(self):
        p = np.linspace(0.0, 5.0, 64)
        for mass in (0.5, 1.0, 2.0):
            e = total_energy(p, mass)
            assert np.allclose(e * e - p * p, mass * mass, rtol=1e-13)
            assert np.allclose(group_velocity(p, mass) * e, p, rtol=1e-13)
