import cmath
import math

import numpy as np
import pytest

from dirac_tunnel import (
    BarrierConfig,
    NumericalDegeneracyError,
    evanescent_rho,
    momentum_window,
    solve_matching,
    transmission_amplitude,
    transmission_phase,
)
from dense_matching import dense_matching

# Frozen against an extended-precision solve of the 4x4 matching system
# (mpmath, 50 digits), canonical barrier v0 = m = 1.
AMPLITUDE_ORACLES = [
    (1.0, 10.0, -0.00010923797517855588173 + 0.00017099204663455665291j,
     -0.42707857702417474916),
    (0.5, 7.3, -7.8785246543183014233e-06 + 0.00070589308292925743816j,
     -1.0512283701905586921),
    (1.7, 25.0, -0.0020264595770834086015 + 0.0010993646334223461551j,
     1.1622247475865167636),
    (0.05, 4.0, -0.00027369908659863811993 - 0.0018116212039759785409j,
     -1.5207419933778665248),
]

CANON = BarrierConfig(v0=1.0, width=10.0)


def _random_setup(rng):
    mass = float(rng.choice([0.5, 1.0, 2.0]))
    v0 = mass * float(rng.uniform(1.0, 5.0))
    width = float(rng.uniform(0.0, 40.0))
    cfg = BarrierConfig(v0=v0, width=width, mass=mass)
    lo, hi = momentum_window(cfg)
    margin = 1e-6 * (hi - lo)
    p = float(rng.uniform(lo + margin, hi - margin))
    return p, cfg


class TestAmplitudeOracles:
    @pytest.mark.parametrize("p,width,t_ref,theta_ref", AMPLITUDE_ORACLES)
    def test_amplitude(self, p, width, t_ref, theta_ref):
        cfg = BarrierConfig(v0=1.0, width=width)
        t = transmission_amplitude(p, cfg)
        assert t == pytest.approx(t_ref, rel=1e-12)

    @pytest.mark.parametrize("p,width,t_ref,theta_ref", AMPLITUDE_ORACLES)
    def test_phase(self, p, width, t_ref, theta_ref):
        cfg = BarrierConfig(v0=1.0, width=width)
        assert transmission_phase(p, cfg) == pytest.approx(theta_ref, rel=1e-12)

    def test_array_broadcast_matches_scalars(self):
        cfg = BarrierConfig(v0=1.0, width=10.0)
        ps = np.array([0.2, 0.9, 1.5])
        ts = transmission_amplitude(ps, cfg)
        for p, t in zip(ps, ts):
            assert t == pytest.approx(transmission_amplitude(float(p), cfg),
                                      rel=1e-14)


class TestUnitarity:
    def test_probability_conservation(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            p, cfg = _random_setup(rng)
            sol = solve_matching(p, cfg)
            defect = abs(abs(sol.r) ** 2 + abs(sol.t_coef) ** 2 - 1.0)
            worst = max(worst, defect)
        assert worst <= 1e-10


class TestEquivalence:
    def test_closed_form_matches_matching_solver(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p, cfg = _random_setup(rng)
            t_closed = transmission_amplitude(p, cfg)
            # one denominator, _scaled_denominator, serves both
            assert solve_matching(p, cfg).t_coef == t_closed

    def test_dense_oracle_agrees_at_moderate_opacity(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 100:
            p, cfg = _random_setup(rng)
            if evanescent_rho(p, cfg) * cfg.width > 25.0:
                continue
            count += 1
            stable = solve_matching(p, cfg)
            dense = dense_matching(p, cfg)
            assert dense.t_coef == pytest.approx(stable.t_coef, rel=1e-8)
            assert dense.r == pytest.approx(stable.r, rel=1e-8, abs=1e-12)

    def test_translation_invariance_of_transmission(self):
        cfg0 = BarrierConfig(v0=1.0, width=10.0)
        t0 = solve_matching(0.9, cfg0).t_coef
        for offset in (5.0, 17.3, -4.0):
            cfg = BarrierConfig(v0=1.0, width=10.0, offset=offset)
            assert solve_matching(0.9, cfg).t_coef == pytest.approx(t0, rel=1e-12)
            assert transmission_amplitude(0.9, cfg) == pytest.approx(t0, rel=1e-12)

    def test_reflection_picks_up_entry_face_phase(self):
        p = 0.9
        r0 = solve_matching(p, BarrierConfig(v0=1.0, width=10.0)).r
        for offset in (5.0, 17.3):
            cfg = BarrierConfig(v0=1.0, width=10.0, offset=offset)
            expected = r0 * cmath.exp(2j * p * offset)
            assert solve_matching(p, cfg).r == pytest.approx(expected, rel=1e-12)


# r, a_coef and b_coef of solve_matching, frozen before its denominator was
# taken from _scaled_denominator, which moved them by rounding only
MATCHING_ORACLES = [
    (0.9, BarrierConfig(v0=1.0, width=10.0),
     -0.5353623939280481 - 0.8446224523614096j, 0.4646375992831193 - 0.8446224519399141j,
     6.7888329177218e-09 - 4.214953152559552e-10j),
    # p^2 = v0 E near p = 1.272, where the imaginary part of e^{-rho L} D is 0
    (1.27, BarrierConfig(v0=1.0, width=10.0),
     -0.0035467183792398473 - 0.9999934207822709j, 0.9964531363137785 - 0.9999935645513274j,
     1.4530698177937627e-07 + 1.437690565047754e-07j),
    (3.2, BarrierConfig(v0=3.0, width=2.0, mass=0.5),
     0.18512874677823157 - 0.7043882449249041j, 1.0995596344315568 - 0.9387113829644306j,
     0.08556911234667494 + 0.2343231380395264j),
    (2.3, BarrierConfig(v0=2.0, width=25.0, offset=5.0),
     -0.9112448610746522 + 0.41186503027695626j, -23.57267523094861 - 109.3881516637539j,
     4.003662705325898e-21 - 3.000530749643055e-22j),
]


@pytest.mark.parametrize("p,cfg,r,a_coef,b_coef", MATCHING_ORACLES)
def test_matching_coefficients_frozen(p, cfg, r, a_coef, b_coef):
    sol = solve_matching(p, cfg)
    assert sol.r == pytest.approx(r, rel=1e-14)
    assert sol.a_coef == pytest.approx(a_coef, rel=1e-14)
    assert sol.b_coef == pytest.approx(b_coef, rel=1e-14)


def _interior_value(sol, rho, z):
    # raw convention: coefficients multiply exp(-rho z) and exp(+rho z)
    return sol.a_coef * math.exp(-rho * z) + sol.b_coef * math.exp(rho * z)


class TestMatchingStructure:
    def test_zero_width_is_transparent(self):
        cfg = BarrierConfig(v0=1.0, width=0.0)
        sol = solve_matching(0.9, cfg)
        assert sol.t_coef == pytest.approx(1.0, rel=1e-14)
        assert abs(sol.r) <= 1e-14
        assert sol.a_coef + sol.b_coef == pytest.approx(1.0, rel=1e-12)
        assert transmission_amplitude(0.9, cfg) == 1.0

    def test_wavefunction_continuity_at_both_faces(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p, cfg = _random_setup(rng)
            if evanescent_rho(p, cfg) * cfg.width > 250.0:
                continue
            a = cfg.offset
            b = cfg.offset + cfg.width
            rho = evanescent_rho(p, cfg)
            sol = solve_matching(p, cfg)
            left = cmath.exp(1j * p * a) + sol.r * cmath.exp(-1j * p * a)
            right = sol.t_coef * cmath.exp(1j * p * b)
            assert _interior_value(sol, rho, a) == pytest.approx(left, rel=1e-10)
            assert _interior_value(sol, rho, b) == pytest.approx(right, rel=1e-10)

    def test_opaque_branch_joins_smoothly(self):
        # straddle the x = 300 switch and require continuity across it
        cfg_lo = BarrierConfig(v0=1.0, width=299.999 / evanescent_rho(0.9, CANON))
        cfg_hi = BarrierConfig(v0=1.0, width=300.001 / evanescent_rho(0.9, CANON))
        t_lo = transmission_amplitude(0.9, cfg_lo)
        t_hi = transmission_amplitude(0.9, cfg_hi)
        assert abs(t_hi / t_lo) == pytest.approx(
            math.exp(-(300.001 - 299.999)), rel=1e-6
        )

    def test_degenerate_edge_raises(self):
        _, hi = momentum_window(CANON)
        with pytest.raises(NumericalDegeneracyError):
            solve_matching(hi, CANON)

    def test_closed_form_survives_window_edge(self):
        # at p_max the interior turns linear; the closed form stays finite
        _, hi = momentum_window(CANON)
        cfg = BarrierConfig(v0=1.0, width=10.0)
        t = transmission_amplitude(hi, cfg)
        assert abs(t) ** 2 == pytest.approx(3.0 / 103.0, rel=1e-12)


def _leading_magnitude(p, cfg):
    # |t| ~ 2 p rho e^{-rho L} / (mass v0), up to relative O(e^{-2 rho L}):
    # p^2 rho^2 + (p^2 - v0 E)^2 = (mass v0)^2 on the window
    rho = evanescent_rho(p, cfg)
    return 2.0 * p * rho * math.exp(-rho * cfg.width) / (cfg.mass * cfg.v0)


class TestOpaqueLimit:
    def test_exact_at_strong_opacity(self):
        p0 = math.sqrt(3.0) / 2.0
        cfg = BarrierConfig(v0=1.0, width=20.0)
        exact = abs(transmission_amplitude(p0, cfg))
        assert _leading_magnitude(p0, cfg) == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(9.862087739755661e-09, rel=1e-12)

    def test_five_percent_at_moderate_opacity(self):
        cfg = BarrierConfig(v0=1.0, width=10.0)
        p = 1.2  # rho * L ~ 8.3
        exact = abs(transmission_amplitude(p, cfg))
        assert abs(_leading_magnitude(p, cfg) / exact - 1.0) <= 0.05

    def test_magnitude_decreases_with_momentum_then_width(self):
        ps = np.linspace(0.05, math.sqrt(3.0) - 0.05, 120)
        for width in (10.0, 20.0):
            cfg = BarrierConfig(v0=1.0, width=width)
            mags = np.abs(transmission_amplitude(ps, cfg))
            assert np.all(np.diff(mags) > 0.0)
        t10 = abs(transmission_amplitude(0.9, BarrierConfig(v0=1.0, width=10.0)))
        t20 = abs(transmission_amplitude(0.9, BarrierConfig(v0=1.0, width=20.0)))
        assert t20 < t10


class TestPhaseStructure:
    def test_phase_equals_argument_up_to_plane_wave(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p, cfg = _random_setup(rng)
            t = transmission_amplitude(p, cfg)
            theta = transmission_phase(p, cfg)
            assert cmath.phase(t * cmath.exp(1j * p * cfg.width)) == pytest.approx(
                theta, abs=1e-12
            )

    def test_range_and_limits(self):
        cfg = BarrierConfig(v0=1.0, width=10.0)
        ps = np.linspace(1e-6, math.sqrt(3.0) - 1e-9, 500)
        thetas = transmission_phase(ps, cfg)
        assert np.all(thetas >= -math.pi / 2.0)
        assert np.all(thetas < math.pi / 2.0)
        assert transmission_phase(0.0, cfg) == pytest.approx(-math.pi / 2.0)
        assert transmission_phase(0.9, BarrierConfig(v0=1.0, width=0.0)) == 0.0


class TestEveryOpacity:
    # rho L reaches 400 and 1000 at p = 0: past the cosh overflow near 710
    WIDE = [BarrierConfig(v0=1.0, width=400.0), BarrierConfig(v0=1.0, width=1000.0)]

    @staticmethod
    def _momenta(cfg, lo_x, hi_x):
        # p > 0: at p = 0, t vanishes and has no argument
        ps = np.linspace(0.0, momentum_window(cfg)[1], 401)[1:]
        x = evanescent_rho(ps, cfg) * cfg.width
        return ps[(x > lo_x) & (x < hi_x)]

    @pytest.mark.parametrize("cfg", WIDE, ids=["L400", "L1000"])
    def test_array_matches_scalars(self, cfg):
        ps = np.linspace(0.0, momentum_window(cfg)[1], 401)
        ts = transmission_amplitude(ps, cfg)
        thetas = transmission_phase(ps, cfg)
        for p, t, theta in zip(ps, ts, thetas):
            assert t == pytest.approx(transmission_amplitude(float(p), cfg), rel=1e-14)
            assert theta == pytest.approx(transmission_phase(float(p), cfg), rel=1e-14)

    @pytest.mark.parametrize("cfg", WIDE, ids=["L400", "L1000"])
    def test_solver_and_phase_agree_across_former_switch(self, cfg):
        ps = self._momenta(cfg, 300.0, 650.0)
        assert ps.size > 20
        for p in ps:
            t = transmission_amplitude(p, cfg)
            sol = solve_matching(p, cfg)
            assert sol.t_coef == t
            assert abs(sol.r) ** 2 + abs(sol.t_coef) ** 2 == pytest.approx(1.0, abs=1e-10)
            assert transmission_phase(p, cfg) == pytest.approx(
                cmath.phase(t * cmath.exp(1j * p * cfg.width)), abs=1e-12
            )

    @pytest.mark.parametrize("cfg", WIDE, ids=["L400", "L1000"])
    def test_opaque_limit_past_former_switch(self, cfg):
        # the expression the amplitude used beyond rho L = 300, where the
        # dropped e^{-2 rho L} terms are below 1e-260
        ps = self._momenta(cfg, 300.0, 650.0)
        assert ps.size > 20
        L = cfg.width
        for p in ps:
            rho = evanescent_rho(p, cfg)
            beta = p * p - cfg.v0 * math.hypot(p, cfg.mass)
            opaque = (2.0 * p * rho * math.exp(-rho * L) * cmath.exp(-1j * p * L)
                      / (p * rho - 1j * beta))
            assert transmission_amplitude(p, cfg) == pytest.approx(opaque, rel=1e-13)

    @pytest.mark.parametrize("width", [0.0, 10.0, 400.0, 1000.0])
    def test_window_ends_are_finite(self, width):
        cfg = BarrierConfig(v0=1.0, width=width)
        ends = np.array([0.0, momentum_window(cfg)[1]])
        assert np.all(np.isfinite(transmission_amplitude(ends, cfg)))
        assert np.all(np.isfinite(transmission_phase(ends, cfg)))
        for p in ends:
            assert cmath.isfinite(transmission_amplitude(float(p), cfg))
            assert math.isfinite(transmission_phase(float(p), cfg))
