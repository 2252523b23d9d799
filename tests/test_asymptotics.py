import math

import numpy as np
import pytest

from dirac_tunnel import (
    BarrierConfig,
    SeriesCoefficients,
    maximize_peak_functional,
    moment_s,
    opaque_tunneling_time,
    opaque_tunneling_velocity,
    peak_functional,
    series_coefficients,
)

CANON = series_coefficients(BarrierConfig(v0=1.0, width=1.0))


class TestSeriesCoefficients:
    def test_canonical(self):
        assert CANON.a1 == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert CANON.a2 == pytest.approx(0.5, rel=1e-15)

    def test_taller_barrier(self):
        c = series_coefficients(BarrierConfig(v0=2.0, width=1.0))
        assert c.a1 == pytest.approx(math.sqrt(8.0) / 2.0, rel=1e-15)
        assert c.a2 == pytest.approx(0.5, rel=1e-15)

    def test_mass_dependence(self):
        c = series_coefficients(BarrierConfig(v0=4.0, width=1.0, mass=2.0))
        assert c.a1 == pytest.approx(math.sqrt(4.0 * 8.0) / 8.0, rel=1e-14)
        assert c.a2 == pytest.approx(0.25, rel=1e-15)


# Frozen against mpmath.gammainc (50 digits): the n-th moment is
# gamma_lower(n + 1, mass * width) / width^(n + 1).
MOMENT_ORACLES = [
    (2, 15.0, 0.00059256929869737215727, 1e-13),
    (6, 15.0, 4.1818310072888258581e-06, 1e-13),
    (4, 50.0, 7.6799999999999995815e-08, 1e-13),
    (3, 100.0, 6.0e-08, 1e-13),
    # small mass * width loses digits to the recurrence cancellation
    (6, 0.5, 0.092379304201817097076, 1e-9),
]


class TestMoments:
    @pytest.mark.parametrize("n,width,ref,rtol", MOMENT_ORACLES)
    def test_exact_oracles(self, n, width, ref, rtol):
        assert moment_s(n, width) == pytest.approx(ref, rel=rtol)

    def test_asymptotic_is_factorial(self):
        for n in range(7):
            assert moment_s(n, 12.5, mode="asymptotic") == pytest.approx(
                math.factorial(n) / 12.5 ** (n + 1), rel=1e-15
            )

    def test_mass_width_scaling(self):
        # the integral depends on mass and width only through their product,
        # up to the explicit width power
        lhs = moment_s(2, 7.5, mass=2.0)
        rhs = moment_s(2, 15.0, mass=1.0) * (15.0 / 7.5) ** 3
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_exact_bounded_by_asymptotic(self):
        for ml in (0.5, 1.0, 5.0, 15.0, 30.0, 50.0, 100.0):
            for n in range(7):
                exact = moment_s(n, ml)
                asym = moment_s(n, ml, mode="asymptotic")
                assert exact <= asym
                if ml <= 20.0:
                    # the truncated tail is still resolvable in double
                    assert exact < asym

    def test_gap_below_one_percent_for_wide_barriers(self):
        for ml in (15.0, 30.0, 50.0):
            for n in range(7):
                exact = moment_s(n, ml)
                asym = moment_s(n, ml, mode="asymptotic")
                assert (asym - exact) / asym < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_s(-1, 10.0)
        with pytest.raises(ValueError):
            moment_s(2.5, 10.0)
        with pytest.raises(ValueError):
            moment_s(2, 0.0)
        with pytest.raises(ValueError):
            moment_s(2, 10.0, mass=-1.0)
        with pytest.raises(ValueError):
            moment_s(2, 10.0, mode="quick")


# Frozen values of the expanded envelope, canonical coefficients, exact mode.
FUNCTIONAL_ORACLES = [
    (5.0, 15.0, 3.4959996862959490794e-07),
    (0.0, 15.0, 3.3936787328751991815e-07),
    (20.0, 50.0, 2.5589713776858052665e-10),
]


def _envelope_parts(t, width, coeffs, mode):
    # re-derived from the documented form: P = X^2 + Y^2 with
    # X = s2 - ((a2 t)^2 s6 + a1^2 s4)/2 + a1 a2 t s5, Y = a2 t s4 - a1 s3
    s = {n: moment_s(n, width, mode=mode) for n in (2, 3, 4, 5, 6)}
    a1, a2 = coeffs.a1, coeffs.a2
    x = s[2] - ((a2 * t) ** 2 * s[6] + a1 * a1 * s[4]) / 2.0 + a1 * a2 * t * s[5]
    y = a2 * t * s[4] - a1 * s[3]
    dx = -(a2 * a2) * t * s[6] + a1 * a2 * s[5]
    dy = a2 * s[4]
    return x, y, dx, dy


class TestPeakFunctional:
    @pytest.mark.parametrize("t,width,ref", FUNCTIONAL_ORACLES)
    def test_frozen_values(self, t, width, ref):
        assert peak_functional(t, width, CANON) == pytest.approx(ref, rel=1e-12)

    def test_array_matches_scalars(self):
        ts = np.array([0.0, 3.0, 6.0])
        vals = peak_functional(ts, 15.0, CANON)
        for t, v in zip(ts, vals):
            assert v == peak_functional(float(t), 15.0, CANON)

    @pytest.mark.parametrize("t,width", [(2.0, 15.0), (5.8, 15.0), (9.0, 15.0),
                                         (10.0, 50.0), (19.2, 50.0)])
    def test_numeric_derivative_matches_analytic(self, t, width):
        x, y, dx, dy = _envelope_parts(t, width, CANON, "exact")
        analytic = 2.0 * (x * dx + y * dy)
        h = 1e-3 * max(1.0, abs(t))
        stencil = (
            -peak_functional(t + 2 * h, width, CANON)
            + 8.0 * peak_functional(t + h, width, CANON)
            - 8.0 * peak_functional(t - h, width, CANON)
            + peak_functional(t - 2 * h, width, CANON)
        ) / (12.0 * h)
        assert stencil == pytest.approx(analytic, rel=1e-8)

    def test_positive(self):
        ts = np.linspace(0.0, 40.0, 200)
        assert np.all(peak_functional(ts, 15.0, CANON) > 0.0)

    def test_nonunit_mass_recovered_from_a2(self):
        coeffs = series_coefficients(BarrierConfig(v0=4.0, width=1.0, mass=2.0))
        ts = np.linspace(0.0, 20.0, 41)
        # rebuild the functional with the mass spelled out explicitly
        s = {n: moment_s(n, 30.0, mass=2.0) for n in (2, 3, 4, 5, 6)}
        a1, a2 = coeffs.a1, coeffs.a2
        real = s[2] - ((a2 * ts) ** 2 * s[6] + a1 * a1 * s[4]) / 2.0 + a1 * a2 * ts * s[5]
        imag = a2 * ts * s[4] - a1 * s[3]
        np.testing.assert_allclose(
            peak_functional(ts, 30.0, coeffs), real * real + imag * imag, rtol=1e-13
        )


def _quadratic_tau(width, coeffs, mode):
    # truncate P = X^2 + Y^2 at joint second order in (a1, a2 t):
    #   c1 = 2 a1 a2 (s2 s5 - s3 s4),  c2 = a2^2 (s4^2 - s2 s6)
    s = {n: moment_s(n, width, mode=mode) for n in (2, 3, 4, 5, 6)}
    a1, a2 = coeffs.a1, coeffs.a2
    c1 = 2.0 * a1 * a2 * (s[2] * s[5] - s[3] * s[4])
    c2 = a2 * a2 * (s[4] * s[4] - s[2] * s[6])
    return -c1 / (2.0 * c2)


class TestOpaqueTime:
    def test_frozen_exact_mode(self):
        assert opaque_tunneling_time(15.0, CANON, mode="exact").tau == pytest.approx(
            5.8095205216796913769, rel=1e-12
        )
        assert opaque_tunneling_time(50.0, CANON, mode="exact").tau == pytest.approx(
            19.245008972987651103, rel=1e-12
        )

    def test_frozen_asymptotic_mode(self):
        for width, ref in [
            (15.0, 5.7735026918962576451),
            (50.0, 19.245008972987525484),
            (100.0, 38.490017945975050967),
        ]:
            sol = opaque_tunneling_time(width, CANON)
            assert sol.tau == pytest.approx(ref, rel=1e-12)

    def test_asymptotic_collapses_to_closed_form(self):
        for width in (4.0, 15.0, 50.0, 100.0):
            sol = opaque_tunneling_time(width, CANON)
            assert sol.tau == pytest.approx(
                CANON.a1 * width / (9.0 * CANON.a2), rel=1e-14
            )
            assert sol.tau * sol.v == pytest.approx(width, rel=1e-12)

    def test_velocity_field_is_mode_independent(self):
        for mode in ("exact", "asymptotic"):
            sol = opaque_tunneling_time(30.0, CANON, mode=mode)
            assert sol.v == pytest.approx(9.0 * CANON.a2 / CANON.a1, rel=1e-15)
            assert sol.v == pytest.approx(2.598076211353316, rel=1e-12)

    def test_matches_quadratic_truncation(self):
        for width in (10.0, 25.0, 60.0):
            for mode in ("exact", "asymptotic"):
                tau = opaque_tunneling_time(width, CANON, mode=mode).tau
                assert tau == pytest.approx(_quadratic_tau(width, CANON, mode),
                                            rel=1e-12)

    def test_exact_converges_to_asymptotic(self):
        gaps = []
        for width in (10.0, 15.0, 25.0, 50.0):
            exact = opaque_tunneling_time(width, CANON, mode="exact").tau
            asym = opaque_tunneling_time(width, CANON).tau
            gaps.append(abs(exact - asym) / asym)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12

    def test_nonunit_mass_recovered_from_a2(self):
        coeffs = series_coefficients(BarrierConfig(v0=4.0, width=1.0, mass=2.0))
        tau = opaque_tunneling_time(12.0, coeffs, mode="exact").tau
        # reconstruct with the mass spelled out explicitly
        s = {n: moment_s(n, 12.0, mass=2.0) for n in (2, 3, 4, 5, 6)}
        c1 = 2.0 * coeffs.a1 * coeffs.a2 * (s[2] * s[5] - s[3] * s[4])
        c2 = coeffs.a2 ** 2 * (s[4] * s[4] - s[2] * s[6])
        assert tau == pytest.approx(-c1 / (2.0 * c2), rel=1e-13)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            opaque_tunneling_time(15.0, CANON, mode="fast")


class TestOpaqueVelocity:
    def test_canonical_value(self):
        v = opaque_tunneling_velocity(BarrierConfig(v0=1.0, width=10.0))
        assert v == pytest.approx(4.5 / math.sqrt(3.0), rel=1e-15)
        assert v == pytest.approx(2.598076211353316, rel=1e-12)

    def test_limits(self):
        # toy masses push v0/mass up and down; the covered regime keeps
        # v0 >= mass, so the lower limit is probed by a heavy particle
        nearly_free = opaque_tunneling_velocity(
            BarrierConfig(v0=1000.0, width=1.0)
        )
        assert abs(nearly_free / 4.5 - math.sqrt(1000.0 / 1002.0)) < 1e-12
        assert abs(nearly_free - 4.5) / 4.5 < 1.0e-3

        heavy = opaque_tunneling_velocity(
            BarrierConfig(v0=1000.0, width=1.0, mass=1000.0)
        )
        assert heavy == pytest.approx(4.5 * math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_always_superluminal_in_covered_regime(self):
        # v > 1 requires v0/mass > 8/77; the library floor v0 = mass sits
        # far above that, so every accepted barrier is superluminal
        for ratio in (1.0, 1.5, 4.0, 100.0):
            v = opaque_tunneling_velocity(BarrierConfig(v0=ratio, width=1.0))
            assert v > 1.0
        floor = opaque_tunneling_velocity(BarrierConfig(v0=1.0, width=1.0))
        assert floor == pytest.approx(4.5 * math.sqrt(1.0 / 3.0), rel=1e-14)


class TestMaximize:
    # near the flat maximum the functional varies only at rounding level
    # over a ~1e-6 wide plateau, which caps the reproducible precision

    def test_frozen_argmax(self):
        assert maximize_peak_functional(50.0, CANON) == pytest.approx(
            19.21490889352755, rel=1e-6
        )
        assert maximize_peak_functional(100.0, CANON) == pytest.approx(
            38.47503193292482, rel=1e-6
        )

    def test_agrees_with_stationary_point_to_expansion_order(self):
        for width in (25.0, 50.0, 100.0):
            argmax = maximize_peak_functional(width, CANON)
            tau = opaque_tunneling_time(width, CANON, mode="exact").tau
            assert abs(argmax - tau) / tau <= 3.0 * (CANON.a1 / width) ** 2

    def test_respects_custom_bracket(self):
        tau = maximize_peak_functional(50.0, CANON, bracket=(10.0, 30.0))
        assert tau == pytest.approx(19.21490889352755, rel=1e-6)

    def test_empty_bracket_raises(self):
        with pytest.raises(ValueError):
            maximize_peak_functional(50.0, CANON, bracket=(1.0, 1.0))


def _slope(t, width, mode):
    x, y, dx, dy = _envelope_parts(t, width, CANON, mode)
    return 2.0 * (x * dx + y * dy)


class TestMaximizerIsExact:
    # P is a quartic in t, so its maximum is a root of the cubic dP/dt

    @pytest.mark.parametrize("mode", ["exact", "asymptotic"])
    @pytest.mark.parametrize("width", [6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 50.0, 100.0])
    def test_root_of_the_slope_with_a_falling_sign(self, width, mode):
        t = maximize_peak_functional(width, CANON, mode=mode)
        beside = _slope(1.01 * t, width, mode)
        assert abs(_slope(t, width, mode)) <= 1e-9 * abs(beside)
        assert _slope(0.99 * t, width, mode) > 0.0
        assert beside < 0.0

    def test_thin_widths_find_the_local_maximum(self):
        assert maximize_peak_functional(8.0, CANON) == pytest.approx(3.43287, abs=1e-5)
        assert maximize_peak_functional(10.0, CANON) == pytest.approx(3.99606, abs=1e-5)

    @pytest.mark.parametrize("width", [2.0, 4.0])
    def test_no_local_maximum_raises(self, width):
        with pytest.raises(ValueError):
            maximize_peak_functional(width, CANON)

    def test_maximum_outside_bracket_raises(self):
        with pytest.raises(ValueError):
            maximize_peak_functional(50.0, CANON, bracket=(0.0, 5.0))
