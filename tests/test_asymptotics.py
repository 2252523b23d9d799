import math
from fractions import Fraction

import pytest

from dirac_tunnel import (
    BarrierConfig,
    SeriesCoefficients,
    moment_s,
    opaque_tunneling_time,
    opaque_tunneling_velocity,
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


def rational_moment(n, width, mass):
    """s(n) = mass^(n+1) sum_i (-x)^i / (i! (n + 1 + i)) at x = mass width, summed in
    rational arithmetic until a term is below 1e-40: the series of gamma(n + 1, x) / x^(n + 1)."""
    x = Fraction(mass) * Fraction(width)
    total, term, i = Fraction(0), Fraction(1), 0
    while i < 4 or abs(term) >= Fraction(1, 10**40):
        total += term / (n + 1 + i)
        i += 1
        term = -term * x / i
    return float(Fraction(mass) ** (n + 1) * total)


# m L from deep inside the series' range, across its switch to the recurrence at 1, to 4
THIN_PRODUCTS = [1e-300, 1e-200, 1e-60, 1e-10, 1e-3, 0.01, 0.05, 0.5, 0.99, 1.0, 1.5, 2.0, 4.0]


class TestMoments:
    @pytest.mark.parametrize("n,width,ref,rtol", MOMENT_ORACLES)
    def test_exact_oracles(self, n, width, ref, rtol):
        assert moment_s(n, width) == pytest.approx(ref, rel=rtol)

    @pytest.mark.parametrize("mass", [1.0, 3.0])
    @pytest.mark.parametrize("product", THIN_PRODUCTS)
    def test_exact_against_rational_sums(self, product, mass):
        # below m L = 1 the upward recurrence cancelled (m L = 0.01 lost every digit of
        # s(6)) and width^(n + 1) underflowed below L = 1e-47; measured worst 4.1e-13, the
        # recurrence at m L = 1
        for n in range(7):
            ref = rational_moment(n, product / mass, mass)
            assert moment_s(n, product / mass, mass=mass) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_asymptotic_is_factorial(self):
        for n in range(7):
            assert moment_s(n, 12.5, mode="asymptotic") == pytest.approx(
                math.factorial(n) / 12.5 ** (n + 1), rel=1e-15
            )

    def test_asymptotic_overflows_to_inf(self):
        # width^(n + 1) underflows to 0 at 1e-60 (it raised ZeroDivisionError) and
        # to a subnormal at 1e-46, where n! over it exceeds the largest double
        assert moment_s(6, 1e-60, mode="asymptotic") == math.inf
        assert moment_s(6, 1e-46, mode="asymptotic") == math.inf
        assert moment_s(2, 1e-60, mode="asymptotic") == pytest.approx(2e180, rel=1e-15)

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

    @pytest.mark.parametrize("width", [1e-40, 1e-60, 1e-200, 1.0, 50.0])
    def test_asymptotic_closed_form_at_every_width(self, width):
        # the moment products overflow at 1e-40 (tau was nan) and width^7
        # underflows to 0 at 1e-60 (ZeroDivisionError): tau comes from the
        # unit-width moments n!, scaled by the width
        sol = opaque_tunneling_time(width, CANON)
        assert sol.tau == pytest.approx(CANON.a1 * width / (9.0 * CANON.a2), rel=1e-15)
        assert sol.v == 9.0 * CANON.a2 / CANON.a1

    @pytest.mark.parametrize("mode", ["asymptotic", "exact"])
    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_width_must_be_positive(self, width, mode):
        # asymptotic mode takes its moments at unit width, but still refuses a bad one
        with pytest.raises(ValueError, match="width must be positive"):
            opaque_tunneling_time(width, CANON, mode=mode)

    @pytest.mark.parametrize("width", [1e-40, 1.0, 15.0, 50.0])
    def test_exact_mode_is_the_stationary_point_of_its_moments(self, width):
        # bit for bit: exact mode takes the moments at the width itself
        s = {n: moment_s(n, width, mass=1.0) for n in (2, 3, 4, 5, 6)}
        c1 = 2.0 * CANON.a1 * CANON.a2 * (s[2] * s[5] - s[3] * s[4])
        c2 = CANON.a2 * CANON.a2 * (s[4] * s[4] - s[2] * s[6])
        assert opaque_tunneling_time(width, CANON, mode="exact").tau == -c1 / (2.0 * c2)


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
