import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dirac_tunnel import wavepacket
from dirac_tunnel import (
    BarrierConfig,
    ConvergenceError,
    DegenerateWeightError,
    EnergyZoneError,
    PacketIntegrator,
    PacketSpec,
    converged_integrator,
    filter_stats,
    filtered_distributions,
    momentum_weight,
    momentum_window,
    total_energy,
    transmission_amplitude,
    transmitted_density,
)
from dirac_tunnel.transit import scan_grid

P0 = math.sqrt(3.0) / 2.0
D_WIDTH = 10.0


def canonical_spec():
    cfg = BarrierConfig(v0=1.0, width=0.0)
    return PacketSpec.for_barrier(cfg, p0=P0, d=D_WIDTH)


def barrier(width):
    return BarrierConfig(v0=1.0, width=width)


SPEC = canonical_spec()


class TestPacketSpec:
    def test_for_barrier_window(self):
        assert (SPEC.p_min, SPEC.p_max) == (0.0, math.sqrt(3.0))
        assert SPEC.p_min == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSpec(p0=0.5, d=0.0, p_min=0.0, p_max=1.0)
        with pytest.raises(ValueError):
            PacketSpec(p0=0.5, d=1.0, p_min=-0.1, p_max=1.0)
        with pytest.raises(ValueError):
            PacketSpec(p0=0.5, d=1.0, p_min=1.0, p_max=1.0)
        with pytest.raises(ValueError):
            PacketSpec(p0=1.5, d=1.0, p_min=0.0, p_max=1.0)

    def test_rejects_width_whose_square_overflows(self):
        with pytest.raises(ValueError, match=r"d\^2 finite, got 1e\+155"):
            PacketSpec(p0=0.5, d=1e155, p_min=0.0, p_max=1.0)

    def test_window_is_checked_before_the_width(self):
        with pytest.raises(ValueError, match="invalid momentum window"):
            PacketSpec(p0=0.5, d=1e155, p_min=1.0, p_max=1.0)

    def test_rejects_width_whose_weight_exponent_overflows(self):
        # d^2 is finite, but (p - p0)^2 d^2 overflows across the window
        with pytest.raises(ValueError, match=r"\(p_max - p_min\)\^2 d\^2 finite, got 7\.5e\+79"):
            PacketSpec(p0=8e99, d=7.5e79, p_min=0.0, p_max=1e101)

    def test_tiny_width_is_valid(self):
        # d^2 underflows to 0: a flat weight over the window
        spec = PacketSpec(p0=0.5, d=1e-300, p_min=0.0, p_max=1.0)
        assert momentum_weight(0.0, spec) == 1.0


class TestMomentumWeight:
    def test_peak_and_truncation(self):
        assert momentum_weight(P0, SPEC) == 1.0
        assert momentum_weight(-0.1, SPEC) == 0.0
        assert momentum_weight(math.sqrt(3.0) + 1e-9, SPEC) == 0.0

    def test_gaussian_profile(self):
        dp = 0.1
        expected = math.exp(-(dp**2) * D_WIDTH**2 / 4.0)
        assert momentum_weight(P0 + dp, SPEC) == pytest.approx(expected,
                                                               rel=1e-14)
        assert momentum_weight(P0 - dp, SPEC) == pytest.approx(expected,
                                                               rel=1e-14)

    def test_array(self):
        p = np.array([-1.0, P0, 2.0])
        w = momentum_weight(p, SPEC)
        assert w.tolist() == [0.0, 1.0, 0.0]


class TestDensityOracles:
    # Frozen against an extended-precision quadrature of the same integrals
    # (mpmath, 40 digits, adaptive rule).

    def test_transmitted_density_behind_barrier(self):
        d = PacketIntegrator(SPEC, barrier(10.0)).density(10.0, [2.0])[0]
        assert d == pytest.approx(2.29544239794700562e-08, rel=1e-9)

    def test_transmitted_density_early_time(self):
        d = PacketIntegrator(SPEC, barrier(10.0)).density(12.0, [-3.0])[0]
        assert d == pytest.approx(1.18559932267900627e-08, rel=1e-9)

    def test_incident_density_near_center(self):
        d = PacketIntegrator(SPEC, None).density(5.0, [7.0])[0]
        assert d == pytest.approx(0.994277972283855439, rel=1e-9)

    def test_zero_width_reduces_to_free_packet(self):
        transmitted = PacketIntegrator(SPEC, barrier(0.0))
        incident = PacketIntegrator(SPEC, None)
        for z, t in [(5.0, 7.0), (0.0, 0.0), (-3.0, 2.0), (20.0, 40.0)]:
            d_t = transmitted.density(z, [t])[0]
            d_i = incident.density(z, [t])[0]
            assert d_t == pytest.approx(d_i, rel=1e-10)

    def test_amplitude_scale_is_twice_center_energy(self):
        # momentum integral of g alone at (z=0, t=0) times 2 E(p0) fixes the
        # absolute density scale; check against a direct quadrature
        eng = PacketIntegrator(SPEC, None)
        g, _ = eng.amplitudes(0.0, [0.0])
        p, w = np.polynomial.legendre.leggauss(200)
        half = 0.5 * (SPEC.p_max - SPEC.p_min)
        mid = 0.5 * (SPEC.p_max + SPEC.p_min)
        raw = float(np.sum(half * w * momentum_weight(mid + half * p, SPEC)))
        e0 = float(total_energy(SPEC.p0))
        assert g[0] == pytest.approx(2.0 * e0 * raw, rel=1e-10)


class TestNormConservation:
    def test_free_packet_norm_is_static(self):
        zs = np.arange(-150.0, 250.0 + 0.125, 0.25)
        eng = PacketIntegrator(SPEC, None)
        norms = []
        for t in (0.0, 30.0, 60.0):
            v = eng.density_z(zs, t)
            norms.append(0.25 * (np.sum(v) - 0.5 * (v[0] + v[-1])))
        spread = (max(norms) - min(norms)) / max(norms)
        assert spread <= 1e-3


# evenly spaced axes of every short length, a partial last block (1000 =
# 31 * 32 + 8) and one axis that is not evenly spaced; each is centred on
# the peak of its curve (unit offsets from it)
EVEN_LENGTHS = [1, 2, 3, 4, 5, 801, 1000]
OFFSETS = [np.arange(k) - k // 2 for k in EVEN_LENGTHS] + [np.linspace(-1.0, 1.0, 300) ** 3]
OFFSET_IDS = [*map(str, EVEN_LENGTHS), "uneven"]


def direct_density(eng, phase):
    """|psi|^2 by a plain sum of the node table against a full phase block."""
    g, f = (eng._scale * eng._coef) @ phase
    return np.abs(g) ** 2 + np.abs(f) ** 2


LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no more precise than double here",
)


def long_double_density(eng, zs, ts):
    """|psi|^2 over zs and ts, broadcast to one axis, by a cos/sin sum in np.longdouble.

    The sum runs over ``eng``'s node table; one of ``zs`` and ``ts`` is
    usually a scalar, making a time axis at one position or the converse.
    """
    ld = np.longdouble
    scale = ld(eng._scale)
    re, im = eng._coef.real.astype(ld) * scale, eng._coef.imag.astype(ld) * scale
    p, energy = eng.p.astype(ld)[:, None], eng.energy.astype(ld)[:, None]
    zs, ts = np.broadcast_arrays(np.asarray(zs, dtype=float), np.asarray(ts, dtype=float))
    parts = []
    for z_part, t_part in zip(np.array_split(zs, 9), np.array_split(ts, 9)):
        arg = p * z_part.astype(ld)[None, :] - energy * t_part.astype(ld)[None, :]
        cos, sin = np.cos(arg), np.sin(arg)
        real, imag = re @ cos - im @ sin, re @ sin + im @ cos
        parts.append((real * real + imag * imag).sum(axis=0))
    return np.concatenate(parts).astype(float)


def long_double_rule_density(eng, cfg, z, t):
    """|psi|^2 at (z, t) on ``eng``'s rule, every step from its panel edges in np.longdouble.

    The edges are distances u from p_max; the nodes u and weights |half| w of
    each panel, p = p_max - u, s = E(p_max) - E, rho = sqrt(s (2m - s)), t(p),
    g and the phases follow from them and the double Gauss-Legendre nodes and
    weights in long double, so the difference from the double path is its
    rounding: node placement, node table and sum alike.
    """
    ld = np.longdouble
    edges = eng._edges.astype(ld)
    half, mid = (edges[1:] - edges[:-1]) / 2, (edges[1:] + edges[:-1]) / 2
    x, weights = wavepacket._PANEL_NODES.astype(ld), wavepacket._PANEL_WEIGHTS.astype(ld)
    u = (mid[:, None] + half[:, None] * x).ravel()
    w = (np.abs(half)[:, None] * weights).ravel()
    mass, v0, width, p_max = ld(cfg.mass), ld(cfg.v0), ld(cfg.width), ld(SPEC.p_max)
    p = p_max - u
    energy = np.sqrt(p * p + mass * mass)
    s = u * (p_max + p) / (np.sqrt(p_max * p_max + mass * mass) + energy)
    rho = np.sqrt(s * (2 * mass - s))
    decay = np.exp(-rho * width)
    lq = -np.expm1(-2 * rho * width) / (2 * rho)
    denominator = p * (1 + decay * decay) / 2 - 1j * (p * p - v0 * energy) * lq
    g = np.exp(-((p - ld(SPEC.p0)) ** 2) * ld(SPEC.d) ** 2 / 4)
    # p z - E t - p L less its value at (p_max, E(p_max)), which no density sees
    arg = u * (width - ld(z)) + s * ld(t)
    large = w * g * p * decay / denominator * (np.cos(arg) + 1j * np.sin(arg))
    scale = 4 * (ld(SPEC.p0) ** 2 + mass * mass)
    return float(scale * (abs(large.sum()) ** 2 + abs((large * p / (energy + mass)).sum()) ** 2))


class TestFactorizedKernel:
    """density and density_z against a direct exp sum over the same nodes."""

    @pytest.fixture(params=[None, 7], ids=["default_chunk", "chunk_7"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(wavepacket, "_TIME_CHUNK", request.param)

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("k", EVEN_LENGTHS)
    def test_even_axes_are_factorized(self, k):
        axis = 2.0 + 0.25 * np.arange(k)
        expected = 1 if k < 4 else math.isqrt(k)
        assert wavepacket._fine_block(axis)[1] == expected

    def test_axis_even_to_an_ulp_is_factorized(self):
        axis = -100.0 + 0.25 * np.arange(801)
        axis[1::2] = np.nextafter(axis[1::2], np.inf)
        assert wavepacket._fine_block(axis)[1] == 28

    def test_uneven_axis_is_not_factorized(self):
        assert wavepacket._fine_block(OFFSETS[-1])[1] == 1

    @pytest.mark.parametrize("offsets", OFFSETS, ids=OFFSET_IDS)
    def test_density_over_times(self, chunk, offsets):
        # the transmitted peak at the downstream face, t = 2.05
        ts = 2.0 + 0.25 * offsets
        eng = PacketIntegrator(SPEC, barrier(10.0))
        phase = np.exp(1j * np.outer(eng.p, np.full_like(ts, 10.0)) - 1j * np.outer(eng.energy, ts))
        self.assert_close(eng.density(10.0, ts), direct_density(eng, phase))

    @pytest.mark.parametrize("offsets", OFFSETS, ids=OFFSET_IDS)
    def test_density_over_positions(self, chunk, offsets):
        # the free packet's peak near z = 20 at t = 30
        zs = 20.0 + 0.5 * offsets
        eng = PacketIntegrator(SPEC, None)
        phase = np.exp(1j * np.outer(eng.p, zs) - 1j * np.outer(eng.energy, np.full_like(zs, 30.0)))
        self.assert_close(eng.density_z(zs, 30.0), direct_density(eng, phase))

    def test_wide_barrier_over_times(self, chunk):
        # the transmitted peak at the downstream face of L = 800, t = 300.75,
        # where the phases E t and p z reach about 800 and 1400
        ts = 300.0 + 0.25 * (np.arange(801) - 400)
        eng = PacketIntegrator(SPEC, barrier(800.0), nodes=4096)
        want = np.concatenate([
            direct_density(eng, np.exp(1j * np.outer(eng.p, np.full_like(part, 800.0))
                                       - 1j * np.outer(eng.energy, part)))
            for part in np.array_split(ts, 9)
        ])
        self.assert_close(eng.density(800.0, ts), want)

    @LONG_DOUBLE
    @pytest.mark.parametrize(
        "width, ts",
        [
            (10.0, scan_grid((-100.0, 100.0), 0.25)),
            (15.0, scan_grid((-100.0, 100.0), 0.25)),
            (100.0, scan_grid((-100.0, 100.0), 0.25)),
            (800.0, scan_grid((100.0, 300.0), 0.25)),
        ],
        ids=["L10", "L15", "L100", "L800"],
    )
    def test_density_against_long_double(self, width, ts):
        # the default 801-point scan grid at the downstream face, and the
        # L = 800 peak on 801 points; the same node table summed in long double
        eng = PacketIntegrator(SPEC, barrier(width))
        want = long_double_density(eng, width, ts)
        assert ts.size == 801
        assert np.max(np.abs(eng.density(width, ts) - want)) <= 2e-15 * np.max(want)

    @LONG_DOUBLE
    @pytest.mark.parametrize(
        "width, t", [(10.0, 100.0), (800.0, 400.0)], ids=["L10", "L800"]
    )
    def test_density_z_against_long_double(self, width, t):
        # 801 positions behind the barrier, spaced 0.25 from its downstream
        # face, when the transmitted peak is 67 (L = 10) or 86 (L = 800) past
        # it; the same node table summed in long double
        zs = width + 0.25 * np.arange(801)
        eng = PacketIntegrator(SPEC, barrier(width))
        want = long_double_density(eng, zs, t)
        assert np.max(np.abs(eng.density_z(zs, t) - want)) <= 2e-15 * np.max(want)

    @pytest.mark.parametrize(
        "width, nodes, ts",
        [
            (10.0, 2048, scan_grid((-100.0, 100.0), 0.25)),
            (10.0, 2048, 2.0 + 0.25 * OFFSETS[-1]),
            (800.0, 4096, 300.0 + 0.25 * (np.arange(801) - 400)),
        ],
        ids=["L10_even", "L10_uneven", "L800_peak"],
    )
    def test_amplitudes_up_to_their_common_phase(self, width, nodes, ts):
        # |g|^2, |f|^2 and g conj(f) at the downstream face, which the phase
        # both components share leaves alone, against the direct sum of
        # c exp(i(p z - E t)) over the node table
        eng = PacketIntegrator(SPEC, barrier(width), nodes=nodes)
        want_g, want_f = np.concatenate([
            (eng._scale * eng._coef) @ np.exp(1j * np.outer(eng.p, np.full_like(part, width))
                                              - 1j * np.outer(eng.energy, part))
            for part in np.array_split(ts, 9)
        ], axis=1)
        g, f = eng.amplitudes(width, ts)
        bound = 1e-14 * np.max(np.abs(want_g)) ** 2
        for got, expected in [
            (g * g.conj(), want_g * want_g.conj()),
            (f * f.conj(), want_f * want_f.conj()),
            (g * f.conj(), want_g * want_f.conj()),
        ]:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= bound

    @pytest.mark.parametrize(
        "ts", [scan_grid((-100.0, 100.0), 0.25), 2.0 + 0.25 * OFFSETS[-1]], ids=["even", "uneven"]
    )
    def test_density_is_the_modulus_of_the_amplitudes(self, ts):
        eng = PacketIntegrator(SPEC, barrier(10.0))
        g, f = eng.amplitudes(10.0, ts)
        assert np.array_equal(eng.density(10.0, ts), (g * g.conj() + f * f.conj()).real)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda eng, x: (eng.density(10.0, x),),
            lambda eng, x: eng.amplitudes(10.0, x),
            lambda eng, x: (eng.density_z(x, 2.0),),
            lambda eng, x: eng.density_dt(10.0, x),
        ],
        ids=["density", "amplitudes", "density_z", "density_dt"],
    )
    def test_scalar_axis_is_a_one_point_axis(self, evaluate):
        eng = PacketIntegrator(SPEC, barrier(10.0))
        for scalar, one in zip(evaluate(eng, 2.0), evaluate(eng, [2.0])):
            assert scalar.shape == (1,)
            assert np.array_equal(scalar, one)

    @pytest.mark.parametrize(
        "name, outputs", [("density", 1), ("amplitudes", 2), ("density_z", 1), ("density_dt", 3)]
    )
    def test_empty_axis_gives_empty_arrays(self, name, outputs):
        eng = PacketIntegrator(SPEC, barrier(10.0))
        out = getattr(eng, name)(*(([], 2.0) if name == "density_z" else (10.0, [])))
        out = out if isinstance(out, tuple) else (out,)
        assert [values.shape for values in out] == [(0,)] * outputs


class TestUnitPhase:
    """exp(i freqs x xs) by cos and sin, against numpy's complex exp."""

    def test_matches_complex_exp(self):
        freqs = np.linspace(-2.0, 2.0, 257)
        xs = np.linspace(-1000.0, 1000.0, 331)
        want = np.exp(1j * np.multiply.outer(freqs, xs))
        assert np.max(np.abs(wavepacket._unit_phase(freqs, xs) - want)) <= np.finfo(float).eps

    def test_shapes(self):
        freqs = np.linspace(0.0, 1.0, 5)
        assert wavepacket._unit_phase(freqs, 3.0).shape == (5,)
        assert wavepacket._unit_phase(freqs, np.arange(7.0)).shape == (5, 7)


class TestPhaseLadder:
    """Phase ladders against a long-double phase of the same points.

    Row j is the ladder's first row times a product of at most
    ``ceil(log2 k)`` steps (unit phases at ``n h``) whose arguments add up to
    ``freqs x j h``.  With the unit phase at ``x0`` as first row, their
    rounding is at most ``eps/2 |freqs| (|x0| + j |h|)``, which for ``x0``
    and ``h`` of one sign is the rounding bound of the argument of a direct
    evaluation of that point.  Each product adds about an eps.  The steps
    are built once for the longest ladder and shared by the shorter ones, as
    the kernel shares one axis's steps across its chunks; a fine ladder
    starts from exact ones.
    """

    # -E over the canonical window: |freqs| up to 2, so |freqs x| up to 2000
    FREQS = -np.sqrt(1.0 + np.linspace(0.0, 3.0, 257))

    @LONG_DOUBLE
    @pytest.mark.parametrize("k", [1, 2, 3, 28, 29, 512])
    @pytest.mark.parametrize(
        "x0, h", [(0.0, 0.25), (0.0, -0.37), (2.5, 0.0), (-1000.0, 1.9531), (700.0, -0.9)]
    )
    def test_within_rounding_of_long_double(self, k, x0, h):
        steps = wavepacket._ladder_steps(self.FREQS, h, 512)
        first = wavepacket._unit_phase(self.FREQS, x0)
        ones = np.ones(self.FREQS.size, dtype=complex)
        coarse = wavepacket._phase_ladder(first, steps, k)
        fine = wavepacket._phase_ladder(ones, steps, k)
        assert coarse.shape == fine.shape == (k, self.FREQS.size)
        assert coarse[0].tobytes() == first.tobytes()
        assert fine[0].tobytes() == ones.tobytes()
        ld = np.longdouble
        j = np.arange(k)[:, None]
        eps = np.finfo(float).eps
        for start, ladder in ((x0, coarse), (0.0, fine)):
            arg = self.FREQS.astype(ld)[None, :] * (ld(start) + j.astype(ld) * ld(h))
            error = np.hypot((ladder.real - np.cos(arg)).astype(float),
                             (ladder.imag - np.sin(arg)).astype(float))
            rounding = 0.5 * eps * np.abs(self.FREQS)[None, :] * (abs(start) + j * abs(h))
            assert np.all(error <= rounding + (math.ceil(math.log2(k)) + 2) * eps)


class TestUnitPhaseBudget:
    """Calls of the unit phase, the kernel's one cos and sin per node and point."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        unit_phase = wavepacket._unit_phase

        def spy(*args, **kwargs):
            made.append(args[1])
            return unit_phase(*args, **kwargs)

        monkeypatch.setattr(wavepacket, "_unit_phase", spy)
        return made

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_grid(self, monkeypatch, calls, chunk):
        # ladder steps of the fine block and of the longest chunk, once per
        # axis, and a unit phase at each chunk's start, whose argument
        # carries the position phase
        if chunk is not None:
            monkeypatch.setattr(wavepacket, "_TIME_CHUNK", chunk)
        ts = scan_grid((-100.0, 100.0), 0.25)
        eng = PacketIntegrator(SPEC, barrier(40.0))
        _, b = wavepacket._fine_block(ts)
        starts = -(-ts.size // b)
        width = min(wavepacket._TIME_CHUNK // b, starts)
        chunks = -(-starts // width)
        expected = math.ceil(math.log2(b)) + math.ceil(math.log2(width)) + chunks
        calls.clear()
        eng.density(40.0, ts)
        assert len(calls) == expected
        if chunk is None:
            assert (b, width, chunks, expected) == (28, 18, 2, 12)
        else:
            assert (b, width, chunks, expected) == (7, 1, 115, 118)

    def test_single_extremum_refinement(self, calls):
        eng = PacketIntegrator(SPEC, barrier(40.0))
        calls.clear()
        times, _ = eng._refine(40.0, np.array([9.25]), 0.25)
        assert len(calls) == 1
        assert times[0] == pytest.approx(9.271, abs=1e-3)


def central_differences(eng, z, t, h):
    """First and second time derivatives of the density by central differences."""
    lo, mid, hi = (float(eng.density(z, [s])[0]) for s in (t - h, t, t + h))
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h**2


class TestTimeDerivatives:
    # beside the central peak (2.05) and beside the fringe maximum at 65.21
    # of the width-10 barrier, at its downstream face; the fringe sits 11
    # orders of magnitude lower, so it needs the wider difference step
    @pytest.mark.parametrize("t, h, rel", [(2.35, 1e-3, 1e-6), (65.5, 1e-2, 1e-4)])
    def test_match_central_differences(self, t, h, rel):
        eng = PacketIntegrator(SPEC, barrier(10.0), nodes=16384)
        density, first, second = eng.density_dt(10.0, t)
        assert density == pytest.approx(float(eng.density(10.0, [t])[0]), rel=1e-14)
        fd_first, fd_second = central_differences(eng, 10.0, t, h)
        assert first == pytest.approx(fd_first, rel=rel)
        assert second == pytest.approx(fd_second, rel=rel)

    def test_time_axis_matches_single_points(self):
        # An uneven axis takes the direct sum, whose rounding differs from a
        # one-point sum.  Each time derivative brings a factor E, so the k-th
        # output is compared on the scale max|psi|^2 E_max^k of its terms
        # before they cancel (d2|psi|^2/dt2 cancels to below 1e-2 of it).
        eng = PacketIntegrator(SPEC, barrier(10.0))
        ts = np.array([-3.0, 1.9, 2.05, 2.5, 7.3])
        together = eng.density_dt(10.0, ts)
        alone = [eng.density_dt(10.0, t) for t in ts]
        scale = np.max(together[0])
        for k, values in enumerate(together):
            assert values.shape == ts.shape
            single = np.concatenate([a[k] for a in alone])
            assert np.max(np.abs(values - single)) <= 1e-13 * scale * np.max(eng.energy) ** k

    def test_free_packet_derivatives(self):
        eng = PacketIntegrator(SPEC, None)
        density, first, second = eng.density_dt(5.0, 3.0)
        fd_first, fd_second = central_differences(eng, 5.0, 3.0, 1e-3)
        assert density > 0.0
        assert first == pytest.approx(fd_first, rel=1e-6)
        assert second == pytest.approx(fd_second, rel=1e-5)

    def test_window_whose_energies_round_alike(self):
        # every node energy of a window 1e-9 wide at p = 0 rounds to the mass,
        # but the rates, taken from the distances to p_max, do not (about 3e-19):
        # the series' unit of time is a large power of two, and nothing divides
        # by zero or overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eng = PacketIntegrator(PacketSpec(p0=0.0, d=1.0, p_min=0.0, p_max=1e-9), None)
            assert np.all(eng.energy == 1.0)
            assert 0.0 < np.max(np.abs(eng._rate)) < 1e-18 and math.isfinite(eng._unit)
            density = eng.density(0.0, [0.0, 1.0])
            derivatives = eng.density_dt(0.0, [0.0, 1.0])
        assert np.all(np.isfinite(density)) and np.all(np.isfinite(derivatives))


class TestNodePolicy:
    @pytest.mark.parametrize("nodes", [100, 0, -64, 1])
    def test_rule_needs_whole_panels(self, nodes):
        with pytest.raises(ValueError, match="positive multiple of 64"):
            PacketIntegrator(SPEC, barrier(10.0), nodes=nodes)

    def test_whole_panels_are_kept(self):
        # every rule keeps all uniform panels but the last, plus 64 nodes per
        # piece of the last panel; the free packet and width 0 keep it whole
        # unless the panel count would be odd, when it is halved: a uniform
        # base of 192 (three panels) has 256 nodes
        assert PacketIntegrator(SPEC, None, nodes=192).nodes == 256
        assert PacketIntegrator(SPEC, barrier(0.0), nodes=192).nodes == 256
        assert PacketIntegrator(SPEC, barrier(0.0), nodes=256).nodes == 256
        # edges are distances u from p_max: the momenta p_max - u of the
        # uniform ones are those of the uniform base, to rounding
        graded = PacketIntegrator(SPEC, barrier(10.0), nodes=192)
        distances = np.linspace(SPEC.p_max - SPEC.p_min, 0.0, 4)
        pieces = np.count_nonzero(graded._edges < distances[-2])
        assert np.array_equal(graded._edges[:3], distances[:3])
        base = np.linspace(SPEC.p_min, SPEC.p_max, 4)
        assert np.allclose(SPEC.p_max - graded._edges[:3], base[:3], rtol=0.0, atol=4e-16)
        assert pieces > 1
        assert graded.nodes == 128 + 64 * pieces

    def test_underflowing_edge_layer_keeps_the_last_panel_whole(self):
        # at L = 1e-200, c^2 L^2 underflows to 0 (it did below L = 1e-162, dividing by
        # zero): the edge layer is then wider than the panel, so the rule is width 0's
        tiny, free = barrier(1e-200), barrier(0.0)
        edges = wavepacket._graded_edges(SPEC, tiny, 512)
        assert np.array_equal(edges, wavepacket._graded_edges(SPEC, free, 512))
        assert filter_stats(SPEC, tiny) == filter_stats(SPEC, free)
        ts = np.linspace(-20.0, 20.0, 401)
        thin = PacketIntegrator(SPEC, tiny).density(1e-200, ts)
        bare = PacketIntegrator(SPEC, free).density(0.0, ts)
        assert np.max(np.abs(thin - bare)) <= 2e-15 * np.max(bare)

    @pytest.mark.parametrize("width, nodes", [
        pytest.param(10.0, 2048, id="10.0"),
        pytest.param(100.0, 2048, id="100.0"),
        pytest.param(800.0, 2048, id="800.0"),
        pytest.param(0.0, 64, id="0.0-64"),
        pytest.param(0.0, 192, id="0.0-192"),
        pytest.param(None, 64, id="free-64"),
        pytest.param(None, 192, id="free-192"),
    ])
    def test_merged_rule_shares_no_panel(self, monkeypatch, width, nodes):
        # the gate checks a kept rule against its pairwise-merged rule: every
        # merged panel joins two kept panels, the graded ones at p_max too,
        # and so does the halved last panel of a uniform base of odd
        # panel count (64 and 192 nodes)
        cfg = None if width is None else barrier(width)
        z = 0.0 if width is None else width
        kept = PacketIntegrator(SPEC, cfg, nodes=nodes)
        built = []
        real = wavepacket.PacketIntegrator

        def spy(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(wavepacket, "PacketIntegrator", spy)
        assert converged_integrator(SPEC, cfg, z=z, t=0.0, integrator=kept) is kept
        [merged] = built
        assert (kept._edges.size - 1) % 2 == 0
        assert np.array_equal(merged._edges, kept._edges[::2])
        panels = set(zip(kept._edges[:-1], kept._edges[1:]))
        assert not panels & set(zip(merged._edges[:-1], merged._edges[1:]))
        assert merged.nodes == kept.nodes // 2

    @pytest.mark.parametrize("nodes", [192, 2048])
    def test_free_packet_is_the_width_0_barrier(self, nodes):
        # at width 0, t(p) = 1, and v0 enters neither the rule nor the
        # coefficients: the free packet is the same rule, bit for bit
        free = PacketIntegrator(SPEC, None, nodes=nodes)
        bare = PacketIntegrator(SPEC, BarrierConfig(v0=1.0, width=0.0), nodes=nodes)
        assert (free.nodes, free._scale) == (bare.nodes, bare._scale)
        assert np.array_equal(free._edges, bare._edges)
        assert np.array_equal(free._coef, bare._coef)
        ts, zs = np.linspace(-20.0, 20.0, 81), np.linspace(0.0, 40.0, 161)
        assert np.array_equal(free.density(5.0, ts), bare.density(5.0, ts))
        assert np.array_equal(free.density_z(zs, 3.0), bare.density_z(zs, 3.0))

    def test_gate_keeps_the_width_0_rule_for_the_free_packet(self):
        free = converged_integrator(SPEC, None, z=0.0, t=0.0, tol=1e-8)
        bare = converged_integrator(SPEC, BarrierConfig(v0=1.0, width=0.0), z=0.0, t=0.0, tol=1e-8)
        assert free.nodes == bare.nodes
        assert np.array_equal(free._edges, bare._edges)
        assert np.array_equal(free._coef, bare._coef)

    def test_gate_refuses_an_undoublable_start_before_building(self, monkeypatch):
        built = []
        init = PacketIntegrator.__init__

        def spy(integrator, *args, **kwargs):
            built.append(kwargs.get("nodes"))
            init(integrator, *args, **kwargs)

        monkeypatch.setattr(PacketIntegrator, "__init__", spy)
        with pytest.raises(ValueError, match="MAX_NODES"):
            converged_integrator(SPEC, barrier(10.0), z=10.0, t=2.0, nodes=40000)
        assert built == []


class TestDeadPanels:
    """The integrator sums only the panels whose sum |c| is above 2^-64 of the rule's."""

    @pytest.mark.parametrize("width, rule, live", [(10.0, 768, 768), (100.0, 896, 512),
                                                   (800.0, 1152, 512)])
    def test_wide_rules_sum_fewer_nodes(self, width, rule, live):
        # nodes counts the whole rule, the gate's ceiling and merged rule with it;
        # the tables hold the live panels only
        eng = PacketIntegrator(SPEC, barrier(width))
        assert eng.nodes == 64 * (eng._edges.size - 1) == rule
        assert eng.p.size == eng.energy.size == eng._coef.shape[1] == eng._rate.size == live

    @LONG_DOUBLE
    @pytest.mark.parametrize(
        "width, ts",
        [(100.0, scan_grid((-100.0, 100.0), 0.25)), (800.0, scan_grid((100.0, 300.0), 0.25))],
        ids=["L100", "L800"],
    )
    def test_density_against_every_node_in_long_double(self, width, ts):
        # the default 801-point scan grid at the downstream face against a
        # long-double sum over every node of the rule: the live nodes' own
        # table, and on the dropped panels w g t(p) e^{i p_max L} from
        # momentum_weight and transmission_amplitude (t(p) from p loses
        # digits next to p_max, so the live nodes keep the table's values;
        # the dropped ones weigh too little for that to show)
        cfg = barrier(width)
        eng = PacketIntegrator(SPEC, cfg)
        u, w = wavepacket._gauss_panels(eng._edges)
        p = SPEC.p_max - u
        dead = ~np.isin(p, eng.p)
        assert np.count_nonzero(dead) == eng.nodes - eng.p.size
        p = p[dead]
        c = w[dead] * momentum_weight(p, SPEC) * transmission_amplitude(p, cfg)
        c = c * np.exp(1j * SPEC.p_max * width)
        assert np.sum(np.abs(c)) <= 2.0**-64 * np.sum(np.abs(eng._coef[0]))
        energy = total_energy(p, 1.0)
        every = SimpleNamespace(
            _scale=eng._scale,
            _coef=np.concatenate((eng._coef, [c, c * p / (energy + 1.0)]), axis=1),
            p=np.concatenate((eng.p, p)),
            energy=np.concatenate((eng.energy, energy)),
        )
        want = long_double_density(every, width, ts)
        assert np.max(np.abs(eng.density(width, ts) - want)) <= 2e-15 * np.max(want)

    def test_a_rule_of_zero_weight_keeps_every_panel(self):
        # near the widest width a barrier accepts, every coefficient underflows
        # to 0: no panel is above 2^-64 of sum |c| = 0, so all are kept
        cfg = BarrierConfig(v0=1.0, mass=1.0, width=8e307)
        lo, hi = momentum_window(cfg)
        eng = PacketIntegrator(PacketSpec.for_barrier(cfg, p0=0.5 * (lo + hi), d=10.0), cfg)
        assert not np.any(eng._coef)
        assert eng.p.size == eng.nodes
        assert np.array_equal(eng.density(cfg.width, [-1.0, 0.0, 1.0]), np.zeros(3))


class TestFilteredDistributions:
    def test_component_relation(self):
        cfg = barrier(10.0)
        p = np.linspace(0.05, 1.6, 50)
        g_t, f_t = filtered_distributions(p, SPEC, cfg)
        expected = g_t * p / (total_energy(p) + 1.0)
        assert np.allclose(f_t, expected, rtol=1e-13)
        assert np.all(g_t >= 0.0)
        assert np.all(f_t <= g_t)  # small component stays small, v < 1

    def test_center_value_is_transmission_magnitude(self):
        cfg = barrier(10.0)
        g_t, _ = filtered_distributions(np.array([P0]), SPEC, cfg)
        assert g_t[0] == pytest.approx(
            abs(transmission_amplitude(P0, cfg)), rel=1e-13
        )

    @pytest.mark.parametrize("width", [0.0, 10.0])
    @pytest.mark.parametrize("v0,p", [(1.0, 1.8), (2.0, 1.0), (2.0, 3.0)])
    def test_momentum_off_the_window_is_refused(self, v0, p, width):
        # above the window (diffusion zone) and, at v0 = 2, below it (Klein zone)
        cfg = BarrierConfig(v0=v0, width=width)
        spec = PacketSpec.for_barrier(cfg, p0=float(np.mean(momentum_window(cfg))), d=D_WIDTH)
        with pytest.raises(EnergyZoneError, match="not in the Dirac tunneling window"):
            filtered_distributions(np.array([p]), spec, cfg)


def long_double_g_t(p, cfg, u=None):
    """g |t| on momenta ``p`` with |t| = p e^{-rho L} / |e^{-rho L} D| in np.longdouble.

    The weight g is the double one of ``momentum_weight``, so the difference
    from g_T is the rounding of |t| alone (rho, the denominator, the modulus).
    Given the distances ``u`` from p_max that ``p`` was read from, p = p_max - u
    and rho = sqrt(s (2m - s)), s = E(p_max) - E, are taken from u in long double.
    """
    ld = np.longdouble
    g = momentum_weight(p, SPEC).astype(ld)
    p, mass, v0, width = p.astype(ld), ld(cfg.mass), ld(cfg.v0), ld(cfg.width)
    if u is not None:
        u, p_max = u.astype(ld), ld(SPEC.p_max)
        p = p_max - u
    energy = np.sqrt(p * p + mass * mass)
    if u is None:
        rho = np.sqrt(np.maximum(mass * mass - (energy - v0) ** 2, ld(0)))
    else:
        s = u * (p_max + p) / (np.sqrt(p_max * p_max + mass * mass) + energy)
        rho = np.sqrt(s * (2 * mass - s))
    decay = np.exp(-rho * width)
    lq = np.divide(-np.expm1(-2 * rho * width), 2 * rho, out=np.full_like(rho, width), where=rho > 0)
    return g * p * decay / np.hypot(p * (1 + decay * decay) / 2, (p * p - v0 * energy) * lq)


def max_relative_error(got, want):
    """Largest |got - want| / want where want > 0; got must be 0 where want is."""
    support = want > 0
    assert np.all(got[~support] == 0.0)
    return float(np.max(np.abs(got[support] - want[support]) / want[support]))


# Each bound is the largest relative error of the former path, g |t| with |t|
# the modulus of the complex transmission_amplitude, against long_double_g_t,
# rounded up to two digits: 5.6e-16 (curve) and 5.3e-16 (rule) at L = 0.5.
# The real-arithmetic |t| stays within them; where rho's own rounding,
# amplified by L, dominates (L >= 20) the two paths agree to an ulp or two,
# and on the rule at L = 50 the new path's worst node lies one ulp above
# the former path's (1.0815e-13 against 1.0794e-13), within its bound.
G_T_BOUNDS = {
    "curve": {0.5: 5.7e-16, 5.0: 1.6e-15, 20.0: 1.4e-14, 50.0: 7.3e-14, 100.0: 3.0e-13},
    "rule": {0.5: 5.3e-16, 5.0: 1.9e-15, 20.0: 1.9e-14, 50.0: 1.1e-13, 100.0: 4.2e-13},
}


class TestFilterFactors:
    """The factors of g_T and f_T built once (``_Nodes``) against fresh calls."""

    @staticmethod
    def packet(v0):
        # v0 = 2 has a window [sqrt(3), sqrt(8)] away from p = 0
        cfg = BarrierConfig(v0=v0, width=0.0)
        lo, hi = momentum_window(cfg)
        return PacketSpec(p0=0.5 * (lo + hi), d=D_WIDTH, p_min=lo, p_max=hi), cfg

    @pytest.mark.parametrize("v0", [1.0, 2.0])
    @pytest.mark.parametrize("samples", [192, 4096])
    def test_hoisting_is_exact(self, v0, samples):
        spec, base = self.packet(v0)
        p_axis = np.linspace(spec.p_min, spec.p_max, samples)
        curve = wavepacket._Nodes(spec, base, p_axis)
        for width in (0.0, 0.5, 37.5, 100.0):
            cfg = BarrierConfig(v0=v0, width=width)
            hoisted = curve.filtered(width)
            fresh = filtered_distributions(p_axis, spec, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(hoisted, fresh))

    @LONG_DOUBLE
    @pytest.mark.parametrize("axis", ["curve", "rule"])
    @pytest.mark.parametrize("width", [0.5, 5.0, 20.0, 50.0, 100.0])
    def test_g_t_against_long_double(self, axis, width):
        # the 2048-sample curve axis, and the nodes of the graded rule of 2048,
        # momenta p_max - u read from their distances u, as filter_stats reads them
        cfg = barrier(width)
        if axis == "curve":
            p = np.linspace(SPEC.p_min, SPEC.p_max, 2048)
            g_t, _ = filtered_distributions(p, SPEC, cfg)
            want = long_double_g_t(p, cfg)
        else:
            u = wavepacket._gauss_panels(wavepacket._graded_edges(SPEC, cfg, 2048))[0]
            p = SPEC.p_max - u
            g_t, _ = wavepacket._Nodes(SPEC, cfg, u=u).filtered(width)
            want = long_double_g_t(p, cfg, u)
        assert max_relative_error(g_t, want) <= G_T_BOUNDS[axis][width]


# Frozen means of the transmitted distribution, canonical packet.
FILTER_ORACLES = [
    (0.0, 0.868138241322095179, 0.655564900675287768, 0.285536865990545748),
    (10.0, 0.939952753802761864, 0.684891732008443284,
     6.17969224402123422e-09),
    (50.0, 1.73091455672885604, 0.865883267544876819,
     7.55391687426775517e-23),
]


class TestFilterStats:
    @pytest.mark.parametrize("width,p_ref,v_ref,w_ref", FILTER_ORACLES)
    def test_frozen_means(self, width, p_ref, v_ref, w_ref):
        stats = filter_stats(SPEC, barrier(width))
        assert stats.p_mean == pytest.approx(p_ref, rel=1e-9)
        assert stats.v_out == pytest.approx(v_ref, rel=1e-9)
        assert stats.transmitted_weight == pytest.approx(w_ref, rel=1e-6)

    def test_internal_consistency(self):
        stats = filter_stats(SPEC, barrier(10.0))
        assert stats.e_mean == pytest.approx(math.hypot(stats.p_mean, 1.0),
                                             rel=1e-14)
        assert stats.v_out == pytest.approx(stats.p_mean / stats.e_mean,
                                            rel=1e-14)

    def test_mean_momentum_grows_with_width(self):
        widths = [0.0, 5.0, 10.0, 20.0, 50.0]
        means = [filter_stats(SPEC, barrier(w)).p_mean for w in widths]
        assert all(a < b for a, b in zip(means, means[1:]))
        assert means[1] == pytest.approx(0.9107437590743798, rel=1e-9)
        assert means[3] == pytest.approx(1.0204525998531575, rel=1e-9)
        assert all(SPEC.p0 < m < SPEC.p_max for m in means)

    @pytest.mark.parametrize("width", [200.0, 400.0])
    def test_wide_barrier_matches_the_finer_rule(self, width):
        # the transmitted weight of a wide barrier sits in a layer about
        # 1/(cL)^2 wide at p_max, which the graded rule resolves; 2048 nodes
        # on equal panels miss it by 6e-4 (L = 200) and 15% (L = 400)
        coarse = filter_stats(SPEC, barrier(width))
        fine = filter_stats(SPEC, barrier(width), nodes=16384)
        assert coarse.transmitted_weight == pytest.approx(fine.transmitted_weight, rel=1e-9)
        assert coarse.p_mean == pytest.approx(fine.p_mean, rel=1e-9)

    def test_underflowed_weight_raises(self):
        # a momentum-narrow packet has no support near the transparent
        # window edge, so a wide barrier underflows the whole weight
        narrow = PacketSpec(p0=P0, d=100.0, p_min=0.0, p_max=math.sqrt(3.0))
        with pytest.raises(DegenerateWeightError):
            filter_stats(narrow, barrier(400.0))


class TestSubWindowPacket:
    """A packet on a window strictly inside the barrier's, where rho on the rule's nodes comes
    from p, not from their distance to p_max: the packet density and the filter statistics
    against a direct sum on 256 Gauss-Legendre panels of t(p) and of (g_T, f_T)."""

    WINDOWS = pytest.mark.parametrize("window", [(0.3, 1.5), (0.0, 1.2)], ids=str)

    @staticmethod
    def packet(window):
        lo, hi = window
        spec = PacketSpec(p0=0.5 * (lo + hi), d=D_WIDTH, p_min=lo, p_max=hi)
        x, w = np.polynomial.legendre.leggauss(64)
        edges = np.linspace(lo, hi, 257)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        return spec, (mid[:, None] + np.outer(half, x)).ravel(), np.outer(half, w).ravel()

    @WINDOWS
    def test_density(self, window):
        spec, p, w = self.packet(window)
        cfg, ts = barrier(10.0), np.array([-5.0, 2.0, 8.0])
        energy = total_energy(p)
        coef = w * momentum_weight(p, spec) * transmission_amplitude(p, cfg)
        phase = np.exp(1j * (10.0 * p[:, None] - np.outer(energy, ts)))
        g, f = coef @ phase, (coef * p / (energy + 1.0)) @ phase
        want = (2.0 * total_energy(spec.p0)) ** 2 * (np.abs(g) ** 2 + np.abs(f) ** 2)
        got = PacketIntegrator(spec, cfg, nodes=512).density(10.0, ts)
        assert np.max(np.abs(got / want - 1.0)) <= 2e-14

    @WINDOWS
    @pytest.mark.parametrize("width", [0.0, 10.0])
    def test_filter_stats(self, window, width):
        spec, p, w = self.packet(window)
        g_t, f_t = filtered_distributions(p, spec, barrier(width))
        weight = g_t * g_t + f_t * f_t
        total = np.sum(w * weight)
        stats = filter_stats(spec, barrier(width))
        assert stats.transmitted_weight == pytest.approx(total, rel=2e-15)
        assert stats.p_mean == pytest.approx(np.sum(w * p * weight) / total, rel=2e-15)


class TestTransmittedDensity:
    def test_round_trip(self):
        cfg = barrier(10.0)
        ts = np.linspace(0.0, 4.0, 9)
        values = transmitted_density(10.0, ts, SPEC, cfg)
        assert np.array_equal(values, PacketIntegrator(SPEC, cfg).density(10.0, ts))


class TestConvergence:
    def test_gate_accepts_canonical_probe(self):
        eng = converged_integrator(SPEC, barrier(10.0), z=10.0, t=2.0)
        assert eng.nodes >= 4096
        d = float(eng.density(10.0, [2.0])[0])
        assert d == pytest.approx(2.29544239794700562e-08, rel=1e-8)

    def test_node_doubling_is_already_converged(self):
        cfg = barrier(10.0)
        d1 = float(PacketIntegrator(SPEC, cfg, nodes=2048).density(10.0, [2.0])[0])
        d2 = float(PacketIntegrator(SPEC, cfg, nodes=4096).density(10.0, [2.0])[0])
        assert abs(d2 - d1) <= 1e-8 * abs(d2)

    def test_unreachable_tolerance_raises_with_estimate(self):
        with pytest.raises(ConvergenceError) as excinfo:
            converged_integrator(SPEC, barrier(10.0), z=10.0, t=2.0, tol=1e-30)
        estimate = excinfo.value.estimate
        assert estimate == pytest.approx(2.29544239794700562e-08, rel=1e-6)

    def test_tolerance_below_rounding_floor_is_refused_up_front(self, monkeypatch):
        import dirac_tunnel.wavepacket as wavepacket

        built = []
        real = wavepacket.PacketIntegrator

        def spy(*args, **kwargs):
            integrator = real(*args, **kwargs)
            built.append(integrator.nodes)
            return integrator

        monkeypatch.setattr(wavepacket, "PacketIntegrator", spy)
        with pytest.raises(ConvergenceError, match="rounding floor") as excinfo:
            converged_integrator(
                SPEC, barrier(10.0), z=10.0, t=2.0, tol=1e-30, nodes=2048,
            )
        # only the kept rule (the graded rule of 2048 nodes, 2176 at L = 10,
        # split) was built, so no comparison of two rules decided it
        assert built == [4352]
        estimate = excinfo.value.estimate
        assert estimate == pytest.approx(2.29544239794700562e-08, rel=1e-6)

    @LONG_DOUBLE
    @pytest.mark.parametrize("nodes", [512, 2048])
    @pytest.mark.parametrize("width, t", [(75.0, 26.5), (100.0, 36.25), (800.0, 300.75)])
    def test_probe_density_long_double(self, width, t, nodes):
        # the gate's probe, the grid maximum at the downstream face, on the
        # graded rules of the default base and of the gate's start: nodes placed by
        # their distance from p_max sit where their weights assume, so the
        # density is exact to rounding (nodes p = mid + half x, rounded next
        # to p_max, put it off by 1e-13 at L = 75 and 5e-11 at L = 800)
        cfg = barrier(width)
        eng = PacketIntegrator(SPEC, cfg, nodes=nodes)
        want = long_double_rule_density(eng, cfg, width, t)
        assert abs(float(eng.density(width, t)[0]) - want) <= 1e-14 * want

    def test_nan_density_never_converges(self, monkeypatch):
        # a NaN probe density fails every comparison, so the gate splits up
        # to the ceiling and raises instead of keeping a rule
        monkeypatch.setattr(PacketIntegrator, "density", lambda self, z, ts: np.array([np.nan]))
        monkeypatch.setattr(wavepacket, "MAX_NODES", 8192)
        with pytest.raises(ConvergenceError, match="did not stabilize"):
            converged_integrator(SPEC, barrier(10.0), z=10.0, t=2.0, tol=1e-8)

    def test_ceiling_exhausted_raises_with_estimate(self, monkeypatch):
        # a detector 2e4 behind an L = 10 barrier, at the transmitted peak:
        # the phase p z - E t varies by 8e3 rad across the window, more than
        # the kept rule (the graded rule of 2048 nodes, 2176, split: 4352)
        # resolves; it and its merged rule differ by 9e-2, and its split
        # (8704) by 2e-4, so a 16384-node ceiling runs out before two rules
        # agree to 1e-8; the estimate is the largest rule's density
        built = []
        real = wavepacket.PacketIntegrator

        def spy(*args, **kwargs):
            integrator = real(*args, **kwargs)
            built.append(integrator.nodes)
            return integrator

        monkeypatch.setattr(wavepacket, "PacketIntegrator", spy)
        monkeypatch.setattr(wavepacket, "MAX_NODES", 16384)
        message = (
            "did not stabilize to 1e-08: the largest rule compared has 8704 "
            "nodes, and its split would exceed the ceiling of 16384"
        )
        with pytest.raises(ConvergenceError, match=message) as excinfo:
            converged_integrator(SPEC, barrier(10.0), z=2e4, t=28850.0, tol=1e-8)
        assert built == [4352, 2176, 8704]
        assert excinfo.value.estimate == pytest.approx(9.253958966340905e-11, rel=1e-6)
