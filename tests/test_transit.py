import math

import numpy as np
import pytest

from dirac_tunnel import (
    BarrierConfig,
    PacketIntegrator,
    PacketSpec,
    PeakKind,
    filter_stats,
    group_velocity,
    numeric_tunneling_time,
    scan_peaks,
    superluminal_detector_bound,
    transit_measure,
    transit_time_predicted,
)
from dirac_tunnel import transit
from dirac_tunnel.transit import scan_grid

P0 = math.sqrt(3.0) / 2.0
SPEC = PacketSpec(p0=P0, d=10.0, p_min=0.0, p_max=math.sqrt(3.0))


def barrier(width, offset=0.0):
    return BarrierConfig(v0=1.0, width=width, offset=offset)


# Frozen from a converged scan (gate 1e-14, floor 1e-13) at the downstream
# face of the width-10 barrier; times to the refinement tolerance.
CENTRAL_10 = (2.0466054405481886, 2.29549445273545e-08)
SECONDARIES_10 = [
    (-84.49733818972254, 2.8498169376144097e-21),
    (-78.55883933687637, 4.140345264520121e-21),
    (-72.60026095553314, 7.390041939639481e-21),
    (-66.54952810682165, 1.8775577741367554e-20),
    (-59.83888274482972, 8.554597929696001e-20),
    (65.2114067411094, 1.1568861899785416e-19),
    (71.68530002971772, 2.893846911325524e-20),
    (77.769467606728, 1.1723608334990749e-20),
    (83.77477083441693, 6.476200323754996e-21),
    (89.76015925214094, 4.330887158982519e-21),
    (95.7445255593149, 3.2441656948214116e-21),
]


def _spy_series(monkeypatch):
    """Record the number of extrema in each Newton round's series evaluation."""
    sizes = []
    series_density = PacketIntegrator._series_density

    def spy(integrator, series, delta):
        sizes.append(np.size(delta))
        return series_density(integrator, series, delta)

    monkeypatch.setattr(PacketIntegrator, "_series_density", spy)
    return sizes


def _spy_tables(monkeypatch):
    """Record the node count of each ``PacketIntegrator`` built."""
    tables = []
    init = PacketIntegrator.__init__

    def spy(integrator, *args, **kwargs):
        init(integrator, *args, **kwargs)
        tables.append(integrator.nodes)

    monkeypatch.setattr(PacketIntegrator, "__init__", spy)
    return tables


@pytest.fixture(scope="module")
def fringe_scan():
    return scan_peaks(
        10.0,
        (-100.0, 100.0),
        SPEC,
        barrier(10.0),
        tol=1e-14,
        min_density_ratio=1e-13,
    )


@pytest.fixture(scope="module")
def transits():
    return {
        width: transit_measure(40.0, SPEC, barrier(width))
        for width in (0.0, 10.0, 20.0, 30.0)
    }


class TestScanStructure:
    def test_record_counts(self, fringe_scan):
        kinds = [r.kind for r in fringe_scan]
        assert kinds.count(PeakKind.CENTRAL_MAX) == 1
        assert kinds.count(PeakKind.SECONDARY_MAX) == len(SECONDARIES_10)
        assert kinds.count(PeakKind.MINIMUM) == len(SECONDARIES_10)

    def test_sorted_and_alternating(self, fringe_scan):
        times = [r.time for r in fringe_scan]
        assert times == sorted(times)
        # maxima and minima alternate, starting and ending on a maximum
        kinds = [r.kind for r in fringe_scan]
        for i, kind in enumerate(kinds):
            expected_min = i % 2 == 1
            assert (kind is PeakKind.MINIMUM) == expected_min

    def test_central_is_global(self, fringe_scan):
        central = [r for r in fringe_scan if r.kind is PeakKind.CENTRAL_MAX][0]
        assert all(r.density <= central.density for r in fringe_scan)

    def test_minima_sit_below_their_neighbors(self, fringe_scan):
        for prev, mid, nxt in zip(fringe_scan, fringe_scan[1:], fringe_scan[2:]):
            if mid.kind is PeakKind.MINIMUM:
                assert mid.density < prev.density
                assert mid.density < nxt.density


class TestScanOracles:
    def test_central_peak(self, fringe_scan):
        central = [r for r in fringe_scan if r.kind is PeakKind.CENTRAL_MAX][0]
        assert central.time == pytest.approx(CENTRAL_10[0], abs=5e-3)
        assert central.density == pytest.approx(CENTRAL_10[1], rel=5e-3)

    def test_secondary_ladder(self, fringe_scan):
        found = [r for r in fringe_scan if r.kind is PeakKind.SECONDARY_MAX]
        assert len(found) == len(SECONDARIES_10)
        for rec, (t_ref, d_ref) in zip(found, SECONDARIES_10):
            assert rec.time == pytest.approx(t_ref, abs=5e-3)
            assert rec.density == pytest.approx(d_ref, rel=5e-3)


class TestScanBehavior:
    def test_default_floor_keeps_only_central(self):
        records = scan_peaks(10.0, (-100.0, 100.0), SPEC, barrier(10.0))
        assert len(records) == 1
        assert records[0].kind is PeakKind.CENTRAL_MAX
        assert records[0].time == pytest.approx(CENTRAL_10[0], abs=5e-3)

    def test_step_halving_is_stable(self):
        kw = dict(tol=None)
        a = scan_peaks(10.0, (0.0, 4.0), SPEC, barrier(10.0), step=0.25, **kw)
        b = scan_peaks(10.0, (0.0, 4.0), SPEC, barrier(10.0), step=0.125, **kw)
        t_a = [r for r in a if r.kind is PeakKind.CENTRAL_MAX][0].time
        t_b = [r for r in b if r.kind is PeakKind.CENTRAL_MAX][0].time
        assert abs(t_a - t_b) <= 1e-3

    def test_refinement_lands_on_a_derivative_root(self, fringe_scan):
        # every extremum the grid brackets is a root of d|psi|^2/dt to a
        # small fraction of a Newton step on its own rule
        eng = PacketIntegrator(SPEC, barrier(10.0), nodes=16384)
        for rec in fringe_scan:
            _, first, second = eng.density_dt(10.0, rec.time)
            assert abs(first / second) <= 1e-6
            assert (second < 0.0) == (rec.kind is not PeakKind.MINIMUM)

    def test_empty_and_short_ranges(self):
        with pytest.raises(ValueError):
            scan_peaks(10.0, (5.0, 5.0), SPEC, barrier(10.0))
        with pytest.raises(ValueError):
            scan_peaks(10.0, (0.0, 0.4), SPEC, barrier(10.0))

    def test_monotone_window_has_no_maximum(self):
        with pytest.raises(ValueError):
            scan_peaks(40.0, (0.0, 1.0), SPEC, barrier(10.0))

    @pytest.mark.parametrize("ratio", [math.nan, 0.0, -1.0, 2.0])
    def test_density_floor_outside_unit_interval_is_refused(self, monkeypatch, ratio):
        built = []
        monkeypatch.setattr(PacketIntegrator, "__init__", lambda *a, **k: built.append(k))
        with pytest.raises(ValueError, match="min_density_ratio"):
            scan_peaks(10.0, (-20.0, 20.0), SPEC, barrier(10.0), min_density_ratio=ratio)
        assert built == []

    @pytest.mark.parametrize("step", [0.0, -0.25, math.nan, math.inf])
    def test_bad_step_is_refused(self, step):
        with pytest.raises(ValueError, match="step"):
            scan_grid((-20.0, 20.0), step)

    @pytest.mark.parametrize("t_range", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_infinite_range_is_refused(self, t_range):
        with pytest.raises(ValueError, match="finite"):
            scan_grid(t_range, 0.25)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda step: scan_grid((-100.0, 100.0), step),
            lambda step: scan_peaks(10.0, (-100.0, 100.0), SPEC, barrier(10.0), step=step),
            lambda step: numeric_tunneling_time(SPEC, barrier(10.0), step=step),
        ],
        ids=["scan_grid", "scan_peaks", "numeric_tunneling_time"],
    )
    def test_oversized_grid_is_refused_before_it_is_built(self, monkeypatch, scan):
        # 2e14 points would take 1.42 PiB; the count is checked first
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized grid reached its allocation")

        monkeypatch.setattr(transit.np, "arange", unreachable)
        monkeypatch.setattr(PacketIntegrator, "__init__", unreachable)
        with pytest.raises(ValueError, match=r"^scan step 1e-12 makes 2e\+14 grid points, "
                                             r"over the limit of 1000000$"):
            scan(1e-12)

    def test_grid_of_the_limit_is_accepted(self):
        limit = transit._MAX_POINTS
        assert scan_grid((0.0, 0.25 * (limit - 1)), 0.25).size == limit
        with pytest.raises(ValueError, match="over the limit"):
            scan_grid((0.0, 0.25 * limit), 0.25)

    def test_grid_counts_the_points_np_arange_would_hold(self):
        # 999999.5 lies inside the last step: np.arange holds 1,000,000 points
        assert scan_grid((0.0, 999999.5), 1.0).size == transit._MAX_POINTS
        with pytest.raises(ValueError, match=r"makes 1000001 grid points, over the limit"):
            scan_grid((0.0, 1000000.0), 1.0)
        with pytest.raises(ValueError, match=r"makes inf grid points, over the limit"):
            scan_grid((0.0, 1.0), 5e-324)
        # three points, from the same count: refused exactly when np.arange holds fewer
        for t_stop, step in [(1.5, 1.0), (1.5000000001, 1.0), (0.5, 0.25), (0.5, 0.3), (0.3, 0.2)]:
            size = np.arange(0.0, t_stop + 0.5 * step, step).size
            if size < 3:
                with pytest.raises(ValueError, match="^time range shorter than three scan steps$"):
                    scan_grid((0.0, t_stop), step)
            else:
                assert scan_grid((0.0, t_stop), step).size == size

    def test_reported_extrema_are_refined_together(self, monkeypatch):
        # the first Newton round holds every reported extremum; later rounds
        # hold only the extrema still moving
        sizes = _spy_series(monkeypatch)
        records = scan_peaks(
            10.0, (-100.0, 100.0), SPEC, barrier(10.0), tol=1e-14, min_density_ratio=1e-13
        )
        assert len(records) == 23
        assert sizes[0] == len(records)
        assert len(sizes) <= 10

    def test_dropped_maxima_are_not_refined(self, monkeypatch):
        # the floor is applied on the grid: only the central peak's Newton
        # run is evaluated, one point per round
        sizes = _spy_series(monkeypatch)
        records = scan_peaks(10.0, (-100.0, 100.0), SPEC, barrier(10.0))
        assert [r.kind for r in records] == [PeakKind.CENTRAL_MAX]
        assert sizes and set(sizes) == {1}
        assert len(sizes) <= 10

    @staticmethod
    def _spy_grids(monkeypatch):
        grid_nodes = []
        density = PacketIntegrator.density

        def spy(integrator, z, ts):
            if np.size(ts) > 3:
                grid_nodes.append(integrator.nodes)
            return density(integrator, z, ts)

        monkeypatch.setattr(PacketIntegrator, "density", spy)
        return grid_nodes

    @pytest.mark.parametrize("width, tol, grids", [(10.0, 1e-8, [2304]), (30.0, 1e-14, [2560])])
    def test_grid_is_evaluated_once_on_the_kept_rule(self, monkeypatch, width, tol, grids):
        # A gated scan evaluates its grid on the graded rule of its 2048
        # nodes (2304 and 2560 with the grading), and keeps it at the
        # downstream face: at L = 30 a 1e-14 gate too
        grid_nodes = self._spy_grids(monkeypatch)
        scan_peaks(width, (-100.0, 100.0), SPEC, barrier(width), tol=tol)
        assert grid_nodes == grids

    def test_an_escalating_gate_evaluates_the_grid_again(self, monkeypatch):
        # 1e4 behind an L = 10 barrier the phase p z - E t varies by 4e3 rad
        # across the window: the graded rule of 2048 (2304 nodes) and its
        # split differ by 4e-4, so the gate escalates to 9216 nodes, and the
        # grid is evaluated a second time, on that rule only
        tables, grid_nodes = _spy_tables(monkeypatch), self._spy_grids(monkeypatch)
        scan_peaks(1e4, (14365.0, 14465.0), SPEC, barrier(10.0), tol=1e-8)
        assert tables == [2304, 1152, 4608, 9216]
        assert grid_nodes == [2304, 9216]

    def test_a_passed_check_builds_two_tables_and_one_grid(self, monkeypatch):
        # gated at 1e-8, the kept rule passes its check against its merged
        # rule: two tables, one grid, no escalation
        tables, grids = _spy_tables(monkeypatch), []
        density = PacketIntegrator.density

        def spy_density(integrator, z, ts):
            if np.size(ts) > 3:
                grids.append(integrator.nodes)
            return density(integrator, z, ts)

        monkeypatch.setattr(PacketIntegrator, "density", spy_density)
        scan_peaks(10.0, (-100.0, 100.0), SPEC, barrier(10.0), tol=1e-8)
        assert tables == [2304, 1152]
        assert grids == [2304]


LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no more precise than double here",
)


def long_double_root(eng, z, t):
    """Root of d|psi|^2/dt near ``t`` and its density, by Newton in np.longdouble.

    The sums run over ``eng``'s node table with its own phases, ``_wave z -
    _rate t`` from the rule's origin, so each derivative's terms stay small;
    the origin's own phase drops out of |psi|^2.  Started from a refined time,
    a few rounds reach the long-double root.
    """
    ld = np.longdouble
    coef = eng._coef.astype(np.clongdouble) * ld(eng._scale)
    wave, rate = eng._wave.astype(ld), eng._rate.astype(ld)
    t = ld(t)
    for _ in range(6):
        arg = wave * ld(z) - rate * t
        terms = coef * (np.cos(arg) + 1j * np.sin(arg))
        g0, g1, g2 = ((terms * factor).sum(axis=1) for factor in (1, -1j * rate, -rate * rate))
        first = 2 * (g0.conj() * g1).real.sum()
        second = 2 * ((g0.conj() * g2).real.sum() + (g1 * g1.conj()).real.sum())
        t = t - first / second
    arg = wave * ld(z) - rate * t
    g0 = (coef * (np.cos(arg) + 1j * np.sin(arg))).sum(axis=1)
    return t, (g0 * g0.conj()).real.sum()


@LONG_DOUBLE
class TestRefinementLongDouble:
    """Refined extrema against Newton in np.longdouble on the same node table.

    The series' unit of time is 1 here, the power of two at or below its
    reach 1 / (E_max - E_min): a scan at the default step never re-centres
    its series, and the fringe scan at step 4 must.
    """

    @pytest.fixture
    def refined(self, monkeypatch):
        """(relative time errors, relative density errors, series built) of every refinement."""
        found = {"times": [], "densities": [], "series": 0}
        refine, taylor = PacketIntegrator._refine, PacketIntegrator._taylor

        def spy_refine(eng, z, ts, step):
            times, values = refine(eng, z, ts, step)
            for t, value in zip(times, values):
                root, density = long_double_root(eng, z, t)
                found["times"].append(float(abs(t - root) / abs(root)))
                found["densities"].append(float(abs(value - density) / density))
            return times, values

        def spy_taylor(*args, **kwargs):
            found["series"] += 1
            return taylor(*args, **kwargs)

        monkeypatch.setattr(PacketIntegrator, "_refine", spy_refine)
        monkeypatch.setattr(PacketIntegrator, "_taylor", spy_taylor)
        return found

    @pytest.mark.parametrize("step", [0.25, 4.0])
    @pytest.mark.parametrize("width", [40.0, 100.0])
    def test_central_time_long_double(self, refined, width, step):
        numeric_tunneling_time(SPEC, barrier(width), step=step)
        assert len(refined["times"]) == 1
        assert refined["times"][0] <= 1e-11
        if step < 1.0:
            assert refined["series"] == 1

    @pytest.mark.parametrize("width, t_range", [(800.0, (200.0, 400.0)), (1600.0, (500.0, 700.0))])
    def test_wide_central_time_long_double(self, refined, width, t_range):
        # the weight sits in a layer at p_max; phases from its weighted centre
        # keep tau within 1e-10 (from the window's midpoint, every rate that
        # carries weight is near 0.5, the time derivatives cancel, and tau is
        # off by 3e-10 at L = 800 and 6e-9 at L = 1600)
        numeric_tunneling_time(SPEC, barrier(width), t_range=t_range)
        assert len(refined["times"]) == 1
        assert refined["times"][0] <= 1e-10

    @pytest.mark.parametrize("step", [0.25, 4.0])
    def test_fringes_long_double(self, refined, step):
        scan_peaks(10.0, (-100.0, 100.0), SPEC, barrier(10.0), step=step,
                   tol=1e-14, min_density_ratio=1e-13)
        assert len(refined["times"]) == (23 if step < 1.0 else 9)
        assert max(refined["times"]) <= 1e-10
        assert max(refined["densities"]) <= 3e-9
        assert (refined["series"] > 1) == (step > 1.0)


class TestTunnelingTime:
    # Frozen emergence times at the downstream face (default scan settings).
    @pytest.mark.parametrize("width,tau_ref,v_ref", [
        (10.0, 2.0466054405481886, 4.886139654413053),
        (20.0, 2.153722018629131, 9.286249491348114),
        (50.0, 15.6681819858472, 3.1911807027237837),
    ])
    def test_frozen_times(self, width, tau_ref, v_ref):
        tau, v = numeric_tunneling_time(SPEC, barrier(width))
        assert tau == pytest.approx(tau_ref, abs=5e-3)
        assert v == pytest.approx(v_ref, rel=5e-3)
        assert v == pytest.approx(width / tau, rel=1e-14)

    def test_central_time_agrees_between_rules(self):
        # with the gate off, two converged rules give the same emergence
        # time; the peak fit adds no error of its own above 1e-8
        taus = [
            numeric_tunneling_time(SPEC, barrier(100.0), t_range=(20.0, 60.0), nodes=n, tol=None)[0]
            for n in (16384, 32768)
        ]
        assert taus[0] == pytest.approx(taus[1], abs=1e-8)

    @pytest.mark.parametrize("width, tau_ref", [
        (400.0, 150.160548754), (800.0, 300.775142620), (1600.0, 601.776684300),
    ])
    def test_wide_barriers_without_escalation(self, monkeypatch, width, tau_ref):
        # the graded rule of the default 2048 nodes resolves the window-edge
        # layer (about 1/(c L)^2 wide) of a wide barrier: the gate keeps it
        # (one table and its merged rule) and tau matches the value three
        # independent graded rules agree on to 1.5e-8
        tables = _spy_tables(monkeypatch)
        tau, _ = numeric_tunneling_time(SPEC, barrier(width), t_range=(0.0, width / 2.0))
        assert tau == pytest.approx(tau_ref, rel=1e-6)
        assert len(tables) == 2 and tables[1] == tables[0] // 2

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            numeric_tunneling_time(SPEC, barrier(0.0))


class TestTransitMeasure:
    # Frozen arrivals at a detector 40 downstream of the origin.
    REFERENCE = {
        0.0: (61.081985571869239, False),
        10.0: (45.868396039295085, False),
        20.0: (29.850613526095373, True),
        30.0: (15.701600667651809, True),
    }

    def test_frozen_arrivals(self, transits):
        for width, (t_ref, flag) in self.REFERENCE.items():
            report = transits[width]
            assert report.t_dl == pytest.approx(t_ref, abs=1e-2)
            assert report.superluminal is flag
            assert report.v_dl == pytest.approx(40.0 / report.t_dl, rel=1e-14)
            assert report.detector == 40.0
            assert report.barrier_width == width

    def test_wider_barrier_arrives_earlier(self, transits):
        times = [transits[w].t_dl for w in (0.0, 10.0, 20.0, 30.0)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_free_flight_matches_group_velocity(self, transits):
        v_free = transits[0.0].v_dl
        assert abs(v_free / group_velocity(P0) - 1.0) <= 0.02

    def test_two_leg_composition(self, transits):
        width = 20.0
        tau, v_tun = numeric_tunneling_time(SPEC, barrier(width))
        v_out = filter_stats(SPEC, barrier(width)).v_out
        predicted = transit_time_predicted(40.0, width, v_tun, v_out)
        measured = transits[width].t_dl
        assert abs(predicted - measured) / measured <= 0.05

    def test_translation_invariance(self, transits):
        shifted = transit_measure(40.0, SPEC, barrier(10.0, offset=7.0))
        assert abs(shifted.t_dl / transits[10.0].t_dl - 1.0) <= 5e-3

    def test_detector_inside_barrier_rejected(self):
        with pytest.raises(ValueError):
            transit_measure(5.0, SPEC, barrier(10.0))

    def test_backward_window_rejected(self):
        with pytest.raises(ValueError):
            transit_measure(
                40.0, SPEC, barrier(10.0), t_range=(-100.0, -50.0), tol=None
            )


class TestPrediction:
    def test_two_leg_arithmetic(self):
        assert transit_time_predicted(40.0, 10.0, 2.5, 0.8) == pytest.approx(
            4.0 + 37.5, rel=1e-15
        )
        assert transit_time_predicted(40.0, 0.0, 2.5, 0.8) == pytest.approx(
            50.0, rel=1e-15
        )
        assert transit_time_predicted(40.0, 40.0, 2.5, 0.8) == pytest.approx(
            16.0, rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            transit_time_predicted(40.0, 50.0, 2.5, 0.8)
        with pytest.raises(ValueError):
            transit_time_predicted(40.0, -1.0, 2.5, 0.8)
        with pytest.raises(ValueError):
            transit_time_predicted(40.0, 10.0, 0.0, 0.8)
        with pytest.raises(ValueError):
            transit_time_predicted(40.0, 10.0, 2.5, 1.0)


class TestSuperluminalBound:
    def test_hand_value(self):
        assert superluminal_detector_bound(2.0, 0.5, 10.0) == pytest.approx(
            15.0, rel=1e-15
        )

    def test_bound_is_where_average_crosses_light(self):
        v_tun, v_out, width = 2.598076211353316, 0.7, 20.0
        d = superluminal_detector_bound(v_tun, v_out, width)
        t_at_bound = transit_time_predicted(d, width, v_tun, v_out)
        assert d / t_at_bound == pytest.approx(1.0, rel=1e-12)

    def test_vacuous_cases(self):
        assert superluminal_detector_bound(1.0, 0.5, 10.0) == 0.0
        assert superluminal_detector_bound(0.9, 0.5, 10.0) == 0.0
        assert superluminal_detector_bound(2.0, 0.5, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            superluminal_detector_bound(2.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            superluminal_detector_bound(2.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            superluminal_detector_bound(2.0, 0.5, -1.0)
