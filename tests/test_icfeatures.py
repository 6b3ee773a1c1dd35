from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    area_reference,
    direct_feature_oracle,
    features_reference,
    ic_curve_reference,
    peak_window_reference,
    savgol_reference,
)
from scipy.signal import savgol_filter

from sohpred import ingest
from sohpred.hiselect import spearman
from sohpred.icfeatures import (
    DEFAULT_AREA_HALFWIDTHS_V,
    DEFAULT_BIN_WIDTH_V,
    DEFAULT_SG_ORDER,
    DEFAULT_SG_WINDOW,
    ICCurve,
    compute_ic_curve,
    dimensionless_features,
    feature_rows,
    integrate_area,
    locate_peak,
    savitzky_golay,
    smooth_curves,
    sweep_area_boundaries,
)
from sohpred.ingest import CycleRecord, SOHSeries
from sohpred.pipeline import CycleSynthesisParams, synthesize_cycles


def record_from_qv(v, q, cycle=1):
    t = np.arange(len(v), dtype=float)
    return CycleRecord(cycle, np.column_stack([t, v, q]), float(q[-1] - q[0]))


def logistic_record(center=3.65, scale=0.04, cap=0.74, n=1500, cycle=1):
    v = np.linspace(3.2, 4.1, n)
    q = cap / (1.0 + np.exp(-(v - center) / scale))
    q -= q[0]
    return record_from_qv(v, q, cycle)


def curve_from_values(dqdv, lo=3.0, smoothed=True, cycle=1):
    grid = lo + 0.01 * np.arange(len(dqdv))
    return ICCurve(cycle, grid, np.asarray(dqdv, dtype=float), smoothed=smoothed)


class TestComputeICCurve:
    def test_linear_charge_gives_constant_derivative(self):
        v = np.linspace(3.0, 4.0, 500)
        q = 2.0 * (v - 3.0)
        curve = compute_ic_curve(record_from_qv(v, q))
        assert np.allclose(curve.dqdv, 2.0, atol=1e-9)
        assert not curve.smoothed

    def test_logistic_step_peak_location(self):
        curve = compute_ic_curve(logistic_record(center=3.65))
        peak_v = curve.voltage_grid[np.argmax(curve.dqdv)]
        assert abs(peak_v - 3.65) <= 0.01

    def test_full_range_integral_recovers_total_charge(self):
        record = logistic_record()
        curve = compute_ic_curve(record)
        dq = record.charge_curve[-1, 2] - record.charge_curve[0, 2]
        area = integrate_area(curve, float(curve.voltage_grid[0]), float(curve.voltage_grid[-1]))
        assert area == pytest.approx(dq, rel=0.01)

    def test_grid_uniform_and_increasing(self):
        curve = compute_ic_curve(logistic_record())
        steps = np.diff(curve.voltage_grid)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0])

    def test_voltage_jitter_cleaned(self):
        v = np.linspace(3.0, 4.0, 400)
        v[100] = v[99] - 0.005  # sensor dip
        q = 2.0 * np.maximum.accumulate(v - 3.0)
        curve = compute_ic_curve(record_from_qv(v, np.maximum.accumulate(q)))
        assert np.allclose(curve.dqdv, 2.0, atol=0.05)

    def test_too_narrow_span_rejected(self):
        v = np.linspace(3.0, 3.005, 10)
        q = np.linspace(0.0, 0.1, 10)
        with pytest.raises(ValueError, match="fewer than 2 occupied bins"):
            compute_ic_curve(record_from_qv(v, q))


class TestSavitzkyGolay:
    def test_constant_reproduced(self):
        curve = curve_from_values(np.full(60, 3.3), smoothed=False)
        out = savitzky_golay(curve, window=11, poly_order=2)
        assert np.allclose(out.dqdv, 3.3, atol=1e-12)
        assert out.smoothed

    def test_quadratic_reproduced(self):
        x = np.arange(80, dtype=float)
        values = 0.5 * x**2 - 3.0 * x + 7.0
        out = savitzky_golay(curve_from_values(values, smoothed=False), 21, 3)
        assert np.max(np.abs(out.dqdv - values)) < 1e-10

    def test_noise_reduced_on_gaussian_bump(self):
        rng = np.random.default_rng(9)
        grid_x = np.linspace(-3.0, 3.0, 181)
        clean = np.exp(-(grid_x**2))
        noisy = clean + rng.uniform(-0.1, 0.1, size=clean.size)
        out = savitzky_golay(curve_from_values(noisy, smoothed=False), 21, 3)
        rms_before = np.sqrt(np.mean((noisy - clean) ** 2))
        rms_after = np.sqrt(np.mean((out.dqdv - clean) ** 2))
        assert rms_after < rms_before

    @pytest.mark.parametrize("window", [5, 11, 13, 21])
    def test_matches_scipy_interp_mode(self, window):
        rng = np.random.default_rng(window)
        for order in range(1, min(4, window - 1) + 1):
            for n in (window, window + 1, window + 2, 2 * window + 3, 150):
                values = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 4)
                ours = savitzky_golay(curve_from_values(values, smoothed=False), window, order)
                ref = savgol_filter(values, window, order, mode="interp")
                tol = 1e-12 * max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(ours.dqdv - ref)) <= tol, (window, order, n)

    def test_matches_scipy_on_synthetic_cycles(self, tmp_path):
        params = CycleSynthesisParams(n_cycles=6, sample_period_s=6.0)
        records, _ = ingest.parse_cycle_file(synthesize_cycles(params, 5, tmp_path / "c.csv"))
        for record in records:
            curve = compute_ic_curve(record)
            ref = savgol_filter(curve.dqdv, 21, 3, mode="interp")
            assert np.max(np.abs(savitzky_golay(curve).dqdv - ref)) <= 1e-12

    def test_window_validation(self):
        curve = curve_from_values(np.ones(30), smoothed=False)
        with pytest.raises(ValueError, match="odd"):
            savitzky_golay(curve, 10, 2)
        with pytest.raises(ValueError, match="exceeds curve length"):
            savitzky_golay(curve, 31, 2)
        with pytest.raises(ValueError, match="must exceed polynomial order"):
            savitzky_golay(curve, 5, 5)


class TestLocatePeak:
    def test_unimodal_peak_found(self):
        curve = savitzky_golay(compute_ic_curve(logistic_record(center=3.65)), 11, 2)
        peak = locate_peak(curve)
        assert abs(peak.peak_voltage - 3.65) <= 0.01
        assert peak.lower_bound < peak.peak_voltage < peak.upper_bound

    def test_constant_curve_tie_breaks_low(self):
        curve = curve_from_values(np.ones(40))
        peak = locate_peak(curve)
        assert peak.peak_voltage == pytest.approx(3.0)

    def test_two_equal_peaks_take_lower_voltage(self):
        grid = 3.0 + 0.01 * np.arange(121)
        values = np.zeros(121)
        values[np.argmin(np.abs(grid - 3.6))] = 5.0
        values[np.argmin(np.abs(grid - 4.0))] = 5.0
        peak = locate_peak(ICCurve(1, grid, values, smoothed=True))
        assert peak.peak_voltage == pytest.approx(3.6)

    def test_unsmoothed_rejected(self):
        curve = curve_from_values(np.ones(40), smoothed=False)
        with pytest.raises(ValueError, match="smoothed"):
            locate_peak(curve)


class TestIntegrateArea:
    def test_constant_area(self):
        curve = curve_from_values(np.full(51, 2.0))  # grid 3.0 .. 3.5
        assert integrate_area(curve, 3.0, 3.5) == pytest.approx(1.0, rel=1e-12)

    def test_triangle_closed_form(self):
        # triangular profile peaking at 4 in the middle of [3.0, 3.4]
        grid = 3.0 + 0.01 * np.arange(41)
        values = 4.0 * (1.0 - np.abs(grid - 3.2) / 0.2)
        curve = ICCurve(1, grid, values, smoothed=True)
        assert integrate_area(curve, 3.0, 3.4) == pytest.approx(0.5 * 0.4 * 4.0, rel=1e-9)

    def test_fractional_endpoints_interpolated(self):
        curve = curve_from_values(np.full(51, 2.0))
        assert integrate_area(curve, 3.123, 3.377) == pytest.approx(2.0 * 0.254, rel=1e-9)

    @given(
        mid=st.floats(3.05, 3.45),
        lo=st.floats(3.0, 3.04),
        hi=st.floats(3.46, 3.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, mid, lo, hi):
        rng = np.random.default_rng(17)
        curve = curve_from_values(rng.uniform(0.5, 3.0, size=51))
        whole = integrate_area(curve, lo, hi)
        split = integrate_area(curve, lo, mid) + integrate_area(curve, mid, hi)
        assert split == pytest.approx(whole, abs=1e-12)

    def test_bounds_validation(self):
        curve = curve_from_values(np.ones(11))
        with pytest.raises(ValueError, match="out of order"):
            integrate_area(curve, 3.2, 3.1)
        with pytest.raises(ValueError, match="outside grid"):
            integrate_area(curve, 2.0, 3.05)


class TestDimensionlessFeatures:
    def test_constant_curve(self):
        row = dimensionless_features(curve_from_values(np.full(20, 2.5)))
        assert (row.cf, row.pf, row.mf, row.wf) == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert row.kur == pytest.approx(-2.0)

    def test_alternating_signs(self):
        row = dimensionless_features(curve_from_values([1.0, -1.0, 1.0, -1.0]))
        assert (row.cf, row.pf, row.mf, row.wf) == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert row.kur == pytest.approx(-2.0)

    def test_sparse_spike_against_oracle(self):
        values = [0.0, 0.0, 0.0, 4.0]
        row = dimensionless_features(curve_from_values(values))
        cf, pf, mf, wf, kur = direct_feature_oracle(values)
        assert row.pf == pytest.approx(4.0)
        assert row.cf == pytest.approx(2.0)
        assert (row.cf, row.pf, row.mf, row.wf, row.kur) == pytest.approx(
            (cf, pf, mf, wf, kur), rel=1e-12
        )

    @given(lam=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, lam):
        rng = np.random.default_rng(5)
        values = rng.normal(size=30) + 0.1
        base = dimensionless_features(curve_from_values(values))
        scaled = dimensionless_features(curve_from_values(values * lam))
        for field in ("cf", "pf", "mf", "wf", "kur"):
            assert getattr(scaled, field) == pytest.approx(getattr(base, field), rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_cf_pf_ordering(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=25)
        if np.all(values == 0.0):
            values[0] = 1.0
        row = dimensionless_features(curve_from_values(values))
        assert row.cf >= 1.0 - 1e-12
        assert row.pf >= row.cf - 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            dimensionless_features(curve_from_values(np.zeros(10)))


class TestSweepAreaBoundaries:
    def bump_curves(self, heights, shoulder, rng):
        """Gaussian core whose height carries the signal plus a noisy shoulder."""
        curves = []
        grid = 3.0 + 0.01 * np.arange(201)  # 3.0 .. 5.0
        for i, h in enumerate(heights):
            core = h * np.exp(-(((grid - 3.8) / 0.02) ** 2))
            noise_bump = shoulder[i] * np.exp(-(((grid - 3.95) / 0.02) ** 2))
            curves.append(ICCurve(i + 1, grid, core + noise_bump, smoothed=True))
        return curves

    def test_single_candidate_returned(self):
        rng = np.random.default_rng(0)
        soh = SOHSeries(tuple(range(10)), np.linspace(1.0, 0.9, 10))
        curves = self.bump_curves(soh.values, np.zeros(10), rng)
        result = sweep_area_boundaries(curves, soh, candidate_halfwidths=(0.07,))
        assert result.halfwidth == 0.07
        assert result.series.name == "Area"

    def test_tracking_window_beats_corrupted_window(self):
        rng = np.random.default_rng(1)
        n = 24
        soh = SOHSeries(tuple(range(n)), np.linspace(1.0, 0.85, n))
        # decorrelates the wide window while staying below the core peak
        shoulder = rng.uniform(0.0, 1.2, size=n)
        curves = self.bump_curves(2.0 * soh.values, shoulder, rng)
        result = sweep_area_boundaries(curves, soh, candidate_halfwidths=(0.05, 0.4))
        assert result.halfwidth == 0.05
        coeffs = dict(result.correlations)
        assert abs(coeffs[0.05]) > abs(coeffs[0.4])
        assert abs(coeffs[0.05]) > 0.99

    def test_constant_soh_degenerate_is_error_free(self):
        rng = np.random.default_rng(2)
        soh = SOHSeries(tuple(range(8)), np.full(8, 0.95))
        curves = self.bump_curves(np.linspace(1.0, 2.0, 8), np.zeros(8), rng)
        result = sweep_area_boundaries(curves, soh, candidate_halfwidths=(0.05, 0.1))
        assert all(c == 0.0 for _, c in result.correlations)

    def test_alignment_required(self):
        soh = SOHSeries((0, 1), np.array([1.0, 0.9]))
        curves = self.bump_curves([1.0], [0.0], np.random.default_rng(0))
        with pytest.raises(ValueError, match="one curve per SOH value"):
            sweep_area_boundaries(curves, soh)


@pytest.fixture(scope="module")
def cell_records(tmp_path_factory):
    """A generated 30-cycle cell, whose curves have 6 lengths at 0.01 V and 8 at 0.007 V."""
    params = CycleSynthesisParams(n_cycles=30, sample_period_s=6.0)
    path = synthesize_cycles(params, 5, tmp_path_factory.mktemp("cell") / "cell.csv")
    return ingest.parse_cycle_file(path)[0]


class TestStackedMatchesPerCurve:
    """The stacked stage against per-curve references in ``oracles``, bit for bit."""

    @pytest.mark.parametrize("bin_width, window, order, halfwidths", [
        (DEFAULT_BIN_WIDTH_V, DEFAULT_SG_WINDOW, DEFAULT_SG_ORDER, DEFAULT_AREA_HALFWIDTHS_V),
        (0.007, 15, 2, (0.03, 0.08, 0.25, 0.6)),  # 0.6 V clips every window to its grid
    ])
    def test_cell(self, cell_records, bin_width, window, order, halfwidths):
        raw = [compute_ic_curve(r, bin_width) for r in cell_records]
        assert len({c.dqdv.size for c in raw}) >= 3
        smoothed = smooth_curves(raw, window, order)
        for record, curve, smooth in zip(cell_records, raw, smoothed):
            grid, dqdv = ic_curve_reference(record.charge_curve, bin_width)
            assert np.array_equal(curve.voltage_grid, grid) and np.array_equal(curve.dqdv, dqdv)
            assert np.array_equal(smooth.dqdv, savgol_reference(dqdv, window, order))
            assert np.array_equal(savitzky_golay(curve, window, order).dqdv, smooth.dqdv)

        for curves in (raw, smoothed):
            rows = feature_rows(curves, halfwidths[1])
            assert [astuple(row) for row in rows] == [
                (c.cycle_index, *features_reference(c.voltage_grid, c.dqdv, c.smoothed, halfwidths[1]))
                for c in curves
            ]
            assert [dimensionless_features(c, halfwidths[1]) for c in curves[:5]] == rows[:5]

        soh = ingest.compute_soh([r.measured_capacity for r in cell_records])
        sweep = sweep_area_boundaries(smoothed, soh, halfwidths)
        areas = {
            hw: [area_reference(c.voltage_grid, c.dqdv, *peak_window_reference(c.voltage_grid, c.dqdv, hw)[2:])
                 for c in smoothed]
            for hw in halfwidths
        }
        assert sweep.correlations == tuple(
            (hw, spearman(np.array(areas[hw]), soh.values)) for hw in halfwidths
        )
        assert sweep.series.values.tolist() == areas[sweep.halfwidth]
        c = smoothed[0]
        assert astuple(sweep.reference_peak) == peak_window_reference(c.voltage_grid, c.dqdv, sweep.halfwidth)

    @given(seed=st.integers(0, 2**32 - 1), bin_width=st.sampled_from([0.003, 0.01, 0.021]))
    @settings(max_examples=60, deadline=None)
    def test_ic_curve_of_a_jittery_record(self, seed, bin_width):
        # rounded voltages repeat, and negative steps dip below the running maximum
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 400))
        v = 3.0 + np.round(np.cumsum(rng.normal(0.004, 0.006, n)), 3)
        v[-1] = v.max() + 0.05
        record = record_from_qv(v, np.cumsum(rng.uniform(0.0, 0.01, n)))
        grid, dqdv = ic_curve_reference(record.charge_curve, bin_width)
        curve = compute_ic_curve(record, bin_width)
        assert np.array_equal(curve.voltage_grid, grid) and np.array_equal(curve.dqdv, dqdv)

    @given(lower=st.floats(2.99, 3.5), width=st.floats(0.0001, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_area_between_any_bounds(self, lower, width):
        rng = np.random.default_rng(11)
        curve = curve_from_values(rng.uniform(0.5, 3.0, size=51))  # grid 3.0 .. 3.5
        upper = min(lower + width, 3.5)
        if lower >= upper or lower < 3.0 - 1e-12:
            with pytest.raises(ValueError, match="cycle 1: bounds"):
                integrate_area(curve, lower, upper)
        else:
            assert integrate_area(curve, lower, upper) == area_reference(
                curve.voltage_grid, curve.dqdv, lower, upper
            )

    def test_one_curve_names_its_cycle(self):
        curves = [curve_from_values(np.ones(30), cycle=4), curve_from_values(np.ones(12), cycle=7)]
        with pytest.raises(ValueError, match="^cycle 7: window 21 exceeds curve length 12$"):
            smooth_curves(curves)
        curves = [curve_from_values(np.ones(30), cycle=4), curve_from_values(np.zeros(30), cycle=5)]
        with pytest.raises(ValueError, match="^cycle 5: all-zero curve"):
            feature_rows(curves)
        v = np.full(20, 3.7)
        with pytest.raises(ValueError, match="^cycle 9: voltage non-monotone"):
            compute_ic_curve(record_from_qv(v, np.linspace(0.0, 0.1, 20), cycle=9))
