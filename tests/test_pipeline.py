import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sohpred import ingest, pipeline
from sohpred.hiselect import HISeries
from sohpred.ingest import SOHSeries
from sohpred.neuralnet import DualBiGRUSpec, TrainingConfig, iter_arrays
from sohpred.pipeline import (
    AnchoredScale,
    CycleSynthesisParams,
    ExperimentConfig,
    FleetSynthesisParams,
    Predictor,
    SplitSpec,
    evaluate_metrics,
    fit_predictor,
    run_fleet,
    run_hi_ablation,
    run_single_battery,
    split_series,
    synthesize_cycles,
    synthesize_dataset,
    synthesize_fleet,
    train_and_predict,
)
from sohpred.seeding import derive_rng

WINDOW = 5


def small_net(units=16, dropout=0.02):
    return DualBiGRUSpec(WINDOW, (units,) * 4, (dropout,) * 4)


def small_training(epochs=200, batch=8):
    return TrainingConfig(epochs, 0.01, int(0.7 * epochs), 0.01, batch_size=batch)


def identity_series(n=140, noise=0.005, gen_seed=42):
    rng = derive_rng(gen_seed, "gen")
    x = np.linspace(0.0, 1.0, n)
    soh_vals = 1.0 - 0.14 * x**1.2
    hi_vals = soh_vals + rng.normal(0.0, noise, n)
    return (
        HISeries("MF", hi_vals),
        SOHSeries(tuple(range(n)), soh_vals),
    )


class TestEvaluateMetrics:
    def test_perfect_prediction(self):
        rmse, mae, mape = evaluate_metrics(np.array([1.0, 0.9]), np.array([1.0, 0.9]))
        assert (rmse, mae, mape) == (0.0, 0.0, 0.0)

    def test_hand_case(self):
        rmse, mae, mape = evaluate_metrics(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert rmse == pytest.approx(1.0)
        assert mae == pytest.approx(1.0)
        assert mape == pytest.approx(100.0)

    def test_half_off(self):
        rmse, mae, mape = evaluate_metrics(np.array([2.0]), np.array([1.0]))
        assert mape == pytest.approx(50.0)

    def test_zero_true_disables_mape(self):
        rmse, mae, mape = evaluate_metrics(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
        assert mape is None
        assert rmse > 0.0 and mae > 0.0

    @given(seed=st.integers(0, 99999), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_rmse_dominates_mae(self, seed, n):
        rng = np.random.default_rng(seed)
        true = rng.normal(size=n) + 2.0
        predicted = true + rng.normal(size=n)
        rmse, mae, _ = evaluate_metrics(true, predicted)
        assert rmse + 1e-12 >= mae >= 0.0


class TestSplitSeries:
    def test_fraction_fifteen(self):
        hi, soh = identity_series(n=100)
        train, test = split_series(hi, soh, SplitSpec.fraction(0.15))
        assert train.hi.size == 15 and test.hi.size == 85
        assert test.offset == 15

    def test_fraction_twentyfive(self):
        hi, soh = identity_series(n=100)
        train, _ = split_series(hi, soh, SplitSpec.fraction(0.25))
        assert train.hi.size == 25

    def test_month_index_mode(self):
        hi, soh = identity_series(n=29)
        train, test = split_series(hi, soh, SplitSpec.index(2))
        assert train.hi.size == 2 and test.hi.size == 27

    def test_degenerate_regions_rejected(self):
        hi, soh = identity_series(n=10)
        with pytest.raises(ValueError):
            split_series(hi, soh, SplitSpec.index(10))
        with pytest.raises(ValueError):
            SplitSpec.fraction(0.0)

    def test_misaligned_rejected(self):
        hi, _ = identity_series(n=10)
        _, soh = identity_series(n=12)
        with pytest.raises(ValueError, match="aligned"):
            split_series(hi, soh, SplitSpec.fraction(0.5))


class TestAnchoredScale:
    def test_train_range_maps_to_top_band(self):
        values = np.array([2.0, 4.0, 3.0])
        scale = AnchoredScale.fit(values, band=0.25)
        scaled = scale.forward(values)
        assert scaled.max() == pytest.approx(1.0)
        assert scaled.min() == pytest.approx(0.75)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=20)
        scale = AnchoredScale.fit(values, band=0.25)
        assert np.allclose(scale.inverse(scale.forward(values)), values, atol=1e-12)

    def test_constant_series_safe(self):
        scale = AnchoredScale.fit(np.full(5, 3.0), band=0.25)
        assert np.all(np.isfinite(scale.forward(np.full(5, 3.0))))


class TestWindowAudit:
    def test_windows_never_cross_the_boundary(self):
        hi, soh = identity_series(n=60)
        split = SplitSpec.fraction(0.25)
        train, test = split_series(hi, soh, split)
        k = train.hi.size
        from sohpred.neuralnet import make_windows

        train_batch = make_windows(train.hi, train.soh, WINDOW, train.offset)
        test_batch = make_windows(test.hi, test.soh, WINDOW, test.offset)
        # a window's end index i covers source indices [i - W + 1, i]
        assert train_batch.indices.max() == k - 1
        assert train_batch.indices.min() == WINDOW - 1
        assert test_batch.indices.min() == k + WINDOW - 1
        assert test_batch.indices.max() == 59


class TestSingleBattery:
    def config(self, frac=0.25, seeds=(0, 1, 2)):
        return ExperimentConfig(
            split=SplitSpec.fraction(frac),
            network=small_net(),
            training=small_training(),
            seeds=seeds,
        )

    def test_identity_synthetic_is_accurate_at_quarter_split(self):
        hi, soh = identity_series()
        report = run_single_battery(self.config(), hi, soh)
        assert report.rmse < 0.02
        assert report.rmse + 1e-12 >= report.mae

    def test_reports_reproducible(self):
        hi, soh = identity_series(n=60)
        config = self.config(seeds=(0,))
        a = run_single_battery(config, hi, soh)
        b = run_single_battery(config, hi, soh)
        assert np.array_equal(a.predicted_soh, b.predicted_soh)
        assert (a.rmse, a.mae, a.mape) == (b.rmse, b.mae, b.mape)
        assert a.fingerprint == b.fingerprint

    def test_no_test_leakage_bitwise(self):
        hi, soh = identity_series(n=80)
        config = self.config(seeds=(0,))
        k = config.split.boundary(80)

        result_real = train_and_predict(config, hi, soh, seed=0)
        corrupted = HISeries(hi.name, hi.values.copy())
        corrupted.values[k:] = 123.456  # vandalize the test region
        result_fake = train_and_predict(config, corrupted, soh, seed=0)

        for (ka, va), (kb, vb) in zip(
            iter_arrays(result_real.predictor.model.params),
            iter_arrays(result_fake.predictor.model.params),
        ):
            assert ka == kb
            assert np.array_equal(va, vb), f"trained parameter {ka} depends on test data"

    def test_training_region_too_small(self):
        hi, soh = identity_series(n=30)
        config = ExperimentConfig(
            split=SplitSpec.index(3), network=small_net(), training=small_training(), seeds=(0,)
        )
        with pytest.raises(ValueError, match="shorter than window"):
            run_single_battery(config, hi, soh)


class TestPredictor:
    def config(self, denoise=True):
        return ExperimentConfig(
            split=SplitSpec.fraction(0.25),
            network=small_net(units=8),
            training=small_training(epochs=30),
            denoise=denoise,
            seeds=(0,),
        )

    @pytest.mark.parametrize("denoise", [True, False])
    def test_save_load_reproduces_report_bitwise(self, tmp_path, denoise):
        hi, soh = identity_series(n=60)
        result = train_and_predict(self.config(denoise), hi, soh, seed=0)
        result.predictor.save(tmp_path)
        loaded = Predictor.load(tmp_path / "model.bin", tmp_path / "scaler.yaml")
        assert loaded.denoise_rank == (2 if denoise else None)
        k = self.config().split.boundary(60)
        again = loaded.report(result.report.fingerprint, hi.values[k:], soh.values[k:], k)
        assert np.array_equal(again.indices, result.report.indices)
        assert np.array_equal(again.predicted_soh, result.report.predicted_soh)
        assert (again.rmse, again.mae, again.mape) == (
            result.report.rmse, result.report.mae, result.report.mape
        )

    @pytest.mark.parametrize(
        "text",
        [
            "input_scale: {top: 1.0, span: 1.0, band: 0.25}\n"
            "target_scale: [1, 2]\ndenoise_rank: 2\n",
            "input_scale: {top: x, span: 1.0, band: 0.25}\n"
            "target_scale: {top: 1.0, span: 1.0, band: 0.25}\ndenoise_rank: 2\n",
            "input_scale: {top: 1.0, span: 1.0, band: 0.25}\n"
            "target_scale: {top: 1.0, span: 1.0, band: 0.25}\ndenoise_rank: two\n",
            "input_scale: [unclosed\n",
            "just text\n",
        ],
    )
    def test_malformed_scaler_names_file(self, tmp_path, text):
        hi, soh = identity_series(n=40)
        predictor, _, _ = fit_predictor(self.config(), hi.values, soh.values, seed=0)
        predictor.save(tmp_path)
        scaler = tmp_path / "scaler.yaml"
        scaler.write_text(text)
        with pytest.raises(ValueError) as info:
            Predictor.load(tmp_path / "model.bin", scaler)
        assert str(info.value).startswith(f"{scaler}: malformed scaler file")


class TestHIAblation:
    def test_single_candidate_single_split(self):
        hi, soh = identity_series(n=60)
        base = ExperimentConfig(
            split=SplitSpec.fraction(0.25),
            network=small_net(units=8),
            training=small_training(epochs=60),
            seeds=(0,),
        )
        rows = run_hi_ablation([(hi, True)], soh, [SplitSpec.fraction(0.25)], base)
        assert len(rows) == 1
        assert rows[0].variant() == "MF-svd"

    def test_tracking_indicator_beats_noise_everywhere(self):
        hi, soh = identity_series(n=120, noise=0.002)
        rng = derive_rng(5, "noise-hi")
        noise_hi = HISeries("PF", rng.normal(0.95, 0.02, size=len(hi)))
        base = ExperimentConfig(
            split=SplitSpec.fraction(0.25),
            network=small_net(units=8),
            training=small_training(epochs=100),
            seeds=(0, 1),
        )
        splits = [SplitSpec.fraction(f) for f in (0.15, 0.25)]
        rows = run_hi_ablation([(hi, True), (noise_hi, True)], soh, splits, base)
        for split in splits:
            group = [r for r in rows if r.split_label == split.label()]
            assert group[0].hi_name == "MF"
            assert group[0].report.rmse <= group[1].report.rmse

    def test_denoised_beats_raw_for_noisy_tracker(self):
        hi, soh = identity_series(n=120, noise=0.012, gen_seed=9)
        base = ExperimentConfig(
            split=SplitSpec.fraction(0.25),
            network=small_net(units=8),
            training=small_training(epochs=100),
            seeds=(0, 1, 2),
        )
        rows = run_hi_ablation([(hi, True), (hi, False)], soh, [SplitSpec.fraction(0.25)], base)
        by_variant = {r.variant(): r.report.rmse for r in rows}
        assert by_variant["MF-svd"] < by_variant["MF-raw"]

    def test_rows_sorted_by_rmse_within_split(self):
        hi, soh = identity_series(n=60)
        rng = derive_rng(6, "x")
        other = HISeries("PF", rng.normal(size=len(hi)))
        base = ExperimentConfig(
            split=SplitSpec.fraction(0.25),
            network=small_net(units=8),
            training=small_training(epochs=40),
            seeds=(0,),
        )
        rows = run_hi_ablation(
            [(hi, True), (other, True)], soh, [SplitSpec.fraction(0.25)], base
        )
        assert rows[0].report.rmse <= rows[1].report.rmse


def synthetic_fleet_soh(n_vehicles=4, n_months=24, seed=3):
    out = {}
    for v in range(n_vehicles):
        rng = derive_rng(seed, "fleet", v)
        months = np.arange(n_months)
        trend = 1.0 - 0.004 * months - 0.00004 * months**2
        values = trend + rng.normal(0.0, 0.0006, n_months)
        values = values / values.max()
        out[f"V{v + 1:02d}"] = SOHSeries(tuple(range(n_months)), values)
    return out


class TestFleet:
    def config(self, seeds=(0,)):
        return ExperimentConfig(
            split=SplitSpec.index(2),
            network=small_net(),
            training=small_training(epochs=300),
            seeds=seeds,
        )

    def test_self_consistency_on_identical_vehicle(self):
        soh_map = synthetic_fleet_soh(n_vehicles=1)
        soh_map["V02"] = soh_map["V01"]  # test vehicle identical to the trainer
        results = run_fleet("V01", soh_map, SplitSpec.index(2), self.config())
        assert len(results) == 1
        vid, report = results[0]
        assert vid == "V02"
        assert report.rmse < 0.005

    def test_report_count_matches_test_vehicles(self):
        soh_map = synthetic_fleet_soh(n_vehicles=4)
        results = run_fleet("V01", soh_map, SplitSpec.index(2), self.config())
        assert [vid for vid, _ in results] == ["V02", "V03", "V04"]

    def test_shared_trend_predicts_well(self):
        soh_map = synthetic_fleet_soh(n_vehicles=4)
        results = run_fleet("V01", soh_map, SplitSpec.index(2), self.config())
        for vid, report in results:
            assert report.rmse < 0.01, vid

    def test_unknown_train_vehicle(self):
        with pytest.raises(ValueError, match="not in dataset"):
            run_fleet("V99", synthetic_fleet_soh(), SplitSpec.index(2), self.config())


class TestSynthesis:
    def test_cycles_deterministic_bytes(self, tmp_path):
        params = CycleSynthesisParams(n_cycles=8, sample_period_s=6.0)
        a = synthesize_cycles(params, 7, tmp_path / "a.csv")
        b = synthesize_cycles(params, 7, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
        c = synthesize_cycles(params, 8, tmp_path / "c.csv")
        assert a.read_bytes() != c.read_bytes()

    def test_cycles_reingest_soh_monotone(self, tmp_path):
        params = CycleSynthesisParams(n_cycles=15, sample_period_s=6.0)
        path = synthesize_cycles(params, 3, tmp_path / "cycles.csv")
        records, dropped = ingest.parse_cycle_file(path)
        assert len(records) == 15 and dropped == 0
        soh = ingest.compute_soh(
            [r.measured_capacity for r in records], "first", [r.cycle_index for r in records]
        )
        assert np.all(np.diff(soh.values) <= 0)

    def test_fleet_month_and_vehicle_counts(self, tmp_path):
        params = FleetSynthesisParams(n_vehicles=3, n_months=6, events_per_month=4)
        paths = synthesize_fleet(params, 5, tmp_path)
        assert len(paths) == 3
        segments = ingest.parse_fleet_file(paths[0], source_id="V01")
        records, _ = ingest.monthly_aggregate(segments)
        assert len(records) == 6
        assert all(len(r.capacities) == 4 for r in records)

    def test_fleet_capacity_near_nominal(self, tmp_path):
        params = FleetSynthesisParams(n_vehicles=1, n_months=3, events_per_month=4)
        paths = synthesize_fleet(params, 1, tmp_path)
        segments = ingest.parse_fleet_file(paths[0], source_id="V01")
        records, _ = ingest.monthly_aggregate(segments)
        assert records[0].median_capacity == pytest.approx(145.0, rel=0.03)

    def test_dispatch(self, tmp_path):
        paths = synthesize_dataset("cycles", CycleSynthesisParams(n_cycles=5, sample_period_s=8.0), 1, tmp_path)
        assert paths[0].name == "cycles.csv"
        with pytest.raises(ValueError, match="kind"):
            synthesize_dataset("bogus", None, 1, tmp_path)


class TestExperimentConfig:
    def test_ssa_tuned_requires_attachment(self):
        with pytest.raises(ValueError, match="SSAConfig"):
            ExperimentConfig(split=SplitSpec.fraction(0.25), network="ssa-tuned")

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ExperimentConfig(split=SplitSpec.fraction(0.25), jobs=jobs)

    def test_fingerprint_stable_and_sensitive(self):
        a = ExperimentConfig(split=SplitSpec.fraction(0.25), network=small_net(), training=small_training())
        b = ExperimentConfig(split=SplitSpec.fraction(0.25), network=small_net(), training=small_training())
        c = ExperimentConfig(split=SplitSpec.fraction(0.15), network=small_net(), training=small_training())
        assert pipeline.config_fingerprint(a) == pipeline.config_fingerprint(b)
        assert pipeline.config_fingerprint(a) != pipeline.config_fingerprint(c)
        # jobs is a run setting, not a hyperparameter
        assert pipeline.config_fingerprint(replace(a, jobs=2)) == pipeline.config_fingerprint(a)

    def test_fingerprint_names_every_field(self):
        """A new ExperimentConfig field must be named as hashed or not; only jobs is not."""
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(pipeline.FINGERPRINT_FIELDS) == names - {"jobs"}

    def test_fingerprint_matches_earlier_versions(self):
        """Values written by the releases that still held ``ExperimentConfig.hi_choice``."""
        training = TrainingConfig(20, 0.01, 14, batch_size=8, seed=0)
        nets = {"baseline": "bff74c4a4b54672e",
                DualBiGRUSpec(5, (3, 2, 4, 3), (0.0, 0.1, 0.0, 0.2)): "be5a7167612d9911"}
        for net, fingerprint in nets.items():
            config = ExperimentConfig(SplitSpec.fraction(0.25), network=net, training=training)
            assert pipeline.config_fingerprint(config) == fingerprint
