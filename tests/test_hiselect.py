import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hankel_denoise_reference
from scipy.stats import rankdata, spearmanr

from sohpred import blas
from sohpred.hiselect import (
    HISeries,
    _average_ranks,
    hankel_matrix,
    hankel_svd_denoise,
    min_max_normalize,
    rank_his,
    select_hi,
    spearman,
)
from sohpred.ingest import SOHSeries


def series(values, name="MF", **kw):
    return HISeries(name=name, values=np.asarray(values, dtype=float), **kw)


class TestMinMaxNormalize:
    def test_basic(self):
        out = min_max_normalize(series([2.0, 4.0, 6.0]))
        assert np.allclose(out.values, [0.0, 0.5, 1.0])
        assert out.normalized

    def test_constant_maps_to_half(self):
        out = min_max_normalize(series([3.0, 3.0, 3.0]))
        assert np.allclose(out.values, 0.5)

    @given(a=st.floats(0.01, 100.0), b=st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, a, b):
        values = np.array([1.0, 5.0, 2.0, 9.0, 4.0])
        base = min_max_normalize(series(values)).values
        moved = min_max_normalize(series(a * values + b)).values
        assert np.allclose(base, moved, atol=1e-9)

    def test_idempotent_on_normalized(self):
        once = min_max_normalize(series([1.0, 5.0, 2.0]))
        twice = min_max_normalize(once)
        assert np.array_equal(once.values, twice.values)

    def test_endpoints_attained(self):
        out = min_max_normalize(series([7.0, 1.0, 3.0]))
        assert out.values.min() == 0.0 and out.values.max() == 1.0


class TestHankelSVDDenoise:
    def test_hankel_layout(self):
        H = hankel_matrix(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert H.shape == (3, 3)
        assert np.array_equal(H, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_constant_series_rank_one_exact(self):
        values = np.full(12, 4.2)
        out = hankel_svd_denoise(series(values), rank=1)
        assert np.allclose(out.values, values, atol=1e-12)
        assert out.denoised

    def test_sinusoid_rank_two(self):
        t = np.arange(60)
        values = np.sin(2 * np.pi * t / 12.0)
        out = hankel_svd_denoise(series(values), rank=2)
        assert np.max(np.abs(out.values - values)) < 1e-8

    def test_ramp_noise_reduction(self):
        rng = np.random.default_rng(23)
        n = 80
        clean = np.linspace(0.0, 1.0, n)
        noisy = clean + rng.uniform(-0.1, 0.1, size=n)
        out = hankel_svd_denoise(series(noisy), rank=2)
        rms_before = np.sqrt(np.mean((noisy - clean) ** 2))
        rms_after = np.sqrt(np.mean((out.values - clean) ** 2))
        assert rms_after <= 0.7 * rms_before

    def test_full_rank_lossless(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=21)
        full = values.size // 2 + 1
        out = hankel_svd_denoise(series(values), rank=full)
        assert np.max(np.abs(out.values - values)) < 1e-10

    def test_energy_threshold_keeps_constant_exact(self):
        out = hankel_svd_denoise(series(np.full(10, 2.0)), rank=0.95)
        assert np.allclose(out.values, 2.0, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(4, 1), (17, 2), (80, 3), (301, 5)])
    def test_matches_the_add_at_reference(self, n, k):
        values = np.random.default_rng(n).normal(size=n)
        expected = hankel_denoise_reference(values, k)
        assert np.array_equal(hankel_svd_denoise(series(values), rank=k).values, expected)

    def test_svd_runs_on_the_callers_blas_threads(self, monkeypatch):
        # extract holds one thread around its ranking; the train, hpo and
        # fleet paths denoise with the thread count they run at
        if blas.openblas_threads() is None:
            pytest.skip("NumPy's OpenBLAS offers no thread setter here")
        get, _ = blas.openblas_threads()
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: seen.append(get()) or svd(*a, **kw))
        before = get()
        hankel_svd_denoise(series(np.arange(12.0)), rank=2)
        assert seen == [before] and get() == before

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            hankel_svd_denoise(series([1.0, 2.0, 3.0]))

    def test_bad_rank_rejected(self):
        s = series(np.arange(8.0))
        with pytest.raises(ValueError):
            hankel_svd_denoise(s, rank=0)
        with pytest.raises(ValueError):
            hankel_svd_denoise(s, rank=1.5)


class TestSpearman:
    def test_identity(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert spearman(x, x) == pytest.approx(1.0)

    def test_anti_affine(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert spearman(x, -x + 7.0) == pytest.approx(-1.0)

    def test_against_two_pass_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 5.0])
        # independent two-pass recomputation of the centered-product form
        mx = sum(x) / len(x)
        my = sum(y) / len(y)
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = (sum((a - mx) ** 2 for a in x) ** 0.5) * (sum((b - my) ** 2 for b in y) ** 0.5)
        assert spearman(x, y) == pytest.approx(num / den, abs=1e-12)

    def test_ranked_variant_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            ours = spearman(x, y, ranked=True)
            ref = spearmanr(x, y).statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_average_ranks_equal_rankdata(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            for values in (rng.integers(0, 4, size=n).astype(float), rng.normal(size=n)):
                assert np.array_equal(_average_ranks(values), rankdata(values))
        assert np.array_equal(_average_ranks(np.full(6, 2.0)), np.full(6, 3.5))
        assert np.all(np.isnan(_average_ranks(np.array([1.0, np.nan, 0.0]))))

    @given(seed=st.integers(0, 99999))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)

    @given(a=st.floats(0.01, 50.0), b=st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_affine_invariance(self, a, b):
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert spearman(a * x + b, y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_constant_series_degenerate(self):
        coeff, degenerate = spearman(
            np.full(5, 2.0), np.arange(5.0), return_degenerate=True
        )
        assert coeff == 0.0 and degenerate

    @pytest.mark.parametrize("constant", [np.full(3, 0.1), np.full(10, 1 / 3)])
    def test_constant_series_with_an_inexact_mean_degenerate(self, constant):
        # 0.1 three times averages to 0.10000000000000002: centering leaves a spread
        other = np.linspace(1.0, 0.8, constant.size)
        for x, y in ((constant, other), (other, constant)):
            assert spearman(x, y, return_degenerate=True) == (0.0, True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman(np.arange(4.0), np.arange(5.0))

    @pytest.mark.parametrize("ranked", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, ranked, bad):
        # min(1, max(-1, nan)) is -1: a NaN must not score as a perfect anti-correlation
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1.0, bad, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], ranked=ranked)
        with pytest.raises(ValueError, match="non-finite"):
            spearman([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, bad, 3.0], ranked=ranked)

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = spearman(rng.normal(size=8), rng.normal(size=8))
            assert abs(c) <= 1.0 + 1e-12


class TestRankHIs:
    def soh(self, n=40):
        return SOHSeries(tuple(range(n)), np.linspace(1.0, 0.85, n))

    def test_single_candidate(self):
        soh = self.soh()
        report = rank_his([series(soh.values + 0.1)], soh)
        assert report.ranking == ("MF",)

    def test_tracker_beats_noise(self):
        soh = self.soh()
        rng = np.random.default_rng(21)
        tracker = series(soh.values + rng.normal(0.0, 0.001, soh.values.size), "MF")
        noise = series(rng.normal(size=soh.values.size), "PF")
        report = rank_his([noise, tracker], soh)
        assert report.ranking[0] == "MF"
        assert abs(report.coefficient("MF")) > abs(report.coefficient("PF"))

    def test_tie_broken_by_name_order(self):
        soh = self.soh()
        values = soh.values + 0.05
        report = rank_his([series(values, "PF"), series(values, "MF")], soh)
        assert report.ranking == ("MF", "PF")

    def test_ranking_is_permutation(self):
        soh = self.soh()
        rng = np.random.default_rng(2)
        candidates = [
            series(rng.normal(size=soh.values.size), name)
            for name in ("MF", "PF", "Kur", "CF", "WF")
        ]
        report = rank_his(candidates, soh)
        assert sorted(report.ranking) == sorted(c.name for c in candidates)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            rank_his([series(np.arange(5.0))], self.soh(10))

    def test_non_finite_candidate_named(self):
        soh = self.soh()
        values = soh.values + 0.1
        values[7] = np.nan
        with pytest.raises(ValueError, match="candidate PF holds a non-finite value"):
            rank_his([series(soh.values + 0.1, "MF"), series(values, "PF")], soh)


class TestSelectHI:
    def test_top_k_all_in_order(self):
        soh = SOHSeries(tuple(range(40)), np.linspace(1.0, 0.9, 40))
        rng = np.random.default_rng(5)
        tracker = series(soh.values, "MF")
        noisy = series(soh.values + rng.normal(0, 0.05, 40), "PF")
        noise = series(rng.normal(size=40), "Kur")
        candidates = [noise, tracker, noisy]
        report = rank_his(candidates, soh)
        picked = select_hi(report, candidates, top_k=3)
        assert [p.name for p in picked] == list(report.ranking)

    def test_top_one_is_tracker(self):
        soh = SOHSeries(tuple(range(40)), np.linspace(1.0, 0.9, 40))
        rng = np.random.default_rng(6)
        tracker = series(soh.values + rng.normal(0, 0.0005, 40), "MF")
        noise = series(rng.normal(size=40), "PF")
        report = rank_his([noise, tracker], soh)
        assert select_hi(report, [noise, tracker], top_k=1)[0].name == "MF"

    def test_top_k_length(self):
        soh = SOHSeries(tuple(range(12)), np.linspace(1.0, 0.9, 12))
        rng = np.random.default_rng(7)
        candidates = [
            series(rng.normal(size=12), name) for name in ("MF", "PF", "CF", "WF")
        ]
        report = rank_his(candidates, soh)
        assert len(select_hi(report, candidates, top_k=3)) == 3

    def test_top_k_validated(self):
        soh = SOHSeries(tuple(range(12)), np.linspace(1.0, 0.9, 12))
        candidates = [series(np.arange(12.0))]
        report = rank_his(candidates, soh)
        with pytest.raises(ValueError):
            select_hi(report, candidates, top_k=2)


class TestHISeriesType:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown HI name"):
            HISeries(name="XX", values=np.arange(4.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HISeries(name="MF", values=np.array([]))
