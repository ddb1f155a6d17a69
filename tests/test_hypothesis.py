"""Likelihood-ratio tests, ANOVA, variance ratios, chi-squared asymptotics."""

import hashlib
import math
from functools import partial

import numpy as np
import pytest
from scipy import special

from statforge import distributions as d
from statforge import glm
from statforge import hypothesis as hyp
from statforge import regression as reg
from statforge import rng
from statforge.errors import DegenerateSampleError, DomainError, NestingError
from statforge.rng import RandomStream, replicate


class TestMeanTests:
    def test_statistic_zero_at_null_value(self):
        x = np.array([1.0, 2.0, 3.0])
        report = hyp.lrt_mean(x, mu0=2.0, sigma_known=1.0)
        assert report.statistic == pytest.approx(0.0)
        assert report.p_value == pytest.approx(1.0)

    def test_z_variant_pvalue(self):
        # one-sigma deviation of the standardized mean
        x = np.array([1.0])
        report = hyp.lrt_mean(x, mu0=0.0, sigma_known=1.0)
        assert report.statistic == pytest.approx(1.0)
        assert report.p_value == pytest.approx(0.3173, abs=2e-4)

    def test_t_decision_matches_quantile_threshold(self, stream):
        # rejecting on the squared studentized mean against its ratio law is
        # the same as the symmetric-threshold presentation
        n, alpha = 12, 0.05
        t_crit = d.dist_quantile(d.StudentT(n - 1), 1.0 - alpha / 2.0)
        for r in range(200):
            x = stream.split(r).normals(n) + 0.3
            report = hyp.lrt_mean(x, mu0=0.0)
            assert report.reject(alpha) == (abs(report.extras["t"]) >= t_crit)
            # the log-ratio value is a monotone relabeling of the statistic
            assert report.extras["h"] == pytest.approx(
                n * math.log1p(report.statistic / (n - 1)), rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            hyp.lrt_mean([1.0], 0.0)
        with pytest.raises(DegenerateSampleError):
            hyp.lrt_mean(1.0, 0.0)
        with pytest.raises(DegenerateSampleError):
            hyp.lrt_mean([2.0, 2.0, 2.0], 0.0)


class TestVarianceRatio:
    def test_identical_samples_give_unit_ratio(self, stream):
        x = stream.normals(15)
        report = hyp.f_test_variances(x, x)
        assert report.statistic == pytest.approx(1.0)

    def test_swap_reciprocity(self, stream):
        x = stream.normals(13)
        y = 2.0 * stream.normals(17)
        fwd = hyp.f_test_variances(x, y)
        rev = hyp.f_test_variances(y, x)
        assert fwd.statistic == pytest.approx(1.0 / rev.statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-9)

    def test_f_quantile_reciprocity(self):
        # lower quantile of F(m,n) is the reciprocal upper quantile of F(n,m)
        lo = d.dist_quantile(d.FisherF(7, 12), 0.025)
        hi = d.dist_quantile(d.FisherF(12, 7), 0.975)
        assert lo * hi == pytest.approx(1.0, rel=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSampleError):
            hyp.f_test_variances([1.0, 1.0, 1.0], [0.5, 0.7, 0.2])
        with pytest.raises(DegenerateSampleError):
            hyp.f_test_variances(1.0, [0.5, 0.7, 0.2])

    def test_p_value_far_in_the_upper_tail(self):
        x = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]) * 1e4
        y = np.array([-1.0, 1.0, 0.0, 0.0])
        report = hyp.f_test_variances(x, y)
        expected = 2.0 * special.fdtrc(5, 3, report.statistic)
        assert report.statistic > 1e8
        assert report.p_value == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestAnova:
    def test_no_between_variation(self):
        groups = [np.array([-1.0, 1.0]), np.array([-1.0, 1.0])]
        report = hyp.anova_one_way(groups)
        assert report.statistic == pytest.approx(0.0)
        assert report.extras["ss_between"] == pytest.approx(0.0)

    def test_sum_of_squares_identity(self, stream):
        groups = [stream.normals(8) + shift for shift in (0.0, 0.5, -0.3, 1.0)]
        report = hyp.anova_one_way(groups)
        total = report.extras["ss_total"]
        parts = report.extras["ss_within"] + report.extras["ss_between"]
        assert parts == pytest.approx(total, rel=1e-9)

    def test_two_groups_reduce_to_pooled_t_squared(self, stream):
        x = stream.normals(9) + 0.4
        y = stream.normals(14)
        report = hyp.anova_one_way([x, y])
        m, n = x.size, y.size
        pooled = ((m - 1) * x.var(ddof=1) + (n - 1) * y.var(ddof=1)) / (m + n - 2)
        t = (x.mean() - y.mean()) / math.sqrt(pooled * (1.0 / m + 1.0 / n))
        assert report.statistic == pytest.approx(t * t, rel=1e-10)

    def test_null_law_by_simulation(self):
        root = RandomStream(606)
        reps = 5000
        stats = np.empty(reps)
        for r in range(reps):
            sub = root.split(r)
            groups = [sub.normals(10) for _ in range(4)]
            stats[r] = hyp.anova_one_way(groups).statistic
        ks = hyp.ks_statistic(stats, d.FisherF(3, 36))
        assert ks <= 0.025

    def test_degenerate_groups(self):
        with pytest.raises(DomainError):
            hyp.anova_one_way([np.array([1.0, 2.0])])
        with pytest.raises(DegenerateSampleError):
            hyp.anova_one_way([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        with pytest.raises(DegenerateSampleError):
            hyp.anova_one_way([1.0, 2.0])

    def test_scalar_group_is_one_observation(self):
        groups = [np.array([0.0, 1.0, 2.0]), np.array([3.0, 5.0])]
        scalar = hyp.anova_one_way(groups + [4.0])
        listed = hyp.anova_one_way(groups + [[4.0]])
        assert scalar.statistic == listed.statistic
        assert scalar.p_value == listed.p_value


class TestBatchedRows:
    """A 2-d sample is tested row by row, with the 1-d results bit for bit."""

    def _rows(self):
        batch = RandomStream(515).batch(range(6))
        return batch.normals(7), batch.normals(9)

    def test_rows_match_single_samples(self):
        x, y = self._rows()
        batched = [hyp.lrt_mean(x, 0.1, sigma_known=1.0), hyp.lrt_mean(x, 0.1),
                   hyp.f_test_variances(x, y),
                   hyp.anova_one_way([x[:, :3], x[:, 3:], y])]
        for i in range(x.shape[0]):
            single = [hyp.lrt_mean(x[i], 0.1, sigma_known=1.0), hyp.lrt_mean(x[i], 0.1),
                      hyp.f_test_variances(x[i], y[i]),
                      hyp.anova_one_way([x[i, :3], x[i, 3:], y[i]])]
            for many, one in zip(batched, single):
                assert many.statistic[i] == one.statistic
                assert many.p_value[i] == one.p_value
                assert many.reject(0.05)[i] == one.reject(0.05)

    def test_one_degenerate_row_raises(self):
        x, y = self._rows()
        x[4] = 2.0
        with pytest.raises(DegenerateSampleError, match="standard deviation"):
            hyp.lrt_mean(x, 0.0)
        with pytest.raises(DegenerateSampleError, match="variance"):
            hyp.f_test_variances(y, x)
        with pytest.raises(DegenerateSampleError, match="within-group"):
            hyp.anova_one_way([x[:, :3], x[:, 3:]])


class TestGenericLRT:
    def test_equal_likelihoods(self):
        report = hyp.lrt_generic(-10.0, -10.0, 1)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_matches_z_test_exactly(self, stream):
        x = stream.normals(20) + 0.5
        n = x.size
        # closed-form normal log-likelihoods with unit variance
        def loglik(mu):
            return float(-0.5 * n * math.log(2 * math.pi) - 0.5 * ((x - mu) ** 2).sum())
        report = hyp.lrt_generic(loglik(x.mean()), loglik(0.0), 1)
        z_report = hyp.lrt_mean(x, 0.0, sigma_known=1.0)
        assert report.statistic == pytest.approx(z_report.statistic, rel=1e-12)

    def test_tiny_negative_clamped(self):
        report = hyp.lrt_generic(-5.0 - 1e-10, -5.0, 2)
        assert report.statistic == 0.0

    def test_nesting_violation(self):
        with pytest.raises(NestingError):
            hyp.lrt_generic(-6.0, -5.0, 1)
        with pytest.raises(DomainError):
            hyp.lrt_generic(-4.0, -5.0, 0)

    def test_arrays_tested_pair_by_pair(self):
        full = np.array([-10.0, -5.0 - 1e-10, -3.0, 50.0])
        null = np.array([-10.0, -5.0, -4.5, 0.0])
        report = hyp.lrt_generic(full, null, 2)
        for r in range(full.size):
            single = hyp.lrt_generic(float(full[r]), float(null[r]), 2)
            assert (report.statistic[r], report.p_value[r]) == (single.statistic, single.p_value)
        null[2] = -2.0
        with pytest.raises(NestingError, match="below null by 1.000e"):
            hyp.lrt_generic(full, null, 2)

    def test_p_value_far_in_the_tail(self):
        # 1 - cdf rounds to 0 here; the true tail is erfc(sqrt(50))
        report = hyp.lrt_generic(50.0, 0.0, 1)
        assert report.p_value == pytest.approx(special.chdtrc(1, 100.0), rel=1e-12, abs=0.0)
        assert report.p_value == pytest.approx(1.5240e-23, rel=1e-4, abs=0.0)


class TestPValueMonotonicity:
    @pytest.mark.parametrize("law", [d.ChiSquared(1), d.ChiSquared(3), d.FisherF(2, 17)])
    def test_upper_tail_decreasing(self, law):
        grid = np.linspace(0.01, 8.0, 50)
        p = law.sf(grid)
        assert np.all(np.diff(p) < 0)
        assert np.allclose(p, 1.0 - d.dist_cdf(law, grid), rtol=0.0, atol=1e-14)
        assert law.sf(0.0) == 1.0


class TestSizeControl:
    REPS = 10_000

    def _rates(self, statistics_reports, alphas):
        return {a: np.mean([r.reject(a) for r in statistics_reports]) for a in alphas}

    def test_all_tests_hold_size(self):
        root = RandomStream(1717)
        reports_z, reports_t, reports_f, reports_a = [], [], [], []
        for r in range(self.REPS):
            sub = root.split(r)
            x = sub.normals(10)
            y = sub.normals(12)
            reports_z.append(hyp.lrt_mean(x, 0.0, sigma_known=1.0))
            reports_t.append(hyp.lrt_mean(x, 0.0))
            reports_f.append(hyp.f_test_variances(x, y))
            reports_a.append(hyp.anova_one_way([x[:5], x[5:], y]))
        for reports in (reports_z, reports_t, reports_f, reports_a):
            for alpha in (0.01, 0.05):
                rate = np.mean([rep.reject(alpha) for rep in reports])
                se = math.sqrt(alpha * (1 - alpha) / self.REPS)
                assert abs(rate - alpha) <= 3.0 * se


def test_power_increases_with_sample_size():
    root = RandomStream(2525)
    alpha, shift, reps = 0.0005, 1.0, 5000
    rates = []
    for n in (10, 40, 160):
        rejections = 0
        for r in range(reps):
            x = root.split(1000 * n + r).normals(n) + shift
            rejections += hyp.lrt_mean(x, 0.0).reject(alpha)
        rates.append(rejections / reps)
    assert rates[0] < rates[1] < rates[2]


class TestWilksSimulation:
    def test_z_scenario_is_exact(self):
        res = hyp.wilks_null_simulation("z", n=8, replicates=20_000,
                                        stream=RandomStream(11))
        assert res.ks_distance <= 0.01

    def test_t_scenario_large_sample(self):
        res = hyp.wilks_null_simulation("t", n=200, replicates=10_000,
                                        stream=RandomStream(12))
        assert res.ks_distance <= 0.02

    def test_t_scenario_converges_with_n(self):
        small = hyp.wilks_null_simulation("t", n=5, replicates=10_000,
                                          stream=RandomStream(13))
        large = hyp.wilks_null_simulation("t", n=200, replicates=10_000,
                                          stream=RandomStream(13))
        assert small.ks_distance > large.ks_distance

    def test_qq_table_shape(self):
        res = hyp.wilks_null_simulation("z", n=5, replicates=500,
                                        stream=RandomStream(14))
        assert res.qq_table.shape == (19, 3)
        assert np.all(np.diff(res.qq_table[:, 2]) > 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_t_chunks_come_from_split_streams(self, workers):
        # 25,000 replicates of n = 200 make two chunks of 2**22 // 200 = 20,971
        n, reps, chunk = 200, 25_000, (1 << 22) // 200
        stream = RandomStream(19)
        x = np.concatenate([stream.split(c).normals(take * n).reshape(take, n)
                            for c, take in enumerate((chunk, reps - chunk))])
        t2 = n * x.mean(axis=1) ** 2 / x.var(axis=1, ddof=1)
        expected = n * np.log1p(t2 / (n - 1))
        res = hyp.wilks_null_simulation("t", n=n, replicates=reps, stream=stream,
                                        workers=workers)
        assert res.ks_distance == hyp.ks_statistic(expected, d.ChiSquared(1))
        assert res.qq_table[:, 1].tobytes() == np.quantile(expected, res.qq_table[:, 0]).tobytes()

    def test_logistic_gap_against_chi2(self):
        res = hyp.wilks_null_simulation("logistic", n=500, replicates=400,
                                        stream=RandomStream(15))
        assert res.df == 2
        assert res.ks_distance <= 0.08

    @pytest.mark.parametrize("n,reps,chunk_rows", [
        (200, 150, None),   # one block
        (200, 150, 64),     # three blocks
        (2000, 161, None),  # blocks of 32; the last holds one row
    ], ids=["None", "64", "161"])
    def test_logistic_statistics_equal_single_fits(self, n, reps, chunk_rows, monkeypatch):
        if chunk_rows is not None:
            monkeypatch.setattr(rng, "_BLOCK_NUMBERS", chunk_rows * n)
        stream = RandomStream(18)
        beta_true = np.array([0.3, 0.5, 0.0, 0.0])
        spec = glm.bernoulli_logit()
        expected = np.empty(reps)
        for r in range(reps):
            sub = stream.split(r)
            covariates = sub.normals(n * 3).reshape(n, 3)
            design_full = reg.design_matrix(covariates)
            prob = 1.0 / (1.0 + np.exp(-(design_full.matrix @ beta_true)))
            y = (sub.uniforms(n) < prob).astype(float)
            full = glm.glm_fit(spec, design_full, y)
            # the null fit starts from this row's full-fit intercept and slope
            null = glm._fit_full_rank(spec, np.ascontiguousarray(design_full.matrix[None, :, :2]),
                                      y[None], True, start=full.beta[None, :2])
            expected[r] = hyp.lrt_generic(full.log_likelihood, null.log_likelihood[0],
                                          2).statistic
        gaps = replicate(partial(hyp._logistic_gaps, n), reps, stream, width=n)
        assert gaps.tobytes() == expected.tobytes()
        res = hyp.wilks_null_simulation("logistic", n=n, replicates=reps, stream=stream)
        assert res.ks_distance == hyp.ks_statistic(expected, d.ChiSquared(2))
        assert res.qq_table[:, 1].tobytes() == np.quantile(expected, res.qq_table[:, 0]).tobytes()

    def test_logistic_statistics_are_pinned(self):
        # sha256 of the statistics' bytes at the benchmark's n: the whole
        # logistic IRLS path, rank check, full and null fits. It holds for
        # the builds of test_cli's digest pins (numpy 2.4.6, scipy 1.17.1,
        # AVX512 dispatch, OpenBLAS SkylakeX kernels).
        gaps = replicate(partial(hyp._logistic_gaps, 2000), 64, RandomStream(20260810),
                         width=2000)
        assert hashlib.sha256(gaps.tobytes()).hexdigest() == \
            "3223539d805284599707d99b4739263ec318696358a8264a49140745211a8634"

    @staticmethod
    def _null_fits(monkeypatch, n, reps, seed):
        """``(m, y, start, fit)`` of each null fit of the logistic kernel's
        blocks, in order."""
        calls = []

        def recorded(spec, m, y, has_intercept, start=None):
            fit = glm._fit_full_rank(spec, m, y, has_intercept, start=start)
            calls.append((m, y, start, fit))
            return fit
        monkeypatch.setattr(hyp, "_fit_full_rank", recorded)
        replicate(partial(hyp._logistic_gaps, n), reps, RandomStream(seed), width=n)
        return calls

    @pytest.mark.parametrize("n", [300, 2000])
    def test_warm_null_fits_equal_cold_ones(self, monkeypatch, n):
        # the null fit from the full fit's first two coefficients reaches the
        # null MLE found from zero, up to the last few ulps
        spec = glm.bernoulli_logit()
        calls = self._null_fits(monkeypatch, n, 100, 24)
        assert sum(len(y) for _, y, _, _ in calls) == 100
        for m, y, start, warm in calls:
            assert start.shape == (len(y), 2) and start.flags.c_contiguous
            cold = glm._fit_full_rank(spec, m, y, True)
            gap = np.abs(warm.log_likelihood - cold.log_likelihood)
            assert np.all(gap <= 1e-12 * (1.0 + np.abs(cold.log_likelihood)))
            np.testing.assert_allclose(warm.beta, cold.beta, rtol=0.0, atol=1e-8)

    def test_warm_null_fits_take_three_passes(self, monkeypatch):
        # from zero every row takes 5 passes at this size and seed
        calls = self._null_fits(monkeypatch, 2000, 64, 20260810)
        iterations = np.concatenate([fit.iterations for *_, fit in calls])
        assert iterations.size == 64 and np.all(iterations == 3)

    def test_replicate_floor(self):
        with pytest.raises(DomainError):
            hyp.wilks_null_simulation("z", n=5, replicates=50,
                                      stream=RandomStream(16))

    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            hyp.wilks_null_simulation("cauchy", n=5, replicates=500,
                                      stream=RandomStream(17))


def test_grouped_csv_loader(tmp_path):
    path = tmp_path / "groups.csv"
    path.write_text("group,value\na,1.0\nb,2.0\na,3.0\nb,4.5\nc,0.5\n")
    groups = hyp.load_groups_csv(path)
    assert len(groups) == 3
    assert np.allclose(groups[0], [1.0, 3.0])
    assert np.allclose(groups[1], [2.0, 4.5])
    report = hyp.anova_one_way(groups[:2])
    assert 0.0 <= report.p_value <= 1.0


@pytest.mark.parametrize("text,line", [
    ("group,value\na,1.0\nb\n", 3),
    ("group,value\na,1.0\na,x\n", 3),
    ("group,value\n\na,1.0,2.0\n", 3),
], ids=["no-comma", "not-a-number", "two-values"])
def test_grouped_csv_loader_names_the_bad_line(tmp_path, text, line):
    path = tmp_path / "groups.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"groups.csv, line {line}:"):
        hyp.load_groups_csv(path)
