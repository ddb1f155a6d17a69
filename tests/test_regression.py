"""Least squares, inference, ridge, LASSO."""

import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.linalg import solve_triangular

from statforge import distributions as d
from statforge import experiments as xp
from statforge import regression as reg
from statforge.errors import (ConvergenceError, DomainError, NestingError,
                              SingularDesignError)
from statforge.rng import _REPLICATE_BLOCK, RandomStream, replicate

from conftest import ks_distance


@pytest.fixture
def simple_data():
    rng = RandomStream(314)
    x = rng.normals(40)
    y = 2.0 + 3.0 * x + 0.5 * rng.normals(40)
    return x, y


class TestOLS:
    def test_intercept_only_is_sample_mean(self):
        y = np.array([1.0, 4.0, 7.0, 8.0])
        fit = reg.ols_fit(reg.design_matrix(np.empty((4, 0))), y)
        assert fit.beta[0] == pytest.approx(y.mean())

    def test_simple_regression_closed_form(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        sxy = ((x - x.mean()) * (y - y.mean())).sum()
        sxx = ((x - x.mean()) ** 2).sum()
        assert fit.beta[1] == pytest.approx(sxy / sxx, rel=1e-12)
        assert fit.beta[0] == pytest.approx(y.mean() - fit.beta[1] * x.mean(), rel=1e-12)

    def test_exact_fit(self):
        x = np.arange(10.0)
        y = 2.0 + 3.0 * x
        fit = reg.ols_fit(reg.design_matrix(x), y)
        assert np.allclose(fit.residuals, 0.0, atol=1e-10)
        assert fit.r2 == pytest.approx(1.0)

    def test_residual_orthogonality(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        scale = 1e-8 * np.linalg.norm(y)
        assert np.all(np.abs(fit.design.matrix.T @ fit.residuals) <= scale)
        assert abs(fit.fitted @ fit.residuals) <= scale

    def test_decomposition_and_r2_range(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        assert fit.ss_total == pytest.approx(fit.ss_reg + fit.ss_res, rel=1e-10)
        assert 0.0 <= fit.r2 <= 1.0

    def test_hat_diagonal_sums_to_rank(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        assert fit.hat_diagonal.sum() == pytest.approx(2.0)

    def test_singular_design_named(self):
        x = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        with pytest.raises(SingularDesignError, match="columns"):
            reg.ols_fit(reg.design_matrix(x), np.arange(6.0))

    def test_rank_check_at_the_threshold(self):
        # one column is another plus delta * noise, delta from 1e-14 to 1e-6,
        # so the smallest singular values straddle the relative threshold:
        # the check on the R factor decides as the tall designs' SVD does
        deltas = np.logspace(-14.0, -6.0, 33)
        decisions = []
        for r in range(64):
            stream = RandomStream(540).split(r)
            n, k = (8, 30, 150)[r % 3], 2 + r % 3
            base = stream.normals(n * k).reshape(n, k)
            noise = stream.normals(n)
            designs = np.repeat(base[None], len(deltas), axis=0)
            designs[:, :, -1] = base[:, 0] + deltas[:, None] * noise
            sv = np.linalg.svd(designs, compute_uv=False)
            for m, deficient in zip(designs, sv[:, -1] <= reg._RANK_RTOL * sv[:, 0]):
                try:
                    reg.require_full_rank(m)
                except SingularDesignError:
                    decisions.append((deficient, True))
                else:
                    decisions.append((deficient, False))
        assert len(decisions) == 2112
        assert all(want == got for want, got in decisions)
        assert {want for want, _ in decisions} == {False, True}

    def test_dependent_columns_named_as_by_the_full_svd(self):
        # a duplicated column, a column that is the sum of two others, and a
        # stack whose third design is the first deficient one: the names
        # are those of the full SVD's last right singular vector
        x = RandomStream(541).normals(2000 * 4).reshape(2000, 4)
        duplicated = x.copy()
        duplicated[:, 3] = duplicated[:, 1]
        summed = x.copy()
        summed[:, 2] = summed[:, 0] + summed[:, 3]
        cases = [(duplicated, duplicated, [1, 3]), (summed, summed, [0, 2, 3]),
                 (np.stack([x, x[::-1], summed, duplicated]), summed, [0, 2, 3])]
        for matrix, first_deficient, columns in cases:
            null = np.abs(np.linalg.svd(first_deficient)[2][-1])
            assert np.flatnonzero(null > 0.1 * null.max()).tolist() == columns
            with pytest.raises(SingularDesignError,
                               match=re.escape(f"columns {columns} are linearly dependent")):
                reg.require_full_rank(matrix)

    def test_non_finite_design_rejected(self):
        x = np.arange(6.0)
        x[2] = np.inf
        with pytest.raises(DomainError, match="finite"):
            reg.ols_fit(reg.design_matrix(x), np.arange(6.0))

    @pytest.mark.parametrize("shape", [(4, 0), (3, 4)])
    def test_design_without_enough_rows_named(self, shape):
        design = reg.DesignMatrix(np.ones(shape), has_intercept=False)
        with pytest.raises(SingularDesignError, match=f"{shape[1]} columns on {shape[0]} rows"):
            reg.ols_fit(design, np.ones(shape[0]))

    def test_no_inference_fields_when_saturated(self):
        x = np.array([[1.0, 2.0], [1.0, 3.0]])
        fit = reg.ols_fit(reg.DesignMatrix(x), np.array([1.0, 2.0]))
        assert fit.sigma2_hat is None

    def test_unbiasedness(self):
        root = RandomStream(42)
        design = reg.design_matrix(root.normals(50 * 3).reshape(50, 3))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        reps = 3000
        estimates = np.empty((reps, 4))
        for r in range(reps):
            y = design.matrix @ beta + root.split(r).normals(50)
            estimates[r] = reg.ols_fit(design, y).beta
        se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(estimates.mean(axis=0) - beta) <= 4.0 * se)

    def test_error_variance_chi_squared_law(self):
        root = RandomStream(43)
        n, p, sigma2 = 30, 2, 2.0
        design = reg.design_matrix(root.normals(n * p).reshape(n, p))
        df = n - p - 1
        reps = 5000
        scaled = np.empty(reps)
        for r in range(reps):
            y = design.matrix @ np.ones(p + 1) + math.sqrt(sigma2) * root.split(r).normals(n)
            scaled[r] = df * reg.ols_fit(design, y).sigma2_hat / sigma2
        assert ks_distance(scaled, lambda t: d.dist_cdf(d.ChiSquared(df), t)) <= 0.025


class TestCoefIntervals:
    def test_zero_noise_zero_width(self):
        x = np.arange(12.0)
        fit = reg.ols_fit(reg.design_matrix(x), 1.0 + 2.0 * x)
        ci = reg.coef_interval(fit, 1, 0.05)
        assert ci.half_width == pytest.approx(0.0, abs=1e-12)

    def test_coverage(self):
        root = RandomStream(4040)
        n = 25
        design = reg.design_matrix(root.normals(n * 2).reshape(n, 2))
        beta = np.array([0.5, 1.0, -1.0])
        reps, covered = 3000, 0
        for r in range(reps):
            y = design.matrix @ beta + root.split(r).normals(n)
            fit = reg.ols_fit(design, y)
            covered += reg.coef_interval(fit, 1, 0.05).covers(beta[1])
        assert covered / reps == pytest.approx(0.95, abs=0.02)

    def test_index_validation(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        with pytest.raises(DomainError):
            reg.coef_interval(fit, 5, 0.05)


class TestResponseBands:
    @pytest.fixture
    def fit(self, simple_data):
        x, y = simple_data
        return reg.ols_fit(reg.design_matrix(x), y)

    def test_prediction_wider_than_mean_everywhere(self, fit):
        for value in np.linspace(-3, 3, 11):
            x0 = np.array([1.0, value])
            mean_band = reg.response_band(fit, x0, "mean_pointwise", 0.05)
            pred_band = reg.response_band(fit, x0, "prediction", 0.05)
            assert pred_band.half_width > mean_band.half_width

    def test_scheffe_ratio_constant_in_x0(self, fit):
        ratios = []
        for value in (-2.0, 0.3, 1.7):
            x0 = np.array([1.0, value])
            scheffe = reg.response_band(fit, x0, "mean_scheffe", 0.05)
            pointwise = reg.response_band(fit, x0, "mean_pointwise", 0.05)
            ratios.append(scheffe.half_width / pointwise.half_width)
        assert np.ptp(ratios) < 1e-10
        df = fit.df_residual
        expected = math.sqrt(2.0 * d.dist_quantile(d.FisherF(2, df), 0.95)) / \
            d.dist_quantile(d.StudentT(df), 0.975)
        assert ratios[0] == pytest.approx(expected, rel=1e-10)

    def test_band_narrowest_at_regressor_mean(self, fit, simple_data):
        x, _ = simple_data
        widths = {
            value: reg.response_band(fit, np.array([1.0, value]), "mean_pointwise", 0.05).half_width
            for value in np.linspace(x.min(), x.max(), 41)
        }
        narrowest = min(widths, key=widths.get)
        assert abs(narrowest - x.mean()) <= (x.max() - x.min()) / 40.0


class TestNestedF:
    def test_identical_models(self, simple_data):
        x, y = simple_data
        fit = reg.ols_fit(reg.design_matrix(x), y)
        report = reg.f_test_nested(fit, fit)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_r2_identity_against_intercept_only(self):
        root = RandomStream(99)
        n, p = 40, 3
        design = reg.design_matrix(root.normals(n * p).reshape(n, p))
        y = design.matrix @ np.array([1.0, 0.4, -0.2, 0.0]) + root.normals(n)
        full = reg.ols_fit(design, y)
        null = reg.ols_fit(reg.design_matrix(np.empty((n, 0))), y)
        report = reg.f_test_nested(full, null)
        expected = (full.r2 / (1.0 - full.r2)) * (n - p - 1) / p
        assert report.statistic == pytest.approx(expected, rel=1e-10)

    def test_p_value_far_in_the_tail(self):
        # intercept plus one slope on 48 points: F(1, 46), statistic 200
        root = RandomStream(12)
        n = 48
        x = root.normals(n)
        x -= x.mean()
        design = reg.design_matrix(x)
        noise = root.normals(n)
        noise -= design.matrix @ reg.ols_fit(design, noise).beta
        slope = math.sqrt(200.0 * (noise @ noise) / 46.0 / (x @ x))
        y = 1.0 + slope * x + noise
        report = reg.f_test_nested(reg.ols_fit(design, y),
                                   reg.ols_fit(reg.design_matrix(np.empty((n, 0))), y))
        assert report.statistic == pytest.approx(200.0, rel=1e-9)
        assert report.p_value == pytest.approx(
            special.fdtrc(1, 46, report.statistic), rel=1e-12, abs=0.0)
        assert report.p_value == pytest.approx(2.307e-18, rel=1e-3, abs=0.0)

    def test_non_nested_rejected(self, simple_data):
        x, y = simple_data
        full = reg.ols_fit(reg.design_matrix(x), y)
        other = reg.ols_fit(reg.design_matrix(x + 1.0), y)
        with pytest.raises(NestingError):
            reg.f_test_nested(full, other)

    def test_size_under_null(self):
        root = RandomStream(777)
        n = 30
        covariates = root.normals(n * 3).reshape(n, 3)
        design_full = reg.design_matrix(covariates)
        design_null = reg.design_matrix(covariates[:, :1])
        reps, rejections = 4000, 0
        for r in range(reps):
            y = 1.0 + 0.8 * covariates[:, 0] + root.split(r).normals(n)
            report = reg.f_test_nested(reg.ols_fit(design_full, y),
                                       reg.ols_fit(design_null, y))
            rejections += report.reject(0.05)
        assert rejections / reps == pytest.approx(0.05, abs=0.012)


class TestRidge:
    def test_zero_penalty_matches_ols(self, simple_data):
        x, y = simple_data
        design = reg.design_matrix(x)
        assert np.allclose(reg.ridge_fit(design, y, 0.0).beta,
                           reg.ols_fit(design, y).beta, atol=1e-10)

    def test_orthonormal_closed_form(self):
        q, _ = np.linalg.qr(RandomStream(7).normals(60).reshape(20, 3))
        design = reg.DesignMatrix(q, has_intercept=False)
        y = RandomStream(8).normals(20)
        for lam in (0.1, 1.0, 10.0):
            expected = q.T @ y / (1.0 + 2.0 * lam)
            assert np.allclose(reg.ridge_fit(design, y, lam).beta, expected, atol=1e-12)

    def test_shrinks_to_zero(self, simple_data):
        x, y = simple_data
        design = reg.design_matrix((x - x.mean()) / x.std())
        base = np.linalg.norm(reg.ridge_fit(design, y, 0.0).beta)
        assert np.linalg.norm(reg.ridge_fit(design, y, 1e6).beta) <= 1e-4 * base

    def test_singular_without_penalty(self):
        x = np.column_stack([np.ones(5), np.ones(5)])
        design = reg.DesignMatrix(x)
        with pytest.raises(SingularDesignError):
            reg.ridge_fit(design, np.arange(5.0), 0.0)
        reg.ridge_fit(design, np.arange(5.0), 0.5)  # regularized solve passes

    def test_mse_crossover_exists(self):
        # an ill-conditioned design where some penalty beats least squares
        root = RandomStream(2718)
        n = 40
        base = root.normals(n)
        covariates = np.column_stack([base, base + 0.1 * root.normals(n)])
        covariates /= covariates.std(axis=0)
        design = reg.design_matrix(covariates)
        beta = np.array([0.0, 1.0, 1.0])
        reps = 400
        grid = [0.0, 0.05, 0.2, 1.0, 5.0]
        sq_err = {lam: 0.0 for lam in grid}
        for r in range(reps):
            y = design.matrix @ beta + root.split(r).normals(n)
            for lam in grid:
                est = reg.ridge_fit(design, y, lam).beta
                sq_err[lam] += float(((est - beta) ** 2).sum()) / reps
        assert min(sq_err[lam] for lam in grid[1:]) < sq_err[0.0]


class TestLasso:
    def test_zero_penalty_matches_ols(self, simple_data):
        x, y = simple_data
        design = reg.design_matrix(x)
        fit = reg.lasso_fit(design, y, 0.0)
        assert np.allclose(fit.beta, reg.ols_fit(design, y).beta, atol=1e-8)

    def test_threshold_kills_every_slope(self):
        root = RandomStream(11)
        m = root.normals(80).reshape(20, 4)
        design = reg.DesignMatrix(m, has_intercept=False)
        y = root.normals(20)
        lam_max = np.abs(m.T @ y).max() / 20
        fit = reg.lasso_fit(design, y, lam_max * 1.0000001)
        assert np.all(fit.beta == 0.0)
        assert fit.active_set.size == 0

    def test_orthonormal_soft_threshold_oracle(self):
        q, _ = np.linalg.qr(RandomStream(12).normals(200).reshape(50, 4))
        m = q * math.sqrt(50)  # columns scaled so m'm / n is the identity
        design = reg.DesignMatrix(m, has_intercept=False)
        y = RandomStream(13).normals(50)
        lam = 0.08
        fit = reg.lasso_fit(design, y, lam)
        expected = np.array([reg.soft_threshold(m[:, j] @ y / 50.0, lam) for j in range(4)])
        assert np.allclose(fit.beta, expected, atol=1e-8)

    def test_objective_monotone(self):
        root = RandomStream(14)
        design = reg.design_matrix(root.normals(200).reshape(50, 4))
        y = design.matrix @ np.array([1.0, 2.0, 0.0, 0.0, -1.0]) + root.normals(50)
        fit = reg.lasso_fit(design, y, 0.05)
        assert np.all(np.diff(fit.objective_trace) <= 1e-12)

    def test_kkt_conditions_at_solution(self):
        root = RandomStream(15)
        design = reg.design_matrix(root.normals(300).reshape(60, 5))
        y = design.matrix @ np.array([0.5, 1.0, -2.0, 0.0, 0.0, 0.0]) + root.normals(60)
        lam = 0.1
        fit = reg.lasso_fit(design, y, lam)
        m = design.matrix
        grad = m.T @ (y - m @ fit.beta) / 60.0
        assert abs(grad[0]) <= 1e-8  # unpenalized intercept
        for j in range(1, 6):
            if fit.beta[j] == 0.0:
                assert abs(grad[j]) <= lam + 1e-8
            else:
                assert grad[j] == pytest.approx(lam * np.sign(fit.beta[j]), abs=1e-8)

    def test_intercept_not_penalized(self):
        y = 10.0 + RandomStream(16).normals(30)
        design = reg.design_matrix(RandomStream(17).normals(30))
        fit = reg.lasso_fit(design, y, 5.0)
        assert fit.beta[1] == 0.0
        assert fit.beta[0] == pytest.approx(y.mean(), rel=1e-8)

    def test_non_convergence_carries_last_iterate(self):
        root = RandomStream(18)
        base = root.normals(30)
        m = np.column_stack([base, base + 1e-4 * root.normals(30)])
        design = reg.DesignMatrix(m, has_intercept=False)
        y = m @ np.array([1.0, -1.0]) + root.normals(30)
        with pytest.raises(ConvergenceError) as err:
            reg.lasso_fit(design, y, 1e-6, max_sweeps=2)
        assert err.value.last_iterate.shape == (2,)

    def test_soft_threshold_is_elementwise(self):
        values = np.array([-2.0, -0.5, 0.0, 0.25, 1.5])
        shrunk = reg.soft_threshold(values, 0.5)
        assert np.array_equal(shrunk, [-1.5, 0.0, 0.0, 0.0, 1.0])
        assert [reg.soft_threshold(v, 0.5) for v in values] == shrunk.tolist()
        assert reg.soft_threshold(0.3, 0.0) == 0.3

    def test_stacked_non_convergence_carries_first_unconverged_row(self):
        root = RandomStream(18)
        base = root.normals(30)
        m = np.column_stack([base, base + 1e-4 * root.normals(30)])
        design = reg.DesignMatrix(m, has_intercept=False)
        hard = m @ np.array([[1.0, -1.0], [2.0, -2.0]]).T + root.normals(60).reshape(30, 2)
        # row 0 (all zeros) converges in one sweep; rows 1 and 2 do not
        y = np.vstack([np.zeros(30), hard.T])
        with pytest.raises(ConvergenceError) as err:
            reg.lasso_fit(design, y, 1e-6, max_sweeps=2)
        with pytest.raises(ConvergenceError) as single:
            reg.lasso_fit(design, y[1], 1e-6, max_sweeps=2)
        assert np.array_equal(err.value.last_iterate, single.value.last_iterate)

    @pytest.mark.parametrize("y", [np.zeros(19), np.zeros((0, 20)), np.zeros((2, 2, 20)),
                                   np.full(20, np.nan)])
    def test_bad_response_is_error(self, y):
        design = reg.DesignMatrix(RandomStream(19).normals(40).reshape(20, 2),
                                  has_intercept=False)
        with pytest.raises(DomainError):
            reg.lasso_fit(design, y, 0.1)


class TestLassoStack:
    """Stacked fits at lasso-bound's default design: n 100, p 200, s 3, t 2."""

    @pytest.fixture(scope="class")
    def problem(self):
        root = RandomStream(20)
        n, p = 100, 200
        m = root.normals(n * p).reshape(n, p)
        m /= np.sqrt((m ** 2).sum(axis=0) / n)
        beta = np.zeros(p)
        beta[:3] = np.linspace(1.0, 2.0, 3)
        penalty = reg.lasso_penalty_rule(n, p, 1.0, 2.0)
        design = reg.DesignMatrix(m, has_intercept=False)
        y = m @ beta + root.batch(np.arange(200)).normals(n)
        singles = [reg.lasso_fit(design, row, penalty, tol=1e-8) for row in y]
        return design, y, penalty, singles

    @pytest.mark.parametrize("height", [1, 7, 32, 200])
    def test_rows_equal_single_fits(self, problem, height):
        design, y, penalty, singles = problem
        fit = reg.lasso_fit(design, y[:height], penalty, tol=1e-8)
        assert fit.beta.shape == (height, design.n_columns)
        for r, single in enumerate(singles[:height]):
            assert type(single.iterations) is int
            assert fit.iterations[r] == single.iterations
            assert np.array_equal(fit.beta[r], single.beta)
            assert np.array_equal(fit.objective_trace[r, :single.iterations],
                                  single.objective_trace)

    def test_kkt_conditions_every_row(self, problem):
        design, y, penalty, _ = problem
        m = design.matrix
        fit = reg.lasso_fit(design, y, penalty, tol=1e-8)
        grad = (m.T @ (y - fit.beta @ m.T).T).T / design.n
        zero = fit.beta == 0.0
        assert np.all(np.abs(grad[zero]) <= penalty)
        assert np.all(np.abs(grad[~zero] - penalty * np.sign(fit.beta[~zero])) <= 1e-8)

    def test_objective_monotone_every_row(self, problem):
        design, y, penalty, _ = problem
        fit = reg.lasso_fit(design, y, penalty, tol=1e-8)
        for trace, sweeps in zip(fit.objective_trace, fit.iterations):
            # nonincreasing up to the rounding of the objective's sums
            assert np.all(np.diff(trace[:sweeps]) <= 1e-12)


class TestRestrictedEigenvalue:
    @pytest.fixture
    def design(self):
        return reg.DesignMatrix(RandomStream(21).normals(200).reshape(20, 10),
                                has_intercept=False)

    @pytest.mark.parametrize("support,n_probes", [
        ([], 10),             # empty support
        ([0, 1], 0),          # no probe
        ([0, 10], 10),        # index past the last column
        ([-1, 2], 10),        # negative index
        ([3, 3], 10),         # repeated index
    ])
    def test_bad_input_is_error(self, design, support, n_probes):
        with pytest.raises(DomainError):
            reg.estimate_restricted_eigenvalue(design, support, n_probes, RandomStream(22))

    def test_probe_i_draws_from_split_i(self, design):
        root = RandomStream(23)
        mask = np.isin(np.arange(10), [0, 4])
        one_by_one = [reg._cone_ratios(design.matrix, mask, root.batch([i]))[0]
                      for i in range(50)]
        assert reg.estimate_restricted_eigenvalue(design, [4, 0], 50, root) == min(one_by_one)


def _stack_rows(design, batch):
    """Every per-row array of one stacked fit of a block, one column per row."""
    fit = reg.ols_fit(design, design.matrix @ np.arange(1.0, design.n_columns + 1)
                      + batch.normals(design.n))
    return np.vstack([fit.beta.T, fit.fitted.T, fit.residuals.T, fit.ss_total,
                      fit.ss_reg, fit.ss_res, fit.r2, fit.r2_adj, fit.sigma2_hat])


def _single_row(fit):
    return np.concatenate([fit.beta, fit.fitted, fit.residuals,
                           [fit.ss_total, fit.ss_reg, fit.ss_res, fit.r2, fit.r2_adj,
                            fit.sigma2_hat]])


class TestOLSFitStack:
    def test_rows_equal_single_fits_across_a_block_boundary(self):
        root = RandomStream(501)
        design = reg.design_matrix(root.split(1 << 40).normals(50 * 3).reshape(50, 3))
        beta = np.arange(1.0, 5.0)
        n = _REPLICATE_BLOCK + 3
        out = replicate(partial(_stack_rows, design), n, root)
        assert out.shape == (4 + 2 * 50 + 6, n)
        for r in (0, 1, _REPLICATE_BLOCK - 1, _REPLICATE_BLOCK, n - 1):
            single = reg.ols_fit(design, design.matrix @ beta + root.split(r).normals(50))
            assert out[:, r].tobytes() == _single_row(single).tobytes()

    @pytest.mark.parametrize("n,k,intercept", [(50, 3, True), (40, 0, True),
                                               (30, 2, False), (300, 5, True)])
    def test_every_row_equals_its_single_fit(self, n, k, intercept):
        root = RandomStream(502)
        design = reg.design_matrix(root.normals(n * k).reshape(n, k), intercept=intercept)
        y = root.normals(60 * n).reshape(60, n) * np.linspace(0.1, 50.0, 60)[:, None]
        stack = reg.ols_fit(design, y)
        assert stack.gram_inverse.shape == (design.n_columns,) * 2
        q, tri = np.linalg.qr(design.matrix)
        for r, row in enumerate(y):
            # the textbook per-row solve gives the same bits
            beta = solve_triangular(tri, q.T @ row)
            assert stack.beta[r].tobytes() == beta.tobytes()
            assert stack.fitted[r].tobytes() == (design.matrix @ beta).tobytes()
            single = reg.ols_fit(design, row)
            assert stack.gram_inverse.tobytes() == single.gram_inverse.tobytes()
            assert stack.hat_diagonal.tobytes() == single.hat_diagonal.tobytes()
            for name in ("beta", "fitted", "residuals", "ss_total", "ss_reg", "ss_res",
                         "r2", "r2_adj", "sigma2_hat"):
                assert getattr(stack, name)[r].tobytes() == \
                    np.float64(getattr(single, name)).tobytes(), name

    def test_saturated_stack_has_no_inference(self):
        design = reg.DesignMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]))
        stack = reg.ols_fit(design, np.array([[1.0, 2.0], [0.0, 5.0]]))
        assert stack.sigma2_hat is None
        assert np.all(np.isnan(stack.r2_adj))
        assert stack.beta[1].tobytes() == reg.ols_fit(design, [0.0, 5.0]).beta.tobytes()

    def test_intervals_and_f_tests_per_row(self):
        root = RandomStream(503)
        n = 30
        covariates = root.normals(n * 3).reshape(n, 3)
        full, null = reg.design_matrix(covariates), reg.design_matrix(covariates[:, :1])
        y = 1.0 + 0.8 * covariates[:, 0] + root.normals(200 * n).reshape(200, n)
        stack_full, stack_null = reg.ols_fit(full, y), reg.ols_fit(null, y)
        ci = reg.coef_interval(stack_full, 1, 0.05)
        report = reg.f_test_nested(stack_full, stack_null)
        same = reg.f_test_nested(stack_full, stack_full)
        assert ci.lo.shape == report.p_value.shape == same.p_value.shape == (200,)
        assert np.all(same.statistic == 0.0) and np.all(same.p_value == 1.0)
        for r, row in enumerate(y):
            single_full, single_null = reg.ols_fit(full, row), reg.ols_fit(null, row)
            single_ci = reg.coef_interval(single_full, 1, 0.05)
            assert (ci.lo[r], ci.hi[r]) == (single_ci.lo, single_ci.hi)
            single = reg.f_test_nested(single_full, single_null)
            assert (report.statistic[r], report.p_value[r]) == \
                (single.statistic, single.p_value)

    @pytest.mark.parametrize("kind", ["mean_pointwise", "mean_scheffe", "prediction"])
    def test_response_bands_per_row(self, kind):
        root = RandomStream(504)
        n = 40
        design = reg.design_matrix(root.normals(n * 8).reshape(n, 8))
        y = root.normals(50 * n).reshape(50, n) * 3.0 + 1.0
        x0 = np.concatenate([[1.0], root.normals(8)])
        band = reg.response_band(reg.ols_fit(design, y), x0, kind, 0.05)
        assert band.lo.shape == band.hi.shape == (50,)
        for r, row in enumerate(y):
            single = reg.response_band(reg.ols_fit(design, row), x0, kind, 0.05)
            assert type(single.lo) is float
            assert (band.lo[r], band.hi[r]) == (single.lo, single.hi)
            assert (band.level, band.kind) == (single.level, single.kind)

    @pytest.mark.parametrize("n", [30, 2])
    def test_single_fit_is_row_zero_of_its_stack(self, n):
        root = RandomStream(505)
        design = reg.design_matrix(root.normals(n))
        y = root.normals(n)
        single, stack = reg.ols_fit(design, y), reg.ols_fit(design, y[None])
        assert type(single) is type(stack)
        for field in dataclasses.fields(single):
            one, rows = getattr(single, field.name), getattr(stack, field.name)
            if field.name == "design":
                assert one is rows is design
            elif field.name in ("gram_inverse", "hat_diagonal"):
                assert one.tobytes() == rows.tobytes(), field.name
            elif rows is None:
                assert one is None
            else:
                assert np.asarray(one).tobytes() == rows[0].tobytes(), field.name
        for name in ("ss_total", "ss_reg", "ss_res", "r2", "r2_adj"):
            assert type(getattr(single, name)) is float
        if n > 2:
            assert type(single.sigma2_hat) is float
        else:  # two points on two columns leave no residual degrees of freedom
            assert single.sigma2_hat is None

    def test_rank_deficient_design_names_columns(self):
        x = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        design = reg.design_matrix(x)
        with pytest.raises(SingularDesignError) as single:
            reg.ols_fit(design, np.arange(6.0))
        with pytest.raises(SingularDesignError) as stacked:
            reg.ols_fit(design, np.ones((3, 6)))
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (0, 6), (2, 3, 6)])
    def test_wrong_response_shape(self, shape):
        design = reg.design_matrix(np.arange(6.0))
        with pytest.raises(DomainError, match="response length"):
            reg.ols_fit(design, np.zeros(shape))

    def test_non_finite_response(self):
        y = np.ones((2, 6))
        y[1, 3] = np.nan
        with pytest.raises(DomainError, match="finite"):
            reg.ols_fit(reg.design_matrix(np.arange(6.0)), y)

    def test_nesting_checked_for_stacks(self):
        root = RandomStream(504)
        x = root.normals(20)
        y = root.normals(40).reshape(2, 20)
        full = reg.ols_fit(reg.design_matrix(x), y)
        with pytest.raises(NestingError, match="column"):
            reg.f_test_nested(full, reg.ols_fit(reg.design_matrix(x + 1.0), y))
        with pytest.raises(NestingError, match="response"):
            reg.f_test_nested(full, reg.ols_fit(reg.design_matrix(np.empty((20, 0))), y[::-1]))


class TestPredictionError:
    """In-sample prediction risk of OLS against its exact value, and of the
    LASSO against its sparse oracle bound."""

    def test_ols_matches_exact_risk(self):
        root = RandomStream(66)
        n, p = 50, 3
        design = reg.design_matrix(root.normals(n * p).reshape(n, p))
        signal = design.matrix @ np.array([1.0, 2.0, -1.0, 0.5])
        fit = reg.ols_fit(design, signal + root.batch(np.arange(2000)).normals(n))
        errors = ((fit.fitted - signal) ** 2).sum(axis=-1) / n
        se = errors.std(ddof=1) / math.sqrt(errors.size)
        assert errors.mean() == pytest.approx((p + 1) / n, abs=3.0 * se)

    def test_zero_noise_zero_error(self):
        root = RandomStream(67)
        design = reg.design_matrix(root.normals(40).reshape(20, 2))
        signal = design.matrix @ np.ones(3)
        fit = reg.ols_fit(design, np.tile(signal, (5, 1)))
        assert ((fit.fitted - signal) ** 2).sum(axis=-1).max() / 20 == \
            pytest.approx(0.0, abs=1e-20)

    def test_lasso_bound_rarely_violated(self):
        root = RandomStream(68)
        n, p, s = 60, 40, 3
        m = root.normals(n * p).reshape(n, p)
        m /= np.sqrt((m ** 2).sum(axis=0) / n)  # normalized columns
        beta = np.zeros(p)
        beta[:s] = [1.5, -1.0, 0.8]
        penalty = reg.lasso_penalty_rule(n, p, 1.0, 2.0)
        kappa = reg.estimate_restricted_eigenvalue(reg.DesignMatrix(m, has_intercept=False),
                                                   np.arange(s), 2000, root.split(0xE16E))
        assert kappa > 0.0
        errors = xp._kernel_lasso_error(beta, reg.DesignMatrix(m, has_intercept=False), penalty,
                                        root.batch(range(30)))
        violation = np.mean(errors > 9.0 * penalty ** 2 * s / kappa)
        assert violation <= 2.0 * math.exp(-2.0) + 3.0 * math.sqrt(0.27 * 0.73 / 30)


def test_design_matrix_intercept():
    x = RandomStream(123).normals(15).reshape(5, 3)
    design = reg.design_matrix(x)
    assert design.has_intercept
    assert np.array_equal(design.matrix[:, 0], np.ones(5))
    assert np.array_equal(design.matrix[:, 1:], x)
    assert reg.design_matrix(x, intercept=False).matrix.shape == (5, 3)
