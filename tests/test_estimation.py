"""Estimators, Fisher information, intervals, shrinkage, Bayes updates."""

import math

import numpy as np
import pytest

from statforge import distributions as d
from statforge import estimation as est
from statforge import glm
from statforge import regression as reg
from statforge.errors import DegenerateSampleError, DomainError
from statforge.rng import RandomStream

from conftest import ks_distance


class TestVarianceFamily:
    def test_point_estimate(self):
        fit = est.variance_family([0.0, 2.0], c=1.0)
        assert fit.estimate == pytest.approx(2.0)

    def test_unbiased_scale(self):
        n = 7
        assert est.variance_bias(n, 1.0 / (n - 1), sigma2=2.3) == pytest.approx(0.0)

    @pytest.mark.parametrize("n, c, sigma2", [
        (0, 1.0, 1.0), (1, 1.0, 1.0), (math.nan, 1.0, 1.0), (5, -1.0, 1.0), (5, 0.0, 1.0),
        (5, math.nan, 1.0), (5, math.inf, 1.0), (5, 1.0, -1.0), (5, 1.0, 0.0),
        (5, 1.0, math.nan), (5, 1.0, math.inf)])
    def test_bias_and_mse_refuse_bad_inputs(self, n, c, sigma2):
        for fn in (est.variance_bias, est.variance_mse):
            with pytest.raises(DomainError, match="n must be >= 2|finite and positive"):
                fn(n, c, sigma2)

    def test_mse_two_point(self):
        assert est.variance_mse(2, 1.0 / 3.0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_mse_ordering_closed_form(self):
        n = 10
        values = [est.variance_mse(n, c, 1.0)
                  for c in (1.0 / (n + 1), 1.0 / n, 1.0 / (n - 1))]
        assert values[0] < values[1] < values[2]

    def test_mse_ordering_empirical(self):
        n, reps = 10, 20_000
        draws = RandomStream(61).normals(n * reps).reshape(reps, n)
        ss = ((draws - draws.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
        empirical = [np.mean((c * ss - 1.0) ** 2)
                     for c in (1.0 / (n + 1), 1.0 / n, 1.0 / (n - 1))]
        assert empirical[0] < empirical[1] < empirical[2]
        for c, e in zip((1.0 / (n + 1), 1.0 / n, 1.0 / (n - 1)), empirical):
            assert e == pytest.approx(est.variance_mse(n, c, 1.0), rel=0.05)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            est.variance_family([1.0], c=0.5)

    def test_rows_equal_one_row_calls(self):
        draws = RandomStream(62).normals(7 * 13).reshape(7, 13)
        stacked = est.variance_family(draws, 0.1)
        singles = [est.variance_family(row, 0.1) for row in draws]
        assert stacked.n == 13 and stacked.estimate.shape == (7,)
        assert stacked.estimate.tobytes() == np.array([s.estimate for s in singles]).tobytes()
        assert all(type(s.estimate) is float for s in singles)


class TestMLE:
    def test_exponential_two_ones(self):
        fit = est.mle_fit("exponential", [1.0, 1.0])
        assert fit.estimate[0] == pytest.approx(1.0)

    def test_bernoulli_point(self):
        fit = est.mle_fit("bernoulli", [1, 0, 1, 1])
        assert fit.estimate[0] == pytest.approx(0.75)
        assert not fit.boundary

    def test_bernoulli_boundary_flag(self):
        fit = est.mle_fit("bernoulli", [1, 1, 1])
        assert fit.boundary
        assert fit.fisher_info is None
        with pytest.raises(DomainError):
            fit.standard_errors()

    def test_normal_two_point(self):
        fit = est.mle_fit("normal", [0.0, 2.0])
        assert fit.estimate[0] == pytest.approx(1.0)
        assert fit.estimate[1] == pytest.approx(1.0)

    def test_gamma_consistency(self, stream):
        alpha, lam = 3.0, 2.0
        x = d.dist_sample(d.Gamma(alpha, lam), stream, 100_000)
        fit = est.mle_fit("gamma", x)
        se = fit.standard_errors()
        assert abs(fit.estimate[0] - alpha) < 3.0 * se[0]
        assert abs(fit.estimate[1] - lam) < 3.0 * se[1]

    def test_gamma_newton_residual(self, stream):
        from scipy.special import digamma

        x = d.dist_sample(d.Gamma(1.5, 0.7), stream, 5000)
        fit = est.mle_fit("gamma", x)
        lam = fit.estimate[1]
        rhs = np.log(x).mean() - math.log(x.mean())
        assert abs(digamma(lam) - math.log(lam) - rhs) <= 1e-10

    def test_gamma_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError, match="degenerate dispersion"):
            est.mle_fit("gamma", np.full(10, 3.3))

    def test_cov_inverts_information(self, stream):
        x = d.dist_sample(d.Gamma(2.0, 4.0), stream, 2000)
        fit = est.mle_fit("gamma", x)
        identity = fit.asymptotic_cov @ fit.fisher_info
        assert np.allclose(identity, np.eye(2), atol=1e-8)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            est.mle_fit("cauchy", [1.0, 2.0])

    @pytest.mark.parametrize("family, bad", [("exponential", math.inf), ("poisson", math.inf),
                                             ("gamma", math.inf), ("normal", math.nan),
                                             ("bernoulli", -math.inf)])
    def test_non_finite_sample_rejected(self, family, bad):
        with pytest.raises(DomainError, match="sample must be finite"):
            est.mle_fit(family, [1.0, 2.0, bad])


class TestFisherInformation:
    def test_bernoulli_value(self):
        info = est.fisher_information("bernoulli", [0.5], 100)
        assert info[0, 0] == pytest.approx(400.0)

    def test_normal_value(self):
        info = est.fisher_information("normal", [3.0, 1.0], 10)
        assert np.allclose(info, np.diag([10.0, 5.0]))

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            est.fisher_information("bernoulli", [0.0], 10)
        with pytest.raises(DomainError):
            est.fisher_information("poisson", [0.0], 10)

    @pytest.mark.parametrize("family, theta", [
        ("normal", [math.nan, 1.0]), ("normal", [0.0, math.inf]), ("poisson", [math.nan]),
        ("exponential", [math.inf]), ("gamma", [2.0, math.nan])])
    def test_non_finite_theta_rejected(self, family, theta):
        with pytest.raises(DomainError, match="theta must be finite"):
            est.fisher_information(family, theta, 5)

    @pytest.mark.parametrize("family,theta,spec", [
        ("bernoulli", np.array([0.3]), d.Bernoulli(0.3)),
        ("poisson", np.array([2.5]), d.Poisson(2.5)),
        ("exponential", np.array([1.7]), d.Exponential(1.7)),
        ("normal", np.array([0.4, 1.3]), d.Normal(0.4, 1.3)),
        ("gamma", np.array([2.0, 3.0]), d.Gamma(2.0, 3.0)),
    ])
    def test_matches_mean_hessian_of_loglik(self, family, theta, spec):
        # information identity: I equals minus the expected log-likelihood
        # Hessian, estimated here by central differences over replicates
        n, reps = 25, 3000
        root = RandomStream(909)
        dim = theta.size
        h = 1e-4
        hessians = np.empty((reps, dim, dim))
        for r in range(reps):
            x = d.dist_sample(spec, root.split(r), n)
            ll = _loglik_fn(family, x)
            hessians[r] = _fd_hessian(ll, theta, h)
        mean_h = hessians.mean(axis=0)
        se = hessians.std(axis=0, ddof=1) / math.sqrt(reps)
        info = est.fisher_information(family, theta, n)
        assert np.all(np.abs(-mean_h - info) <= 3.0 * se + 1e-6 * np.abs(info))


def _loglik_fn(family, x):
    from scipy.special import gammaln

    def ll(theta):
        if family == "bernoulli":
            p = theta[0]
            return float(np.sum(x * np.log(p) + (1 - x) * np.log1p(-p)))
        if family == "poisson":
            lam = theta[0]
            return float(np.sum(x * np.log(lam) - lam - gammaln(x + 1)))
        if family == "exponential":
            lam = theta[0]
            return float(np.sum(np.log(lam) - lam * x))
        if family == "normal":
            mu, s2 = theta
            return float(np.sum(-0.5 * np.log(2 * np.pi * s2) - (x - mu) ** 2 / (2 * s2)))
        if family == "gamma":
            a, lam = theta
            return float(np.sum(lam * np.log(a) - gammaln(lam) + (lam - 1) * np.log(x) - a * x))
        raise AssertionError(family)

    return ll


def _fd_hessian(f, theta, h):
    dim = theta.size
    out = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            ei = np.zeros(dim); ei[i] = h
            ej = np.zeros(dim); ej[j] = h
            out[i, j] = (
                f(theta + ei + ej) - f(theta + ei - ej)
                - f(theta - ei + ej) + f(theta - ei - ej)
            ) / (4.0 * h * h)
    return out


class TestConfidenceIntervals:
    def test_mean_z_example(self):
        ci = est.ci_mean_z(0.0, 1.0, 100, 0.05)
        assert ci.lo == pytest.approx(-0.196, abs=5e-4)
        assert ci.hi == pytest.approx(0.196, abs=5e-4)

    def test_t_approaches_z_for_huge_samples(self, stream):
        x = d.dist_sample(d.Normal(0.0, 1.0), stream, 1_000_000)
        t_ci = est.ci_mean_t(x, 0.05)
        z_ci = est.ci_mean_z(float(x.mean()), 1.0, x.size, 0.05)
        assert t_ci.half_width == pytest.approx(z_ci.half_width, rel=1e-3)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateSampleError):
            est.ci_mean_t([1.0], 0.05)
        with pytest.raises(DegenerateSampleError):
            est.ci_mean_t(1.0, 0.05)

    def test_t_coverage(self):
        root = RandomStream(4242)
        n, reps = 5, 20_000
        covered = 0
        for r in range(reps):
            x = root.split(r).normals(n)
            covered += est.ci_mean_t(x, 0.05).covers(0.0)
        assert covered / reps == pytest.approx(0.95, abs=0.012)

    def test_two_sample_known_ratio(self, stream):
        x = 1.0 + d.dist_sample(d.Normal(0.0, 4.0), stream, 40)
        y = d.dist_sample(d.Normal(0.0, 1.0), stream, 30)
        ci = est.ci_two_sample_t(x, y, variance_ratio=4.0, delta=0.05)
        assert ci.covers(1.0)
        assert ci.kind == "two_sample_t"

    def test_variance_interval_centers_on_ml_estimate(self, stream):
        x = d.dist_sample(d.Normal(0.0, 2.0), stream, 400)
        ci = est.ci_variance_asymptotic(x, 0.05)
        s2 = ((x - x.mean()) ** 2).mean()
        assert ci.center == pytest.approx(s2, rel=1e-12)

    def test_delta_method_log_transform(self):
        ci = est.ci_delta_method(2.0, 400.0, g=math.log, g_prime=lambda t: 1.0 / t,
                                 delta=0.05)
        assert ci.center == pytest.approx(math.log(2.0))
        assert ci.half_width == pytest.approx(1.959964 * 0.5 / 20.0, rel=1e-5)

    def test_bad_delta(self):
        with pytest.raises(DomainError):
            est.ci_mean_z(0.0, 1.0, 10, delta=1.5)


    def test_t_interval_rows_match_single_samples(self):
        x = RandomStream(616).batch(range(5)).normals(6)
        batched = est.ci_mean_t(x, 0.1)
        for i in range(x.shape[0]):
            single = est.ci_mean_t(x[i], 0.1)
            assert (batched.lo[i], batched.hi[i]) == (single.lo, single.hi)
            assert batched.covers(0.0)[i] == single.covers(0.0)

def _interval_constructions():
    """Every interval construction, as a function of ``delta`` alone."""
    root = RandomStream(4243)
    x, y = root.normals(20), root.normals(20)
    design = reg.design_matrix(x)
    linear = reg.ols_fit(design, 1.0 + x + y)
    logistic = glm.glm_fit(glm.bernoulli_logit(), design, (y > 0).astype(float))
    intervals = {
        "mean_z": lambda delta: est.ci_mean_z(0.0, 1.0, 10, delta),
        "mean_t": lambda delta: est.ci_mean_t(x, delta),
        "variance_asymptotic": lambda delta: est.ci_variance_asymptotic(x, delta),
        "mle_asymptotic": lambda delta: est.ci_mle_asymptotic(1.0, 4.0, delta),
        "two_sample_t": lambda delta: est.ci_two_sample_t(x, y, 2.0, delta),
        "delta_method": lambda delta: est.ci_delta_method(2.0, 4.0, math.log,
                                                          lambda t: 1.0 / t, delta),
        "monte_carlo": lambda delta: est.monte_carlo_mean(
            lambda v: v, d.Uniform01(), 10, delta, root.split(1)).ci,
        "coef": lambda delta: reg.coef_interval(linear, 1, delta),
        "glm_wald": lambda delta: glm.glm_wald_ci(logistic, 1, delta),
    }
    for kind in ("mean_pointwise", "mean_scheffe", "prediction"):
        intervals[kind] = lambda delta, kind=kind: reg.response_band(
            linear, np.array([1.0, 0.5]), kind, delta)
    return intervals


_INTERVALS = _interval_constructions()


@pytest.mark.parametrize("kind", sorted(_INTERVALS))
def test_every_interval_checks_delta(kind):
    build = _INTERVALS[kind]
    assert build(0.05).level == pytest.approx(0.95)
    for delta in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\)"):
            build(delta)


@pytest.mark.parametrize("kind", sorted(_INTERVALS))
def test_every_interval_refuses_a_delta_lost_in_its_level(kind):
    # 1 - 1e-17 / sides rounds to 1, which no quantile function takes
    with pytest.raises(DomainError, match=r"delta 1e-17 is too small: 1 - delta / [12] rounds"):
        _INTERVALS[kind](1e-17)


class TestCramerRao:
    @pytest.mark.parametrize("spec,family,theta", [
        (d.Bernoulli(0.3), "bernoulli", [0.3]),
        (d.Poisson(2.0), "poisson", [2.0]),
    ])
    def test_sample_mean_attains_bound(self, spec, family, theta):
        n, reps = 30, 30_000
        root = RandomStream(5150)
        means = np.empty(reps)
        chunk = 1000
        for start in range(0, reps, chunk):
            sub = root.split(start)
            x = d.dist_sample(spec, sub, chunk * n).reshape(chunk, n)
            means[start:start + chunk] = x.mean(axis=1)
        bound = 1.0 / est.fisher_information(family, theta, n)[0, 0]
        centered = (means - means.mean()) ** 2
        se = centered.std(ddof=1) / math.sqrt(reps)
        assert abs(means.var(ddof=1) - bound) <= 3.0 * se


def test_mle_asymptotic_normality_exponential():
    n, reps = 2000, 20_000
    root = RandomStream(888)
    stats = np.empty(reps)
    chunk = 500
    for start in range(0, reps, chunk):
        sub = root.split(start)
        x = d.dist_sample(d.Exponential(1.0), sub, chunk * n).reshape(chunk, n)
        lam_hat = 1.0 / x.mean(axis=1)
        stats[start:start + chunk] = math.sqrt(n) * (lam_hat - 1.0)
    assert ks_distance(stats, lambda t: d.dist_cdf(d.Normal(0.0, 1.0), t)) <= 0.02


class TestJamesStein:
    def test_two_dimensions_unchanged(self):
        x = np.array([3.0, -1.0])
        assert np.allclose(est.james_stein(x, 1.0), x)

    def test_three_dimensional_point(self):
        out = est.james_stein(np.array([3.0, 0.0, 0.0]), 1.0)
        assert np.allclose(out, [8.0 / 3.0, 0.0, 0.0])

    def test_shrink_toward_target(self):
        nu = np.array([1.0, 1.0, 1.0])
        x = np.array([4.0, 1.0, 1.0])
        out = est.james_stein(x, 1.0, shrink_target=nu)
        assert np.allclose(out, nu + (1.0 - 1.0 / 9.0) * (x - nu))

    def test_singular_at_target(self):
        with pytest.raises(DomainError):
            est.james_stein(np.zeros(3), 1.0)

    def test_rows_match_single_vectors(self):
        x = RandomStream(717).batch(range(4)).normals(5)
        batched = est.james_stein(x, 1.0)
        for i in range(x.shape[0]):
            assert batched[i].tobytes() == est.james_stein(x[i], 1.0).tobytes()

    def test_one_row_at_target_raises(self):
        x = RandomStream(718).batch(range(4)).normals(5)
        x[2] = 0.0
        with pytest.raises(DomainError, match="shrink target"):
            est.james_stein(x, 1.0)

    def test_risk_improvement_at_origin(self):
        p, reps = 10, 20_000
        x = RandomStream(1234).normals(p * reps).reshape(reps, p)
        mse = np.mean([np.sum(est.james_stein(row, 1.0) ** 2) for row in x])
        assert mse == pytest.approx(2.0, abs=0.1)  # versus p = 10 unshrunk


class TestConjugateBayes:
    def test_rule_of_succession(self):
        for n in (1, 5, 50):
            post = est.conjugate_update(est.BetaPosterior(1.0, 1.0),
                                        successes=n, trials=n)
            assert post.predictive_success == pytest.approx((n + 1) / (n + 2))

    def test_balanced_normal_update(self):
        prior = est.NormalPosterior(mean=2.0, variance=0.5)
        post = est.conjugate_update(prior, sample_mean=6.0, n=4,
                                    noise_variance=2.0)  # noise/n equals prior var
        assert post.mean == pytest.approx(4.0)
        assert post.variance == pytest.approx(0.25)

    def test_diffuse_prior_tracks_data(self):
        prior = est.NormalPosterior(mean=-3.0, variance=1e9 * 2.0 / 4.0)
        post = est.conjugate_update(prior, sample_mean=6.0, n=4, noise_variance=2.0)
        assert abs(post.mean - 6.0) < 1e-6

    def test_normal_update_of_many_sample_means(self):
        prior = est.NormalPosterior(mean=2.0, variance=0.5)
        means = np.array([6.0, -1.0, 0.25])
        post = est.conjugate_update(prior, sample_mean=means, n=4, noise_variance=2.0)
        for i, xbar in enumerate(means):
            one = est.conjugate_update(prior, sample_mean=float(xbar), n=4,
                                       noise_variance=2.0)
            assert post.mean[i] == one.mean and post.variance == one.variance

    def test_impossible_counts(self):
        with pytest.raises(DomainError):
            est.conjugate_update(est.BetaPosterior(1.0, 1.0), successes=7, trials=5)

    def test_missing_or_unknown_data_keys(self):
        beta, normal = est.BetaPosterior(1.0, 1.0), est.NormalPosterior(0.0, 1.0)
        with pytest.raises(DomainError, match="successes, trials; got successes$"):
            est.conjugate_update(beta, successes=3)
        with pytest.raises(DomainError, match="got successes, trials, failures"):
            est.conjugate_update(beta, successes=3, trials=5, failures=2)
        with pytest.raises(DomainError, match="sample_mean, n, noise_variance; got none"):
            est.conjugate_update(normal)


class TestMonteCarloMean:
    def test_constant_function(self, stream):
        res = est.monte_carlo_mean(lambda x: np.ones(len(x)), d.Uniform01(),
                                   1000, 0.05, stream)
        assert res.estimate == 1.0
        assert res.degenerate
        assert res.ci.half_width == 0.0

    def test_no_distribution(self, stream):
        with pytest.raises(DomainError, match="need at least one distribution"):
            est.monte_carlo_mean(lambda x: x.sum(axis=1), [], 1000, 0.05, stream)

    def test_symmetric_indicator(self, stream):
        res = est.monte_carlo_mean(lambda xy: (xy[:, 0] < xy[:, 1]).astype(float),
                                   [d.Uniform01(), d.Uniform01()],
                                   1_000_000, 0.05, stream)
        se = res.standard_deviation / math.sqrt(1_000_000)
        assert res.estimate == pytest.approx(0.5, abs=4.0 * se)

    def test_required_sample_sizes(self, stream):
        res = est.monte_carlo_mean(lambda x: (x < 0.5).astype(float), d.Uniform01(),
                                   200_000, 0.05, stream, epsilon=0.01)
        sd2 = res.standard_deviation ** 2
        assert res.n_chebyshev == pytest.approx(sd2 / (0.05 * 1e-4))
        assert res.n_clt == pytest.approx(2.0 * math.log(20.0) * sd2 / 1e-4)
        # indicator of a fair event: sd near 1/2, so about 50000 and 15000
        assert res.n_chebyshev == pytest.approx(50_000, rel=0.01)
        assert res.n_clt == pytest.approx(14_979, rel=0.01)


def test_normal_fit_of_a_sample():
    sample = np.array([1.5, 2.5, 0.5, 3.0])
    fit = est.mle_fit("normal", sample)
    assert fit.family == "normal"
    assert fit.param_names == ("mu", "sigma2")
    assert fit.estimate[0] == pytest.approx(sample.mean())
