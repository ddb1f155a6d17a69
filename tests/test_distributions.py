"""Distribution families: closed-form values, numeric invariants, sampling laws."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from statforge import concentration as con
from statforge import distributions as d
from statforge import estimation as est
from statforge import glm
from statforge import stochastic as sto
from statforge.errors import DomainError, UndefinedMomentError
from statforge.rng import RandomStream

from conftest import FAMILIES, PROPERTY, ks_distance


CONTINUOUS_CASES = [
    d.Normal(0.3, 2.0),
    d.LogNormal(0.1, 0.8),
    d.Gamma(alpha=3.5, lam=2.0),
    d.ChiSquared(5),
    d.StudentT(6),
    d.FisherF(5, 12),
    d.Beta(2.5, 3.0),
    d.Exponential(1.3),
    d.Uniform01(),
]

# open interval carrying all of each continuous family's mass
SUPPORT = {
    d.Normal: (-math.inf, math.inf),
    d.LogNormal: (0.0, math.inf),
    d.Gamma: (0.0, math.inf),
    d.ChiSquared: (0.0, math.inf),
    d.StudentT: (-math.inf, math.inf),
    d.FisherF: (0.0, math.inf),
    d.Beta: (0.0, 1.0),
    d.Exponential: (0.0, math.inf),
    d.Uniform01: (0.0, 1.0),
}


def _one_point_quantile(spec, u):
    """The smallest support point with cdf >= ``u`` by a search of its own:
    doubling from the support's minimum, then bisection, one cdf value a
    step."""
    lo, hi = spec._support_min - 1, spec._support_min
    while spec._cdf(np.array([float(hi)]))[0] < u:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec._cdf(np.array([float(mid)]))[0] < u:
            lo = mid
        else:
            hi = mid
    return float(hi)


DISCRETE_CASES = [
    d.Bernoulli(0.3),
    d.Binomial(0.4, 11),
    d.Poisson(6.5),
    d.Geometric(0.25),
]


class TestMoments:
    def test_chi_squared(self):
        m = d.dist_moments(d.ChiSquared(4))
        assert m.mean == 4.0
        assert m.variance == 8.0

    def test_gamma_rate_shape_convention(self):
        m = d.dist_moments(d.Gamma(alpha=2.0, lam=3.0))
        assert m.mean == pytest.approx(1.5)
        assert m.variance == pytest.approx(0.75)

    def test_geometric(self):
        m = d.dist_moments(d.Geometric(0.5))
        assert m.mean == pytest.approx(2.0)
        assert m.variance == pytest.approx(2.0)

    def test_lognormal_mean(self):
        m = d.dist_moments(d.LogNormal(0.0, 1.0))
        assert m.mean == pytest.approx(math.exp(0.5))
        assert m.variance == pytest.approx((math.e - 1.0) * math.e)

    def test_undefined_moments_raise(self):
        with pytest.raises(UndefinedMomentError):
            d.dist_moments(d.StudentT(1))
        with pytest.raises(UndefinedMomentError):
            d.dist_moments(d.StudentT(2))
        with pytest.raises(UndefinedMomentError):
            d.dist_moments(d.FisherF(3, 4))

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES[:6] + DISCRETE_CASES)
    def test_moments_match_simulation(self, spec, stream):
        x = d.dist_sample(spec, stream, 200_000)
        m = d.dist_moments(spec)
        se_mean = math.sqrt(m.variance / x.size)
        assert abs(x.mean() - m.mean) < 5.0 * se_mean


class TestDensity:
    def test_normal_at_zero(self):
        assert d.dist_pdf(d.Normal(0.0, 1.0), 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_cauchy_at_zero(self):
        assert d.dist_pdf(d.StudentT(1), 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_chi2_two_dof_is_exponential(self):
        assert d.dist_pdf(d.ChiSquared(2), 1.0) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)

    def test_outside_support_is_zero_not_error(self):
        assert d.dist_pdf(d.Gamma(1.0, 2.0), -3.0) == 0.0
        assert d.dist_pdf(d.Beta(2.0, 2.0), 1.5) == 0.0
        assert d.dist_pdf(d.Poisson(2.0), 2.5) == 0.0
        assert d.dist_pdf(d.Geometric(0.5), 0.0) == 0.0

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES)
    def test_density_integrates_to_one(self, spec):
        lo, hi = SUPPORT[type(spec)]
        mass, err = integrate.quad(lambda t: d.dist_pdf(spec, t), lo, hi, limit=200)
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("spec", DISCRETE_CASES)
    def test_mass_sums_to_one(self, spec):
        ks = np.arange(0, 500)
        assert abs(d.dist_pdf(spec, ks.astype(float)).sum() - 1.0) < 1e-10


class TestCdf:
    def test_normal_symmetry(self):
        assert d.dist_cdf(d.Normal(0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_median(self):
        assert d.dist_cdf(d.Exponential(1.0), math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_binomial_enumeration(self):
        # outcomes {0,1,2} with p = 1/2: P(X <= 1) = 1/4 + 1/2
        assert d.dist_cdf(d.Binomial(0.5, 2), 1.0) == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES)
    def test_monotone_with_limits(self, spec):
        lo, hi = SUPPORT[type(spec)]
        lo = lo if math.isfinite(lo) else -60.0
        hi = hi if math.isfinite(hi) else 60.0
        grid = np.linspace(lo, hi, 2001)
        values = d.dist_cdf(spec, grid)
        assert np.all(np.diff(values) >= -1e-15)
        assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES)
    def test_cdf_matches_quadrature(self, spec):
        lo, _ = SUPPORT[type(spec)]
        for x in [0.17, 0.62, 1.8]:
            probe = x if math.isfinite(lo) else x - 2.0
            mass, _ = integrate.quad(lambda t: d.dist_pdf(spec, t), lo, probe, limit=200)
            assert d.dist_cdf(spec, probe) == pytest.approx(mass, abs=1e-9)

    def test_cauchy_cdf_near_the_median_and_in_the_lower_tail(self):
        law = d.StudentT(1)
        x = np.array([-1e-8, -1e-9, 1e-9, 1e-8])
        assert np.all(np.abs(d.dist_cdf(law, x) - 0.5 - np.arctan(x) / math.pi) <= 1.2e-16)
        assert d.dist_cdf(law, -1e10) == pytest.approx(1.0 / (math.pi * 1e10), rel=1e-12)


# quantiles past the largest double
OVERFLOWING_QUANTILES = [
    (d.Exponential(1e-320), 0.5),
    (d.Gamma(1e-320, 1.0), 0.5),
    (d.LogNormal(700.0, 100.0), 0.99),
    (d.LogNormal(0.0, 1e300), 0.9),
    (d.Geometric(1e-320), 0.5),
]


class TestQuantile:
    def test_normal_two_sided_975(self):
        assert d.dist_quantile(d.Normal(0.0, 1.0), 0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_normal_median(self):
        assert abs(d.dist_quantile(d.Normal(0.0, 1.0), 0.5)) < 1e-12

    def test_chi2_one_dof_is_squared_normal_quantile(self):
        z = d.dist_quantile(d.Normal(0.0, 1.0), 0.975)
        assert d.dist_quantile(d.ChiSquared(1), 0.95) == pytest.approx(z * z, abs=1e-8)

    def test_beta_far_lower_tail(self):
        # betaincinv alone misses the first by a relative 5.6e-6, and gives
        # the smallest normal double (cdf 2.3e-10) for the second, whose
        # quantile underflows
        law = d.Beta(1.0 - 1e-12, 0.25)
        assert d.dist_cdf(law, d.dist_quantile(law, 1e-12)) == pytest.approx(1e-12, rel=1e-12)
        assert d.dist_quantile(d.Beta(1.0 / 32.0, 0.5), 1e-12) == 0.0

    @pytest.mark.parametrize("alpha,beta", [(2.0, 10.0), (2.0, 100.0), (3.0, 3.0), (5.0, 0.25)])
    @pytest.mark.parametrize("u", [1e-200, 1e-300])
    def test_beta_quantile_finite_where_betaincinv_is_nan(self, alpha, beta, u):
        q = d.dist_quantile(d.Beta(alpha, beta), u)
        assert 0.0 < q < 1.0
        assert abs(sp.betainc(alpha, beta, q) - u) <= 1e-9 * u

    @pytest.mark.parametrize("alpha", [1 / 32, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
    def test_beta_lower_tail_no_worse_than_betaincinv(self, alpha):
        u = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-5, 0.1, 0.49])
        for beta in (1 / 32, 0.25, 1.0, 3.0, 10.0, 100.0):
            q = d.dist_quantile(d.Beta(alpha, beta), u)
            plain = sp.betaincinv(alpha, beta, u)
            miss, plain_miss = (np.abs(sp.betainc(alpha, beta, x) - u) for x in (q, plain))
            # scipy's betaincinv gives NaN for some shapes below u = 1e-200
            assert np.all((miss <= plain_miss) | np.isnan(plain_miss))

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES)
    def test_roundtrip_on_percentile_grid(self, spec):
        u = np.concatenate([[1e-12, 1e-6], np.arange(1, 100) / 100.0, [1.0 - 1e-6]])
        q = d.dist_quantile(spec, u)
        gap = np.abs(d.dist_cdf(spec, q) - u)
        assert np.max(gap) <= 1e-10
        lower = u < 0.5
        assert np.all(gap[lower] <= 1e-9 * u[lower])
        for i in range(u.size):
            assert q[i] == d.dist_quantile(spec, float(u[i]))

    @pytest.mark.parametrize("spec", DISCRETE_CASES)
    def test_discrete_quantile_is_smallest_point(self, spec):
        for u in [0.05, 0.31, 0.5, 0.77, 0.99]:
            q = d.dist_quantile(spec, u)
            assert d.dist_cdf(spec, q) >= u
            assert d.dist_cdf(spec, q - 1.0) < u

    @pytest.mark.parametrize("spec", [
        d.Bernoulli(0.3), d.Binomial(0.4, 11), d.Binomial(0.02, 5000),
        *[d.Poisson(lam) for lam in (0.01, 0.5, 3.0, 29.9, 31.0, 700.0, 1e4)],
        d.Geometric(0.25), d.Geometric(1e-6), d.Geometric(1e-19),
    ], ids=repr)
    def test_discrete_quantile_equals_the_one_point_search(self, spec):
        # a grid over (0, 1), each cdf value of the first support points and
        # its two neighbours: the array search gives each point the value of
        # its own doubling-and-bisection search
        start = spec._support_min
        cdf = d.dist_cdf(spec, np.arange(start, start + 60, dtype=float))
        cdf = cdf[(0.0 < cdf) & (cdf < 1.0)]
        u = np.concatenate([[1e-300, 1e-12, 1e-6], np.linspace(0.001, 0.999, 499),
                            [1.0 - 1e-6, 1.0 - 1e-12], cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 1.0)])
        u = u[u < 1.0]
        q = d.dist_quantile(spec, u)
        assert q.tobytes() == np.array([_one_point_quantile(spec, ui) for ui in u]).tobytes()
        assert d.dist_quantile(spec, u.reshape(-1, 1)).tobytes() == q.tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @PROPERTY
    @given(data=st.data(), u=st.floats(1e-12, 1.0 - 1e-12))
    def test_cdf_inverts_quantile(self, family, data, u):
        spec = data.draw(FAMILIES[family])
        q = d.dist_quantile(spec, u)
        if spec.is_discrete:
            assert d.dist_cdf(spec, q) >= u > d.dist_cdf(spec, q - 1.0)
        else:
            # u is crossed within 16 ulps of q, up to a relative 1e-9 of its
            # tail and the rounding of u
            step = 16.0 * np.spacing(abs(q))
            slack = 1e-9 * min(u, 1.0 - u) + 2.0 * np.spacing(u)
            assert d.dist_cdf(spec, q - step) - slack <= u <= d.dist_cdf(spec, q + step) + slack

    @pytest.mark.parametrize("k", [148, 10_000, 1_000_000])
    def test_t_cdf_keeps_its_digits_near_the_median(self, k):
        law = d.StudentT(k)
        # cdf(x) = 1/2 + x pdf(0) + O(x^3) near zero, where k / (k + x^2)
        # rounds to 1
        x = np.array([-1e-9, -1e-12, 1e-12, 1e-9]) * math.sqrt(k)
        linear = 0.5 + x * d.dist_pdf(law, 0.0)
        assert np.all(np.abs(d.dist_cdf(law, x) - linear) <= 2.0 * np.spacing(0.5))
        for u in (0.4999999, 0.49999839058883955, 0.5 + 1e-9):
            q = d.dist_quantile(law, u)
            assert abs(d.dist_cdf(law, q) - u) <= 4.0 * np.spacing(u)

    def test_f_cdf_keeps_its_upper_tail(self):
        # the betainc argument of F(1, 1) rounds to 1 here, where the tail is 1e-12
        law, x = d.FisherF(1, 1), 4.05e23
        assert 1.0 - d.dist_cdf(law, x) == pytest.approx(law.sf(x), rel=1e-3)

    def test_domain_errors(self):
        for u in [0.0, 1.0, -0.2, 1.4, math.nan]:
            with pytest.raises(DomainError):
                d.dist_quantile(d.Normal(0.0, 1.0), u)

    @pytest.mark.parametrize("spec,u", OVERFLOWING_QUANTILES)
    def test_quantile_past_the_float_range_raises(self, spec, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (u, [0.5 * u, u]):
                with pytest.raises(DomainError, match="past the float range"):
                    d.dist_quantile(spec, arg)


class TestSampling:
    def test_degenerate_bernoulli(self, stream):
        x = d.dist_sample(d.Bernoulli(1.0 - 1e-12), stream, 10)
        assert np.all(x == 1.0)

    def test_reproducible_per_stream(self):
        a = d.dist_sample(d.Gamma(2.0, 1.7), RandomStream(5, 1), 1000)
        b = d.dist_sample(d.Gamma(2.0, 1.7), RandomStream(5, 1), 1000)
        assert np.array_equal(a, b)

    def test_normal_monte_carlo_mean(self):
        x = d.dist_sample(d.Normal(0.0, 1.0), RandomStream(17), 1_000_000)
        assert abs(x.mean()) <= 4.0 / math.sqrt(1e6)

    @pytest.mark.parametrize("spec", CONTINUOUS_CASES)
    def test_sampler_matches_cdf(self, spec, stream):
        x = d.dist_sample(spec, stream, 100_000)
        assert ks_distance(x, lambda t: d.dist_cdf(spec, t)) <= 0.01

    def test_poisson_rejection_regime(self):
        spec = d.Poisson(80.0)
        x = d.dist_sample(spec, RandomStream(23), 100_000)
        assert abs(x.mean() - 80.0) < 4.0 * math.sqrt(80.0 / 1e5)
        assert abs(x.var() - 80.0) < 4.0 * 80.0 * math.sqrt(2.0 / 1e5)

    # sha256 of the bytes of 4096 draws from RandomStream(7): the rejection
    # samplers' draw sequences. They hold for the numpy and scipy builds they
    # were made with (numpy 2.4.6, scipy 1.17.1, AVX512 dispatch), as the
    # report digest pins of test_cli do.
    @pytest.mark.parametrize("spec,digest", [
        (d.Gamma(1.0, 0.3), "fcc1ef55764a3fd4a19441e3affe4e05f91ca9b9f770f4a04bb835ec621edd30"),
        (d.Gamma(1.0, 1.0), "21b04a47c25542f46bef25e1062b3f381ec40afb82ebf72640e4ea82348ccfb8"),
        (d.Gamma(2.0, 2.5), "59f48d7a37da7b5f10b4e832591fe21898c94bdf936972872cde3a6178154bcd"),
        (d.Gamma(1.0, 50.0), "178333ccc990038fd769d70b7eedf918fbbe0cee9c1aede478540994cd8f8d19"),
        (d.ChiSquared(100), "3848046153a6dc926e71e9b8a375ce4ef5fb1db7dc131055aaa9fd340bebaeb6"),
        (d.StudentT(5), "7d515eea1e29051bdc28ca32de2be503f815de3f2c7b29ffcb1333f2bad5ed0c"),
        (d.Beta(2.0, 3.0), "008fcd2c3465849d0454e2d9d4dd01cf41d10ac92a28f0781c6efd125208cdc2"),
        (d.FisherF(4, 9), "2e2c3bd9ddcebf119d7d78d54873fc65634d30b09249860fa13c8e47962d8085"),
        (d.Poisson(31.0), "b6b4c2bb60f959d8b069cf01e4e45e39af5a781caf3fd9f93263400fa4f47445"),
        (d.Poisson(80.0), "38d7e870717e5f535e9b5382de4e0d542bd3dfc38e925d3efcc384ee601fdc43"),
        (d.Poisson(1e4), "ece49fcb7a08bca89bd22fb98309fda83086bc64998b9680ef59c0cee2bc0b21"),
    ])
    def test_rejection_draws_are_pinned(self, spec, digest):
        x = d.dist_sample(spec, RandomStream(7), 4096)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    # conftest's Poisson range capped at 30, where the sampler inverts the cdf
    @PROPERTY
    @given(spec=st.builds(d.Poisson, st.floats(1e-2, 30.0)), seed=st.integers(0, 2 ** 64 - 1))
    def test_small_poisson_draw_is_the_quantile_of_its_uniform(self, spec, seed):
        x = d.dist_sample(spec, RandomStream(seed), 200)
        u = RandomStream(seed).uniforms(200)
        inside = u > 0.0
        assert np.array_equal(x[inside], d.dist_quantile(spec, u[inside]))

    @PROPERTY
    @given(spec=FAMILIES["binomial"], seed=st.integers(0, 2 ** 64 - 1))
    def test_binomial_draw_is_the_quantile_of_its_uniform(self, spec, seed):
        x = d.dist_sample(spec, RandomStream(seed), 200)
        u = RandomStream(seed).uniforms(200)
        inside = u > 0.0
        assert np.array_equal(x[inside], d.dist_quantile(spec, u[inside]))


class TestDistributionalRelations:
    """Laws tied together by transformation, checked sampler against cdf."""

    N = 100_000
    TOL = 0.01

    def test_squared_normal_is_chi2_one(self, stream):
        z = d.dist_sample(d.Normal(0.0, 1.0), stream, self.N)
        assert ks_distance(z * z, lambda t: d.dist_cdf(d.ChiSquared(1), t)) <= self.TOL

    def test_normal_over_chi_is_student(self, stream):
        k = 3
        z = d.dist_sample(d.Normal(0.0, 1.0), stream, self.N)
        w = d.dist_sample(d.ChiSquared(k), stream, self.N)
        t = z / np.sqrt(w / k)
        assert ks_distance(t, lambda v: d.dist_cdf(d.StudentT(k), v)) <= self.TOL

    def test_chi2_ratio_is_f(self, stream):
        k1, k2 = 4, 9
        w1 = d.dist_sample(d.ChiSquared(k1), stream, self.N)
        w2 = d.dist_sample(d.ChiSquared(k2), stream, self.N)
        f = (w1 / k1) / (w2 / k2)
        assert ks_distance(f, lambda v: d.dist_cdf(d.FisherF(k1, k2), v)) <= self.TOL

    def test_chi2_fraction_is_beta(self, stream):
        w1 = d.dist_sample(d.ChiSquared(4), stream, self.N)
        w2 = d.dist_sample(d.ChiSquared(6), stream, self.N)
        frac = w1 / (w1 + w2)
        assert ks_distance(frac, lambda v: d.dist_cdf(d.Beta(2.0, 3.0), v)) <= self.TOL

    def test_exp_of_normal_is_lognormal(self, stream):
        x = d.dist_sample(d.Normal(0.2, 0.5), stream, self.N)
        assert ks_distance(np.exp(x), lambda v: d.dist_cdf(d.LogNormal(0.2, 0.5), v)) <= self.TOL


def test_rare_event_binomial_close_to_poisson():
    lam, n = 4.0, 10_000
    binom = d.Binomial(lam / n, n)
    pois = d.Poisson(lam)
    ks = np.arange(0.0, 200.0)
    p, q = d.dist_pdf(binom, ks), d.dist_pdf(pois, ks)
    assert min(p.sum(), q.sum()) >= 1.0 - 1e-9
    tv = 0.5 * np.abs(p - q).sum()
    assert tv <= 0.01


class TestValidation:
    @pytest.mark.parametrize("build", [
        lambda: d.Normal(0.0, 0.0),
        lambda: d.Normal(0.0, -1.0),
        lambda: d.Gamma(alpha=-1.0, lam=2.0),
        lambda: d.Gamma(alpha=1.0, lam=0.0),
        lambda: d.ChiSquared(0),
        lambda: d.StudentT(-3),
        lambda: d.Beta(0.0, 1.0),
        lambda: d.Exponential(0.0),
        lambda: d.Bernoulli(0.0),
        lambda: d.Bernoulli(1.0),
        lambda: d.Binomial(0.5, 0),
        lambda: d.Poisson(-2.0),
        lambda: d.Geometric(1.0),
    ])
    def test_out_of_domain_rejected(self, build):
        with pytest.raises(DomainError):
            build()


# one valid build of each parameter type outside the distribution families
PARAMETER_EXAMPLES = {
    con.Markov: dict(mean=1.0),
    con.Chebyshev: dict(variance=4.0),
    con.SubGaussian: dict(sigma=1.0),
    con.SubExponential: dict(nu=2.0, beta=1.0),
    con.ChiSquaredRelative: dict(k=8),
    con.ChernoffBinomial: dict(lam=300.0),
    est.BetaPosterior: dict(alpha=1.0, beta=2.0),
    est.NormalPosterior: dict(mean=np.array([0.0, 1.5]), variance=0.5),
    sto.BSParams: dict(spot=100.0, strike=90.0, rate=0.05, volatility=0.2, maturity=1.0,
                       valuation_time=0.25),
    glm.LogisticSpec: dict(),
    glm._OffsetLogit: dict(offset=np.array([0.5, -0.5])),
    glm.IRTItemBank: dict(a=np.array([1.0, 2.0]), b=np.array([0.0, -1.0])),
}


def _parameter_types(base=d._Parameters):
    """Every statforge dataclass below ``base`` outside the distribution
    families; a subclass that a test defines is not one."""
    for cls in base.__subclasses__():
        if not issubclass(cls, d.DistributionSpec):
            if dataclasses.is_dataclass(cls) and cls.__module__.startswith("statforge."):
                yield cls
            yield from _parameter_types(cls)


def test_parameter_types_refuse_non_finite_fields():
    types = set(_parameter_types())
    assert types == set(PARAMETER_EXAMPLES), "every parameter type needs one example"
    for cls in types:
        example = cls(**PARAMETER_EXAMPLES[cls])
        for field in dataclasses.fields(example):
            for bad in (math.nan, math.inf, -math.inf):
                value = np.array(getattr(example, field.name), dtype=float)
                if value.ndim:
                    value[-1] = bad  # one bad entry of an array field
                message = f"{cls.__name__} requires a finite {field.name}"
                with pytest.raises(DomainError, match=message):
                    dataclasses.replace(example, **{field.name: value if value.ndim else bad})


# one valid build of each distribution family that has parameters
FAMILY_EXAMPLES = [
    d.Normal(0.0, 1.0), d.LogNormal(0.0, 1.0), d.Gamma(2.0, 1.0), d.ChiSquared(3),
    d.StudentT(5), d.FisherF(3, 4), d.Beta(2.0, 3.0), d.Exponential(1.0), d.Bernoulli(0.3),
    d.Binomial(0.3, 10), d.Poisson(2.0), d.Geometric(0.3),
]


def test_scalar_fields_refuse_arrays():
    # a 2-vector in a float or int field is refused by name (Gamma, Poisson
    # and BSParams ended in numpy's bare ValueError, and Normal took it);
    # the array fields of IRTItemBank, _OffsetLogit and NormalPosterior's
    # updated mean stay arrays
    families = {cls for cls in d.DistributionSpec.__subclasses__()
                if dataclasses.fields(cls)}
    assert {type(spec) for spec in FAMILY_EXAMPLES} == families
    examples = FAMILY_EXAMPLES + [cls(**kw) for cls, kw in PARAMETER_EXAMPLES.items()]
    arrays = []
    for example in examples:
        for field in dataclasses.fields(example):
            value = getattr(example, field.name)
            if field.type in ("float", "int"):
                message = f"{type(example).__name__} requires a scalar {field.name}"
                with pytest.raises(DomainError, match=message):
                    dataclasses.replace(example, **{field.name: np.full(2, value)})
            else:
                dataclasses.replace(example, **{field.name: value})
                arrays.append(f"{type(example).__name__}.{field.name}")
    assert sorted(arrays) == ["IRTItemBank.a", "IRTItemBank.b", "NormalPosterior.mean",
                              "_OffsetLogit.offset"]
