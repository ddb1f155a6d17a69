"""The intake of observed data: every sample, response, integrand and point
argument refuses a NaN or an infinity with :class:`DomainError`, too few
values with :class:`DegenerateSampleError`, and every scalar range check
refuses a NaN."""

import inspect
import math
import warnings

import numpy as np
import pytest

from statforge import concentration as con
from statforge import distributions as d
from statforge import estimation as est
from statforge import glm
from statforge import hypothesis as hyp
from statforge import regression as reg
from statforge import stochastic as sto
from statforge.errors import DegenerateSampleError, DomainError
from statforge.rng import RandomStream

MODULES = (est, hyp, reg, glm, sto, con)
DATA_PARAMETERS = {"sample", "sample_x", "sample_y", "groups", "y", "integrand", "points",
                   "x0", "loglik_full", "loglik_null"}

_SAMPLE = np.array([0.3, -1.2, 0.8, 2.1, -0.4, 1.5])
_DESIGN = reg.design_matrix(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
_FIT = reg.ols_fit(_DESIGN, _SAMPLE)
_PATH = sto.brownian_sample(sto.uniform_grid(1.0, 6), 1, RandomStream(540))
_JL = con.JLConfig(n_points=3, ambient_dim=4, epsilon=0.5, delta=0.1)
_POINTS = RandomStream(541).normals(12).reshape(3, 4)


def _zero(x):
    return np.zeros(len(x))


def _one(x):
    return np.ones(len(x))


# One valid call of each public function that takes a data argument; the
# test spoils each data argument in turn
DATA_EXAMPLES = {
    est.variance_family: dict(sample=_SAMPLE, c=1.0),
    est.mle_fit: dict(family="normal", sample=_SAMPLE),
    est.ci_mean_t: dict(sample=_SAMPLE, delta=0.05),
    est.ci_variance_asymptotic: dict(sample=_SAMPLE, delta=0.05),
    est.ci_two_sample_t: dict(sample_x=_SAMPLE, sample_y=_SAMPLE[::-1] ** 2,
                              variance_ratio=1.0, delta=0.05),
    est.james_stein: dict(x=_SAMPLE, sigma2=1.0),
    hyp.lrt_mean: dict(sample=_SAMPLE, mu0=0.0),
    hyp.f_test_variances: dict(sample_x=_SAMPLE, sample_y=_SAMPLE[::-1] ** 2),
    hyp.anova_one_way: dict(groups=[_SAMPLE[:3], _SAMPLE[3:]]),
    hyp.lrt_generic: dict(loglik_full=-3.0, loglik_null=-5.0, df_diff=1),
    reg.ols_fit: dict(x=_DESIGN, y=_SAMPLE),
    reg.ridge_fit: dict(x=_DESIGN, y=_SAMPLE, penalty=0.5),
    reg.lasso_fit: dict(x=_DESIGN, y=_SAMPLE, penalty=0.1),
    reg.response_band: dict(fit=_FIT, x0=np.array([1.0, 2.5]), kind="prediction", delta=0.05),
    glm.glm_fit: dict(spec=glm.normal_identity(), x=_DESIGN, y=_SAMPLE),
    glm.glm_fit_stack: dict(spec=glm.normal_identity(), design=_DESIGN,
                            y=np.stack([_SAMPLE, _SAMPLE[::-1]])),
    sto.ito_integral: dict(integrand=_PATH.values[:-1, 0], path=_PATH),
    sto.feynman_kac_mc: dict(potential=_zero, payoff=_one, t=1.0, x0=np.zeros(2), dim=2,
                             n_paths=8, steps=2, stream=RandomStream(542)),
    con.jl_project: dict(points=_POINTS, m=5, stream=RandomStream(543)),
    con.jl_trial: dict(config=_JL, stream=RandomStream(544), points=_POINTS),
}


def _data_parameters(fn):
    names = set(inspect.signature(fn).parameters) & DATA_PARAMETERS
    return names | {"x"} if fn is est.james_stein else names


def _spoiled(value, bad):
    """``value`` with its last entry, or its first group's, set to ``bad``."""
    if isinstance(value, list):
        return [_spoiled(value[0], bad), *value[1:]]
    value = np.array(value, dtype=float)
    value.flat[-1] = bad
    return value


def test_every_data_argument_has_a_valid_example():
    takers = {fn for module in MODULES
              for name, fn in inspect.getmembers(module, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == module.__name__
              and _data_parameters(fn)}
    assert takers - {hyp.ks_statistic} == set(DATA_EXAMPLES), "every data argument needs an example"
    for fn, example in DATA_EXAMPLES.items():
        fn(**example)


@pytest.mark.parametrize("fn, name, bad", [
    pytest.param(fn, name, bad, id=f"{fn.__name__}-{name}-{bad}")
    for fn in DATA_EXAMPLES for name in sorted(_data_parameters(fn))
    for bad in (math.nan, math.inf, -math.inf)])
def test_data_argument_refuses_non_finite_values(fn, name, bad):
    example = DATA_EXAMPLES[fn]
    with pytest.raises(DomainError, match="must be finite"):
        fn(**{**example, name: _spoiled(example[name], bad)})


def test_ks_statistic_gives_nan_for_a_nan_sample():
    # the one exception: an experiment refuses a non-finite metric by name
    assert math.isnan(hyp.ks_statistic(_spoiled(_SAMPLE, math.nan), d.Normal(0.0, 1.0)))


TOO_FEW = {
    "variance_family": lambda: est.variance_family(_SAMPLE[:1], 1.0),
    "ci_mean_t": lambda: est.ci_mean_t(_SAMPLE[:1], 0.05),
    "ci_variance_asymptotic": lambda: est.ci_variance_asymptotic(_SAMPLE[:1], 0.05),
    "ci_two_sample_t-x": lambda: est.ci_two_sample_t(_SAMPLE[:1], _SAMPLE, 1.0, 0.05),
    "ci_two_sample_t-y": lambda: est.ci_two_sample_t(_SAMPLE, _SAMPLE[:1], 1.0, 0.05),
    "lrt_mean": lambda: hyp.lrt_mean(_SAMPLE[:1], 0.0),
    "f_test_variances-x": lambda: hyp.f_test_variances(_SAMPLE[:1], _SAMPLE),
    "f_test_variances-y": lambda: hyp.f_test_variances(_SAMPLE, _SAMPLE[:1]),
    "mle_fit": lambda: est.mle_fit("normal", []),
    "anova_one_way": lambda: hyp.anova_one_way([_SAMPLE, []]),
}


@pytest.mark.parametrize("call", TOO_FEW.values(), ids=TOO_FEW)
def test_too_few_values_are_degenerate(call):
    with pytest.raises(DegenerateSampleError, match=r"needs n >= \d"):
        call()


def test_ridge_response_of_the_wrong_length():
    with pytest.raises(DomainError, match="response length"):
        reg.ridge_fit(_DESIGN, _SAMPLE[:5], 0.5)


def test_gamma_fit_refuses_a_nan_response_without_warnings():
    y = _SAMPLE ** 2 + 0.5
    y[2] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="response must be finite"):
            glm.glm_fit(glm.gamma_neglog(2.0), _DESIGN, y)


# a NaN in each scalar range check, with the start of its message
NAN_SCALARS = {
    "variance_family-c": (lambda: est.variance_family(_SAMPLE, math.nan), "scale factor c"),
    "ci_mean_z-sigma": (lambda: est.ci_mean_z(0.0, math.nan, 10, 0.05), "need sigma > 0"),
    "ci_mle_asymptotic-fisher_total": (lambda: est.ci_mle_asymptotic(0.0, math.nan, 0.05),
                                       "information"),
    "ci_delta_method-fisher_total": (
        lambda: est.ci_delta_method(1.0, math.nan, math.log, lambda t: 1.0 / t, 0.05),
        "information"),
    "ci_two_sample_t-variance_ratio": (
        lambda: est.ci_two_sample_t(_SAMPLE, _SAMPLE ** 2, math.nan, 0.05), "variance ratio"),
    "james_stein-sigma2": (lambda: est.james_stein(_SAMPLE, math.nan), "sigma2"),
    "lrt_mean-sigma_known": (lambda: hyp.lrt_mean(_SAMPLE, 0.0, sigma_known=math.nan),
                             "known sigma"),
    "ridge_fit-penalty": (lambda: reg.ridge_fit(_DESIGN, _SAMPLE, math.nan), "penalty"),
    "lasso_fit-penalty": (lambda: reg.lasso_fit(_DESIGN, _SAMPLE, math.nan), "penalty"),
    "lasso_penalty_rule-sigma": (lambda: reg.lasso_penalty_rule(100, 10, math.nan, 1.0),
                                 "rule inputs"),
    "lasso_penalty_rule-t": (lambda: reg.lasso_penalty_rule(100, 10, 1.0, math.nan),
                             "rule inputs"),
    "gbm_sample-s0": (lambda: sto.gbm_sample(0.1, 0.2, math.nan, _PATH.grid, RandomStream(545)),
                      "initial value"),
    "gbm_sample-sigma": (
        lambda: sto.gbm_sample(0.1, math.nan, 1.0, _PATH.grid, RandomStream(546)), "volatility"),
    "feynman_kac_mc-t": (
        lambda: sto.feynman_kac_mc(_zero, _one, math.nan, 0.0, 1, 8, 2, RandomStream(547)),
        "time horizon"),
    "empirical_tail-center": (
        lambda: con.empirical_tail(d.Normal(0.0, 1.0), math.nan, [0.5], 10, RandomStream(548)),
        "center"),
    "empirical_tail-t_grid": (
        lambda: con.empirical_tail(d.Normal(0.0, 1.0), 0.0, [math.nan, 0.5], 10,
                                   RandomStream(549)), "t_grid"),
    "gaussian_concentration_experiment-tau_grid": (
        lambda: sto.gaussian_concentration_experiment("norm", 3, 100, [math.nan, 0.5],
                                                      RandomStream(550)), "tau_grid"),
    "gbm_sample-mu": (lambda: sto.gbm_sample(math.nan, 0.2, 1.0, _PATH.grid, RandomStream(551)),
                      "drift mu"),
    "ci_mean_z-sample_mean": (lambda: est.ci_mean_z(math.nan, 1.0, 10, 0.05), "sample_mean"),
    "ci_mle_asymptotic-theta_hat": (lambda: est.ci_mle_asymptotic(math.nan, 1.0, 0.05),
                                    "theta_hat"),
}


@pytest.mark.parametrize("call, message", NAN_SCALARS.values(), ids=NAN_SCALARS)
def test_scalar_range_checks_refuse_nan(call, message):
    with pytest.raises(DomainError, match=message):
        call()
