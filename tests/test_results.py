"""The result containers: a single sample or fit gives Python numbers, a
stack gives arrays whose row ``r`` is the single call on row ``r``."""

import numpy as np
import pytest

from statforge import estimation as est
from statforge import glm
from statforge import hypothesis as hyp
from statforge import regression as reg
from statforge import results
from statforge.distributions import Normal
from statforge.results import ConfidenceInterval
from statforge.rng import RandomStream

_N = 40
_ROWS = 5
_DESIGN = reg.design_matrix(RandomStream(530).normals(_N * 2).reshape(_N, 2))
_NULL_DESIGN = reg.DesignMatrix(_DESIGN.matrix[:, :2])
_X0 = np.array([1.0, 0.3, -0.2])


def _logit(y):
    binary = (y > 0.0).astype(float)
    spec = glm.bernoulli_logit()
    return (glm.glm_fit(spec, _DESIGN, binary) if y.ndim == 1
            else glm.glm_fit_stack(spec, _DESIGN, binary))


# Each case builds its report or interval from one sample ``y`` (n,) or from
# a stack (R, n); the last five take a single sample only.
CASES = {
    "lrt_mean_z": lambda y: hyp.lrt_mean(y, 0.1, sigma_known=1.0),
    "lrt_mean_t": lambda y: hyp.lrt_mean(y, 0.1),
    "f_test_variances": lambda y: hyp.f_test_variances(y[..., :15], y[..., 15:]),
    "anova_one_way": lambda y: hyp.anova_one_way([y[..., :10], y[..., 10:25], y[..., 25:]]),
    "lrt_generic": lambda y: hyp.lrt_generic(np.abs(y).sum(axis=-1), 0.0 * y.sum(axis=-1), 2),
    "coef_interval": lambda y: reg.coef_interval(reg.ols_fit(_DESIGN, y), 1, 0.05),
    "response_mean_pointwise": lambda y: reg.response_band(
        reg.ols_fit(_DESIGN, y), _X0, "mean_pointwise", 0.05),
    "response_mean_scheffe": lambda y: reg.response_band(
        reg.ols_fit(_DESIGN, y), _X0, "mean_scheffe", 0.05),
    "response_prediction": lambda y: reg.response_band(
        reg.ols_fit(_DESIGN, y), _X0, "prediction", 0.05),
    "f_test_nested": lambda y: reg.f_test_nested(
        reg.ols_fit(_DESIGN, y), reg.ols_fit(_NULL_DESIGN, y)),
    "f_test_nested_same_design": lambda y: reg.f_test_nested(
        reg.ols_fit(_DESIGN, y), reg.ols_fit(_DESIGN, y)),
    "glm_wald_ci": lambda y: glm.glm_wald_ci(_logit(y), 1, 0.05),
    "ci_mean_z": lambda y: est.ci_mean_z(y.mean(axis=-1), 1.0, _N, 0.05),
    "ci_mean_t": lambda y: est.ci_mean_t(y, 0.05),
    "ci_variance_asymptotic": lambda y: est.ci_variance_asymptotic(y, 0.05),
    "ci_mle_asymptotic": lambda y: est.ci_mle_asymptotic(y.mean(), 50.0, 0.05),
    "ci_two_sample_t": lambda y: est.ci_two_sample_t(y[:15], y[15:], 2.0, 0.05),
    "ci_delta_method": lambda y: est.ci_delta_method(y.mean(), 50.0, np.exp, np.exp, 0.05),
    "monte_carlo_mean": lambda y: est.monte_carlo_mean(
        np.square, Normal(0.0, 1.0), _N, 0.05, RandomStream(531)).ci,
}
SINGLE_ONLY = {"ci_variance_asymptotic", "ci_mle_asymptotic", "ci_two_sample_t",
               "ci_delta_method", "monte_carlo_mean"}


def _numbers(result) -> dict:
    if isinstance(result, ConfidenceInterval):
        return {"lo": result.lo, "hi": result.hi}
    assert isinstance(result, results.TestReport)
    return {"statistic": result.statistic, "p_value": result.p_value,
            **{f"extras[{key}]": value for key, value in result.extras.items()}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_sample_gives_python_numbers_and_a_stack_its_rows(case):
    y = RandomStream(532).normals(_ROWS * _N).reshape(_ROWS, _N) + 0.2
    singles = [_numbers(CASES[case](row)) for row in y]
    for one in singles:
        for name, value in one.items():
            assert type(value) in (float, int), (name, type(value))
    assert type(singles[0].get("extras[df_diff]", 0)) is int
    if case in SINGLE_ONLY:
        return
    stack = _numbers(CASES[case](y))
    for name, rows in stack.items():
        if type(rows) is int:  # a fact of the test, shared by every row
            assert all(one[name] == rows for one in singles)
            continue
        assert isinstance(rows, np.ndarray) and rows.shape == (_ROWS,), name
        for r, one in enumerate(singles):
            assert rows[r].tobytes() == np.float64(one[name]).tobytes(), (name, r)


def test_python_numbers_and_arrays_pass_through():
    ci = ConfidenceInterval(1, 2.5, 0.95, "given")
    assert (type(ci.lo), type(ci.hi)) == (int, float)
    rows = np.array([0.1, 0.2])
    assert ConfidenceInterval(rows, rows + 1.0, 0.95, "given").lo is rows
    report = results.TestReport(np.float64(2.0), np.array(0.5), "given",
                                extras={"df": 3, "flag": np.bool_(True), "rows": rows})
    assert (type(report.statistic), type(report.p_value)) == (float, float)
    assert [type(value) for value in report.extras.values()] == [int, bool, np.ndarray]
    assert report.extras["rows"] is rows
