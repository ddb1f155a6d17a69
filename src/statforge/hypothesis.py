"""Likelihood-ratio tests for normal-model hypotheses, ANOVA, variance-ratio
tests, and empirical validation of the chi-squared asymptotics of the
log-likelihood-ratio statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import ChiSquared, DistributionSpec, FisherF, dist_cdf, dist_quantile
from .errors import DegenerateSampleError, DomainError, NestingError
from .glm import _checked_scoring, _scoring, bernoulli_logit
from .results import TestReport, _sample
from .rng import RandomStream, replicate, replicate_chunks

__all__ = [
    "TestReport", "ks_statistic", "lrt_mean", "f_test_variances",
    "anova_one_way", "lrt_generic", "wilks_null_simulation", "WilksSimulation",
]


def ks_statistic(sample, law: DistributionSpec) -> float:
    """One-sample Kolmogorov-Smirnov distance to a continuous law; NaN for a
    sample holding a NaN."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise DegenerateSampleError("empty sample")
    if np.isnan(x[-1]):  # np.sort puts NaN last
        return math.nan
    f = np.asarray(dist_cdf(law, x), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def lrt_mean(sample, mu0: float, sigma_known: float | None = None) -> TestReport:
    """Two-sided test of a normal mean.

    With ``sigma_known`` the statistic n (x̄ - mu0)² / sigma², the squared
    standardized mean and the log-likelihood-ratio statistic, is referred to
    a chi-squared with one degree of freedom (exactly, not asymptotically).
    Otherwise n (x̄ - mu0)² / s², the squared studentized mean, is referred
    to F(1, n-1); the log-likelihood-ratio statistic ``h`` = n log(1 + t² / (n-1))
    is reported alongside. A 2-d ``sample`` is tested row by row.
    """
    x = _sample(sample, 1 if sigma_known is not None else 2)
    n = x.shape[-1]
    if sigma_known is not None:
        if not sigma_known > 0:
            raise DomainError("known sigma must be positive")
        gap = x.mean(axis=-1) - mu0
        stat = n * gap ** 2 / sigma_known ** 2
        return TestReport(stat, ChiSquared(1).sf(stat), kind="mean_z_squared",
                          extras={"z": gap / (sigma_known / math.sqrt(n))})
    s2 = x.var(axis=-1, ddof=1)
    if np.any(s2 == 0.0):
        raise DegenerateSampleError("zero sample standard deviation")
    gap = x.mean(axis=-1) - mu0
    stat = n * gap ** 2 / s2
    h = n * np.log1p(stat / (n - 1))
    return TestReport(stat, FisherF(1, n - 1).sf(stat), kind="mean_t_squared",
                      extras={"t": gap / (np.sqrt(s2) / math.sqrt(n)), "h": h})


def f_test_variances(sample_x, sample_y) -> TestReport:
    """Equal-tailed two-sided test of equality of two normal variances; 2-d
    samples are tested row by row."""
    x, y = _sample(sample_x, 2, "sample_x"), _sample(sample_y, 2, "sample_y")
    vx, vy = x.var(axis=-1, ddof=1), y.var(axis=-1, ddof=1)
    if np.any(vx == 0.0) or np.any(vy == 0.0):
        raise DegenerateSampleError("zero sample variance")
    stat = vx / vy
    null_law = FisherF(x.shape[-1] - 1, y.shape[-1] - 1)
    p = np.minimum(1.0, 2.0 * np.minimum(dist_cdf(null_law, stat), null_law.sf(stat)))
    return TestReport(stat, p, kind="variance_ratio_two_sided")


def anova_one_way(groups: Sequence) -> TestReport:
    """Equality of several normal means under a shared variance.

    Accepts two groups as well, where the statistic reduces to the square
    of the pooled two-sample t statistic. Groups of 2-d arrays with equal
    row counts are tested row by row.
    """
    arrays = [_sample(g, what="group") for g in groups]
    p = len(arrays)
    if p < 2:
        raise DomainError("need at least two groups")
    sizes = [a.shape[-1] for a in arrays]
    n = sum(sizes)
    if n <= p:
        raise DegenerateSampleError("within-group degrees of freedom exhausted")
    means = [a.mean(axis=-1, keepdims=True) for a in arrays]
    grand = sum(a.sum(axis=-1, keepdims=True) for a in arrays) / n
    ss_within = sum(((a - m) ** 2).sum(axis=-1) for a, m in zip(arrays, means))
    ss_between = sum(k * (m - grand) ** 2 for k, m in zip(sizes, means))[..., 0]
    ss_total = sum(((a - grand) ** 2).sum(axis=-1) for a in arrays)
    if np.any(ss_within == 0.0):
        raise DegenerateSampleError("no within-group variation")
    stat = (ss_between / (p - 1)) / (ss_within / (n - p))
    return TestReport(stat, FisherF(p - 1, n - p).sf(stat), kind="anova_one_way",
                      extras={"ss_total": ss_total, "ss_within": ss_within,
                              "ss_between": ss_between})


def lrt_generic(loglik_full, loglik_null, df_diff: int) -> TestReport:
    """Twice the log-likelihood gap of nested fits against chi-squared;
    arrays of log-likelihoods are tested pair by pair."""
    if df_diff < 1:
        raise DomainError("degrees-of-freedom difference must be >= 1")
    gap = np.asarray(loglik_full, dtype=float) - np.asarray(loglik_null, dtype=float)
    _sample(gap, what="log-likelihood gap")  # checked only: a scalar gap stays 0-d
    if np.any(gap < -1e-8):
        raise NestingError(
            f"full log-likelihood below null by {-np.min(gap):.3e}; models are not nested"
        )
    stat = np.fmax(0.0, 2.0 * gap)
    return TestReport(stat, ChiSquared(df_diff).sf(stat), kind="likelihood_ratio")


@dataclass(frozen=True)
class WilksSimulation:
    ks_distance: float
    qq_table: np.ndarray  # columns: level, empirical quantile, reference quantile
    df: int


_QQ_LEVELS = np.arange(1, 20) / 20.0


def wilks_null_simulation(scenario: str, n: int, replicates: int,
                          stream: RandomStream, workers: int = 1) -> WilksSimulation:
    """Distribution of the log-likelihood-ratio statistic under a simulated
    null, compared with its limiting chi-squared law.

    Scenarios: ``"z"`` (normal mean, variance known; the statistic is
    exactly chi-squared), ``"t"`` (normal mean, variance unknown), and
    ``"logistic"`` (two true-zero slopes dropped from a logistic fit).
    Every scenario runs through :func:`statforge.rng.replicate`, with the
    same result for any number of ``workers``. The logistic scenario draws
    replicate ``r`` from ``stream.split(r)`` and fits each block's full and
    null models as stacks by the Fisher scoring of
    :func:`statforge.glm.glm_fit_stack`, reading only their log-likelihoods:
    the full fit from zero, the null fit of each row from its full fit's
    intercept and first slope (at n = 2000, 3 scoring passes where a start
    from zero takes 5); ``z`` and ``t`` draw their samples in the chunks of
    :func:`statforge.rng.replicate_chunks` at ``width`` n, and test each chunk
    as one stack through :func:`lrt_mean`.
    """
    if replicates < 100:
        raise DomainError("need at least 100 replicates")
    if scenario in ("z", "t"):
        known = scenario == "z"
        min_n = 1 if known else 2
        if n < min_n:
            raise DomainError(f"n must be >= {min_n}")
        stats = replicate_chunks(partial(_normal_lrts, n, known), replicates, stream,
                                 workers, width=n)
        df = 1
    elif scenario == "logistic":
        stats = replicate(partial(_logistic_gaps, n), replicates, stream, workers, width=n)
        df = 2
    else:
        raise DomainError(f"unknown scenario {scenario!r}")
    law = ChiSquared(df)
    ks = ks_statistic(stats, law)
    empirical = np.quantile(stats, _QQ_LEVELS)
    reference = dist_quantile(law, _QQ_LEVELS)
    table = np.column_stack([_QQ_LEVELS, empirical, reference])
    return WilksSimulation(ks_distance=ks, qq_table=table, df=df)


def _normal_lrts(n, known, stream, take):
    """Log-likelihood-ratio statistics of a zero mean, with the variance
    known or not, for ``take`` samples of ``n`` standard normals."""
    report = lrt_mean(stream.normals(take * n).reshape(take, n), 0.0, 1.0 if known else None)
    return report.statistic if known else report.extras["h"]


def _logistic_gaps(n: int, batch) -> np.ndarray:
    """Log-likelihood-ratio statistics of two true-zero slopes, one per row
    of ``batch``; the block's full and null fits run as stacks and form no
    information past their last step. The full fit keeps
    :func:`statforge.glm.glm_fit_stack`'s intake and checks. The null
    fit starts from the full fit's first two coefficients, which lie
    O(1/sqrt(n)) from the null MLE, so Newton's quadratic convergence
    saves the passes a start from zero spends on getting close; each row
    starts from its own full fit, so a row's statistic does not depend on
    the block it falls in."""
    beta_true = np.array([0.3, 0.5, 0.0, 0.0])
    spec = bernoulli_logit()
    covariates = batch.normals(n * 3).reshape(-1, n, 3)
    design = np.concatenate([np.ones((len(covariates), n, 1)), covariates], axis=-1)
    prob = spec.mean(design @ beta_true)
    y = (batch.uniforms(n) < prob).astype(float)
    _, full = _checked_scoring(spec, design, y)
    # The null design's columns are a subset of the full one's, so by Cauchy
    # interlacing its singular values pass the rank test that the full
    # design's passed: no second SVD.
    null = _scoring(spec, np.ascontiguousarray(design[..., :2]), y,
                    np.ascontiguousarray(full.beta[:, :2]))
    return lrt_generic(full.log_likelihood, null.log_likelihood, 2).statistic
