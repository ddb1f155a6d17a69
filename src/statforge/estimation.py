"""Point estimators, maximum likelihood with Fisher information, confidence
intervals, shrinkage, conjugate Bayes updates, and Monte Carlo means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np
from scipy import special as sp

from .distributions import DistributionSpec, Normal, StudentT, _Parameters, _spec_list, dist_sample
from .errors import ConvergenceError, DegenerateSampleError, DomainError
from .results import ConfidenceInterval, _number, _sample, interval_quantile
from .rng import RandomStream, replicate_chunks

__all__ = [
    "VarianceFamilyEstimate", "variance_family", "variance_bias", "variance_mse",
    "FitResult", "mle_fit", "fisher_information",
    "ci_mean_z", "ci_mean_t", "ci_variance_asymptotic", "ci_mle_asymptotic",
    "ci_two_sample_t", "ci_delta_method",
    "james_stein", "BetaPosterior", "NormalPosterior", "conjugate_update",
    "MonteCarloMean", "monte_carlo_mean",
]

_STD_NORMAL = Normal(0.0, 1.0)


# -- the c * sum of squared deviations family ---------------------------------


@dataclass(frozen=True)
class VarianceFamilyEstimate:
    estimate: float
    n: int


def variance_family(sample, c: float) -> VarianceFamilyEstimate:
    """Scaled sum of squared deviations around the sample mean; a ``(..., n)``
    sample gives one estimate per row, a single sample a Python float."""
    if not c > 0:
        raise DomainError("scale factor c must be positive")
    x = _sample(sample, 2)
    n = x.shape[-1]
    estimate = c * ((x - x.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1)
    return VarianceFamilyEstimate(estimate=_number(estimate), n=n)


def _check_scaled_variance(n, c, sigma2):
    if not n >= 2:
        raise DomainError("sample size n must be >= 2")
    if not (0.0 < c < math.inf and 0.0 < sigma2 < math.inf):
        raise DomainError("c and sigma2 must be finite and positive")


def variance_bias(n: int, c: float, sigma2: float) -> float:
    _check_scaled_variance(n, c, sigma2)
    return (c * (n - 1) - 1.0) * sigma2


def variance_mse(n: int, c: float, sigma2: float) -> float:
    """Exact mean squared error under a normal population."""
    _check_scaled_variance(n, c, sigma2)
    return ((n - 1.0) * (n + 1.0) * c * c - 2.0 * (n - 1.0) * c + 1.0) * sigma2 ** 2


# -- maximum likelihood ---------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    family: str
    estimate: np.ndarray
    param_names: tuple
    log_likelihood: float
    fisher_info: np.ndarray | None
    asymptotic_cov: np.ndarray | None
    iterations: int
    boundary: bool = False

    def standard_errors(self) -> np.ndarray:
        if self.asymptotic_cov is None:
            raise DomainError("no asymptotic covariance at a boundary estimate")
        return np.sqrt(np.diag(self.asymptotic_cov))


def _finish_fit(family, estimate, names, loglik, n, iterations=0, boundary=False):
    estimate = np.asarray(estimate, dtype=float)
    if boundary:
        info = cov = None
    else:
        info = fisher_information(family, estimate, n)
        cov = np.linalg.inv(info)
    return FitResult(family=family, estimate=estimate, param_names=names,
                     log_likelihood=float(loglik), fisher_info=info,
                     asymptotic_cov=cov, iterations=iterations, boundary=boundary)


def mle_fit(family: str, sample) -> FitResult:
    """Closed-form maximum likelihood where available; Newton iteration on
    the profiled shape equation for the gamma family."""
    x = _sample(sample)
    n = x.size
    if family == "normal":
        mu = x.mean()
        s2 = float(((x - mu) ** 2).mean())
        if s2 == 0.0:
            raise DegenerateSampleError("constant sample has boundary variance")
        ll = -0.5 * n * math.log(2.0 * math.pi * s2) - 0.5 * n
        return _finish_fit("normal", [mu, s2], ("mu", "sigma2"), ll, n)
    if family == "exponential":
        if np.any(x < 0):
            raise DomainError("exponential sample must be nonnegative")
        total = x.sum()
        if total == 0.0:
            raise DegenerateSampleError("all-zero sample")
        lam = n / total
        ll = n * math.log(lam) - n
        return _finish_fit("exponential", [lam], ("lam",), ll, n)
    if family == "bernoulli":
        if not np.all((x == 0.0) | (x == 1.0)):
            raise DomainError("bernoulli sample must be 0/1")
        p = x.mean()
        boundary = p in (0.0, 1.0)
        ll = 0.0 if boundary else float(
            x.sum() * math.log(p) + (n - x.sum()) * math.log1p(-p))
        return _finish_fit("bernoulli", [p], ("p",), ll, n, boundary=boundary)
    if family == "poisson":
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise DomainError("poisson sample must hold nonnegative integers")
        lam = x.mean()
        boundary = lam == 0.0
        ll = 0.0 if boundary else float(
            (x * math.log(lam) - lam - sp.gammaln(x + 1.0)).sum())
        return _finish_fit("poisson", [lam], ("lam",), ll, n, boundary=boundary)
    if family == "gamma":
        return _gamma_mle(x)
    raise DomainError(f"unknown family {family!r}")


def _gamma_mle(x: np.ndarray) -> FitResult:
    n = x.size
    if np.any(x <= 0):
        raise DomainError("gamma sample must be strictly positive")
    mean_log = float(np.log(x).mean())
    log_mean = math.log(x.mean())
    spread = log_mean - mean_log  # > 0 unless the sample is constant
    if spread <= 0.0:
        raise DegenerateSampleError(
            "degenerate dispersion: constant sample admits no finite shape")
    lam = (3.0 - spread + math.sqrt((spread - 3.0) ** 2 + 24.0 * spread)) / (12.0 * spread)
    iterations = 0
    for _ in range(100):
        iterations += 1
        g = sp.digamma(lam) - math.log(lam) + spread
        slope = sp.polygamma(1, lam) - 1.0 / lam
        step = g / slope
        candidate = lam - step
        while candidate <= 0.0:
            step *= 0.5
            candidate = lam - step
        lam = candidate
        if abs(step) <= 1e-12 * (1.0 + lam):
            break
    else:
        raise ConvergenceError("gamma shape iteration did not converge", last_iterate=lam)
    alpha = lam / x.mean()
    ll = float(n * (lam * math.log(alpha) - sp.gammaln(lam))
               + (lam - 1.0) * np.log(x).sum() - alpha * x.sum())
    return _finish_fit("gamma", [alpha, lam], ("alpha", "lam"), ll, n,
                       iterations=iterations)


def fisher_information(family: str, theta, n: int) -> np.ndarray:
    """Information matrix of an i.i.d. sample of size n at the given
    interior parameter point."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(t)):
        raise DomainError("theta must be finite")
    if family == "normal":
        mu, s2 = t
        if s2 <= 0:
            raise DomainError("sigma2 must be positive")
        return np.diag([n / s2, n / (2.0 * s2 * s2)])
    if family == "bernoulli":
        (p,) = t
        if not 0.0 < p < 1.0:
            raise DomainError("p on the boundary has no Fisher information")
        return np.array([[n / (p * (1.0 - p))]])
    if family == "poisson":
        (lam,) = t
        if lam <= 0:
            raise DomainError("lam must be positive")
        return np.array([[n / lam]])
    if family == "exponential":
        (lam,) = t
        if lam <= 0:
            raise DomainError("lam must be positive")
        return np.array([[n / lam ** 2]])
    if family == "gamma":
        alpha, lam = t
        if alpha <= 0 or lam <= 0:
            raise DomainError("gamma parameters must be positive")
        return n * np.array([
            [lam / alpha ** 2, -1.0 / alpha],
            [-1.0 / alpha, float(sp.polygamma(1, lam))],
        ])
    raise DomainError(f"unknown family {family!r}")


# -- confidence intervals --------------------------------------------------------


def ci_mean_z(sample_mean: float, sigma: float, n: int, delta: float) -> ConfidenceInterval:
    """Normal-mean interval with known noise scale."""
    if not sigma > 0 or n < 1:
        raise DomainError("need sigma > 0 and n >= 1")
    if not np.all(np.isfinite(sample_mean)):
        raise DomainError("sample_mean must be finite")
    half = interval_quantile(_STD_NORMAL, delta) * sigma / math.sqrt(n)
    return ConfidenceInterval(sample_mean - half, sample_mean + half,
                              1.0 - delta, "mean_z")


def ci_mean_t(sample, delta: float) -> ConfidenceInterval:
    """Studentized small-sample interval for a normal mean; a 2-d ``sample``
    gives one interval per row."""
    x = _sample(sample, 2)
    n = x.shape[-1]
    quantile = interval_quantile(StudentT(n - 1), delta)
    half = quantile * x.std(axis=-1, ddof=1) / math.sqrt(n)
    center = x.mean(axis=-1)
    return ConfidenceInterval(center - half, center + half, 1.0 - delta, "mean_t")


def ci_variance_asymptotic(sample, delta: float) -> ConfidenceInterval:
    """Large-sample interval for a normal variance, scaled off the ML
    estimate by its estimated information."""
    x = _sample(sample, 2)
    s2 = float(((x - x.mean()) ** 2).mean())
    spread = math.sqrt(2.0 / x.size) * interval_quantile(_STD_NORMAL, delta)
    return ConfidenceInterval((1.0 - spread) * s2, (1.0 + spread) * s2,
                              1.0 - delta, "variance_asymptotic")


def ci_mle_asymptotic(theta_hat: float, fisher_total: float, delta: float) -> ConfidenceInterval:
    """Wald interval from the sample Fisher information at the estimate."""
    if not fisher_total > 0:
        raise DomainError("information must be positive")
    if not np.all(np.isfinite(theta_hat)):
        raise DomainError("theta_hat must be finite")
    half = interval_quantile(_STD_NORMAL, delta) / math.sqrt(fisher_total)
    return ConfidenceInterval(theta_hat - half, theta_hat + half,
                              1.0 - delta, "mle_asymptotic")


def ci_two_sample_t(sample_x, sample_y, variance_ratio: float, delta: float) -> ConfidenceInterval:
    """Difference of two normal means when the variance ratio is known."""
    x, y = _sample(sample_x, 2, "sample_x"), _sample(sample_y, 2, "sample_y")
    m, n = x.size, y.size
    if not variance_ratio > 0:
        raise DomainError("variance ratio must be positive")
    eta = variance_ratio
    pooled = ((m - 1) * x.var(ddof=1) + (n - 1) * eta * y.var(ddof=1)) / (m + n - 2)
    scale = math.sqrt((1.0 / m + 1.0 / (n * eta)) * pooled)

    quantile = interval_quantile(StudentT(m + n - 2), delta)
    center = x.mean() - y.mean()
    half = quantile * scale
    return ConfidenceInterval(center - half, center + half, 1.0 - delta,
                              "two_sample_t")


def ci_delta_method(theta_hat: float, fisher_total: float, g: Callable,
                    g_prime: Callable, delta: float) -> ConfidenceInterval:
    """Interval for a smooth transform of an asymptotically normal estimate."""
    if not fisher_total > 0:
        raise DomainError("information must be positive")
    slope = abs(g_prime(theta_hat))
    if slope == 0.0:
        raise DomainError("the transform derivative vanishes at the estimate")
    half = interval_quantile(_STD_NORMAL, delta) * slope / math.sqrt(fisher_total)
    center = g(theta_hat)
    return ConfidenceInterval(center - half, center + half, 1.0 - delta,
                              "delta_method")


# -- shrinkage --------------------------------------------------------------------


def james_stein(x, sigma2: float, shrink_target=None) -> np.ndarray:
    """Shrink an observed normal mean vector toward a target; a 2-d ``x``
    holds one vector per row."""
    x = _sample(x, what="x")
    if not sigma2 > 0:
        raise DomainError("sigma2 must be positive")
    target = np.zeros_like(x) if shrink_target is None else np.asarray(shrink_target, dtype=float)
    centered = x - target
    norm2 = (centered ** 2).sum(axis=-1, keepdims=True)
    if np.any(norm2 == 0.0):
        raise DomainError("observation equals the shrink target; factor is singular")
    p = x.shape[-1]
    factor = 1.0 - (p - 2.0) * sigma2 / norm2
    return factor * centered + target


# -- conjugate Bayes ---------------------------------------------------------------


@dataclass(frozen=True)
class BetaPosterior(_Parameters):
    alpha: float
    beta: float

    def _check(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise DomainError("beta shapes must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def predictive_success(self) -> float:
        """Probability that the next trial succeeds."""
        return self.mean


@dataclass(frozen=True)
class NormalPosterior(_Parameters):
    mean: float | np.ndarray  # one per replicate, updated on an array of sample means
    variance: float

    def _check(self):
        if self.variance <= 0:
            raise DomainError("posterior variance must be positive")


PosteriorSpec = Union[BetaPosterior, NormalPosterior]


def conjugate_update(prior: PosteriorSpec, **data) -> PosteriorSpec:
    """Bayes update of a conjugate prior.

    Beta prior with Bernoulli counts: ``successes``, ``trials``.
    Normal prior with a known-noise sample summary: ``sample_mean`` (a
    number, or an array of one sample mean per replicate), ``n``,
    ``noise_variance``.
    """
    keys = {BetaPosterior: ("successes", "trials"),
            NormalPosterior: ("sample_mean", "n", "noise_variance")}.get(type(prior))
    if keys is None:
        raise DomainError(f"unsupported prior {type(prior).__name__}")
    if set(data) != set(keys):
        raise DomainError(f"a {type(prior).__name__} update takes the data "
                          f"{', '.join(keys)}; got {', '.join(data) or 'none'}")
    if isinstance(prior, BetaPosterior):
        s, n = (data[key] for key in keys)
        if s < 0 or n < 0 or s > n:
            raise DomainError("need 0 <= successes <= trials")
        return BetaPosterior(prior.alpha + s, prior.beta + n - s)
    xbar, n, s2 = (data[key] for key in keys)
    if n < 1 or s2 <= 0:
        raise DomainError("need n >= 1 and a positive noise variance")
    noise = s2 / n
    weight = prior.variance / (prior.variance + noise)
    mean = (1.0 - weight) * prior.mean + weight * xbar
    variance = prior.variance * noise / (prior.variance + noise)
    return NormalPosterior(mean, variance)


# -- Monte Carlo means ---------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    standard_error: float
    n_paths: int


def _chunked_mean(sample: Callable, n: int, stream: RandomStream, workers: int = 1,
                  width: int = 1) -> MCEstimate:
    """Mean and standard error of ``n`` values drawn as ``sample(stream.split(c), take)``
    per chunk ``c``; the chunks' squared deviations from their own means join exactly
    (Chan, Golub and LeVeque), so the variance keeps its digits under a large mean."""
    counts, sums, m2 = replicate_chunks(partial(_chunk_moments, sample), n, stream, workers, width)
    mean = math.fsum(sums) / n
    var = math.fsum(m2 + counts * (sums / counts - mean) ** 2) / (n - 1) if n > 1 else math.inf
    return MCEstimate(estimate=mean, standard_error=math.sqrt(var / n), n_paths=n)


def _chunk_moments(sample: Callable, stream: RandomStream, take: int) -> np.ndarray:
    values = sample(stream, take)
    return np.array([[take], [values.sum()], [((values - values.mean()) ** 2).sum()]])


@dataclass(frozen=True)
class MonteCarloMean:
    estimate: float
    standard_deviation: float
    ci: ConfidenceInterval
    n_chebyshev: float
    n_clt: float
    degenerate: bool


def monte_carlo_mean(f: Callable, spec, n: int, delta: float,
                     stream: RandomStream, epsilon: float = 0.01) -> MonteCarloMean:
    """Sample mean of ``f`` over draws from ``spec`` with a large-sample
    interval, plus the sample sizes that a target half-width ``epsilon``
    would require with and without appeal to asymptotic normality.

    ``spec`` may be a sequence of specs; ``f`` then receives an (n, d) array.
    Draws come in the chunks of :func:`statforge.rng.replicate_chunks` at
    ``width`` d.
    """
    if n < 2:
        raise DegenerateSampleError("need n >= 2 draws")
    specs = _spec_list(spec)
    z = interval_quantile(_STD_NORMAL, delta)

    def sample(chunk_stream, take):
        draws = [dist_sample(s, chunk_stream, take) for s in specs]
        draws = draws[0] if isinstance(spec, DistributionSpec) else np.column_stack(draws)
        values = np.asarray(f(draws), dtype=float)
        if values.shape != (take,):
            raise DomainError("evaluator must return one value per draw")
        return values

    mc = _chunked_mean(sample, n, stream, width=len(specs))
    sd = mc.standard_error * math.sqrt(n)
    degenerate = sd == 0.0
    half = z * mc.standard_error
    ci = ConfidenceInterval(mc.estimate - half, mc.estimate + half, 1.0 - delta,
                            "monte_carlo_clt")
    n_cheb = sd ** 2 / (delta * epsilon ** 2)
    n_clt = 2.0 * math.log(1.0 / delta) * sd ** 2 / epsilon ** 2
    return MonteCarloMean(estimate=mc.estimate, standard_deviation=sd, ci=ci,
                          n_chebyshev=n_cheb, n_clt=n_clt, degenerate=degenerate)
