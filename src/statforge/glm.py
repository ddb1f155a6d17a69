"""One-parameter exponential families with canonical links, Newton/Fisher
scoring fits, Wald intervals, and two-parameter logistic ability scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy import special as sp

from .distributions import Moments, Normal, _Parameters
from .errors import (ConvergenceError, DomainError, NoFiniteMLEError,
                     SeparationError)
from .regression import DesignMatrix, _responses, require_full_rank
from .results import ConfidenceInterval, _matvec, first_row, interval_quantile

__all__ = [
    "ExpFamilySpec", "bernoulli_logit", "poisson_log", "normal_identity",
    "gamma_neglog", "expfam_moments", "GLMFit", "glm_fit",
    "glm_fit_stack", "glm_wald_ci",
    "IRTItemBank", "IRTAbilityFit", "irt_ability_fit",
]

_PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ExpFamilySpec(_Parameters):
    """Canonical-link exponential family described by its cumulant function.

    ``mean``/``mean_slope`` are the first two derivatives of the cumulant
    with respect to the natural parameter; the response variance is
    ``dispersion * mean_slope``. ``natural_ok`` and ``loglik`` reduce along
    the last axis, so a stack of rows gives one value per row. Each family
    names itself in ``name`` and sets ``separable`` when its responses can
    be classified perfectly, so that the maximum likelihood can diverge. A
    family whose mean at a zero natural parameter is the same constant for
    every observation, and whose log-likelihood there does not depend on the
    responses, names that mean in ``mean_at_zero``, so that scoring from
    zero takes the first pass's means, weights and log-likelihoods as
    constants.
    """

    dispersion: float
    separable = False
    mean_at_zero = None

    def _check(self):
        if self.dispersion <= 0:
            raise DomainError("dispersion must be positive")

    # natural-parameter side -------------------------------------------------

    def natural_ok(self, xi: np.ndarray) -> np.ndarray:
        return np.all(np.isfinite(xi), axis=-1)

    def mean(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean_slope(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # response side ------------------------------------------------------------

    def validate_y(self, y: np.ndarray) -> None:
        """Raise :class:`DomainError` on finite responses outside the family's support."""

    def loglik(self, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # scoring ----------------------------------------------------------------

    def weights(self, eta: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Working weights of the Fisher information at ``eta``, whose means are ``mu``."""
        return self.mean_slope(eta) / self.dispersion

    def start(self, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Starting coefficients, one row per response row."""
        return np.zeros((len(y), m.shape[-1]))


@dataclass(frozen=True)
class _BernoulliLogit(ExpFamilySpec):
    name = "bernoulli_logit"
    separable = True
    mean_at_zero = 0.5  # each term of the log-likelihood at zero is -log 2

    def mean(self, xi):
        # expit's 1 / (1 + e^-xi), on numpy's vector exp and formed in place
        # (a float array even for scalars and integers, as expit takes them);
        # e^-xi overflows to inf below xi = -709.78, where the mean is 0
        mu = np.negative(xi, out=np.empty(np.shape(xi)))
        with np.errstate(over="ignore"):
            np.exp(mu, out=mu)
        mu += 1.0
        np.reciprocal(mu, out=mu)
        return mu

    def mean_slope(self, xi):
        mu = self.mean(xi)
        return mu * (1.0 - mu)

    def validate_y(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DomainError("binary family needs 0/1 responses")

    def loglik(self, y, xi):
        # y*xi - log(1 + e^xi), with the softplus as max(xi, 0) + log1p(e^-|xi|):
        # numpy's vector exp, full relative accuracy where e^-|xi| is tiny,
        # and two (R, n) temporaries
        out = np.multiply(y, xi)
        soft = np.maximum(xi, 0.0)
        out -= soft
        np.abs(xi, out=soft)
        np.negative(soft, out=soft)
        np.exp(soft, out=soft)
        np.log1p(soft, out=soft)
        out -= soft
        return np.sum(out, axis=-1)

    def weights(self, eta, mu):
        # clamp only inside the weights; reported means are untouched
        w = np.clip(mu, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
        w *= 1.0 - w
        w /= self.dispersion
        return w


@dataclass(frozen=True)
class _PoissonLog(ExpFamilySpec):
    name = "poisson_log"

    def mean(self, xi):
        return np.exp(xi)

    def mean_slope(self, xi):
        return np.exp(xi)

    def validate_y(self, y):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DomainError("count family needs nonnegative integer responses")

    def loglik(self, y, xi):
        return np.sum(y * xi - np.exp(xi) - sp.gammaln(y + 1.0), axis=-1)


@dataclass(frozen=True)
class _NormalIdentity(ExpFamilySpec):
    name = "normal_identity"

    def mean(self, xi):
        return xi

    def mean_slope(self, xi):
        return np.ones_like(xi)

    def loglik(self, y, xi):
        s2 = self.dispersion
        return np.sum(-0.5 * np.log(2.0 * math.pi * s2) - (y - xi) ** 2 / (2.0 * s2),
                      axis=-1)


@dataclass(frozen=True)
class _GammaNegLog(ExpFamilySpec):
    name = "gamma_neglog"
    shape: float = 1.0

    def _check(self):
        super()._check()
        if self.shape <= 0:
            raise DomainError("gamma shape must be positive")

    def natural_ok(self, xi):
        return np.all(np.isfinite(xi) & (xi < 0.0), axis=-1)

    def mean(self, xi):
        return -self.shape / xi

    def mean_slope(self, xi):
        return self.shape / xi ** 2

    def link(self, mu):
        return -self.shape / mu

    def validate_y(self, y):
        if np.any(y <= 0):
            raise DomainError("gamma family needs strictly positive responses")

    def loglik(self, y, xi):
        lam = self.shape
        alpha = -xi  # rate implied by the natural parameter
        return np.sum(lam * np.log(alpha) - sp.gammaln(lam)
                      + (lam - 1.0) * np.log(y) - alpha * y, axis=-1)

    def start(self, m, y):
        beta = super().start(m, y)
        for r, row in enumerate(y):
            design = m if m.ndim == 2 else m[r]
            # start from a response-driven predictor to keep eta negative
            eta0 = self.link(np.maximum(row, np.percentile(row, 5)))
            guess, *_ = np.linalg.lstsq(design, eta0, rcond=None)
            if not self.natural_ok(design @ guess):
                # fall back to the design's fit of a constant negative predictor
                eta0 = np.full(len(row), self.link(row.mean()))
                guess, *_ = np.linalg.lstsq(design, eta0, rcond=None)
            if self.natural_ok(design @ guess):
                beta[r] = guess
        return beta


def bernoulli_logit() -> ExpFamilySpec:
    return _BernoulliLogit(dispersion=1.0)


def poisson_log() -> ExpFamilySpec:
    return _PoissonLog(dispersion=1.0)


def normal_identity(dispersion: float = 1.0) -> ExpFamilySpec:
    return _NormalIdentity(dispersion=dispersion)


def gamma_neglog(shape: float) -> ExpFamilySpec:
    """Gamma responses with known shape; the natural parameter is minus the
    rate, so linear predictors must stay negative."""
    return _GammaNegLog(dispersion=1.0, shape=shape)


def expfam_moments(spec: ExpFamilySpec, theta: float) -> Moments:
    """Mean and variance at an interior natural parameter value."""
    xi = np.asarray([theta], dtype=float)
    if not spec.natural_ok(xi):
        raise DomainError(f"{theta} is outside the natural domain of {spec.name}")
    mean = float(spec.mean(xi)[0])
    variance = float(spec.dispersion * spec.mean_slope(xi)[0])
    return Moments(mean, variance)


# -- fitting ------------------------------------------------------------------


@dataclass(frozen=True)
class GLMFit:
    """Fit of one response, or of a stack of responses, one per row: row
    ``r`` of every field is what :func:`glm_fit` gives for row ``r``, and
    row ``r`` of the log-likelihood trace is ``loglik_trace[r, :iterations[r]]``.
    A single fit's ``iterations`` is an int and ``log_likelihood`` a float."""

    beta: np.ndarray            # (k,), stacked (R, k)
    mu: np.ndarray              # (n,), stacked (R, n)
    fisher_info: np.ndarray     # (k, k), stacked (R, k, k)
    iterations: int             # stacked (R,)
    log_likelihood: float       # stacked (R,)
    loglik_trace: np.ndarray    # (iterations,), stacked (R, max iterations)


_MAX_ITER = 200
_MAX_HALVINGS = 30
_SEPARATION_NORM = 1e3


def glm_fit(spec: ExpFamilySpec, x: DesignMatrix, y) -> GLMFit:
    """Newton/Fisher scoring on the canonical score equations, with
    step-halving whenever a full step would lower the log-likelihood. A fit
    that does not converge raises."""
    return first_row(glm_fit_stack(spec, x, [y]))


def glm_fit_stack(spec: ExpFamilySpec, design, y) -> GLMFit:
    """:func:`glm_fit` on each row of ``y`` ``(R, n)``, against one shared
    :class:`DesignMatrix` or one design per row, an ``(R, n, k)`` array.

    Each row follows the single fit's iterations, checks and errors exactly,
    and its results are bit-identical to it. The scoring passes form the
    Fisher information only to take a step; the returned ``fisher_info`` is
    formed once, at the final iterate, with the same products."""
    m, fit = _checked_scoring(spec, design, y)
    columns = np.ascontiguousarray(np.swapaxes(m, -1, -2))
    return GLMFit(beta=fit.beta, mu=fit.mu,
                  fisher_info=_information(spec, m, columns, fit.eta, fit.mu),
                  iterations=fit.iterations, log_likelihood=fit.log_likelihood,
                  loglik_trace=fit.loglik_trace)


def _checked_scoring(spec: ExpFamilySpec, design, y):
    """:func:`glm_fit_stack`'s intake and checks of ``design`` and ``y``,
    then :func:`_scoring` from the family's starts: returns the design as a
    contiguous array and its :class:`_Scores`, which hold no information."""
    if isinstance(design, DesignMatrix):
        m = design.matrix
    else:
        m = np.ascontiguousarray(design, dtype=float)
        if m.ndim != 3:
            raise DomainError("per-row designs must form an (R, n, k) array")
    y = _responses(y, m.shape[-2])
    if m.ndim == 3 and len(m) != len(y):
        raise DomainError("one design per response row required")
    spec.validate_y(y)
    require_full_rank(m)
    return m, _scoring(spec, m, y, spec.start(m, y))


@dataclass(frozen=True)
class _Scores:
    """A scoring run's result: :class:`GLMFit`'s fields but the information,
    and the final linear predictors ``eta`` ``(R, n)``, at which the
    information is formed."""

    beta: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    iterations: np.ndarray
    log_likelihood: np.ndarray
    loglik_trace: np.ndarray


def _information(spec, m, columns, eta, mu):
    """The Fisher information ``mt @ (m * w[..., None])`` at the weights
    ``w`` of ``eta`` and ``mu``, formed with ``w`` scaling ``columns``, the
    contiguous ``swapaxes(m, -1, -2)``: the same products with the same
    bits, without a strided ``(R, n, k)`` temporary."""
    weighted = columns * spec.weights(eta, mu)[..., None, :]
    return np.swapaxes(m, -1, -2) @ np.swapaxes(weighted, -1, -2)


def _scoring(spec: ExpFamilySpec, m: np.ndarray, y: np.ndarray,
             start: np.ndarray) -> _Scores:
    """:func:`glm_fit_stack`'s scoring, on a contiguous ``m`` whose rank and
    responses ``y`` have already been checked, from ``start``, an ``(R, k)``
    array of coefficients: the family's starts, or a larger model's fit
    restricted to ``m``'s columns.

    Every pass evaluates all rows; rows that have converged are frozen, as
    only the rows still iterating are written, so a row's result does not
    depend on the other rows. A pass forms the information only when a row
    is still iterating, as only the step reads it. From an all-zero start, a
    family with a ``mean_at_zero`` takes its first pass's means, weights and
    log-likelihoods as constants: one row's log-likelihood serves every row,
    and a shared design's information is one ``(k, k)`` product."""
    mt = np.swapaxes(m, -1, -2)
    columns = np.ascontiguousarray(mt)
    beta = start
    if spec.mean_at_zero is not None and not beta.any():
        eta = np.zeros(y.shape)
        mu = np.full(y.shape, spec.mean_at_zero)
        ll = np.full(len(y), spec.loglik(y[:1], eta[:1])[0])
        # one weight for every observation
        info = _information(spec, m, columns, eta[:1, :1], mu[:1, :1])
    else:
        eta = _matvec(m, beta)
        mu = spec.mean(eta)
        ll = spec.loglik(y, eta)
        info = None
    trace = [ll]
    tol = 1e-10 * (1.0 + np.abs(_matvec(mt, y)).max(axis=-1) / spec.dispersion)
    active = np.ones(len(y), dtype=bool)
    iterations = np.zeros(len(y), dtype=int)
    for _ in range(_MAX_ITER):
        iterations += active
        residual = y - mu
        score = _matvec(mt, residual) / spec.dispersion
        done = active & (np.abs(score).max(axis=-1) <= tol)
        if spec.separable and done.any() and np.any(
                done & (np.abs(residual).max(axis=-1) < 1e-6)):
            # the score only vanishes with all cases classified exactly
            # when the likelihood has no finite maximizer
            raise SeparationError(
                "separation detected: responses perfectly classified, "
                "coefficients diverge")
        active &= ~done
        if not active.any():
            break
        if info is None:
            info = _information(spec, m, columns, eta, mu)
        # frozen rows solve against the identity, so only iterating rows can fail
        step = np.linalg.solve(np.where(active[:, None, None], info, np.eye(beta.shape[1])),
                               score[..., None])[..., 0]
        beta, eta, ll, stalled = _halved_steps(spec, m, y, beta, eta, ll, step, active)
        if stalled.any():
            last = beta[np.argmax(stalled)]
            if np.linalg.norm(last, axis=-1) > _SEPARATION_NORM:
                raise SeparationError(
                    "separation detected: coefficients diverge while the "
                    "score stalls")
            raise ConvergenceError("no ascent direction found", last_iterate=last)
        trace.append(ll)
        if spec.separable and np.any(
                active & (np.linalg.norm(beta, axis=-1) > _SEPARATION_NORM)):
            raise SeparationError(
                "separation detected: coefficient norm exceeded "
                f"{_SEPARATION_NORM:g} before the score vanished")
        mu, info = spec.mean(eta), None
    else:
        raise ConvergenceError("scoring iterations exhausted",
                               last_iterate=beta[np.argmax(active)])
    return _Scores(beta=beta, eta=eta, mu=mu, iterations=iterations,
                   log_likelihood=ll, loglik_trace=np.stack(trace, axis=-1))


def _halved_steps(spec, m, y, beta, eta, ll, step, pending):
    """Move each ``pending`` row by the first of ``step``, ``step / 2``, ...
    that stays in the natural domain and does not lower its log-likelihood;
    returns the new ``beta``, ``eta``, ``ll`` and the rows that found none.
    Accepted rows are written into the caller's ``eta``, which is returned."""
    new_beta, new_ll = beta.copy(), ll.copy()
    pending = pending.copy()
    floor = ll - 1e-13 * (1.0 + np.abs(ll))
    scale = 1.0
    for _ in range(_MAX_HALVINGS):
        candidate = beta + scale * step
        candidate_eta = _matvec(m, candidate)
        with np.errstate(all="ignore"):  # rows outside the domain are discarded
            candidate_ll = spec.loglik(y, candidate_eta)
        accept = pending & spec.natural_ok(candidate_eta) & (candidate_ll >= floor)
        new_beta[accept] = candidate[accept]
        np.copyto(eta, candidate_eta, where=accept[:, None])
        new_ll[accept] = candidate_ll[accept]
        pending &= ~accept
        if not pending.any():
            break
        scale *= 0.5
    return new_beta, eta, new_ll, pending


def glm_wald_ci(fit, j: int, delta: float) -> ConfidenceInterval:
    """Large-sample interval from the inverse information at the fit; a
    stacked fit gives one interval per row."""
    if not 0 <= j < fit.beta.shape[-1]:
        raise DomainError("coefficient index out of range")
    cov = np.linalg.inv(fit.fisher_info)
    half = interval_quantile(Normal(0.0, 1.0), delta) * np.sqrt(cov[..., j, j])
    return ConfidenceInterval(fit.beta[..., j] - half, fit.beta[..., j] + half, 1.0 - delta,
                              "glm_wald")


# -- two-parameter logistic ability scoring ------------------------------------


@dataclass(frozen=True)
class IRTItemBank(_Parameters):
    """Calibrated items: discrimination ``a`` (positive) and difficulty ``b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        super().__post_init__()

    def _check(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1 or self.a.size == 0:
            raise DomainError("item parameters must be matching nonempty vectors")
        if np.any(self.a <= 0):
            raise DomainError("discriminations must be positive")

    @property
    def n_items(self) -> int:
        return self.a.size

    def success_probability(self, ability: float) -> np.ndarray:
        """Each item's chance of a correct answer at ``ability``, from
        ``scipy.special.expit``, whose bits do not depend on the host's SIMD
        kernels. irt draws its responses from these once per run, so numpy's
        vector ``exp``, which the fitted means use, would move irt's draws
        for no speed."""
        return sp.expit(self.a * (ability - self.b))


@dataclass(frozen=True)
class IRTAbilityFit:
    """Ability estimate of one examinee, or of a stack of examinees, one per
    row of each field."""

    gamma_hat: float    # stacked (R,)
    se: float           # stacked (R,)
    iterations: int     # stacked (R,)


@dataclass(frozen=True)
class _OffsetLogit(_BernoulliLogit):
    """Logistic responses whose natural parameter is the linear predictor
    plus a known ``offset`` per observation. A one-parameter score changes
    sign on mixed responses, so the maximum likelihood is finite."""

    offset: np.ndarray
    separable = False
    mean_at_zero = None  # the offset moves each observation's mean

    def mean(self, xi):
        return super().mean(xi + self.offset)

    def loglik(self, y, xi):
        return super().loglik(y, xi + self.offset)


def irt_ability_fit(bank: IRTItemBank, responses) -> IRTAbilityFit:
    """Maximum likelihood ability of one examinee, or of each row of a 2-d
    ``responses``: the logistic regression of the responses on the
    discriminations ``a`` with the offset ``-a b``, fitted by
    :func:`glm_fit_stack`, whose Fisher scoring is Newton's method here."""
    y = np.asarray(responses, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != bank.n_items:
        raise DomainError("one response per item required")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("responses must be 0/1")
    rows = np.atleast_2d(y)
    if np.any(rows.min(axis=-1) == rows.max(axis=-1)):
        raise NoFiniteMLEError(
            "all-correct or all-incorrect responses admit no finite ability")
    fit = glm_fit_stack(_OffsetLogit(dispersion=1.0, offset=-bank.a * bank.b),
                        DesignMatrix(bank.a[:, None], has_intercept=False), rows)
    stack = IRTAbilityFit(gamma_hat=fit.beta[:, 0], se=1.0 / np.sqrt(fit.fisher_info[:, 0, 0]),
                          iterations=fit.iterations)
    return first_row(stack) if y.ndim == 1 else stack

