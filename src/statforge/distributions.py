"""Parameterized univariate distributions.

Each spec is an immutable tagged value carrying its parameters; the module
functions ``dist_pdf``/``dist_cdf``/``dist_quantile``/``dist_moments``/
``dist_sample`` dispatch on the spec. Parameters must be finite, and the
functions refuse a NaN argument. Densities follow the convention of being 0
outside the support and at +-inf (never an error). Sampling is driven entirely
by a :class:`~statforge.rng.RandomStream`, so every draw sequence is a pure
function of (root_seed, stream_id, counter).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special as sp

from .errors import DomainError, UndefinedMomentError
from .rng import RandomStream

__all__ = [
    "Normal", "LogNormal", "Gamma", "ChiSquared", "StudentT", "FisherF",
    "Beta", "Exponential", "Bernoulli", "Binomial", "Poisson", "Geometric",
    "Uniform01", "DistributionSpec", "Moments",
    "dist_moments", "dist_pdf", "dist_cdf", "dist_quantile", "dist_sample",
]

_FLOAT_MAX = sys.float_info.max

@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _as_array(x) -> tuple[np.ndarray, bool]:
    """``x`` as a 1-d or wider float array, and whether it was a scalar; a
    NaN argument is refused, an infinite one taken at the limit."""
    arr = np.asarray(x, dtype=float)
    _require(not np.isnan(arr).any(), "distribution function argument must not be NaN")
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


class _Parameters:
    """Base of the parameter types, each a frozen dataclass: every field must
    be finite, a number or an array of numbers, a number where it is
    annotated ``float`` or ``int``, and then the type's own ``_check`` runs."""

    def __post_init__(self):
        for name, declared in self.__dataclass_fields__.items():  # no type has a ClassVar
            value = getattr(self, name)
            if (declared.type in ("float", "int") and not isinstance(value, (float, int))
                    and np.ndim(value) != 0):  # np.ndim costs a microsecond
                raise DomainError(f"{type(self).__name__} requires a scalar {name}")
            # finite as a float: NaN and +-inf fail, and so does an int too
            # large to convert (the comparison of an int with a float is exact)
            finite = abs(value) <= _FLOAT_MAX
            if finite is not True and not (
                    finite.all() if isinstance(finite, np.ndarray) else finite):
                raise DomainError(f"{type(self).__name__} requires a finite {name}")
        self._check()

    def _check(self) -> None:
        """The type's own checks of its fields, which are finite."""


class DistributionSpec(_Parameters):
    """Base of the families: each fills in the private hooks, which the
    module functions ``dist_*`` call."""

    is_discrete = False
    _support_min = 0  # smallest support point of a discrete family

    def moments(self) -> Moments:
        raise NotImplementedError

    # hooks ---------------------------------------------------------------

    def _pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _sample(self, stream: RandomStream, count: int) -> np.ndarray:
        raise NotImplementedError

    def _ppf(self, u):
        """Inverse cdf of a continuous family at ``u`` in (0,1); elementwise
        on arrays."""
        raise NotImplementedError

    def _inverted_draws(self, stream: RandomStream, count: int, size: int) -> np.ndarray:
        """``count`` draws of a family supported from 0, each the smallest
        ``k`` in ``0 ... size - 1`` with cdf(k) >= its uniform, as
        ``dist_quantile`` gives; a uniform above cdf(size - 1) draws ``size``."""
        cdf = self._cdf(np.arange(size, dtype=float))
        return np.searchsorted(cdf, stream.uniforms(count)).astype(float)

    def _discrete_quantile(self, u: np.ndarray) -> np.ndarray:
        """Smallest support point with cdf >= u, at each point of ``u``.

        Each point doubles an upper bound from the support's minimum until
        its cdf reaches the point, then bisects between the last two bounds.
        The doubling bounds are the same for every point, so each doubling
        step is one cdf value, and each bisection step is one ``_cdf`` call
        on the points still open: every point takes the path, and gets the
        value, of its own one-point search."""
        flat = u.ravel()
        edges = [self._support_min - 1, self._support_min]  # cdf(edges[0]) = 0
        doublings = np.zeros(flat.shape, dtype=np.intp)
        short = np.ones(flat.shape, dtype=bool)
        while True:
            short &= self._cdf(np.array([float(edges[-1])]))[0] < flat
            if not short.any():
                break
            doublings += short
            edges.append(2 * edges[-1] + 1)
            _require(edges[-1] <= _FLOAT_MAX, "quantile lies past the float range")
        # bisection on Python ints, exact past 2**63 as the one-point search is
        edges = np.array(edges, dtype=object)
        lo, hi = edges[doublings], edges[doublings + 1]
        while True:
            open_ = np.flatnonzero(hi - lo > 1)
            if not open_.size:
                return hi.astype(float).reshape(u.shape)
            mid = (lo[open_] + hi[open_]) // 2
            below = self._cdf(mid.astype(float)) < flat[open_]
            lo[open_[below]] = mid[below]
            hi[open_[~below]] = mid[~below]


def _spec_list(spec) -> list:
    """A spec, or a sequence of specs, as a non-empty list of specs."""
    specs = [spec] if isinstance(spec, DistributionSpec) else list(spec)
    _require(bool(specs), "need at least one distribution")
    return specs


# -- continuous families ----------------------------------------------------


@dataclass(frozen=True)
class Normal(DistributionSpec):
    mu: float
    sigma2: float

    def _check(self):
        _require(self.sigma2 > 0, "Normal requires sigma2 > 0")

    def moments(self) -> Moments:
        return Moments(self.mu, self.sigma2)

    def _pdf(self, x):
        sd = math.sqrt(self.sigma2)
        z = (x - self.mu) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def _cdf(self, x):
        return sp.ndtr((x - self.mu) / math.sqrt(self.sigma2))

    def _ppf(self, u):
        return self.mu + math.sqrt(self.sigma2) * sp.ndtri(u)

    def _sample(self, stream, count):
        return self.mu + math.sqrt(self.sigma2) * stream.normals(count)


@dataclass(frozen=True)
class LogNormal(DistributionSpec):
    mu: float
    sigma2: float

    def _check(self):
        _require(self.sigma2 > 0, "LogNormal requires sigma2 > 0")

    def moments(self) -> Moments:
        mean = math.exp(self.mu + 0.5 * self.sigma2)
        var = (math.exp(self.sigma2) - 1.0) * math.exp(2.0 * self.mu + self.sigma2)
        return Moments(mean, var)

    def _pdf(self, x):
        sd = math.sqrt(self.sigma2)
        out = np.zeros_like(x)
        pos = x > 0.0
        z = (np.log(x[pos]) - self.mu) / sd
        out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sd * math.sqrt(2.0 * math.pi))
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = sp.ndtr((np.log(x[pos]) - self.mu) / math.sqrt(self.sigma2))
        return out

    def _ppf(self, u):
        return np.exp(self.mu + math.sqrt(self.sigma2) * sp.ndtri(u))

    def _sample(self, stream, count):
        return np.exp(self.mu + math.sqrt(self.sigma2) * stream.normals(count))


@dataclass(frozen=True)
class Gamma(DistributionSpec):
    """Gamma law with inverse-scale (rate) ``alpha`` and shape ``lam``."""

    alpha: float
    lam: float

    def _check(self):
        _require(self.alpha > 0, "Gamma requires rate alpha > 0")
        _require(self.lam > 0, "Gamma requires shape lam > 0")

    def moments(self) -> Moments:
        return Moments(self.lam / self.alpha, self.lam / self.alpha ** 2)

    def _pdf(self, x):
        out = np.zeros_like(x)
        pos = (0.0 < x) & (x < math.inf)
        log_pdf = (
            self.lam * math.log(self.alpha)
            - sp.gammaln(self.lam)
            + (self.lam - 1.0) * np.log(x[pos])
            - self.alpha * x[pos]
        )
        out[pos] = np.exp(log_pdf)
        at_zero = x == 0.0
        if np.any(at_zero):
            if self.lam == 1.0:
                out[at_zero] = self.alpha
            elif self.lam < 1.0:
                out[at_zero] = np.inf
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = sp.gammainc(self.lam, self.alpha * x[pos])
        return out

    def _ppf(self, u):
        return sp.gammaincinv(self.lam, u) / self.alpha

    def _sample(self, stream, count):
        return _standard_gamma(stream, self.lam, count) / self.alpha


@dataclass(frozen=True)
class ChiSquared(DistributionSpec):
    k: int

    def _check(self):
        _require(isinstance(self.k, (int, np.integer)) and self.k >= 1,
                 "ChiSquared requires a positive integer k")

    def _as_gamma(self) -> Gamma:
        return Gamma(alpha=0.5, lam=self.k / 2.0)

    def moments(self) -> Moments:
        return Moments(float(self.k), 2.0 * self.k)

    def _pdf(self, x):
        return self._as_gamma()._pdf(x)

    def _cdf(self, x):
        return self._as_gamma()._cdf(x)

    def _ppf(self, u):
        return self._as_gamma()._ppf(u)

    def sf(self, x):
        """Upper tail ``P(X > x)``, accurate where the cdf rounds to 1."""
        return sp.gammaincc(self.k / 2.0, 0.5 * np.maximum(x, 0.0))

    def _sample(self, stream, count):
        return 2.0 * _standard_gamma(stream, self.k / 2.0, count)


@dataclass(frozen=True)
class StudentT(DistributionSpec):
    k: int

    def _check(self):
        _require(isinstance(self.k, (int, np.integer)) and self.k >= 1,
                 "StudentT requires a positive integer k")

    def moments(self) -> Moments:
        if self.k < 2:
            raise UndefinedMomentError("StudentT mean undefined for k < 2")
        if self.k < 3:
            raise UndefinedMomentError("StudentT variance undefined for k < 3")
        return Moments(0.0, self.k / (self.k - 2.0))

    def _pdf(self, x):
        k = float(self.k)
        log_c = sp.gammaln((k + 1.0) / 2.0) - sp.gammaln(k / 2.0) - 0.5 * math.log(k * math.pi)
        return np.exp(log_c - 0.5 * (k + 1.0) * np.log1p(x * x / k))

    def _cdf(self, x):
        if self.k == 1:  # the Cauchy cdf; stdtr(1, x) loses digits near 0
            return np.arctan2(1.0, -x) / np.pi
        return sp.stdtr(self.k, x)

    def _ppf(self, u):
        return sp.stdtrit(self.k, u)

    def _sample(self, stream, count):
        z = stream.normals(count)
        w = 2.0 * _standard_gamma(stream, self.k / 2.0, count)
        return z / np.sqrt(w / self.k)


@dataclass(frozen=True)
class FisherF(DistributionSpec):
    k1: int
    k2: int

    def _check(self):
        ok = all(isinstance(k, (int, np.integer)) and k >= 1 for k in (self.k1, self.k2))
        _require(ok, "FisherF requires positive integer degrees of freedom")

    def moments(self) -> Moments:
        if self.k2 <= 2:
            raise UndefinedMomentError("FisherF mean undefined for k2 <= 2")
        if self.k2 <= 4:
            raise UndefinedMomentError("FisherF variance undefined for k2 <= 4")
        k1, k2 = float(self.k1), float(self.k2)
        mean = k2 / (k2 - 2.0)
        var = 2.0 * k2 ** 2 * (k1 + k2 - 2.0) / (k1 * (k2 - 2.0) ** 2 * (k2 - 4.0))
        return Moments(mean, var)

    def _pdf(self, x):
        k1, k2 = float(self.k1), float(self.k2)
        out = np.zeros_like(x)
        pos = (0.0 < x) & (x < math.inf)
        log_c = (
            sp.gammaln((k1 + k2) / 2.0) - sp.gammaln(k1 / 2.0) - sp.gammaln(k2 / 2.0)
            + (k1 / 2.0) * math.log(k1 / k2)
        )
        out[pos] = np.exp(
            log_c + (k1 / 2.0 - 1.0) * np.log(x[pos])
            - ((k1 + k2) / 2.0) * np.log1p(k1 * x[pos] / k2)
        )
        return out

    def _cdf(self, x):
        k1, k2 = float(self.k1), float(self.k2)
        out = np.zeros_like(x)
        pos = (0.0 < x) & (x < math.inf)
        ratio = k1 * x[pos]
        out[pos] = sp.betainc(k1 / 2.0, k2 / 2.0, ratio / (ratio + k2))
        out[x == math.inf] = 1.0
        # past the median the betainc argument rounds towards 1 and the
        # upper tail loses its digits; take it from the complement
        upper = out > 0.5
        out[upper] = 1.0 - self.sf(x[upper])
        return out

    def _ppf(self, u):
        return sp.fdtri(self.k1, self.k2, u)

    def sf(self, x):
        """Upper tail ``P(X > x)``, accurate where the cdf rounds to 1."""
        k1, k2 = float(self.k1), float(self.k2)
        return sp.betainc(k2 / 2.0, k1 / 2.0, k2 / (k1 * np.maximum(x, 0.0) + k2))

    def _sample(self, stream, count):
        w1 = 2.0 * _standard_gamma(stream, self.k1 / 2.0, count)
        w2 = 2.0 * _standard_gamma(stream, self.k2 / 2.0, count)
        return (w1 / self.k1) / (w2 / self.k2)


@dataclass(frozen=True)
class Beta(DistributionSpec):
    alpha: float
    beta: float

    def _check(self):
        _require(self.alpha > 0 and self.beta > 0, "Beta requires positive shapes")

    def moments(self) -> Moments:
        a, b = self.alpha, self.beta
        return Moments(a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0)))

    def _pdf(self, x):
        a, b = self.alpha, self.beta
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        log_c = sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)
        out[inside] = np.exp(
            log_c + (a - 1.0) * np.log(x[inside]) + (b - 1.0) * np.log1p(-x[inside])
        )
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        out[x >= 1.0] = 1.0
        inside = (x > 0.0) & (x < 1.0)
        out[inside] = sp.betainc(self.alpha, self.beta, x[inside])
        return out

    def _ppf(self, u):
        a, b = self.alpha, self.beta
        q = sp.betaincinv(a, b, u)
        # Far in the lower tail betaincinv can miss u by a relative 1e-5 and
        # more, it stops at the smallest normal double where the quantile
        # underflows, and for some shapes it gives NaN; there the start is
        # the tail's leading order, u = q^a / (a B(a, b)). One Newton step on
        # betainc mends the first two; it is kept only where the miss exceeds
        # a relative 1e-9 and the step shrinks it, as elsewhere it mostly
        # trades ulps of rounding.
        with np.errstate(all="ignore"):
            q = np.where(np.isnan(q), np.exp((np.log(u) + math.log(a) + sp.betaln(a, b)) / a), q)
            miss = sp.betainc(a, b, q) - u
            stepped = np.clip(q - miss / self._pdf(q), 0.0, 1.0)
            mend = (u < 0.5) & (np.abs(miss) > 1e-9 * u) & (
                np.abs(sp.betainc(a, b, stepped) - u) < np.abs(miss))
        return np.where(mend, stepped, q)

    def _sample(self, stream, count):
        ga = _standard_gamma(stream, self.alpha, count)
        gb = _standard_gamma(stream, self.beta, count)
        return ga / (ga + gb)


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    lam: float

    def _check(self):
        _require(self.lam > 0, "Exponential requires lam > 0")

    def moments(self) -> Moments:
        return Moments(1.0 / self.lam, 1.0 / self.lam ** 2)

    def _pdf(self, x):
        out = np.zeros_like(x)
        on = x >= 0.0
        out[on] = self.lam * np.exp(-self.lam * x[on])
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        on = x >= 0.0
        out[on] = -np.expm1(-self.lam * x[on])
        return out

    def _ppf(self, u):
        return -np.log1p(-u) / self.lam

    def _sample(self, stream, count):
        return -np.log(stream.uniforms_open(count)) / self.lam


@dataclass(frozen=True)
class Uniform01(DistributionSpec):

    def moments(self) -> Moments:
        return Moments(0.5, 1.0 / 12.0)

    def _pdf(self, x):
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    def _cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def _ppf(self, u):
        return u.copy()  # a new array, never the caller's

    def _sample(self, stream, count):
        return stream.uniforms(count)


# -- discrete families -------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli(DistributionSpec):
    p: float
    is_discrete = True

    def _check(self):
        _require(0.0 < self.p < 1.0, "Bernoulli requires p in (0,1)")

    def moments(self) -> Moments:
        return Moments(self.p, self.p * (1.0 - self.p))

    def _pdf(self, x):
        out = np.zeros_like(x)
        out[x == 0.0] = 1.0 - self.p
        out[x == 1.0] = self.p
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        out[x >= 0.0] = 1.0 - self.p
        out[x >= 1.0] = 1.0
        return out

    def _sample(self, stream, count):
        return (stream.uniforms(count) < self.p).astype(float)


@dataclass(frozen=True)
class Binomial(DistributionSpec):
    p: float
    n: int
    is_discrete = True

    def _check(self):
        _require(0.0 < self.p < 1.0, "Binomial requires p in (0,1)")
        _require(isinstance(self.n, (int, np.integer)) and self.n >= 1,
                 "Binomial requires a positive integer n")

    def moments(self) -> Moments:
        return Moments(self.n * self.p, self.n * self.p * (1.0 - self.p))

    def _pdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        on = (x == k) & (k >= 0) & (k <= self.n)
        kk = k[on]
        log_pmf = (
            sp.gammaln(self.n + 1.0) - sp.gammaln(kk + 1.0) - sp.gammaln(self.n - kk + 1.0)
            + kk * math.log(self.p) + (self.n - kk) * math.log1p(-self.p)
        )
        out[on] = np.exp(log_pmf)
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        out[k >= self.n] = 1.0
        mid = (k >= 0) & (k < self.n)
        kk = k[mid]
        out[mid] = sp.betainc(self.n - kk, kk + 1.0, 1.0 - self.p)
        return out

    def _sample(self, stream, count):
        return self._inverted_draws(stream, count, self.n + 1)  # cdf(n) = 1


@dataclass(frozen=True)
class Poisson(DistributionSpec):
    lam: float
    is_discrete = True

    def _check(self):
        _require(self.lam > 0, "Poisson requires lam > 0")

    def moments(self) -> Moments:
        return Moments(self.lam, self.lam)

    def _pdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        on = (x == k) & (0 <= k) & (k < math.inf)
        kk = k[on]
        out[on] = np.exp(kk * math.log(self.lam) - self.lam - sp.gammaln(kk + 1.0))
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        on = k >= 0
        out[on] = sp.gammaincc(k[on] + 1.0, self.lam)
        return out

    def _sample(self, stream, count):
        if self.lam > 30.0:
            return _poisson_ptrs(stream, self.lam, count)
        # the tail past the cap is cut off: P(X > lam + 40*sqrt(lam)) is
        # negligible against the 2**-53 resolution of the uniforms
        cap = int(self.lam + 40.0 * math.sqrt(self.lam) + 50.0)
        return self._inverted_draws(stream, count, cap)


@dataclass(frozen=True)
class Geometric(DistributionSpec):
    """Number of Bernoulli trials up to and including the first success."""

    p: float
    is_discrete = True
    _support_min = 1

    def _check(self):
        _require(0.0 < self.p < 1.0, "Geometric requires p in (0,1)")

    def moments(self) -> Moments:
        return Moments(1.0 / self.p, (1.0 - self.p) / self.p ** 2)

    def _pdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        on = (x == k) & (k >= 1)
        out[on] = np.exp((k[on] - 1.0) * math.log1p(-self.p)) * self.p
        return out

    def _cdf(self, x):
        out = np.zeros_like(x)
        k = np.floor(x)
        on = k >= 1
        out[on] = -np.expm1(k[on] * math.log1p(-self.p))
        return out

    def _sample(self, stream, count):
        u = stream.uniforms_open(count)
        draws = np.ceil(np.log(u) / math.log1p(-self.p))
        return np.maximum(draws, 1.0)


# -- samplers shared between families ----------------------------------------


def _rejection(count: int, attempt: Callable[[int], tuple]) -> np.ndarray:
    """``count`` accepted candidates: ``attempt(size)`` draws ``size``
    candidates and returns them with their acceptance flags, and the items
    still pending draw afresh until each has accepted one."""
    out = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        values, ok = attempt(pending.size)
        out[pending[ok]] = values[ok]
        pending = pending[~ok]
    return out


def _standard_gamma(stream: RandomStream, shape: float, count: int) -> np.ndarray:
    """Unit-rate gamma draws; Marsaglia-Tsang squeeze for any shape."""
    if count == 0:
        return np.empty(0)
    if shape < 1.0:
        boost = stream.uniforms_open(count) ** (1.0 / shape)
        return _standard_gamma(stream, shape + 1.0, count) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def attempt(size):
        z = stream.normals(size)
        u = stream.uniforms_open(size)
        v = (1.0 + c * z) ** 3
        w = np.where(v > 0, v, 1.0)
        ok = (z > -1.0 / c) & (np.log(u) < 0.5 * z * z + d - d * w + d * np.log(w))
        return v, ok

    out = _rejection(count, attempt)
    out *= d  # only the accepted candidates are scaled
    return out


def _poisson_ptrs(stream: RandomStream, lam: float, count: int) -> np.ndarray:
    """Hormann's transformed rejection with squeeze, valid for lam >= 10."""
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    def attempt(size):
        u = stream.uniforms(size) - 0.5
        v = stream.uniforms_open(size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + lam + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        maybe = ~accept & (k >= 0) & ((us >= 0.013) | (v <= us))
        if np.any(maybe):
            km = k[maybe]
            lhs = np.log(v[maybe] * inv_alpha / (a / (us[maybe] ** 2) + b))
            rhs = -lam + km * log_lam - sp.gammaln(km + 1.0)
            accept[np.flatnonzero(maybe)[lhs <= rhs]] = True
        return k, accept & (k >= 0)

    return _rejection(count, attempt)


# -- module-level operations --------------------------------------------------


def dist_moments(spec: DistributionSpec) -> Moments:
    """Closed-form mean and variance; raises if a moment does not exist."""
    return spec.moments()


def dist_pdf(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Density (probability mass for discrete tags), 0 outside the support."""
    arr, scalar = _as_array(x)
    return _maybe_scalar(spec._pdf(arr), scalar)


def dist_cdf(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    arr, scalar = _as_array(x)
    return _maybe_scalar(spec._cdf(arr), scalar)


def dist_quantile(spec: DistributionSpec, u) -> Union[float, np.ndarray]:
    """Inverse cdf at probability ``u`` in (0,1), from the ``scipy.special``
    inverse of each continuous family.

    For discrete tags this is the smallest support point with cdf >= u. A
    quantile past the float range raises :class:`DomainError`.
    """
    arr, scalar = _as_array(u)
    if not np.all((0.0 < arr) & (arr < 1.0)):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    if spec.is_discrete:
        return _maybe_scalar(spec._discrete_quantile(arr), scalar)
    with np.errstate(over="ignore"):
        values = spec._ppf(arr)
    _require(np.all(np.isfinite(values)), "quantile lies past the float range")
    return _maybe_scalar(values, scalar)


def dist_sample(spec: DistributionSpec, stream: RandomStream, count: int) -> np.ndarray:
    if count < 0:
        raise DomainError("sample count must be nonnegative")
    return spec._sample(stream, count)
