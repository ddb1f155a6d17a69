"""Brownian paths, stochastic integrals, geometric Brownian motion,
path-integral Monte Carlo, option pricing, and the dimension-free
concentration experiment for Lipschitz functionals of Gaussian vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy import special as sp

from .distributions import ChiSquared, _Parameters, dist_sample
from .errors import DomainError
from .estimation import MCEstimate, _chunked_mean
from .results import _sample
from .rng import RandomStream, replicate_chunks

__all__ = [
    "TimeGrid", "uniform_grid", "BrownianPath", "brownian_sample",
    "quadratic_variation", "ito_integral", "GBMPath", "gbm_sample",
    "MCEstimate", "feynman_kac_mc", "BSParams", "BSPrice",
    "black_scholes_price", "bs_mc_price", "bs_pde_residual",
    "GaussianConcentrationResult", "gaussian_concentration_experiment",
]


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("grid needs at least two time points")
        if not np.all(np.isfinite(t)):
            raise DomainError("grid times must be finite")
        if t[0] != 0.0:
            raise DomainError("grid must start at time 0")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("grid times must increase strictly")
        object.__setattr__(self, "times", t)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.times)

    @cached_property
    def root_increments(self) -> np.ndarray:
        """Square roots of the step lengths, computed once per grid."""
        roots = np.sqrt(self.increments)
        roots.flags.writeable = False
        return roots

    @property
    def mesh(self) -> float:
        return float(self.increments.max())

    @property
    def is_uniform(self) -> bool:
        inc = self.increments
        return bool(np.allclose(inc, inc[0], rtol=1e-12, atol=0.0))


def uniform_grid(horizon: float, n_steps: int) -> TimeGrid:
    if not 0 < horizon < math.inf or n_steps < 1:
        raise DomainError("need a finite horizon > 0 and at least one step")
    return TimeGrid(np.linspace(0.0, horizon, n_steps + 1))


@dataclass(frozen=True)
class BrownianPath:
    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, dim), first row zero

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.times.size or v.shape[1] < 1:
            raise DomainError("one value row per grid time, of at least one coordinate, required")
        if np.any(v[0] != 0.0):
            raise DomainError("paths start at the origin")
        object.__setattr__(self, "values", v)


def brownian_sample(grid: TimeGrid, dim: int, stream: RandomStream) -> BrownianPath:
    """Independent centered normal increments with variance equal to the
    step length, accumulated from the origin."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    k = grid.n_steps
    increments = stream.normals(k * dim).reshape(k, dim)
    increments *= grid.root_increments[:, None]
    values = np.empty((k + 1, dim))
    values[0] = 0.0
    np.cumsum(increments, axis=0, out=values[1:])
    return BrownianPath(grid=grid, values=values)


def quadratic_variation(path: BrownianPath) -> float:
    """Sum of squared increments of the path's first coordinate along the grid."""
    steps = np.diff(path.values[:, 0])
    return float((steps ** 2).sum())


def ito_integral(integrand, path: BrownianPath) -> float:
    """Left-endpoint stochastic integral of an adapted integrand against the
    path's first coordinate.

    ``integrand`` holds one value per increment, evaluated at the left grid
    point; adaptedness (value j computed from path history up to j) is the
    caller's contract.
    """
    f = _sample(integrand, what="integrand")
    if f.shape != (path.grid.n_steps,):
        raise DomainError("integrand needs one value per increment")
    steps = np.diff(path.values[:, 0])
    # a numpy reduction, not a BLAS dot, whose rounding follows the thread count
    return float((f * steps).sum())


@dataclass(frozen=True)
class GBMPath:
    grid: TimeGrid
    values: np.ndarray
    method: str
    nonpositive: bool  # Euler paths may cross zero; exact paths never do


def gbm_sample(mu: float, sigma: float, s0: float, grid: TimeGrid,
               stream: RandomStream, method: str = "exact") -> GBMPath:
    """Geometric Brownian motion along the grid.

    ``exact`` exponentiates a Brownian path of the drift-corrected
    exponent; ``euler`` applies the first-order scheme and flags any
    nonpositive value it produces.
    """
    if not s0 > 0:
        raise DomainError("initial value must be positive")
    if not math.isfinite(mu):
        raise DomainError("drift mu must be finite")
    if not sigma >= 0:
        raise DomainError("volatility must be nonnegative")
    if method not in ("exact", "euler"):
        raise DomainError(f"unknown method {method!r}")
    base = brownian_sample(grid, 1, stream).values[:, 0]
    if method == "exact":
        values = s0 * np.exp((mu - 0.5 * sigma * sigma) * grid.times + sigma * base)
        return GBMPath(grid=grid, values=values, method=method, nonpositive=False)
    steps = np.diff(base)
    values = np.empty(grid.times.size)
    values[0] = s0
    factors = 1.0 + mu * grid.increments + sigma * steps
    values[1:] = s0 * np.cumprod(factors)
    return GBMPath(grid=grid, values=values, method=method,
                   nonpositive=bool(np.any(values <= 0.0)))


# -- path-integral Monte Carlo ----------------------------------------------------


def feynman_kac_mc(potential: Callable, payoff: Callable, t: float, x0,
                   dim: int, n_paths: int, steps: int,
                   stream: RandomStream, workers: int = 1) -> MCEstimate:
    """Average of ``exp(-time integral of potential) * payoff(endpoint)``
    over Brownian paths started at ``x0``.

    The time integral uses the left-endpoint rule on the simulation grid,
    matching the adapted convention of the stochastic integral; its
    discretization bias is O(mesh). Paths come in the chunks of
    :func:`statforge.rng.replicate_chunks` at ``width`` steps * dim, so the
    estimate is the same for any number of ``workers``; with more than one,
    ``potential`` and ``payoff`` must pickle (module-level functions, not lambdas).
    """
    if steps < 1:
        raise DomainError("need at least one step")
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    if n_paths < 1:
        raise DomainError("need at least one path")
    if not t > 0:
        raise DomainError("time horizon must be positive")
    x0 = np.broadcast_to(_sample(x0, what="x0"), (dim,))
    sample = partial(_feynman_kac_values, potential, payoff, t, x0, dim, steps)
    return _chunked_mean(sample, n_paths, stream, workers, width=steps * dim)


def _feynman_kac_values(potential, payoff, t, x0, dim, steps, stream, take):
    dt = t / steps
    paths = stream.normals(take * steps * dim).reshape(take, steps, dim)
    paths *= math.sqrt(dt)
    np.cumsum(paths, axis=1, out=paths)
    paths += x0
    # left endpoints: x0, then all but the final point
    integral = np.asarray(potential(np.broadcast_to(x0, (take, dim))), dtype=float).copy()
    for j in range(steps - 1):
        integral += np.asarray(potential(paths[:, j, :]), dtype=float)
    integral *= dt
    return np.exp(-integral) * np.asarray(payoff(paths[:, -1, :]), dtype=float)


# -- option pricing -----------------------------------------------------------------


@dataclass(frozen=True)
class BSParams(_Parameters):
    """European call inputs. ``strike`` may be zero (the payoff degenerates
    to the asset itself) and ``volatility`` may be zero (deterministic
    growth); both limits are priced in closed form."""

    spot: float
    strike: float
    rate: float
    volatility: float
    maturity: float
    valuation_time: float = 0.0

    def _check(self):
        if self.spot <= 0:
            raise DomainError("spot must be positive")
        if self.strike < 0:
            raise DomainError("strike must be nonnegative")
        if self.rate < 0:
            raise DomainError("rate must be nonnegative")
        if self.volatility < 0:
            raise DomainError("volatility must be nonnegative")
        if self.maturity <= 0:
            raise DomainError("maturity must be positive")
        if not 0.0 <= self.valuation_time < self.maturity:
            raise DomainError("valuation time must lie in [0, maturity)")

    @property
    def time_left(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class BSPrice:
    price: float
    delta: float
    bond_position: float


def black_scholes_price(params: BSParams) -> BSPrice:
    """Closed-form call value with its replicating portfolio.

    ``delta`` is the stock holding; ``bond_position`` counts unit bonds
    (value 1 at time zero growing at the risk-free rate), so the portfolio
    identity reads ``price = delta * spot + bond_position * exp(r t)``.
    """
    s, k, r = params.spot, params.strike, params.rate
    tau = params.time_left
    sigma = params.volatility
    if k == 0.0:
        price, delta = s, 1.0
    elif sigma == 0.0:
        forward = s * math.exp(r * tau)
        if forward > k:
            price = s - k * math.exp(-r * tau)
            delta = 1.0
        else:
            price = 0.0
            delta = 0.0
    else:
        root_tau = math.sqrt(tau)
        g = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / (sigma * root_tau)
        h = g - sigma * root_tau
        delta = float(sp.ndtr(g))
        price = s * delta - k * math.exp(-r * tau) * float(sp.ndtr(h))
    bond_value = price - delta * s
    bond_position = bond_value * math.exp(-r * params.valuation_time)
    return BSPrice(price=price, delta=delta, bond_position=bond_position)


def bs_mc_price(params: BSParams, n_paths: int, stream: RandomStream,
                workers: int = 1) -> MCEstimate:
    """Discounted expected payoff under growth at the risk-free rate,
    sampling the terminal asset value exactly (one lognormal draw per
    path); paths come in the chunks of :func:`statforge.rng.replicate_chunks`
    at ``width`` 1."""
    if n_paths < 2:
        raise DomainError("need at least two paths")
    tau = params.time_left
    if not math.isfinite(params.volatility * params.volatility * tau):
        raise DomainError("volatility ** 2 times the time left must be finite")
    drift = (params.rate - 0.5 * params.volatility ** 2) * tau
    spread = params.volatility * math.sqrt(tau)
    discount = math.exp(-params.rate * tau)
    if spread == 0.0:
        payoff = discount * max(params.spot * math.exp(drift) - params.strike, 0.0)
        return MCEstimate(estimate=payoff, standard_error=0.0, n_paths=n_paths)
    sample = partial(_call_values, params.spot, params.strike, drift, spread, discount)
    return _chunked_mean(sample, n_paths, stream, workers)


def _call_values(spot, strike, drift, spread, discount, stream, take):
    terminal = spot * np.exp(drift + spread * stream.normals(take))
    return discount * np.maximum(terminal - strike, 0.0)


def bs_pde_residual(params: BSParams) -> float:
    """Finite-difference residual of the pricing equation at the valuation
    point: time derivative plus diffusion and drift terms minus discounting,
    with difference step 1e-4."""
    s, r, sigma = params.spot, params.rate, params.volatility
    t = params.valuation_time
    step = 1e-4

    def u(tt, xx):
        return black_scholes_price(
            BSParams(spot=xx, strike=params.strike, rate=r, volatility=sigma,
                     maturity=params.maturity, valuation_time=tt)).price

    u0 = u(t, s)
    du_dt = (u(t + step, s) - u(t - step, s)) / (2.0 * step) if t >= step else \
        (u(t + step, s) - u0) / step
    du_dx = (u(t, s + step) - u(t, s - step)) / (2.0 * step)
    d2u_dx2 = (u(t, s + step) - 2.0 * u0 + u(t, s - step)) / (step * step)
    return du_dt + 0.5 * sigma * sigma * s * s * d2u_dx2 + r * s * du_dx - r * u0


# -- Gaussian concentration ------------------------------------------------------------


# Lipschitz constant of each functional of x in R^k
_LIPSCHITZ = {"coordinate": 1.0, "max": 1.0, "norm": 1.0, "constant": 0.0}

# Most numbers one value's draw holds at once, the sampler's temporaries
# included (measured with tracemalloc): 9.1 for the chi-squared draw of
# ``norm`` (Marsaglia-Tsang), 3 for ``max``, 1.2 for ``coordinate``.
_DRAW_WIDTH = 10


def _functional_values(func_tag: str, k: int, stream: RandomStream, take: int) -> np.ndarray:
    """``take`` values of the functional at X ~ N(0, I_k), each drawn from
    its law, not from k normals."""
    if func_tag == "coordinate":
        return stream.normals(take)
    if func_tag == "norm":
        # ||X||^2 is chi-squared with k degrees of freedom
        return np.sqrt(dist_sample(ChiSquared(k), stream, take))
    if func_tag == "max":
        # max_i x_i has cdf Phi(x)^k, so it is Phi^{-1}(U^{1/k}) = -Phi^{-1}(1 - U^{1/k})
        # for U uniform on (0, 1]; the upper tail 1 - U^{1/k} = -expm1(log(U) / k)
        # keeps its digits where U^{1/k} rounds to 1. U = 1 is taken at its
        # cell's midpoint 1 - 2**-54, whose log is -2**-54, so the draw stays finite.
        log_u = np.minimum(sp.xlogy(1.0, stream.uniforms_open(take)), -2.0 ** -54)
        return -sp.ndtri(-sp.expm1(log_u / k))
    return np.zeros(take)


@dataclass(frozen=True)
class GaussianConcentrationResult:
    empirical: np.ndarray
    standard_error: np.ndarray
    bound: np.ndarray
    center: float
    center_standard_error: float


def gaussian_concentration_experiment(func_tag: str, k: int, n_samples: int,
                                      tau_grid, stream: RandomStream, workers: int = 1
                                      ) -> GaussianConcentrationResult:
    """Tail frequency of a Lipschitz functional of a standard normal vector
    against the dimension-free bound ``2 exp(-tau^2 / (2 L^2))``.

    Each value of the functional is drawn from its law, not from k normals:
    ``coordinate`` is one normal, ``norm`` the square root of a chi-squared
    draw with k degrees of freedom, ``max`` the inverse of its cdf
    ``Phi(x)^k`` at a uniform, and ``constant`` zero. Values come in the
    chunks of :func:`statforge.rng.replicate_chunks` at ``width`` 10. Centering
    uses the empirical mean of the values, whose standard error is
    ``center_standard_error`` (NaN for one value); the ``norm`` centre has
    the exact value ``sqrt(2) Gamma((k + 1) / 2) / Gamma(k / 2)`` to compare
    it with. The tail results follow the order of ``tau_grid``.
    """
    if func_tag not in _LIPSCHITZ:
        raise DomainError(f"unknown functional {func_tag!r}")
    if k < 1 or n_samples < 1:
        raise DomainError("need k >= 1 and n_samples >= 1")
    lipschitz = _LIPSCHITZ[func_tag]
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.isnan(tau_grid).any():  # an infinite tau is taken at its limit
        raise DomainError("tau_grid must not hold NaN")
    values = replicate_chunks(partial(_functional_values, func_tag, k), n_samples, stream,
                              workers, width=_DRAW_WIDTH)
    center = float(values.mean())
    center_se = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.nan
    deviations = np.sort(np.abs(values - center))
    counts = n_samples - np.searchsorted(deviations, tau_grid, side="right")
    empirical = counts / n_samples
    se = np.sqrt(empirical * (1.0 - empirical) / n_samples)
    if lipschitz > 0.0:
        bound = 2.0 * np.exp(-tau_grid ** 2 / (2.0 * lipschitz ** 2))
    else:
        bound = np.where(tau_grid > 0.0, 0.0, 2.0)
    return GaussianConcentrationResult(empirical=empirical, standard_error=se, bound=bound,
                                       center=center, center_standard_error=center_se)

