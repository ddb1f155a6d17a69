"""Shared test helpers.

The KS and quadrature helpers here are deliberately independent of the
package code they are used to check.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from statforge import distributions as d
from statforge.rng import RandomStream

# Every distribution family, keyed by its ``dist`` tag name, over a broad
# range of its parameters. Gamma and beta shapes
# start at 0.1, since below that the lowest quantiles underflow the doubles
# (beta shape 1/32 puts the 1e-12 quantile near 1e-384)
FAMILIES = {
    "normal": st.builds(d.Normal, st.floats(-100.0, 100.0), st.floats(1e-3, 1e3)),
    "lognormal": st.builds(d.LogNormal, st.floats(-3.0, 3.0), st.floats(1e-2, 4.0)),
    "gamma": st.builds(d.Gamma, st.floats(1e-2, 100.0), st.floats(0.1, 50.0)),
    "chisquared": st.builds(d.ChiSquared, st.integers(1, 200)),
    "studentt": st.builds(d.StudentT, st.integers(1, 200)),
    "fisherf": st.builds(d.FisherF, st.integers(1, 100), st.integers(1, 100)),
    "beta": st.builds(d.Beta, st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
    "exponential": st.builds(d.Exponential, st.floats(1e-2, 100.0)),
    "uniform01": st.just(d.Uniform01()),
    "bernoulli": st.builds(d.Bernoulli, st.floats(1e-3, 0.999)),
    "binomial": st.builds(d.Binomial, st.floats(0.01, 0.99), st.integers(1, 200)),
    "poisson": st.builds(d.Poisson, st.floats(1e-2, 200.0)),
    "geometric": st.builds(d.Geometric, st.floats(0.01, 0.99)),
}

# property tests draw the same examples on every run
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def ks_distance(sample, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against ``cdf``."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def trapezoid_mass(pdf, lo, hi, n=200_001):
    """Trapezoid-rule integral of a density over [lo, hi]."""
    grid = np.linspace(lo, hi, n)
    return float(np.trapezoid(pdf(grid), grid))


@pytest.fixture
def stream():
    return RandomStream(20260810)
