"""Shared test helpers.

The KS and quadrature helpers here are deliberately independent of the
package code they are used to check.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import settings
from hypothesis import strategies as st
from numpy._core import _multiarray_umath

from statforge import distributions as d
from statforge.rng import _OPENBLAS, RandomStream

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


def pytest_report_header(config):
    """The builds that report bits depend on: the digest pins of
    ``test_cli`` hold only for numpy's AVX512 kernels and OpenBLAS's
    SkylakeX ones, so a pin failure elsewhere shows its cause here."""
    features = _multiarray_umath.__cpu_features__
    simd = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    lines = [f"numpy {np.__version__}, scipy {scipy.__version__}",
             f"numpy SIMD dispatch: {' '.join(simd)}"]
    # found as rng._one_blas_thread finds its setters; a missing one is skipped
    for package, pattern, setter in _OPENBLAS:
        for path in Path(package.__file__).parents[1].glob(pattern):
            try:
                corename = getattr(ctypes.CDLL(str(path)),
                                   setter.replace("set_num_threads", "get_corename"))
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            lines.append(f"{package.__name__}'s OpenBLAS core: {corename().decode()}")
    return lines
