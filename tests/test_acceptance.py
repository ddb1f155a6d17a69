"""Full-scale acceptance battery.

Every test pins one numbered claim at its stated tolerance and prints a
single pass/fail line (visible under ``pytest -s`` or on failure). Seeds
are fixed; each criterion is a deterministic function of its seed.
"""

import math

import numpy as np
import pytest

from statforge import concentration as con
from statforge import distributions as d
from statforge import experiments as xp
from statforge import stochastic as sto
from statforge.rng import RandomStream

SEED = 20260810

_REPORTER = None


@pytest.fixture(autouse=True, scope="module")
def _grab_terminal(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _line(tag, passed, detail):
    text = f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} ({detail})"
    if _REPORTER is not None:
        # pytest's own writer stays attached to the terminal under capture
        _REPORTER.ensure_newline()
        _REPORTER.write_line(text)
    else:
        print(text)
    assert passed, f"{tag}: {detail}"


def _run(tag_name, seed=SEED, **params):
    env = xp.run_experiment(xp.ExperimentConfig(
        experiment=tag_name, seed=seed, params=params))
    detail = "; ".join(
        f"{m.name}={m.value:.6g}" + (f" (target {m.target:.6g})" if m.target is not None else "")
        for m in env.metrics)
    return env, detail


def test_c01_variance_family_mse():
    env, detail = _run("mse-variance")  # n=10, 2e5 replicates, 2% relative
    _line("01 variance-family mse", env.passed, detail)


def test_c02_t_interval_coverage():
    env, detail = _run("ci-coverage")  # n=5, delta=0.05, 1e5 replicates
    coverage = env.metrics[0].value
    ok = 0.94 <= coverage <= 0.96
    _line("02 t-interval coverage", ok, f"coverage={coverage:.4f} in [0.94, 0.96]")


def test_c03_cramer_rao_attainment():
    p, n, reps = 0.3, 50, 100_000
    root = RandomStream(SEED)
    means = np.empty(reps)
    chunk = 2000
    spec = d.Bernoulli(p)
    for start in range(0, reps, chunk):
        sub = root.split(start)
        x = d.dist_sample(spec, sub, chunk * n).reshape(chunk, n)
        means[start:start + chunk] = x.mean(axis=1)
    bound = p * (1 - p) / n
    centered_sq = (means - means.mean()) ** 2
    se = centered_sq.std(ddof=1) / math.sqrt(reps)
    gap = abs(means.var(ddof=1) - bound)
    _line("03 Cramer-Rao attainment", gap <= 3.0 * se,
          f"|var - bound| = {gap:.3e} <= 3se = {3 * se:.3e}")


def test_c04_gamma_mle_asymptotics():
    env, detail = _run("mle")  # 500 replicates of n=5000 from the (3, 2) law
    _line("04 gamma mle normality", env.passed, detail)


def test_c05_james_stein_risk():
    env, detail = _run("james-stein")  # p=10, 1e5 replicates, band [1.95, 2.05]
    _line("05 james-stein risk", env.passed, detail)


def test_c06_jl_success_rate():
    env, detail = _run("jl")  # n=50 in R^1000, eps=.25, delta=.05, 200 trials
    _line("06 jl success rate", env.passed, detail)


def test_c07_er_connectivity_threshold():
    env, detail = _run("er")  # N=2000, 200 graphs per regime
    _line("07 er connectivity", env.passed, detail)


def test_c08_tail_bound_domination():
    root = RandomStream(SEED)
    n = 1_000_000
    # standard normal against the sub-Gaussian bound
    grid = np.linspace(0.2, 4.0, 20)
    res = con.empirical_tail(d.Normal(0.0, 1.0), 0.0, grid, n, root.split(1))
    ok_normal = all(
        freq <= con.tail_bound(con.SubGaussian(1.0), t).clamped + 3.0 * se
        for freq, se, t in zip(res.frequency, res.standard_error, grid))
    # chi-squared relative deviation against its two-branch bound
    k = 8
    tau = np.linspace(0.1, 2.0, 20)
    res2 = con.empirical_tail(d.ChiSquared(k), float(k), k * tau, n, root.split(2))
    ok_chi = all(
        freq <= con.tail_bound(con.ChiSquaredRelative(k), t).clamped + 3.0 * se
        for freq, se, t in zip(res2.frequency, res2.standard_error, tau))
    _line("08 tail-bound domination", ok_normal and ok_chi,
          f"normal ok={ok_normal}, chi-squared ok={ok_chi}")


def test_c09_ols_suite():
    env, detail = _run("regression")  # 1e4 replicates, n=50, 3 slopes
    _line("09 ols suite", env.passed, detail)


def test_c10_lasso_bound():
    env, detail = _run("lasso-bound")  # p=200 > n=100, s=3, t=2
    _line("10 lasso bound", env.passed, detail)


def test_c11_glm_logistic():
    env, detail = _run("glm")  # n=2000, 3 slopes, 5e3 replicates
    _line("11 glm logistic", env.passed, detail)


def test_c12_wilks():
    env, detail = _run("wilks")
    _line("12 wilks asymptotics", env.passed, detail)


def test_c13_quadratic_variation_and_ito_identity():
    env_b, detail_b = _run("brownian")   # k=1e5, 100 paths, gap <= 0.02
    env_i, detail_i = _run("ito")        # same scale for the integral identity
    _line("13 qv and ito identity", env_b.passed and env_i.passed,
          f"{detail_b}; {detail_i}")


def test_c14_ito_isometry_martingale():
    steps, n_paths = 512, 100_000
    grid = sto.uniform_grid(1.0, steps)
    dt = 1.0 / steps
    root = RandomStream(SEED)
    integrals = np.empty(n_paths)
    done = 0
    chunk_index = 0
    while done < n_paths:
        take = min(8192, n_paths - done)
        values = sto.brownian_sample(grid, take, root.split(chunk_index)).values
        integrals[done:done + take] = (values[:-1] * np.diff(values, axis=0)).sum(axis=0)
        done += take
        chunk_index += 1
    se_mean = integrals.std(ddof=1) / math.sqrt(n_paths)
    mean_ok = abs(integrals.mean()) <= 4.0 * se_mean
    second = integrals ** 2
    se_second = second.std(ddof=1) / math.sqrt(n_paths)
    # left-endpoint second moment at this resolution: (1 - 1/steps) / 2
    second_ok = abs(second.mean() - 0.5) <= 4.0 * se_second + 0.5 * dt
    _line("14 ito isometry/martingale", mean_ok and second_ok,
          f"mean={integrals.mean():.5f} (4se={4 * se_mean:.5f}), "
          f"second={second.mean():.5f} vs 0.5 (4se={4 * se_second:.5f})")


def test_c15_feynman_kac():
    env, detail = _run("feynman-kac")  # 1e6 paths x 100 steps
    _line("15 feynman-kac", env.passed, detail)


def test_c16_black_scholes():
    env, detail = _run("bs-price")  # closed form vs 1e6-path draw + pde grid
    params = sto.BSParams(spot=100.0, strike=100.0, rate=0.05, volatility=0.2,
                          maturity=1.0)
    closed = sto.black_scholes_price(params).price
    oracle = sto.bs_mc_price(params, 10_000_000, RandomStream(SEED + 16))
    oracle_ok = abs(closed - oracle.estimate) <= 3.0 * oracle.standard_error
    _line("16 black-scholes", env.passed and oracle_ok,
          f"{detail}; closed={closed:.4f} vs 1e7-path {oracle.estimate:.4f} "
          f"(3se={3 * oracle.standard_error:.4f})")


def test_c17_gaussian_concentration():
    env, detail = _run("gauss-conc")  # k=100, norm functional, 1e6 draws
    _line("17 gaussian concentration", env.passed, detail)


def test_c18_law_of_rare_events():
    lam, n = 4.0, 10_000
    ks = np.arange(0.0, 400.0)
    p = d.dist_pdf(d.Binomial(lam / n, n), ks)
    q = d.dist_pdf(d.Poisson(lam), ks)
    enumerated = min(p.sum(), q.sum())
    tv = 0.5 * float(np.abs(p - q).sum())
    ok = enumerated >= 1.0 - 1e-9 and tv <= 0.01
    _line("18 law of rare events", ok, f"tv={tv:.5f} <= 0.01")
