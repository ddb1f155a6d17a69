"""Brownian paths, stochastic integrals, pricing, concentration."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from statforge import distributions as d
from statforge import rng
from statforge import stochastic as sto
from statforge.estimation import monte_carlo_mean
from statforge.errors import DomainError
from statforge.rng import RandomStream


def _paths_matrix(grid, n_paths, stream):
    """Many independent scalar paths as the coordinates of one vector path."""
    return sto.brownian_sample(grid, n_paths, stream).values


class TestGrids:
    def test_uniform_grid(self):
        grid = sto.uniform_grid(2.0, 4)
        assert grid.horizon == 2.0
        assert grid.is_uniform
        assert grid.mesh == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            sto.TimeGrid(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            sto.TimeGrid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(DomainError):
            sto.uniform_grid(0.0, 3)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf],
                                       [0.0, 0.5, math.nan], [math.nan, 1.0]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(DomainError):
            sto.TimeGrid(np.array(times))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(DomainError):
            sto.uniform_grid(horizon, 4)

    def test_root_increments_are_computed_once(self):
        grid = sto.TimeGrid(np.array([0.0, 0.25, 1.0, 3.0]))
        assert np.array_equal(grid.root_increments, np.sqrt(np.diff(grid.times)))
        assert grid.root_increments is grid.root_increments
        assert not grid.root_increments.flags.writeable


class TestBrownianSampling:
    def test_starts_at_origin(self, stream):
        path = sto.brownian_sample(sto.uniform_grid(1.0, 16), 3, stream)
        assert np.all(path.values[0] == 0.0)

    def test_path_without_coordinates_rejected(self):
        grid = sto.uniform_grid(1.0, 4)
        with pytest.raises(DomainError, match="of at least one coordinate"):
            sto.BrownianPath(grid, np.zeros((5, 0)))

    def test_terminal_variance(self, stream):
        n = 100_000
        values = _paths_matrix(sto.uniform_grid(1.0, 4), n, stream)
        terminal = values[-1]
        tol = 4.0 * math.sqrt(2.0) / math.sqrt(n)
        assert terminal.var() == pytest.approx(1.0, abs=tol)

    def test_covariance_is_earlier_time(self, stream):
        n = 100_000
        grid = sto.TimeGrid(np.array([0.0, 0.3, 0.7, 1.0]))
        values = _paths_matrix(grid, n, stream)
        b_s, b_t = values[1], values[3]
        cov = np.mean(b_s * b_t)
        # var(b_s b_t) with s < t: s*t + 2 s^2, so the rough spread suffices
        se = math.sqrt((0.3 * 1.0 + 2 * 0.09) / n)
        assert cov == pytest.approx(0.3, abs=4.0 * se)

    def test_disjoint_increments_uncorrelated(self, stream):
        n = 100_000
        grid = sto.TimeGrid(np.array([0.0, 0.5, 1.0]))
        values = _paths_matrix(grid, n, stream)
        first = values[1] - values[0]
        second = values[2] - values[1]
        corr = np.corrcoef(first, second)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)

    def test_reproducible(self):
        grid = sto.uniform_grid(1.0, 8)
        a = sto.brownian_sample(grid, 2, RandomStream(5, 9)).values
        b = sto.brownian_sample(grid, 2, RandomStream(5, 9)).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim,grid", [
        (1, sto.uniform_grid(1.0, 100_000)),
        (3, sto.TimeGrid(np.array([0.0, 0.1, 0.25, 0.7, 1.3, 2.0]))),
        (100_000, sto.uniform_grid(1.0, 2)),
    ])
    def test_equals_stacked_cumsum_bitwise(self, dim, grid):
        path = sto.brownian_sample(grid, dim, RandomStream(12, 1))
        stream = RandomStream(12, 1)
        z = stream.normals(grid.n_steps * dim).reshape(grid.n_steps, dim)
        increments = z * np.sqrt(np.diff(grid.times))[:, None]
        expected = np.vstack([np.zeros((1, dim)), np.cumsum(increments, axis=0)])
        assert path.values.tobytes() == expected.tobytes()


class TestQuadraticVariation:
    def test_deterministic_path(self):
        grid = sto.uniform_grid(1.0, 10)
        path = sto.BrownianPath(grid, grid.times[:, None].copy())
        assert sto.quadratic_variation(path) == pytest.approx((0.1 ** 2) * 10)

    def test_brownian_value(self, stream):
        path = sto.brownian_sample(sto.uniform_grid(1.0, 100_000), 1, stream)
        assert abs(sto.quadratic_variation(path) - 1.0) <= 0.05

    def test_refinement_tightens(self, stream):
        n_paths = 1000
        coarse = np.diff(_paths_matrix(sto.uniform_grid(1.0, 64), n_paths, stream), axis=0)
        fine = np.diff(_paths_matrix(sto.uniform_grid(1.0, 128), n_paths, stream), axis=0)
        gap_coarse = np.abs((coarse ** 2).sum(axis=0) - 1.0).mean()
        gap_fine = np.abs((fine ** 2).sum(axis=0) - 1.0).mean()
        assert gap_fine < gap_coarse


class TestItoIntegral:
    def test_constant_integrand_telescopes(self, stream):
        path = sto.brownian_sample(sto.uniform_grid(1.0, 50), 1, stream)
        value = sto.ito_integral(np.full(50, 2.5), path)
        assert value == pytest.approx(2.5 * path.values[-1, 0], rel=1e-12)

    def test_integral_of_path_itself(self, stream):
        path = sto.brownian_sample(sto.uniform_grid(1.0, 100_000), 1, stream)
        b = path.values[:, 0]
        value = sto.ito_integral(b[:-1], path)
        assert abs(value - (0.5 * b[-1] ** 2 - 0.5)) <= 0.05

    def test_martingale_and_isometry(self, stream):
        # identical expectations hold exactly at any grid resolution
        steps, n_paths = 512, 100_000
        grid = sto.uniform_grid(1.0, steps)
        dt = 1.0 / steps
        integrals = np.empty(n_paths)
        paired_gap = np.empty(n_paths)
        done = 0
        while done < n_paths:
            take = min(8192, n_paths - done)
            values = _paths_matrix(grid, take, stream)
            left = values[:-1]
            increments = np.diff(values, axis=0)
            ito = (left * increments).sum(axis=0)
            time_integral = (left ** 2).sum(axis=0) * dt
            integrals[done:done + take] = ito
            paired_gap[done:done + take] = ito ** 2 - time_integral
            done += take
        se_mean = integrals.std(ddof=1) / math.sqrt(n_paths)
        assert abs(integrals.mean()) <= 4.0 * se_mean
        se_gap = paired_gap.std(ddof=1) / math.sqrt(n_paths)
        assert abs(paired_gap.mean()) <= 4.0 * se_gap
        # and the second moment sits at half the squared horizon
        second = (integrals ** 2)
        assert abs(second.mean() - 0.5) <= 4.0 * second.std(ddof=1) / math.sqrt(n_paths)

    def test_isometry_for_squared_path(self, stream):
        steps, n_paths = 256, 40_000
        grid = sto.uniform_grid(1.0, steps)
        dt = 1.0 / steps
        gaps = np.empty(n_paths)
        done = 0
        while done < n_paths:
            take = min(8192, n_paths - done)
            values = _paths_matrix(grid, take, stream)
            left_sq = values[:-1] ** 2
            ito = (left_sq * np.diff(values, axis=0)).sum(axis=0)
            gaps[done:done + take] = ito ** 2 - (left_sq ** 2).sum(axis=0) * dt
            done += take
        assert abs(gaps.mean()) <= 4.0 * gaps.std(ddof=1) / math.sqrt(n_paths)

    def test_length_mismatch(self, stream):
        path = sto.brownian_sample(sto.uniform_grid(1.0, 10), 1, stream)
        with pytest.raises(DomainError):
            sto.ito_integral(np.ones(9), path)


class TestGBM:
    def test_zero_volatility_deterministic(self, stream):
        grid = sto.uniform_grid(2.0, 8)
        path = sto.gbm_sample(0.3, 0.0, 1.5, grid, stream)
        assert np.allclose(path.values, 1.5 * np.exp(0.3 * grid.times))

    def test_terminal_mean(self):
        root = RandomStream(404)
        grid = sto.uniform_grid(1.0, 2)
        mu, s0, n = 0.05, 1.0, 2000
        terminals = np.array([
            sto.gbm_sample(mu, 0.2, s0, grid, root.split(r)).values[-1]
            for r in range(n)
        ])
        se = terminals.std(ddof=1) / math.sqrt(n)
        assert terminals.mean() == pytest.approx(s0 * math.exp(mu), abs=4.0 * se)

    def test_exact_paths_stay_positive(self, stream):
        path = sto.gbm_sample(-1.0, 2.0, 0.5, sto.uniform_grid(1.0, 200), stream)
        assert not path.nonpositive
        assert np.all(path.values > 0.0)

    def test_euler_weak_error_shrinks(self):
        root = RandomStream(405)
        mu, s0, n = 1.0, 1.0, 4000
        target = s0 * math.e
        gaps = []
        for steps in (4, 8):
            terminal = np.array([
                sto.gbm_sample(mu, 0.3, s0, sto.uniform_grid(1.0, steps),
                               root.split(10 * steps + r), "euler").values[-1]
                for r in range(n)
            ])
            gaps.append(abs(terminal.mean() - target))
        assert gaps[1] < gaps[0]

    def test_unknown_method_draws_nothing(self):
        stream = RandomStream(2)
        with pytest.raises(DomainError, match="unknown method 'milstein'"):
            sto.gbm_sample(0.1, 0.2, 1.0, sto.uniform_grid(1.0, 10), stream, "milstein")
        assert stream.counter == 0

    def test_euler_nonpositive_flagged(self):
        # huge negative drift and coarse steps force a sign crossing
        path = sto.gbm_sample(-80.0, 0.0, 1.0, sto.uniform_grid(1.0, 10),
                              RandomStream(1), "euler")
        assert path.nonpositive


class TestFeynmanKac:
    def test_constant_potential_factorizes(self):
        f = lambda x: np.cos(x[:, 0])
        base = sto.feynman_kac_mc(lambda x: np.zeros(len(x)), f, 1.0, 0.0, 1,
                                  5000, 16, RandomStream(7))
        damped = sto.feynman_kac_mc(lambda x: np.full(len(x), 0.7), f, 1.0, 0.0, 1,
                                    5000, 16, RandomStream(7))
        assert damped.estimate == pytest.approx(math.exp(-0.7) * base.estimate, rel=1e-12)

    def test_heat_kernel_interval_mass(self):
        res = sto.feynman_kac_mc(lambda x: np.zeros(len(x)),
                                 lambda x: (np.abs(x[:, 0]) <= 1.0).astype(float),
                                 1.0, 0.0, 1, 100_000, 20, RandomStream(8))
        target = d.dist_cdf(d.Normal(0.0, 1.0), 1.0) - d.dist_cdf(d.Normal(0.0, 1.0), -1.0)
        assert res.estimate == pytest.approx(target, abs=4.0 * res.standard_error)

    def test_exponential_control(self):
        res = sto.feynman_kac_mc(lambda x: 0.3 + x[:, 0] ** 2,
                                 lambda x: np.sin(x[:, 0]),
                                 2.0, 0.5, 1, 20_000, 16, RandomStream(9))
        assert abs(res.estimate) <= math.exp(-0.3 * 2.0) + 4.0 * res.standard_error

    def test_reduces_to_plain_monte_carlo(self):
        # one step of variance 4 is a Normal(0, 4) draw, chunked alike
        root = RandomStream(10)
        n = 5000
        res = sto.feynman_kac_mc(lambda x: np.zeros(len(x)),
                                 lambda x: x[:, 0] ** 2, 4.0, 0.0, 1,
                                 n, 1, root)
        twin = monte_carlo_mean(lambda x: x ** 2, d.Normal(0.0, 4.0), n, 0.05, root)
        assert res.estimate == twin.estimate
        assert res.standard_error * math.sqrt(n) == twin.standard_deviation

    def test_standard_error_is_stable_under_an_offset(self, monkeypatch):
        # chunks of 4096 paths, so that the chunks' means are joined too
        monkeypatch.setattr(rng, "_CHUNK_NUMBERS", 4096)
        n = 50_000
        errors = [sto.feynman_kac_mc(lambda x: np.zeros(len(x)), lambda x: c + x[:, 0], 1.0,
                                     0.0, 1, n, 1, RandomStream(14)).standard_error
                  for c in (0.0, 1e8)]
        assert errors[1] == pytest.approx(errors[0], rel=1e-9)
        deviations = [monte_carlo_mean(lambda x: c + x, d.Normal(0.0, 1.0), n, 0.05,
                                       RandomStream(14)).standard_deviation
                      for c in (0.0, 1e8)]
        assert deviations[1] == pytest.approx(deviations[0], rel=1e-9)

    @pytest.mark.parametrize("dim,n_paths,steps", [(1, 1001, 3), (2, 65_543, 5)])
    def test_equals_out_of_place_paths_bitwise(self, monkeypatch, dim, n_paths, steps):
        # chunks of 65,536 paths: one chunk, and a full chunk and one of 7
        monkeypatch.setattr(rng, "_CHUNK_NUMBERS", (1 << 16) * steps * dim)
        chunk = rng._CHUNK_NUMBERS // (steps * dim)
        x0 = np.array([0.3, -0.2])[:dim]
        potential = lambda x: (x ** 2).sum(axis=1)
        payoff = lambda x: np.cos(x[:, 0])
        root = RandomStream(13)
        res = sto.feynman_kac_mc(potential, payoff, 0.8, x0, dim, n_paths, steps, root)
        # chunk c of the paths from root.split(c), each path from scaled,
        # summed and shifted copies of its normals
        dt = 0.8 / steps
        takes, sums, m2 = [], [], []
        for c, start in enumerate(range(0, n_paths, chunk)):
            take = min(chunk, n_paths - start)
            z = root.split(c).normals(take * steps * dim).reshape(take, steps, dim)
            paths = np.cumsum(z * math.sqrt(dt), axis=1) + x0
            integral = potential(np.broadcast_to(x0, (take, dim))).copy()
            for j in range(steps - 1):
                integral += potential(paths[:, j, :])
            integral *= dt
            values = np.exp(-integral) * payoff(paths[:, -1, :])
            takes.append(take)
            sums.append(float(values.sum()))
            m2.append(float(((values - values.sum() / take) ** 2).sum()))
        assert takes == [chunk] * (n_paths // chunk) + [n_paths % chunk]
        mean = math.fsum(sums) / n_paths
        var = math.fsum(q + t * (s / t - mean) ** 2
                        for t, s, q in zip(takes, sums, m2)) / (n_paths - 1)
        assert res.estimate == mean
        assert res.standard_error == math.sqrt(var / n_paths)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one(self, dim):
        with pytest.raises(DomainError, match=r"dimension must be >= 1"):
            sto.feynman_kac_mc(lambda x: np.zeros(len(x)), lambda x: np.ones(len(x)),
                               1.0, 0.0, dim, 100, 4, RandomStream(12))

    def test_multidimensional_start(self):
        res = sto.feynman_kac_mc(lambda x: np.zeros(len(x)),
                                 lambda x: x.sum(axis=1), 1.0,
                                 np.array([1.0, 2.0]), 2, 20_000, 8,
                                 RandomStream(11))
        assert res.estimate == pytest.approx(3.0, abs=4.0 * res.standard_error)


class TestBlackScholes:
    STANDARD = sto.BSParams(spot=100.0, strike=100.0, rate=0.05,
                            volatility=0.2, maturity=1.0)

    def test_against_quadrature_oracle(self):
        p = self.STANDARD
        drift = (p.rate - 0.5 * p.volatility ** 2) * p.maturity
        spread = p.volatility * math.sqrt(p.maturity)
        log_pdf_law = d.LogNormal(math.log(p.spot) + drift, spread ** 2)
        integrand = lambda s: (s - p.strike) * d.dist_pdf(log_pdf_law, s)
        expected, _ = integrate.quad(integrand, p.strike, np.inf, limit=300)
        oracle = math.exp(-p.rate * p.maturity) * expected
        assert sto.black_scholes_price(p).price == pytest.approx(oracle, abs=1e-8)

    def test_deep_in_the_money_asymptote(self):
        p = sto.BSParams(spot=1e6 * 100.0, strike=100.0, rate=0.05,
                         volatility=0.2, maturity=1.0)
        res = sto.black_scholes_price(p)
        parity = p.spot - p.strike * math.exp(-p.rate * p.maturity)
        assert abs(res.price - parity) / parity <= 1e-9

    def test_vanishing_volatility_limit(self):
        limit = 100.0 - 90.0 * math.exp(-0.05)
        tiny = sto.BSParams(100.0, 90.0, 0.05, 1e-8, 1.0)
        zero = sto.BSParams(100.0, 90.0, 0.05, 0.0, 1.0)
        assert sto.black_scholes_price(tiny).price == pytest.approx(limit, abs=1e-8)
        assert sto.black_scholes_price(zero).price == pytest.approx(limit, rel=1e-12)

    def test_zero_strike_is_spot(self):
        res = sto.black_scholes_price(sto.BSParams(50.0, 0.0, 0.03, 0.4, 2.0))
        assert res.price == pytest.approx(50.0)
        assert res.delta == 1.0

    def test_delta_is_price_slope(self):
        p = self.STANDARD
        res = sto.black_scholes_price(p)
        h = 1e-4
        up = sto.black_scholes_price(sto.BSParams(p.spot + h, p.strike, p.rate,
                                                  p.volatility, p.maturity)).price
        down = sto.black_scholes_price(sto.BSParams(p.spot - h, p.strike, p.rate,
                                                    p.volatility, p.maturity)).price
        assert res.delta == pytest.approx((up - down) / (2 * h), abs=1e-6)

    def test_portfolio_identity(self):
        p = sto.BSParams(105.0, 95.0, 0.04, 0.25, 2.0, valuation_time=0.5)
        res = sto.black_scholes_price(p)
        bond_value = res.bond_position * math.exp(p.rate * p.valuation_time)
        assert res.price == pytest.approx(res.delta * p.spot + bond_value, rel=1e-12)

    def test_pde_residual_small(self):
        for spot in (0.8, 1.0, 1.3):
            for t in (0.1, 0.5):
                params = sto.BSParams(spot, 1.0, 0.05, 0.2, 1.0, valuation_time=t)
                assert abs(sto.bs_pde_residual(params)) <= 1e-5

    def test_expired_option_rejected(self):
        with pytest.raises(DomainError):
            sto.BSParams(100.0, 100.0, 0.05, 0.2, 1.0, valuation_time=1.0)


class TestBSMonteCarlo:
    def test_zero_volatility_exact(self):
        p = sto.BSParams(100.0, 90.0, 0.05, 0.0, 1.0)
        res = sto.bs_mc_price(p, 100, RandomStream(3))
        expected = math.exp(-0.05) * max(100.0 * math.exp(0.05) - 90.0, 0.0)
        assert res.estimate == pytest.approx(expected, rel=1e-12)
        assert res.standard_error == 0.0

    def test_matches_closed_form(self):
        p = TestBlackScholes.STANDARD
        res = sto.bs_mc_price(p, 200_000, RandomStream(4))
        closed = sto.black_scholes_price(p).price
        assert abs(res.estimate - closed) <= 3.0 * res.standard_error

    def test_zero_strike_martingale(self):
        p = sto.BSParams(spot=80.0, strike=0.0, rate=0.06, volatility=0.3,
                         maturity=1.5)
        res = sto.bs_mc_price(p, 200_000, RandomStream(5))
        assert abs(res.estimate - 80.0) <= 3.0 * res.standard_error


class TestGaussianConcentration:
    def test_constant_functional(self, stream):
        res = sto.gaussian_concentration_experiment("constant", 10, 1000,
                                                    [0.5, 1.0], stream)
        assert np.all(res.empirical == 0.0)
        assert np.all(res.bound == 0.0)

    def test_coordinate_tail_matches_normal(self, stream):
        res = sto.gaussian_concentration_experiment("coordinate", 5, 400_000,
                                                    [2.0], stream)
        expected = 2.0 * (1.0 - d.dist_cdf(d.Normal(0.0, 1.0), 2.0))
        assert res.empirical[0] == pytest.approx(expected, abs=4.0 * res.standard_error[0])
        assert res.empirical[0] <= res.bound[0]

    @pytest.mark.parametrize("tag", ["coordinate", "max", "norm"])
    def test_sharp_bound_dominates(self, tag, stream):
        grid = np.linspace(0.0, 4.0, 9)
        res = sto.gaussian_concentration_experiment(tag, 50, 200_000, grid, stream)
        assert np.all(res.empirical <= res.bound + 3.0 * res.standard_error)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_come_from_split_streams(self, workers):
        # 1,000,000 samples make two chunks of 2**22 // 10 = 419,430 and a
        # partial third; each norm is the root of one chi-squared draw
        k, n = 100, 1_000_000
        chunk = rng._CHUNK_NUMBERS // sto._DRAW_WIDTH
        root = RandomStream(21)
        takes = [chunk] * (n // chunk) + [n % chunk]
        values = np.concatenate([np.sqrt(d.dist_sample(d.ChiSquared(k), root.split(c), take))
                                 for c, take in enumerate(takes)])
        grid = np.linspace(0.0, 4.0, 9)
        res = sto.gaussian_concentration_experiment("norm", k, n, grid, root, workers)
        assert res.center == values.mean()
        assert res.center_standard_error == values.std(ddof=1) / math.sqrt(n)
        deviations = np.abs(values - values.mean())
        assert np.array_equal(res.empirical, (deviations[:, None] > grid).sum(axis=0) / n)

    def test_norm_squares_follow_chi_squared(self):
        k = 100
        norms = sto._functional_values("norm", k, RandomStream(22), 50_000)
        assert stats.kstest(norms ** 2, lambda x: d.dist_cdf(d.ChiSquared(k), x)).pvalue > 1e-3

    @pytest.mark.parametrize("k", [1, 100])
    def test_max_follows_phi_to_the_k(self, k):
        maxima = sto._functional_values("max", k, RandomStream(24), 50_000)
        cdf = lambda x: np.exp(k * special.log_ndtr(x))  # noqa: E731
        assert stats.kstest(maxima, cdf).pvalue > 1e-3

    def test_max_keeps_its_upper_tail(self, monkeypatch):
        # U = 1 - 2**-40 gives the tail 1 - U^(1/k) = 2**-40 / k to first order,
        # which 1 - U ** (1 / k) misses by 1e-3 relative; U = 1 stays finite
        k = 100
        u = np.array([1.0 - 2.0 ** -40, 1.0, 0.5])
        monkeypatch.setattr(RandomStream, "uniforms_open", lambda self, count: u[:count])
        top, at_one, mid = sto._functional_values("max", k, RandomStream(0), 3)
        assert top == pytest.approx(-special.ndtri(2.0 ** -40 / k), rel=1e-12)
        assert np.isfinite(at_one) and at_one > top
        assert mid == pytest.approx(special.ndtri(0.5 ** (1.0 / k)), rel=1e-12)

    def test_constant_draws_nothing(self):
        stream = RandomStream(25)
        assert np.array_equal(sto._functional_values("constant", 10, stream, 4), np.zeros(4))
        assert stream.counter == 0

    def test_unknown_tag(self, stream):
        with pytest.raises(DomainError):
            sto.gaussian_concentration_experiment("median", 5, 100, [1.0], stream)
