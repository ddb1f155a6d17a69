"""Tail bounds, empirical domination, random projection, random graphs."""

import math

import numpy as np
import pytest
from scipy import stats

from statforge import concentration as con
from statforge import distributions as d
from statforge import rng
from statforge.errors import DomainError
from statforge.rng import RandomStream


class TestTailBoundFormulas:
    def test_sub_gaussian(self):
        b = con.tail_bound(con.SubGaussian(1.0), 2.0)
        assert b.raw == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert b.clamped == b.raw

    def test_markov(self):
        assert con.tail_bound(con.Markov(1.0), 10.0).raw == pytest.approx(0.1)

    def test_chebyshev(self):
        assert con.tail_bound(con.Chebyshev(4.0), 4.0).raw == pytest.approx(0.25)

    def test_chernoff_binomial(self):
        # mean count 300, relative deviation 0.1
        b = con.tail_bound(con.ChernoffBinomial(300.0), 30.0)
        assert b.raw == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_chi_squared_relative_branches(self):
        small = con.tail_bound(con.ChiSquaredRelative(8), 0.5)
        assert small.raw == pytest.approx(2.0 * math.exp(-0.25), rel=1e-12)
        assert small.clamped == 1.0
        large = con.tail_bound(con.ChiSquaredRelative(8), 2.0)
        assert large.raw == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_sub_exponential_regime_split(self):
        kind = con.SubExponential(nu=2.0, beta=1.0)  # split at nu^2/beta = 4
        below = con.tail_bound(kind, 3.999).raw
        above = con.tail_bound(kind, 4.001).raw
        assert below == pytest.approx(2.0 * math.exp(-3.999**2 / 8.0), rel=1e-9)
        assert above == pytest.approx(2.0 * math.exp(-4.001 / 2.0), rel=1e-9)

    def test_nonpositive_deviation_rejected(self):
        with pytest.raises(DomainError):
            con.tail_bound(con.SubGaussian(1.0), 0.0)
        with pytest.raises(DomainError):
            con.tail_bound(con.Markov(1.0), -1.0)

    def test_nan_deviation_rejected(self):
        with pytest.raises(DomainError, match="deviation t must be positive"):
            con.tail_bound(con.SubGaussian(1.0), math.nan)

    @pytest.mark.parametrize("build, message", [
        (lambda v: con.Markov(v), "Markov bound needs a positive mean"),
        (lambda v: con.Chebyshev(v), "Chebyshev bound needs a positive variance"),
        (lambda v: con.SubGaussian(v), "SubGaussian bound needs a positive sigma"),
        (lambda v: con.SubExponential(v, 1.0), "SubExponential bound needs a positive nu"),
        (lambda v: con.SubExponential(1.0, v), "SubExponential bound needs a positive beta"),
        (lambda v: con.ChiSquaredRelative(int(v)),
         "ChiSquaredRelative bound needs a positive integer k"),
        (lambda v: con.ChernoffBinomial(v), "ChernoffBinomial bound needs a positive lam"),
    ])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_parameter_rejected(self, build, message, value):
        with pytest.raises(DomainError, match=message):
            build(value)

    def test_fractional_degrees_of_freedom_rejected(self):
        with pytest.raises(DomainError, match="positive integer k"):
            con.ChiSquaredRelative(2.5)


class TestEmpiricalTail:
    @pytest.mark.parametrize("specs", [[d.Normal(0.0, 1.0)], [d.Uniform01(), d.Exponential(2.0)]])
    def test_counts_come_from_split_stream_chunks(self, monkeypatch, specs):
        # chunks of 1000 // (len(specs) + 2) draws, the last one partial
        monkeypatch.setattr(rng, "_CHUNK_NUMBERS", 1000)
        chunk, n = 1000 // (len(specs) + 2), 2300
        center, grid = 0.4, np.array([0.0, 0.3, 1.0, 2.5])
        root = RandomStream(64)
        counts = np.zeros(grid.size, dtype=np.int64)
        for c, take in enumerate([chunk] * (n // chunk) + [n % chunk]):
            stream = root.split(c)
            x = sum(d.dist_sample(s, stream, take) for s in specs)
            counts += (np.abs(x - center)[:, None] >= grid).sum(axis=0)
        spec = specs[0] if len(specs) == 1 else specs
        res = con.empirical_tail(spec, center, grid, n, root)
        assert np.array_equal(res.frequency, counts / n)

    def test_no_distribution(self, stream):
        with pytest.raises(DomainError, match="need at least one distribution"):
            con.empirical_tail([], 0.5, [0.1, 1.0], 1000, stream)

    def test_zero_deviation_has_frequency_one(self, stream):
        res = con.empirical_tail(d.Normal(0.0, 1.0), 0.0, [0.0, 1.0], 10_000, stream)
        assert res.frequency[0] == 1.0

    def test_normal_two_sigma_matches_cdf_oracle(self, stream):
        res = con.empirical_tail(d.Normal(0.0, 1.0), 0.0, [2.0], 1_000_000, stream)
        expected = 2.0 * (1.0 - d.dist_cdf(d.Normal(0.0, 1.0), 2.0))
        assert res.frequency[0] == pytest.approx(expected, abs=4.0 * res.standard_error[0])

    def test_sum_of_specs(self, stream):
        # sum of two unit uniforms has mean 1
        res = con.empirical_tail([d.Uniform01(), d.Uniform01()], 1.0, [0.9], 200_000, stream)
        assert res.frequency[0] == pytest.approx(0.01, abs=0.002)

    @pytest.mark.parametrize("spec,center,kind", [
        (d.Normal(0.0, 1.0), 0.0, con.SubGaussian(1.0)),
        (d.Uniform01(), 0.5, con.SubGaussian(1.0)),  # bounded on [0,1]
    ])
    def test_domination(self, spec, center, kind, stream):
        grid = np.linspace(0.25, 3.0, 12)
        res = con.empirical_tail(spec, center, grid, 200_000, stream)
        for freq, se, t in zip(res.frequency, res.standard_error, grid):
            assert freq <= con.tail_bound(kind, t).clamped + 3.0 * se


def _matrix_path_distortion(cfg, stream):
    """Max distortion of one trial through the explicit map of ``jl_project``."""
    points = stream.normals(cfg.n_points * cfg.ambient_dim).reshape(cfg.n_points, cfg.ambient_dim)
    projected = con.jl_project(points, cfg.m, stream)
    i, j = np.triu_indices(cfg.n_points, k=1)
    before = ((points[i] - points[j]) ** 2).sum(axis=1)
    after = ((projected[i] - projected[j]) ** 2).sum(axis=1)
    return float(np.max(np.abs(after / before - 1.0)))


class TestJL:
    def test_target_dim_examples(self):
        assert con.jl_target_dim(2, 0.5, 2.0 / math.e) == 32
        assert con.jl_target_dim(100, 0.25, 0.05) == 1562
        assert con.jl_target_dim(2, 0.5, 1.0 - 1e-12) == 23

    def test_target_dim_monotone_on_lattice(self):
        ns = [2, 10, 100, 1000]
        epsilons = [0.1, 0.25, 0.5, 0.9]
        deltas = [0.01, 0.05, 0.2, 0.9]
        for delta in deltas:
            for eps in epsilons:
                ms = [con.jl_target_dim(n, eps, delta) for n in ns]
                assert ms == sorted(ms)
            for n in ns:
                by_eps = [con.jl_target_dim(n, e, delta) for e in epsilons]
                assert by_eps == sorted(by_eps, reverse=True)
        for n in ns:
            for eps in epsilons:
                by_delta = [con.jl_target_dim(n, eps, dl) for dl in deltas]
                assert by_delta == sorted(by_delta, reverse=True)

    def test_zero_maps_to_zero(self, stream):
        points = np.zeros((3, 20))
        assert np.all(con.jl_project(points, 5, stream) == 0.0)

    def test_projection_deterministic_for_fixed_stream(self):
        pts = RandomStream(1).normals(40).reshape(2, 20)
        a = con.jl_project(pts, 6, RandomStream(9, 3))
        b = con.jl_project(pts, 6, RandomStream(9, 3))
        assert np.array_equal(a, b)

    def test_unit_norm_preserved_on_average(self):
        # ||F(x)||^2 is a chi-squared with m dof scaled by 1/m: mean 1
        root = RandomStream(100)
        m, p, trials = 16, 8, 10_000
        x = np.zeros((1, p))
        x[0, 0] = 1.0
        total = 0.0
        for r in range(trials):
            y = con.jl_project(x, m, root.split(r))
            total += float((y ** 2).sum())
        assert total / trials == pytest.approx(1.0, abs=0.05)

    def test_identical_points_are_vacuous(self, stream):
        cfg = con.JLConfig(n_points=2, ambient_dim=4, epsilon=0.5, delta=0.1)
        pts = np.ones((2, 4))
        res = con.jl_trial(cfg, stream, points=pts)
        assert res.success and res.skipped_pairs == 1

    @pytest.mark.parametrize("n,dim", [(10, 60), (20, 5)])
    def test_trial_has_the_law_of_the_matrix_path(self, n, dim):
        # (20, 5) takes the branch with more points than dimensions
        cfg = con.JLConfig(n_points=n, ambient_dim=dim, epsilon=0.5, delta=0.2)
        law = [con.jl_trial(cfg, RandomStream(61).split(r)).max_distortion
               for r in range(2000)]
        matrix = [_matrix_path_distortion(cfg, RandomStream(62).split(r))
                  for r in range(2000)]
        assert stats.ks_2samp(law, matrix).pvalue > 0.01

    def test_common_offset_leaves_distortion(self):
        # points on a grid of 2^-20, so adding 1e8 rounds nothing
        cfg = con.JLConfig(n_points=10, ambient_dim=60, epsilon=0.5, delta=0.2)
        pts = np.round(RandomStream(63).normals(600).reshape(10, 60) * 2 ** 20) / 2 ** 20
        base = con.jl_trial(cfg, RandomStream(64), points=pts)
        moved = con.jl_trial(cfg, RandomStream(64), points=pts + 1e8)
        assert moved.max_distortion == pytest.approx(base.max_distortion, rel=1e-9)

    @pytest.mark.parametrize("n,dim", [(10, 60), (20, 5)])
    def test_coincident_pairs_skipped_among_distinct_points(self, n, dim):
        cfg = con.JLConfig(n_points=n, ambient_dim=dim, epsilon=0.5, delta=0.2)
        pts = RandomStream(65).normals(n * dim).reshape(n, dim)
        pts[3] = pts[7] = pts[1]            # three equal rows: three pairs
        pts[0], pts[2] = 0.0, -0.0          # equal under ==
        res = con.jl_trial(cfg, RandomStream(66), points=pts)
        assert res.skipped_pairs == 4
        assert 0.0 < res.max_distortion < 1.0

    def test_near_pair_is_not_lost_to_cancellation(self):
        # 1e-9 apart in a unit cloud: the Gram differences alone would be noise
        cfg = con.JLConfig(n_points=10, ambient_dim=60, epsilon=0.5, delta=0.2)
        pts = RandomStream(67).normals(600).reshape(10, 60)
        pts[1] = pts[0] + 1e-9 * RandomStream(68).normals(60)
        res = con.jl_trial(cfg, RandomStream(69), points=pts)
        assert res.skipped_pairs == 0 and res.max_distortion < 1.0

    @pytest.mark.parametrize("bad", [np.zeros((4, 31)), np.zeros((3, 32)),
                                     np.full((4, 32), np.nan), np.full((4, 32), np.inf)])
    def test_trial_rejects_points_of_wrong_shape_or_not_finite(self, stream, bad):
        cfg = con.JLConfig(n_points=4, ambient_dim=32, epsilon=0.5, delta=0.1)
        with pytest.raises(DomainError):
            con.jl_trial(cfg, stream, points=bad)

    def test_loose_distortion_with_large_m_succeeds(self, stream):
        cfg = con.JLConfig(n_points=4, ambient_dim=32, epsilon=0.99, delta=1e-6)
        assert con.jl_trial(cfg, stream).success

    def test_success_rate_at_theorem_dimension(self):
        cfg = con.JLConfig(n_points=20, ambient_dim=100, epsilon=0.4, delta=0.1)
        root = RandomStream(11)
        wins = sum(con.jl_trial(cfg, root.split(r)).success for r in range(50))
        assert wins / 50 >= 0.9


class TestErdosRenyi:
    def test_extreme_probabilities(self, stream):
        empty = con.er_sample(10, 0.0, stream)
        assert empty.edges.shape[0] == 0
        full = con.er_sample(10, 1.0, stream)
        assert full.edges.shape[0] == 45
        assert np.array_equal(full.edges, np.column_stack(np.triu_indices(10, k=1)))
        assert stream.counter == 0

    def test_mean_edge_count(self):
        root = RandomStream(55)
        n, p, graphs = 100, 0.1, 10_000
        pairs = n * (n - 1) // 2
        counts = [con.er_sample(n, p, root.split(r)).edges.shape[0]
                  for r in range(graphs)]
        se = math.sqrt(pairs * p * (1 - p) / graphs)
        assert np.mean(counts) == pytest.approx(pairs * p, abs=4.0 * se)

    @pytest.mark.parametrize("p", [0.1, 0.8])
    def test_edge_law(self, p):
        # edge count ~ Bin(pairs, p), and each pair present with frequency p
        root = RandomStream(404)
        n, graphs = 50, 4000
        pairs = n * (n - 1) // 2
        counts = np.empty(graphs)
        hits = np.zeros(n * n)
        for r in range(graphs):
            edges = con.er_sample(n, p, root.split(r)).edges
            counts[r] = edges.shape[0]
            hits[edges[:, 0] * n + edges[:, 1]] += 1
        mean, var = pairs * p, pairs * p * (1 - p)
        assert counts.mean() == pytest.approx(mean, abs=4.0 * math.sqrt(var / graphs))
        assert counts.var() == pytest.approx(var, rel=0.1)
        rows, cols = np.triu_indices(n, k=1)
        freq = hits[rows * n + cols] / graphs
        # += through an index counts a repeated pair once: no pair repeats
        assert hits.sum() == counts.sum()
        assert np.max(np.abs(freq - p)) <= 5.0 * math.sqrt(p * (1 - p) / graphs)

    @pytest.mark.parametrize("p", [2.0 ** -53, 0.02, 0.3, 0.7, 1.0 - 2.0 ** -53])
    def test_edges_in_strict_lexicographic_order(self, p):
        n = 300
        for r in range(3):
            edges = con.er_sample(n, p, RandomStream(404).split(r)).edges
            assert edges.dtype == np.int64
            assert np.all(np.diff(edges[:, 0] * n + edges[:, 1]) > 0)

    @pytest.mark.parametrize("p", [2.0 ** -53, np.nextafter(0.5, 0.0), 0.5,
                                   np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53])
    def test_edge_count_at_the_branch_edges(self, p):
        # tiny p, and p on each side of 1/2, where skips over edges turn into
        # skips over non-edges
        root = RandomStream(405)
        n, graphs = 60, 400
        pairs = n * (n - 1) // 2
        counts = [con.er_sample(n, p, root.split(r)).edges.shape[0] for r in range(graphs)]
        se = math.sqrt(pairs * p * (1 - p) / graphs)
        assert np.mean(counts) == pytest.approx(pairs * p, abs=4.0 * se)

    def test_rounds_continue_until_the_last_pair(self, stream, monkeypatch):
        # u = 1 gives gaps of 1, so one round of 1024 uniforms stops short of
        # the 1225 pairs at n = 50
        monkeypatch.setattr(stream, "uniforms_open", lambda count: np.ones(count))
        every_pair = np.column_stack(np.triu_indices(50, k=1))
        assert np.array_equal(con.er_sample(50, 0.01, stream).edges, every_pair)
        assert con.er_sample(50, 0.99, stream).edges.shape == (0, 2)

    @pytest.mark.parametrize("p", [0.005, 0.995])
    def test_word_budget(self, p):
        # about min(p, 1 - p) words per pair, not one
        n = 2000
        pairs = n * (n - 1) // 2
        stream = RandomStream(406)
        con.er_sample(n, p, stream)
        assert 0 < stream.counter <= 2 * min(p, 1 - p) * pairs + 1024

    def test_connectivity_computed_only_when_read(self, stream, monkeypatch):
        calls = []
        original = con._connected
        monkeypatch.setattr(con, "_connected",
                            lambda n, edges: calls.append(n) or original(n, edges))
        m = con.er_metrics(con.er_sample(30, 0.5, stream))
        assert m.degree_sequence.sum() == 2 * m.edge_count and calls == []
        assert m.is_connected and m.is_connected
        assert calls == [30]

    def test_metrics_on_complete_graph(self, stream):
        g = con.er_sample(12, 1.0, stream)
        m = con.er_metrics(g)
        assert m.is_connected
        assert np.all(m.degree_sequence == 11)
        assert m.mean_degree == 11.0

    def test_empty_graph_disconnected(self, stream):
        m = con.er_metrics(con.er_sample(5, 0.0, stream))
        assert not m.is_connected
        assert m.edge_count == 0

    def test_two_components_detected(self):
        g = con.ErdosRenyiGraph(4, 0.5, np.array([[0, 1], [2, 3]]))
        assert not con.er_metrics(g).is_connected

    @pytest.mark.parametrize("edges,connected", [
        ([[0, 1], [1, 2], [2, 3], [3, 4]], True),             # a path
        ([[0, 4], [1, 4], [2, 4], [3, 4]], True),             # a star on the last vertex
        ([[0, 1], [0, 2], [1, 2], [3, 4]], False),            # enough edges, two parts
        ([[0, 1], [1, 2], [0, 2], [2, 3]], False),            # vertex 4 isolated
    ])
    def test_connectivity_of_small_graphs(self, edges, connected):
        g = con.ErdosRenyiGraph(5, 0.5, np.array(edges))
        assert con.er_metrics(g).is_connected is connected

    def test_degree_law_binomial(self):
        # one vertex degree over many graphs behaves like Bin(p; N-1)
        root = RandomStream(77)
        n, p, graphs = 30, 0.2, 4000
        degs = np.array([con.er_metrics(con.er_sample(n, p, root.split(r))).degree_sequence[0]
                         for r in range(graphs)])
        mean, var = (n - 1) * p, (n - 1) * p * (1 - p)
        assert degs.mean() == pytest.approx(mean, abs=4.0 * math.sqrt(var / graphs))
        assert degs.var() == pytest.approx(var, rel=0.15)

    def test_almost_regularity(self):
        eps, delta, n = 0.3, 0.1, 2000
        c = con.regular_degree_constant(eps, delta)
        degree = c * math.log(n)
        p = min(1.0, degree / (n - 1))
        d_target = (n - 1) * p
        root = RandomStream(303)
        hits = 0
        graphs = 100
        for r in range(graphs):
            g = con.er_sample(n, p, root.split(r))
            degs = con.er_metrics(g).degree_sequence
            hits += bool(np.all(np.abs(degs - d_target) <= eps * d_target))
        assert hits / graphs >= 1.0 - delta

    @pytest.mark.parametrize("edges", [[[1, 1]], [[0, 1], [1, 1]], [[0, 1], [2, 1]],
                                       [[0, 1], [-1, 1]], [[0, 1], [1, 3]]],
                             ids=["only-row", "self-loop", "reversed", "negative-vertex",
                                  "vertex-past-n"])
    def test_edge_list_must_hold_ordered_pairs(self, edges):
        message = "^edge list must hold ordered pairs of distinct vertices$"
        with pytest.raises(DomainError, match=message):
            con.ErdosRenyiGraph(3, 0.1, np.array(edges))

    @pytest.mark.parametrize("edges", [np.zeros((0, 2), dtype=np.int64),
                                       np.array([[0, 1], [0, 2], [1, 2]])],
                             ids=["edgeless", "complete"])
    def test_ordered_edge_list_is_accepted(self, edges):
        assert np.array_equal(con.ErdosRenyiGraph(3, 0.1, edges).edges, edges)

    def test_validation(self, stream):
        with pytest.raises(DomainError):
            con.er_sample(1, 0.5, stream)
        with pytest.raises(DomainError):
            con.er_sample(5, 1.5, stream)
