"""The logistic family, scoring fits, Wald inference, ability scoring."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from statforge import experiments as xp
from statforge import glm
from statforge import regression as reg
from statforge import rng
from statforge.errors import (ConvergenceError, DomainError, NoFiniteMLEError,
                              SeparationError, SingularDesignError)
from statforge.results import first_row
from statforge.rng import RandomStream


class TestLogisticSpec:
    def test_family_facts_are_class_constants(self):
        plain, offset = glm.bernoulli_logit(), glm._OffsetLogit(offset=np.zeros(2))
        assert type(plain) is glm.LogisticSpec and isinstance(offset, glm.LogisticSpec)
        assert (plain.separable, plain.mean_at_zero) == (True, 0.5)
        assert (offset.separable, offset.mean_at_zero) == (False, None)
        assert [[f.name for f in dataclasses.fields(s)] for s in (plain, offset)] == [
            [], ["offset"]]

    def test_logistic_symmetry_point(self):
        # at a zero natural parameter the mean is 1/2, the weight 1/4, and
        # each term of the log-likelihood is -log 2 whatever the response
        spec = glm.bernoulli_logit()
        assert spec.mean(0.0) == spec.mean_at_zero == 0.5
        assert spec.weights(np.zeros(1), np.full(1, 0.5)).tolist() == [0.25]
        y = np.array([[0.0, 1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
        ll = spec.loglik(y, np.zeros_like(y))
        np.testing.assert_allclose(ll, -5.0 * math.log(2.0), rtol=1e-15, atol=0.0)

    def test_weights_clamp_saturated_means(self):
        # a mean rounded to 0 or 1 keeps a positive weight, and the means
        # themselves are left as they were
        spec = glm.bernoulli_logit()
        xi = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        mu = spec.mean(xi)
        given = mu.copy()
        w = spec.weights(xi, mu)
        assert mu.tobytes() == given.tobytes()
        assert mu[[0, 4]].tolist() == [0.0, 1.0]
        assert w[2] == 0.25
        floor = glm._PROB_CLAMP * (1.0 - glm._PROB_CLAMP)
        np.testing.assert_allclose(w[[0, 1, 3, 4]], floor, rtol=1e-4, atol=0.0)

    def test_offset_logit_mean_and_loglik_take_the_offset(self):
        offset = np.array([-1.5, 0.0, 2.0])
        xi = np.array([0.5, -0.3, 1.0])
        y = np.array([1.0, 0.0, 1.0])
        plain, spec = glm.bernoulli_logit(), glm._OffsetLogit(offset=offset)
        assert spec.mean(xi).tobytes() == plain.mean(xi + offset).tobytes()
        assert spec.loglik(y, xi) == plain.loglik(y, xi + offset)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_offset_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="finite offset"):
            glm._OffsetLogit(offset=np.array([0.0, bad, 1.0]))


@pytest.fixture
def logistic_data():
    root = RandomStream(2024)
    n = 500
    covariates = root.normals(n * 2).reshape(n, 2)
    design = reg.design_matrix(covariates)
    beta = np.array([-0.3, 0.8, -0.5])
    prob = 1.0 / (1.0 + np.exp(-(design.matrix @ beta)))
    y = (root.uniforms(n) < prob).astype(float)
    return design, y, beta


class TestGLMFit:
    def test_logistic_intercept_only(self):
        y = np.array([1.0, 1.0, 1.0, 0.0])
        design = reg.design_matrix(np.empty((4, 0)))
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        assert fit.beta[0] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_intercept_only_rows_are_the_logit_of_their_means(self):
        # row r holds r + 1 successes in 8 trials, so its intercept is
        # log((r + 1) / (7 - r))
        y = (np.arange(8)[None, :] <= np.arange(7)[:, None]).astype(float)
        fit = glm.glm_fit_stack(glm.bernoulli_logit(), reg.design_matrix(np.empty((8, 0))), y)
        counts = np.arange(1.0, 8.0)
        np.testing.assert_allclose(fit.beta[:, 0], np.log(counts / (8.0 - counts)),
                                   rtol=0.0, atol=1e-9)

    def test_logistic_recovers_coefficients(self, logistic_data):
        design, y, beta = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        cov = np.linalg.inv(fit.fisher_info)
        assert np.all(np.abs(fit.beta - beta) <= 4.0 * np.sqrt(np.diag(cov)))

    def test_exhausted_iterations_raise(self, logistic_data, monkeypatch):
        design, y, _ = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        assert fit.iterations > 2
        monkeypatch.setattr(glm, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="iterations exhausted") as err:
            glm.glm_fit(glm.bernoulli_logit(), design, y)
        # the last iterate is the second step's, on its way to the fit
        last = err.value.last_iterate
        assert last.shape == (3,) and not np.array_equal(last, fit.beta)
        assert np.linalg.norm(last - fit.beta) < 0.1 * np.linalg.norm(fit.beta)

    def test_downhill_steps_raise_no_ascent(self, logistic_data, monkeypatch):
        # negated weights turn each Newton step downhill, where no halving
        # finds a higher log-likelihood
        design, y, _ = logistic_data
        weights = glm.LogisticSpec.weights
        monkeypatch.setattr(glm.LogisticSpec, "weights",
                            lambda self, eta, mu: -weights(self, eta, mu))
        with pytest.raises(ConvergenceError, match="no ascent direction") as err:
            glm.glm_fit(glm.bernoulli_logit(), design, y)
        assert err.value.last_iterate.tolist() == [0.0, 0.0, 0.0]

    def test_canonical_score_residual(self, logistic_data):
        design, y, _ = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        gap = np.abs(design.matrix.T @ (y - fit.mu)).max()
        assert gap <= 1e-8 * (1.0 + np.abs(design.matrix.T @ y).max())

    def test_loglik_trace_monotone(self, logistic_data):
        design, y, _ = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        assert np.all(np.diff(fit.loglik_trace) >= -1e-10)

    def test_separation_detected(self):
        x = np.linspace(-1.0, 1.0, 40)
        y = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            glm.glm_fit(glm.bernoulli_logit(), reg.design_matrix(x), y)

    def test_response_validation(self):
        design = reg.design_matrix(np.ones((5, 1)) * 0.1)
        with pytest.raises(DomainError):
            glm.glm_fit(glm.bernoulli_logit(), design, np.array([0.0, 1.0, 2.0, 0.0, 1.0]))

    def test_information_matches_fd_hessian(self, logistic_data):
        design, y, _ = logistic_data
        spec = glm.bernoulli_logit()
        fit = glm.glm_fit(spec, design, y)
        h = 1e-5
        dim = fit.beta.size
        hess = np.empty((dim, dim))
        def ll(b):
            return spec.loglik(y, design.matrix @ b)
        for i in range(dim):
            for j in range(dim):
                ei = np.zeros(dim); ei[i] = h
                ej = np.zeros(dim); ej[j] = h
                hess[i, j] = (ll(fit.beta + ei + ej) - ll(fit.beta + ei - ej)
                              - ll(fit.beta - ei + ej) + ll(fit.beta - ei - ej)) / (4 * h * h)
        assert np.all(np.abs(-hess - fit.fisher_info) <= 1e-4 * np.abs(fit.fisher_info))


_TAIL_XS = [0.0, -0.0, 1e-300, -1e-300, 1e-8, -1e-8, 36.0, -36.0, 40.0, -40.0,
            745.0, -745.0, 800.0, -800.0, 1e308]


def test_bernoulli_loglik_in_the_tails():
    # y*x - softplus(x) summed exactly from its three terms; at x = 36 with
    # y = 1 the value is -e^-36, which y*x - logaddexp(0, x) rounds to 0
    cases = [(y, x) for x in _TAIL_XS for y in (0.0, 1.0)]
    y, x = (np.array(col)[:, None] for col in zip(*cases))
    got = glm.bernoulli_logit().loglik(y, x)
    for (yi, xi), value in zip(cases, got):
        want = math.fsum([yi * xi, -max(xi, 0.0), -math.log1p(math.exp(-abs(xi)))])
        assert abs(value - want) <= 4 * math.ulp(want), (yi, xi, value, want)


def test_bernoulli_loglik_matches_logaddexp_on_stacks():
    root = RandomStream(17)
    xi = 4.0 * root.normals(32 * 2000).reshape(32, 2000)
    y = (root.uniforms(32 * 2000).reshape(32, 2000) < 0.5).astype(float)
    want = np.sum(y * xi - np.logaddexp(0.0, xi), axis=-1)
    got = glm.bernoulli_logit().loglik(y, xi)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_bernoulli_mean_saturates_quietly():
    # e^-xi overflows below xi = -709.78: the mean is exactly 0 there, with
    # no overflow warning; NaN stays NaN
    xi = np.array([710.0, -710.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = glm.bernoulli_logit().mean(xi)
    assert mu[:6].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(mu[6])


def test_bernoulli_mean_matches_expit():
    # both are 1 / (1 + e^-xi): each exp is within 1 ulp of e^-xi, and the
    # sum and the reciprocal round once on each side, so they differ by at
    # most 4 ulp (near xi = -36.8, where e^-xi passes 2^53, they do)
    xi = np.linspace(-745.0, 40.0, 785_001)
    want = sp.expit(xi)
    got = glm.bernoulli_logit().mean(xi)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    # scalars and integers work, as they do for expit
    scalar = glm.bernoulli_logit().mean(3)
    assert abs(scalar - sp.expit(3.0)) <= 4 * np.spacing(sp.expit(3.0))


@pytest.mark.parametrize("seed", range(1, 21))
def test_experiment_information_gap_passes(seed):
    # the gap compares the information with second differences of the
    # log-likelihood, whose step must keep rounding noise well under 1e-4
    report = xp.run_experiment(xp.ExperimentConfig(experiment="glm", seed=seed,
                                                   params={"replicates": 20}))
    gap = {m.name: m for m in report.metrics}["information_fd_gap"]
    assert gap.passed, gap.value


def _family_rows(family, n, rows, root, shared=False):
    """A logistic spec, plain or with a per-observation offset, per-row
    designs (all equal when ``shared``) and responses whose rows differ in
    their true coefficients, so they converge after different iteration
    counts. The offset spec scores from zero on the general pass."""
    designs = np.stack([reg.design_matrix(root.split(0 if shared else r).normals(n * 2)
                                          .reshape(n, 2)).matrix for r in range(rows)])
    strength = np.linspace(0.0, 1.0, rows)[:, None]
    xi = 3.0 * strength * (designs @ np.array([0.2, 1.5, -0.7]))
    spec = glm.bernoulli_logit()
    if family == "offset":
        spec = glm._OffsetLogit(offset=root.split(rows).normals(n))
        xi = xi + spec.offset
    u = root.uniforms(n * rows).reshape(rows, n)
    return spec, designs, (u < 1.0 / (1.0 + np.exp(-xi))).astype(float)


def _assert_row_equals_single(stack, r, single):
    """Row ``r`` of each field of a stacked fit, or of a stacked scoring run,
    has the bytes of the single one's field."""
    for field in dataclasses.fields(single):
        row = getattr(stack, field.name)[r]
        if field.name == "loglik_trace":
            row = row[:stack.iterations[r]]
        assert row.tobytes() == np.asarray(getattr(single, field.name)).tobytes(), field.name


class TestGLMFitStack:
    @pytest.mark.parametrize("family", ["logistic", "offset"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_rows_equal_single_fits(self, family, shared):
        n, rows = 200, 11
        spec, designs, y = _family_rows(family, n, rows, RandomStream(500), shared)
        if shared:
            design = reg.DesignMatrix(designs[0])
            stack = glm.glm_fit_stack(spec, design, y)
            singles = [glm.glm_fit(spec, design, row) for row in y]
        else:
            stack = glm.glm_fit_stack(spec, designs, y)
            singles = [glm.glm_fit(spec, reg.DesignMatrix(m), row)
                       for m, row in zip(designs, y)]
        assert stack.beta.shape == (rows, 3) and stack.fisher_info.shape == (rows, 3, 3)
        for r, single in enumerate(singles):
            _assert_row_equals_single(stack, r, single)
        assert len(set(stack.iterations.tolist())) > 1

    @pytest.mark.parametrize("family", ["logistic", "offset"])
    def test_single_fit_is_row_zero_of_its_stack(self, family):
        spec, designs, y = _family_rows(family, 200, 1, RandomStream(516))
        design = reg.DesignMatrix(designs[0])
        single, stack = glm.glm_fit(spec, design, y[0]), glm.glm_fit_stack(spec, design, y)
        assert type(single) is type(stack)
        for field in dataclasses.fields(single):
            one, rows = getattr(single, field.name), getattr(stack, field.name)
            assert np.asarray(one).tobytes() == rows[0].tobytes(), field.name
        assert type(single.iterations) is int and type(single.log_likelihood) is float
        assert single.loglik_trace.shape == (single.iterations,)

    def test_rows_needing_step_halving(self, monkeypatch):
        spec, designs, y = _family_rows("logistic", 200, 5, RandomStream(510), shared=True)
        design = reg.DesignMatrix(designs[0])
        m = design.matrix
        monkeypatch.setattr(glm.LogisticSpec, "weights", _steep_weights)
        # the steep first step from zero, eight times Newton's, lowers the
        # log-likelihood of some rows, which must halve it
        full_step = np.linalg.solve(m.T @ m / 32.0, m.T @ (y - 0.5)[..., None])[..., 0]
        lowered = spec.loglik(y, full_step @ m.T) < spec.loglik(y, np.zeros_like(y))
        assert lowered.any()
        stack = glm.glm_fit_stack(spec, design, y)
        for r, row in enumerate(y):
            _assert_row_equals_single(stack, r, glm.glm_fit(spec, design, row))

    def test_stack_at_the_default_chunk(self):
        n = 2000
        rows = rng._BLOCK_NUMBERS // n + 3
        spec, designs, y = _family_rows("logistic", n, rows, RandomStream(511))
        stack = glm.glm_fit_stack(spec, designs, y)
        for r in (0, rows - 4, rows - 3, rows - 1):
            _assert_row_equals_single(stack, r, glm.glm_fit(spec, reg.DesignMatrix(designs[r]), y[r]))

    @pytest.mark.parametrize("family", ["logistic", "offset"])
    def test_given_starts_are_per_row(self, family):
        # each row of a fit from given starts equals that row's one-row fit
        # from its own start, and the starts are left as they were
        spec, designs, y = _family_rows(family, 200, 7, RandomStream(517))
        start = 0.1 * RandomStream(518).normals(7 * 3).reshape(7, 3)
        given = start.copy()
        stack = glm._scoring(spec, designs, y, given)
        assert given.tobytes() == start.tobytes()
        for r in range(7):
            single = glm._scoring(spec, designs[r:r + 1], y[r:r + 1], start[r:r + 1])
            _assert_row_equals_single(stack, r, first_row(single))
        cold = glm.glm_fit_stack(spec, designs, y)
        assert not np.array_equal(cold.loglik_trace[:, 0], stack.loglik_trace[:, 0])
        np.testing.assert_allclose(stack.beta, cold.beta, rtol=0.0, atol=1e-8)

    def test_one_separated_row_raises(self):
        x = np.linspace(-1.0, 1.0, 40)
        design = reg.design_matrix(x)
        y = (RandomStream(512).uniforms(40 * 4).reshape(4, 40) < 0.5).astype(float)
        y[2] = x > 0
        with pytest.raises(SeparationError):
            glm.glm_fit(glm.bernoulli_logit(), design, y[2])
        with pytest.raises(SeparationError):
            glm.glm_fit_stack(glm.bernoulli_logit(), design, y)

    def test_one_rank_deficient_row_raises(self):
        spec, designs, y = _family_rows("logistic", 50, 4, RandomStream(513))
        designs[1, :, 2] = 2.0 * designs[1, :, 1]
        with pytest.raises(SingularDesignError) as single:
            glm.glm_fit(spec, reg.DesignMatrix(designs[1]), y[1])
        assert "columns [1, 2]" in str(single.value)
        with pytest.raises(SingularDesignError, match=re.escape(str(single.value))):
            glm.glm_fit_stack(spec, designs, y)

    def test_bad_responses_and_shapes(self):
        spec, designs, y = _family_rows("logistic", 30, 3, RandomStream(514))
        y[1, 4] = 0.5
        with pytest.raises(DomainError, match="0/1"):
            glm.glm_fit_stack(spec, designs, y)
        with pytest.raises(DomainError):
            glm.glm_fit_stack(spec, designs, y[:2])
        with pytest.raises(DomainError):
            glm.glm_fit_stack(spec, designs[0], y)

    def test_wald_intervals_per_row(self):
        spec, designs, y = _family_rows("logistic", 300, 5, RandomStream(515), shared=True)
        design = reg.DesignMatrix(designs[0])
        stack = glm.glm_wald_ci(glm.glm_fit_stack(spec, design, y), 1, 0.05)
        for r, row in enumerate(y):
            single = glm.glm_wald_ci(glm.glm_fit(spec, design, row), 1, 0.05)
            assert (stack.lo[r], stack.hi[r]) == (single.lo, single.hi)


def _copying_halved_steps(spec, m, y, beta, eta, ll, step, pending):
    """``glm._halved_steps`` written with copies and gather-and-scatter
    writes, the reference that its in-place writes must match."""
    new_beta, new_eta, new_ll = beta.copy(), eta.copy(), ll.copy()
    pending = pending.copy()
    floor = ll - 1e-13 * (1.0 + np.abs(ll))
    scale = 1.0
    for _ in range(glm._MAX_HALVINGS):
        candidate = beta + scale * step
        candidate_eta = (m @ candidate[..., None])[..., 0]
        with np.errstate(all="ignore"):
            candidate_ll = spec.loglik(y, candidate_eta)
        accept = pending & np.all(np.isfinite(candidate_eta), axis=-1) & (candidate_ll >= floor)
        new_beta[accept] = candidate[accept]
        new_eta[accept] = candidate_eta[accept]
        new_ll[accept] = candidate_ll[accept]
        pending &= ~accept
        if not pending.any():
            break
        scale *= 0.5
    return new_beta, new_eta, new_ll, pending


class TestScoringPass:
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("rows", [1, 7, 32])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_information_is_the_weighted_gram(self, k, rows, shared, monkeypatch):
        # the returned information against mt @ (m * w[..., None]) at the
        # weights of the final iterate, the last weights formed, and those
        # weights against c (1 - c) of the clamped means c
        n = 2000
        root = RandomStream(520 + k)
        count = 1 if shared else rows
        covariates = root.normals(count * n * (k - 1)).reshape(count, n, k - 1)
        designs = np.concatenate([np.ones((count, n, 1)), covariates], axis=-1)
        m = designs[0] if shared else designs
        xi = designs @ np.linspace(0.4, -0.6, k)
        y = (root.uniforms(rows * n).reshape(rows, n) < sp.expit(xi)).astype(float)
        spec = glm.bernoulli_logit()
        seen = []
        weights = glm.LogisticSpec.weights

        def recorded(self, eta, mu):
            seen.append((mu.copy(), weights(self, eta, mu)))
            return seen[-1][1]
        monkeypatch.setattr(glm.LogisticSpec, "weights", recorded)
        info = glm.glm_fit_stack(spec, reg.DesignMatrix(m) if shared else m, y).fisher_info
        mu, w = seen[-1]
        clamped = np.clip(mu, glm._PROB_CLAMP, 1.0 - glm._PROB_CLAMP)
        assert w.tobytes() == (clamped * (1.0 - clamped)).tobytes()
        expected = np.swapaxes(m, -1, -2) @ (m * w[..., None])
        assert info.shape == (rows, k, k)
        assert info.tobytes() == expected.tobytes()

    def test_halving_writes_accepted_rows_in_place(self):
        spec, designs, y = _family_rows("logistic", 200, 6, RandomStream(521), shared=True)
        m = designs[0]
        beta = np.zeros((6, 3))
        eta = (m @ beta[..., None])[..., 0]
        ll = spec.loglik(y, eta)
        gradient = (m.T @ (y - 0.5)[..., None])[..., 0]
        # steps fifty times Newton's from zero, which overshoot, and a
        # downhill step on row 0, which no halving makes acceptable
        step = 50.0 * np.linalg.solve(m.T @ m / 4.0, gradient[..., None])[..., 0]
        step[0] = -gradient[0]
        pending = np.array([True, True, False, True, False, True])
        assert np.all(spec.loglik(y, (m @ (beta + step)[..., None])[..., 0])[pending] < ll[pending])
        expected = _copying_halved_steps(spec, m, y, beta, eta, ll, step, pending)
        given_eta, given_pending = eta.copy(), pending.copy()
        got = glm._halved_steps(spec, m, y, beta, given_eta, ll, step, given_pending)
        assert got[1] is given_eta and np.array_equal(given_pending, pending)
        for one, other in zip(got, expected):
            assert one.tobytes() == other.tobytes()
        # rows 1, 3 and 5 are accepted, each after halving its full step
        assert got[3].tolist() == [True, False, False, False, False, False]
        assert got[1][~pending].tobytes() == eta[~pending].tobytes()


def _steep_weights(self, eta, mu, weights=glm.LogisticSpec.weights):
    """The logistic weights understated eightfold where the mean is 1/2, as
    it is everywhere at a zero start, so that the first steps are eight
    times as long."""
    w = weights(self, eta, mu)
    return np.where(mu == 0.5, w / 8.0, w)


class TestZeroStart:
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("steep", [False, True], ids=["logit", "steep"])
    def test_shortcut_equals_the_general_pass(self, steep, shared, monkeypatch):
        rows, n = 9, 300
        spec, designs, y = _family_rows("logistic", n, rows, RandomStream(530), shared)
        if steep:
            monkeypatch.setattr(glm.LogisticSpec, "weights", _steep_weights)
        # A logistic step from zero never lowers the log-likelihood, as the
        # information there, Xᵀ X / 4, bounds the curvature everywhere; the
        # steep weights' first steps overshoot on some rows and are halved.
        mt = np.swapaxes(designs, -1, -2)
        w = spec.weights(np.zeros((1, 1)), np.full((1, 1), 0.5))
        first = np.linalg.solve(w * mt @ designs, mt @ (y - 0.5)[..., None])
        lowered = spec.loglik(y, (designs @ first)[..., 0]) < spec.loglik(y, np.zeros((rows, n)))
        assert lowered.any() == steep
        design = reg.DesignMatrix(designs[0]) if shared else designs
        heights = []
        loglik = glm.LogisticSpec.loglik

        def recorded(self, y, xi):
            heights.append(len(y))
            return loglik(self, y, xi)
        monkeypatch.setattr(glm.LogisticSpec, "loglik", recorded)
        shortcut = glm.glm_fit_stack(spec, design, y)
        assert heights[0] == 1  # one row's log-likelihood at zero serves every row
        monkeypatch.setattr(glm.LogisticSpec, "mean_at_zero", None)
        heights.clear()
        general = glm.glm_fit_stack(spec, design, y)
        assert heights[0] == rows
        for field in dataclasses.fields(general):
            assert getattr(shortcut, field.name).tobytes() == \
                getattr(general, field.name).tobytes(), field.name

    def test_offset_logit_never_takes_the_shortcut(self):
        # its mean at zero is expit(offset), which differs by observation
        assert glm.bernoulli_logit().mean_at_zero == 0.5
        assert glm._OffsetLogit.mean_at_zero is None
        bank = glm.IRTItemBank(a=np.array([0.8, 1.2, 1.5, 0.6]), b=np.array([-1.0, 0.0, 0.5, 1.0]))
        y = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        spec = glm._OffsetLogit(offset=-bank.a * bank.b)
        fit = glm.glm_fit_stack(spec, reg.DesignMatrix(bank.a[:, None], has_intercept=False), y)
        at_zero = spec.loglik(y, np.zeros_like(y))
        assert len(set(at_zero.tolist())) == 3
        assert fit.loglik_trace[:, 0].tobytes() == at_zero.tobytes()


class TestFinalInformation:
    @pytest.mark.parametrize("family", ["logistic", "offset"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_information_is_the_weighted_gram_at_the_final_iterate(self, family, shared):
        spec, designs, y = _family_rows(family, 200, 7, RandomStream(531), shared)
        m = designs[0] if shared else designs
        fit = glm.glm_fit_stack(spec, reg.DesignMatrix(m) if shared else m, y)
        w = spec.weights((m @ fit.beta[..., None])[..., 0], fit.mu)
        expected = np.swapaxes(m, -1, -2) @ (m * w[..., None])
        assert fit.fisher_info.tobytes() == expected.tobytes()

    def test_wilks_full_fit_core_keeps_the_checks(self):
        spec, designs, y = _family_rows("logistic", 60, 4, RandomStream(532))
        m, scores = glm._checked_scoring(spec, designs, y)
        assert m is designs and not hasattr(scores, "fisher_info")
        assert scores.log_likelihood.tobytes() == \
            glm.glm_fit_stack(spec, designs, y).log_likelihood.tobytes()
        bad = y.copy()
        bad[2, 7] = 2.0
        with pytest.raises(DomainError, match="0/1"):
            glm._checked_scoring(spec, designs, bad)
        singular = designs.copy()
        singular[3, :, 2] = -singular[3, :, 1]
        with pytest.raises(SingularDesignError):
            glm._checked_scoring(spec, singular, y)


class TestWald:
    def test_interval_is_beta_plus_minus_z_se(self, logistic_data):
        design, y, _ = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        se = np.sqrt(np.diag(np.linalg.inv(fit.fisher_info)))
        z = float(stats.norm.ppf(0.975))
        for j in range(3):
            ci = glm.glm_wald_ci(fit, j, 0.05)
            assert (ci.level, ci.kind) == (0.95, "glm_wald")
            assert ci.lo == pytest.approx(fit.beta[j] - z * se[j], rel=1e-12)
            assert ci.hi == pytest.approx(fit.beta[j] + z * se[j], rel=1e-12)

    def test_coefficient_index_out_of_range(self, logistic_data):
        design, y, _ = logistic_data
        fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
        for j in (-1, 3):
            with pytest.raises(DomainError, match="coefficient index"):
                glm.glm_wald_ci(fit, j, 0.05)

    def test_logistic_coverage(self):
        root = RandomStream(91)
        n, reps = 500, 800
        covariates = root.normals(n * 2).reshape(n, 2)
        design = reg.design_matrix(covariates)
        beta = np.array([0.2, 0.7, -0.4])
        prob = 1.0 / (1.0 + np.exp(-(design.matrix @ beta)))
        covered = 0
        for r in range(reps):
            y = (root.split(r).uniforms(n) < prob).astype(float)
            fit = glm.glm_fit(glm.bernoulli_logit(), design, y)
            covered += glm.glm_wald_ci(fit, 1, 0.05).covers(beta[1])
        assert covered / reps == pytest.approx(0.95, abs=0.03)

    def test_width_scales_inverse_root_n(self, logistic_data):
        design, y, beta = logistic_data
        fit_small = glm.glm_fit(glm.bernoulli_logit(), design, y)
        big = np.tile(design.matrix, (4, 1))
        fit_big = glm.glm_fit(glm.bernoulli_logit(), reg.DesignMatrix(big), np.tile(y, 4))
        ratio = glm.glm_wald_ci(fit_small, 1, 0.05).half_width / \
            glm.glm_wald_ci(fit_big, 1, 0.05).half_width
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestIRT:
    def test_symmetric_rasch_items(self):
        bank = glm.IRTItemBank(a=np.array([1.0, 1.0]), b=np.array([-0.7, 0.7]))
        fit = glm.irt_ability_fit(bank, [1.0, 0.0])
        assert fit.gamma_hat == pytest.approx(0.0, abs=1e-9)

    def test_boundary_response_patterns(self):
        bank = glm.IRTItemBank(a=np.ones(5), b=np.zeros(5))
        with pytest.raises(NoFiniteMLEError):
            glm.irt_ability_fit(bank, np.ones(5))
        with pytest.raises(NoFiniteMLEError):
            glm.irt_ability_fit(bank, np.zeros(5))

    def test_ability_recovery(self):
        root = RandomStream(313)
        bank = glm.IRTItemBank(a=0.5 + root.uniforms(40) * 1.5,
                               b=root.normals(40))
        gamma_true = 0.5
        prob = bank.success_probability(gamma_true)
        inside = 0
        examinees = 2000
        skipped = 0
        for r in range(examinees):
            y = (root.split(r).uniforms(40) < prob).astype(float)
            if y.min() == y.max():
                skipped += 1
                continue
            fit = glm.irt_ability_fit(bank, y)
            inside += abs(fit.gamma_hat - gamma_true) <= 3.0 * fit.se
        assert inside / (examinees - skipped) >= 0.99

    def test_information_is_score_variance(self):
        root = RandomStream(314)
        bank = glm.IRTItemBank(a=0.5 + root.uniforms(30), b=root.normals(30))
        gamma = 0.3
        prob = bank.success_probability(gamma)
        reps = 100_000
        u = root.uniforms(reps * 30).reshape(reps, 30)
        scores = ((u < prob).astype(float) - prob) @ bank.a
        info = float((bank.a ** 2 * prob * (1 - prob)).sum())
        sample_var = scores.var(ddof=1)
        se = math.sqrt(2.0 / (reps - 1)) * sample_var  # normal-theory spread
        assert abs(sample_var - info) <= 3.0 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            glm.IRTItemBank(a=np.array([1.0, -1.0]), b=np.zeros(2))
        bank = glm.IRTItemBank(a=np.ones(3), b=np.zeros(3))
        with pytest.raises(DomainError):
            glm.irt_ability_fit(bank, [1.0, 0.0])
        # the shape and the 0/1 check come before the all-equal check
        with pytest.raises(DomainError, match="0/1"):
            glm.irt_ability_fit(bank, [2.0, 2.0, 2.0])
        with pytest.raises(DomainError, match="one response per item"):
            glm.irt_ability_fit(bank, np.ones((2, 2, 3)))

    @staticmethod
    def _mixed_responses(rows):
        root = RandomStream(315)
        bank = glm.IRTItemBank(a=0.5 + root.uniforms(40) * 1.5, b=root.normals(40))
        y = (root.uniforms(4 * rows * 40).reshape(-1, 40)
             < bank.success_probability(0.5)).astype(float)
        return bank, y[y.min(axis=1) < y.max(axis=1)][:rows]

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_stacked_rows_equal_single_fits(self, rows):
        bank, y = self._mixed_responses(rows)
        stack = glm.irt_ability_fit(bank, y)
        assert stack.gamma_hat.shape == stack.se.shape == stack.iterations.shape == (rows,)
        for r in range(rows):
            one = glm.irt_ability_fit(bank, y[r])
            assert (one.gamma_hat, one.se, one.iterations) == \
                (stack.gamma_hat[r], stack.se[r], stack.iterations[r])

    def test_single_fit_fields_are_python_numbers(self):
        bank, y = self._mixed_responses(1)
        fit = glm.irt_ability_fit(bank, y[0])
        assert type(fit.gamma_hat) is float and type(fit.se) is float
        assert type(fit.iterations) is int

    def test_fit_solves_the_score_equation(self):
        bank, y = self._mixed_responses(300)
        fit = glm.irt_ability_fit(bank, y)
        prob = sp.expit(bank.a * (fit.gamma_hat[:, None] - bank.b))
        score = (y - prob) @ bank.a
        assert np.all(np.abs(score) <= 1e-10 * (1.0 + np.abs(y @ bank.a)))
        info = (bank.a ** 2 * prob * (1.0 - prob)).sum(axis=1)
        np.testing.assert_allclose(fit.se, 1.0 / np.sqrt(info), rtol=1e-12, atol=0.0)

    def test_separated_bank_has_a_finite_ability(self):
        # steep items either side of zero: the score still changes sign, so
        # the fit must not be refused as separated
        bank = glm.IRTItemBank(a=np.array([20.0, 20.0]), b=np.array([-1.0, 1.0]))
        fit = glm.irt_ability_fit(bank, [1.0, 0.0])
        assert fit.gamma_hat == pytest.approx(0.0, abs=1e-12)
        # 1 - p keeps about 7 digits at p = expit(20)
        info = 800.0 * sp.expit(20.0) * sp.expit(-20.0)
        assert fit.se == pytest.approx(1.0 / math.sqrt(info), rel=1e-7)

    def test_all_equal_row_anywhere_in_a_stack(self):
        bank, y = self._mixed_responses(7)
        for r in (0, 3, 6):
            stack = y.copy()
            stack[r] = float(r % 2)
            with pytest.raises(NoFiniteMLEError):
                glm.irt_ability_fit(bank, stack)
