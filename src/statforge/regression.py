"""Ordinary least squares with full inference, one fit or a stack of
responses against one design, ridge, and LASSO."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

from .distributions import FisherF, StudentT
from .errors import (ConvergenceError, DegenerateSampleError, DomainError,
                     NestingError, SingularDesignError)
from .results import (ConfidenceInterval, TestReport, _matvec, _sample,
                      first_row, interval_quantile)
from .rng import RandomStream, replicate

__all__ = [
    "DesignMatrix", "design_matrix", "require_full_rank", "LinearFit", "ols_fit",
    "coef_interval", "response_band", "f_test_nested",
    "RidgeFit", "ridge_fit", "LassoFit", "lasso_fit", "soft_threshold",
    "estimate_restricted_eigenvalue", "lasso_penalty_rule",
]

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Regressor array; column 0 is all ones when ``has_intercept``."""

    matrix: np.ndarray
    has_intercept: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1:
            raise DomainError("design must be a nonempty 2-d array")
        object.__setattr__(self, "matrix", m)
        if self.has_intercept and not np.all(m[:, 0] == 1.0):
            raise DomainError("intercept designs must carry a leading ones column")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def require_full_rank(matrix: np.ndarray) -> None:
    """Raise :class:`SingularDesignError` naming the dependent columns of the
    first rank-deficient design in ``matrix``, one ``(n, k)`` design or a
    stack ``(R, n, k)``, and :class:`DomainError` on a non-finite entry. The
    check is one batched SVD of the designs' ``(k, k)`` QR factors R, whose
    singular values are the designs' (Chan, 1982), at a fraction of the
    cost of the tall designs' SVD. The columns are named from the last right
    singular vector of a thin SVD, which builds no ``(n, n)`` factor."""
    n, k = matrix.shape[-2:]
    if not 1 <= k <= n:
        raise SingularDesignError(
            f"singular design: {k} columns on {n} rows; a fit needs 1 to {n} columns")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("design entries must be finite")
    sv = np.linalg.svd(np.linalg.qr(matrix, mode="r"), compute_uv=False)
    deficient = np.flatnonzero(sv[..., -1] <= _RANK_RTOL * sv[..., 0])
    if deficient.size:
        _, _, vt = np.linalg.svd(matrix.reshape(-1, *matrix.shape[-2:])[deficient[0]],
                                 full_matrices=False)
        null = np.abs(vt[-1])
        involved = np.flatnonzero(null > 0.1 * null.max())
        raise SingularDesignError(
            f"singular design: columns {involved.tolist()} are linearly dependent"
        )


def design_matrix(x, intercept: bool = True) -> DesignMatrix:
    """Assemble a design from raw regressors, prepending ones by default.

    A 1-d input is treated as a single regressor column.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if intercept:
        x = np.column_stack([np.ones(x.shape[0]), x])
    return DesignMatrix(matrix=x, has_intercept=intercept)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of one response, or of a stack of responses against
    one design. Stacked, each per-row field gains a leading row axis, and
    row ``r`` is what :func:`ols_fit` gives for row ``r``; the design, the
    Gram inverse and the hat diagonal are shared. A single fit's sums of
    squares, ``r2``, ``r2_adj`` and ``sigma2_hat`` are floats."""

    design: DesignMatrix
    y: np.ndarray                     # (n,), stacked (R, n)
    beta: np.ndarray                  # (k,), stacked (R, k)
    fitted: np.ndarray                # (n,), stacked (R, n)
    residuals: np.ndarray             # (n,), stacked (R, n)
    gram_inverse: np.ndarray          # (k, k)
    hat_diagonal: np.ndarray          # (n,)
    ss_total: float                   # stacked (R,)
    ss_reg: float                     # stacked (R,)
    ss_res: float                     # stacked (R,)
    r2: float                         # stacked (R,)
    r2_adj: float                     # stacked (R,)
    sigma2_hat: Optional[float]       # stacked (R,); None without residual df

    @property
    def df_residual(self) -> int:
        return self.design.n - self.design.n_columns


def _responses(y, n: int) -> np.ndarray:
    """``y``, one response or a stack of them, as a finite ``(R, n)`` float
    stack; any other shape raises :class:`DomainError`."""
    stack = np.atleast_2d(np.asarray(y, dtype=float))
    if stack.ndim != 2 or stack.shape[0] < 1 or stack.shape[1] != n:
        raise DomainError("response length must match the design")
    return _sample(stack, what="response")


def ols_fit(x: DesignMatrix, y) -> LinearFit:
    """Least squares through a Householder QR factorization, of one response
    or of each row of a 2-d ``y`` ``(R, n)``, each row bit-identical to its
    single fit: one rank check, one QR, one Gram inverse and one hat diagonal
    serve every row. The Gram inverse is recovered from the triangular factor
    rather than by forming and inverting the normal equations."""
    single = np.ndim(y) == 1
    y = _responses(y, x.n)
    require_full_rank(x.matrix)
    q, r = np.linalg.qr(x.matrix)
    # trtrs is the LAPACK call solve_triangular(r, v) makes, minus its checks
    qty = _matvec(q.T, y)
    trtrs, = get_lapack_funcs(("trtrs",), (r,))
    a, flip = (r, 0) if r.flags.f_contiguous else (r.T, 1)
    beta = np.array([trtrs(a, v, lower=flip, trans=flip)[0] for v in qty])
    fitted = _matvec(x.matrix, beta)
    residuals = y - fitted
    r_inv = solve_triangular(r, np.eye(x.n_columns))
    center = y.mean(axis=-1, keepdims=True) if x.has_intercept else 0.0
    ss_total = ((y - center) ** 2).sum(axis=-1)
    ss_res = (residuals ** 2).sum(axis=-1)
    ss_reg = ((fitted - center) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_total > 0, 1.0 - ss_res / ss_total, 1.0)
    df = x.n - x.n_columns
    if df >= 1:
        sigma2 = ss_res / df
        r2_adj = 1.0 - (x.n - 1) / df * (1.0 - r2)
    else:
        sigma2 = None
        r2_adj = np.full(len(y), np.nan)
    fit = LinearFit(design=x, y=y, beta=beta, fitted=fitted, residuals=residuals,
                    gram_inverse=r_inv @ r_inv.T, hat_diagonal=(q ** 2).sum(axis=1),
                    ss_total=ss_total, ss_reg=ss_reg, ss_res=ss_res, r2=r2,
                    r2_adj=r2_adj, sigma2_hat=sigma2)
    return first_row(fit, shared=("design", "gram_inverse", "hat_diagonal")) if single else fit


def _require_inference(fit) -> float:
    if fit.sigma2_hat is None:
        raise DegenerateSampleError(
            "no residual degrees of freedom: inference needs n >= columns + 1")
    return fit.sigma2_hat


def coef_interval(fit, j: int, delta: float) -> ConfidenceInterval:
    """Studentized interval for one coefficient; a stacked fit gives one
    interval per row."""
    sigma2 = _require_inference(fit)
    if not 0 <= j < fit.beta.shape[-1]:
        raise DomainError("coefficient index out of range")
    scale = np.sqrt(sigma2 * fit.gram_inverse[j, j])
    quantile = interval_quantile(StudentT(fit.df_residual), delta)
    center = fit.beta[..., j]
    half = quantile * scale
    return ConfidenceInterval(center - half, center + half, 1.0 - delta, "coef_t")


def response_band(fit: LinearFit, x0, kind: str, delta: float) -> ConfidenceInterval:
    """Interval around the regression surface at one regressor point; a
    stacked fit gives one interval per row.

    ``mean_pointwise`` covers the mean response at ``x0``;
    ``mean_scheffe`` widens to hold simultaneously over all points;
    ``prediction`` covers a future response drawn at ``x0``.
    """
    sigma2 = _require_inference(fit)
    x0 = _sample(x0, what="x0")
    if x0.shape != (fit.design.n_columns,):
        raise DomainError("x0 must include every design column, intercept first")
    q = float(x0 @ fit.gram_inverse @ x0)
    sigma = np.sqrt(sigma2)
    df = fit.df_residual
    if kind == "mean_pointwise":
        half = interval_quantile(StudentT(df), delta) * sigma * math.sqrt(q)
    elif kind == "mean_scheffe":
        d = fit.design.n_columns
        f_quant = interval_quantile(FisherF(d, df), delta, sides=1)
        half = sigma * math.sqrt(d * f_quant) * math.sqrt(q)
    elif kind == "prediction":
        half = interval_quantile(StudentT(df), delta) * sigma * math.sqrt(1.0 + q)
    else:
        raise DomainError(f"unknown band kind {kind!r}")
    # each row's product has the bits of the single fit's
    center = (fit.beta[..., None, :] @ x0)[..., 0]
    return ConfidenceInterval(center - half, center + half, 1.0 - delta, f"response_{kind}")


def f_test_nested(fit_full, fit_null) -> TestReport:
    """Compare nested least-squares fits on the same response; two stacked
    fits give one test per row."""
    if not np.array_equal(fit_full.y, fit_null.y):
        raise NestingError("fits must share the response vector")
    full_cols = fit_full.design.matrix
    null_cols = fit_null.design.matrix
    for jn in range(null_cols.shape[1]):
        column = null_cols[:, jn]
        if not any(np.array_equal(column, full_cols[:, jf])
                   for jf in range(full_cols.shape[1])):
            raise NestingError(f"null design column {jn} is not a full-design column")
    df_diff = fit_full.design.n_columns - fit_null.design.n_columns
    df_res = fit_full.df_residual
    if df_res < 1:
        raise DegenerateSampleError("full fit has no residual degrees of freedom")
    if df_diff == 0:
        zero = np.zeros_like(fit_full.ss_res)
        return TestReport(zero, zero + 1.0, kind="f_nested", extras={"df_diff": 0})
    stat = ((fit_null.ss_res - fit_full.ss_res) / df_diff) / (fit_full.ss_res / df_res)
    # fmax, like max(0.0, .), maps a nan statistic to 0
    stat = np.fmax(0.0, stat)
    return TestReport(stat, FisherF(df_diff, df_res).sf(stat), kind="f_nested",
                      extras={"df_diff": df_diff})


# -- ridge ------------------------------------------------------------------------


@dataclass(frozen=True)
class RidgeFit:
    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray


def ridge_fit(x: DesignMatrix, y, penalty: float) -> RidgeFit:
    """Quadratically penalized least squares.

    Solves ``(X'X + 2 penalty I) beta = X'y``; the factor 2 reflects the
    half-squared-error objective, so ``penalty`` multiplies ``||beta||^2``
    against ``0.5 ||y - X beta||^2``. Every coefficient is penalized,
    including the intercept.
    """
    if not penalty >= 0:
        raise DomainError("penalty must be nonnegative")
    y = _responses([y], x.n)[0]
    if penalty == 0.0:
        require_full_rank(x.matrix)
    gram = x.matrix.T @ x.matrix + 2.0 * penalty * np.eye(x.n_columns)
    beta = np.linalg.solve(gram, x.matrix.T @ y)
    fitted = x.matrix @ beta
    return RidgeFit(beta=beta, fitted=fitted, residuals=y - fitted)


# -- lasso ------------------------------------------------------------------------


def soft_threshold(value, threshold):
    """``value`` shrunk toward 0 by ``threshold``, elementwise: the minimizer
    of ``(b - value)^2 / 2 + threshold * |b|``."""
    return value - np.clip(value, -threshold, threshold)


@dataclass(frozen=True)
class LassoFit:
    """LASSO fit of one response, or of a stack of responses against one
    design, one per row: row ``r`` of every field is what :func:`lasso_fit`
    gives for row ``r``, and row ``r`` of the objective trace is
    ``objective_trace[r, :iterations[r]]``. A single fit's ``iterations``
    is an int."""

    beta: np.ndarray             # (k,), stacked (R, k)
    iterations: int              # stacked (R,)
    objective_trace: np.ndarray  # (iterations,), stacked (R, max iterations)

    @property
    def active_set(self) -> np.ndarray:
        """Indices of a single fit's nonzero coefficients."""
        return np.flatnonzero(self.beta)


def lasso_fit(x: DesignMatrix, y, penalty: float, tol: float = 1e-10,
              max_sweeps: int = 100_000) -> LassoFit:
    """L1-penalized least squares by cyclic coordinate descent, of one
    response or of each row of a 2-d ``y`` ``(R, n)``.

    Minimizes ``||y - X beta||^2 / (2n) + penalty * ||slopes||_1`` with the
    intercept never penalized. Each coordinate update is the exact
    univariate soft-threshold minimizer, so the objective cannot increase.
    A stack sweeps every row at once; rows that have converged are frozen,
    as only the rows still iterating are written, and each row's results
    are bit-identical to its single fit.
    """
    single = np.ndim(y) == 1
    y = _responses(y, x.n)
    if not penalty >= 0:
        raise DomainError("penalty must be nonnegative")
    if penalty == 0.0:
        require_full_rank(x.matrix)
    n, d = x.matrix.shape
    cols = np.ascontiguousarray(x.matrix.T)
    col_ms = (cols ** 2).sum(axis=-1) / n
    if np.any(col_ms == 0.0):
        raise SingularDesignError("zero design column")
    thresholds = np.full(d, float(penalty))
    thresholds[:int(x.has_intercept)] = 0.0  # the intercept is never penalized
    beta = np.zeros((len(y), d))
    resid = y.copy()
    active = np.ones(len(y), dtype=bool)
    iterations = np.zeros(len(y), dtype=int)
    trace = []
    for _ in range(max_sweeps):
        iterations += active
        change = np.zeros(len(y))
        for j, col in enumerate(cols):
            old = beta[:, j]
            # the stacked product gives each row the bits of its own
            rho = (resid[:, None, :] @ col[:, None])[:, 0, 0] / n + col_ms[j] * old
            new = soft_threshold(rho, thresholds[j]) / col_ms[j]
            step = new - old
            moved = active & (new != old)
            np.subtract(resid, step[:, None] * col, out=resid, where=moved[:, None])
            np.copyto(old, new, where=moved)
            np.maximum(change, np.abs(step), out=change, where=moved)
        trace.append((resid ** 2).sum(axis=-1) / (2.0 * n)
                     + (thresholds * np.abs(beta)).sum(axis=-1))
        active &= ~(change <= tol * (1.0 + np.abs(beta).max(axis=-1)))
        if not active.any():
            fit = LassoFit(beta=beta, iterations=iterations,
                           objective_trace=np.stack(trace, axis=-1))
            return first_row(fit) if single else fit
    raise ConvergenceError("coordinate descent did not converge",
                           last_iterate=beta[np.argmax(active)])


def lasso_penalty_rule(n: int, p: int, sigma: float, t: float) -> float:
    """Penalty level that dominates the correlation of noise with any
    column normalized to ``||x_j||^2 / n = 1``, up to failure probability
    2 exp(-t^2 / 2)."""
    if not (n >= 1 and p >= 1 and sigma > 0 and t > 0):
        raise DomainError("all rule inputs must be positive")
    lam2 = 8.0 * sigma ** 2 * (math.log(p) / n + t * t / (2.0 * n))
    return math.sqrt(lam2)


def estimate_restricted_eigenvalue(x: DesignMatrix, support, n_probes: int,
                                   stream: RandomStream) -> float:
    """Randomized lower-envelope search for min ||Xv||^2 / (n ||v||^2) over
    the cone where off-support mass is at most three times support mass.
    Probe ``i`` draws from ``stream.split(i)`` through :func:`replicate`."""
    m = x.matrix[:, 1:] if x.has_intercept else x.matrix
    p = m.shape[1]
    support = np.asarray(support, dtype=int)
    if n_probes < 1:
        raise DomainError("need at least one probe")
    if support.ndim != 1 or support.size == 0:
        raise DomainError("the support must be a nonempty list of column indices")
    if support.min() < 0 or support.max() >= p or np.unique(support).size != support.size:
        raise DomainError(f"support indices must be distinct and in [0, {p})")
    mask = np.zeros(p, dtype=bool)
    mask[support] = True
    ratios = replicate(partial(_cone_ratios, m, mask), n_probes, stream, width=sum(m.shape))
    return float(ratios.min())


def _cone_ratios(m, mask, batch):
    """||Xv||^2 / (n ||v||^2) of each row's probe ``v``: normal on the
    support, and off it normal directions scaled to an l1 mass of a uniform
    fraction of three times the support's."""
    v = np.zeros((len(batch.ids), mask.size))
    v_s = batch.normals(int(mask.sum()))
    budget = 3.0 * np.abs(v_s).sum(axis=-1) * batch.uniforms(1)[:, 0]
    rest = batch.normals(mask.size - v_s.shape[1])
    l1 = np.abs(rest).sum(axis=-1)
    v[:, mask] = v_s
    v[:, ~mask] = rest * np.divide(budget, l1, out=np.zeros_like(l1), where=l1 > 0)[:, None]
    image = _matvec(m, v)
    return (image ** 2).sum(axis=-1) / (m.shape[0] * (v ** 2).sum(axis=-1))

