"""Tail-bound calculators, empirical tail verification, random projection,
and Erdos-Renyi random-graph experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .distributions import DistributionSpec, _Parameters, _spec_list, dist_sample
from .errors import DomainError
from .results import _sample
from .rng import RandomStream, replicate_chunks

__all__ = [
    "Markov", "Chebyshev", "SubGaussian", "SubExponential",
    "ChiSquaredRelative", "ChernoffBinomial", "TailBound", "tail_bound",
    "EmpiricalTail", "empirical_tail",
    "JLConfig", "jl_target_dim", "jl_project", "JLTrialResult", "jl_trial",
    "ErdosRenyiGraph", "er_sample", "ErMetrics", "er_metrics",
    "regular_degree_constant",
]


# -- closed-form tail bounds ---------------------------------------------------


class _Bound(_Parameters):
    """Base of the closed-form bounds: every parameter is positive, and a
    parameter annotated ``int`` is an integer."""

    def _check(self):
        for param in fields(self):
            value = getattr(self, param.name)
            integer = param.type == "int"
            if not value > 0 or integer and not isinstance(value, (int, np.integer)):
                raise DomainError(f"{type(self).__name__} bound needs a positive "
                                  f"{'integer ' if integer else ''}{param.name}")


@dataclass(frozen=True)
class Markov(_Bound):
    mean: float

    def raw(self, t: float) -> float:
        return self.mean / t


@dataclass(frozen=True)
class Chebyshev(_Bound):
    variance: float

    def raw(self, t: float) -> float:
        return self.variance / t ** 2


@dataclass(frozen=True)
class SubGaussian(_Bound):
    sigma: float

    def raw(self, t: float) -> float:
        return 2.0 * math.exp(-t * t / (2.0 * self.sigma ** 2))


@dataclass(frozen=True)
class SubExponential(_Bound):
    nu: float
    beta: float

    def raw(self, t: float) -> float:
        # Gaussian branch for small deviations, exponential branch past nu^2/beta.
        if t < self.nu ** 2 / self.beta:
            return 2.0 * math.exp(-t * t / (2.0 * self.nu ** 2))
        return 2.0 * math.exp(-t / (2.0 * self.beta))


@dataclass(frozen=True)
class ChiSquaredRelative(_Bound):
    """Deviation of a chi-squared variable from its mean, per degree of freedom."""

    k: int

    def raw(self, t: float) -> float:
        if t < 1.0:
            return 2.0 * math.exp(-self.k * t * t / 8.0)
        return 2.0 * math.exp(-self.k * t / 8.0)


@dataclass(frozen=True)
class ChernoffBinomial(_Bound):
    """Multiplicative deviation of a binomial/Poisson count from its mean lam.

    ``t`` is the absolute deviation; the bound applies for t < lam.
    """

    lam: float

    def raw(self, t: float) -> float:
        eps = t / self.lam
        if eps >= 1.0:
            raise DomainError("Chernoff branch requires t < lam")
        return 2.0 * math.exp(-eps * eps * self.lam / 3.0)


TailBoundKind = Union[Markov, Chebyshev, SubGaussian, SubExponential,
                      ChiSquaredRelative, ChernoffBinomial]


@dataclass(frozen=True)
class TailBound:
    raw: float
    clamped: float


def tail_bound(kind: TailBoundKind, t: float) -> TailBound:
    """Closed-form tail probability bound at deviation ``t`` > 0.

    ``raw`` is the formula value (possibly > 1); ``clamped`` caps it at 1 so
    it can be read as a probability.
    """
    if not t > 0:  # NaN included
        raise DomainError("deviation t must be positive")
    raw = kind.raw(float(t))
    return TailBound(raw=raw, clamped=min(1.0, raw))


# -- empirical tails -----------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalTail:
    frequency: np.ndarray
    standard_error: np.ndarray


def empirical_tail(
    spec: Union[DistributionSpec, Sequence[DistributionSpec]],
    center: float,
    t_grid,
    n_samples: int,
    stream: RandomStream,
) -> EmpiricalTail:
    """Frequency of ``|X - center| >= t`` per grid point, in the grid's order.

    ``spec`` may be a sequence of specs, in which case X is the sum of one
    independent draw from each. Draws come in the chunks of
    :func:`statforge.rng.replicate_chunks` at ``width`` ``len(specs) + 2``: an
    item holds the sum, each spec's value and the sort's copy.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if not math.isfinite(center):
        raise DomainError("center must be finite")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.isnan(t_grid).any():  # an infinite t is taken at its limit
        raise DomainError("t_grid must not hold NaN")
    specs = _spec_list(spec)

    def tail_counts(chunk_stream, take):
        x = np.zeros(take)
        for s in specs:
            x += dist_sample(s, chunk_stream, take)
        dev = np.sort(np.abs(x - center, out=x))
        # count of dev >= t for each t, as a column
        return (take - np.searchsorted(dev, t_grid, side="left"))[:, None]

    counts = replicate_chunks(tail_counts, n_samples, stream,
                              width=len(specs) + 2).sum(axis=-1)
    freq = counts / n_samples
    se = np.sqrt(freq * (1.0 - freq) / n_samples)
    return EmpiricalTail(frequency=freq, standard_error=se)


# -- Johnson-Lindenstrauss ------------------------------------------------------


def jl_target_dim(n: int, epsilon: float, delta: float) -> int:
    """Smallest projection dimension with all-pairs distortion guarantee.

    Solves ``n (n-1) exp(-m eps^2 / 8) = delta`` for m and rounds up.
    """
    if n < 2:
        raise DomainError("need at least two points")
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise DomainError("epsilon and delta must lie in (0, 1)")
    # epsilon ** 2 may underflow to zero
    m = (8.0 / epsilon ** 2) * math.log(n * (n - 1) / delta) if epsilon ** 2 > 0.0 else math.inf
    if m >= 2.0 ** 63:
        raise DomainError(f"epsilon = {epsilon!r} needs a projection dimension of 2**63 or more")
    return max(1, math.ceil(m))


@dataclass(frozen=True)
class JLConfig:
    n_points: int
    ambient_dim: int
    epsilon: float
    delta: float
    m: int = field(init=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DomainError("ambient dimension must be >= 1")
        object.__setattr__(self, "m", jl_target_dim(self.n_points, self.epsilon, self.delta))


def jl_project(points: np.ndarray, m: int, stream: RandomStream) -> np.ndarray:
    """Project each row of ``points`` through one random Gaussian map, an
    (m, dim) matrix of standard normals scaled by 1/sqrt(m)."""
    points = np.atleast_2d(_sample(points, what="points"))
    dim = points.shape[1]
    if m < 1:
        raise DomainError("projection dimension must be >= 1")
    a = stream.normals(m * dim).reshape(m, dim)
    return points @ (a / math.sqrt(m)).T


@dataclass(frozen=True)
class JLTrialResult:
    max_distortion: float
    success: bool
    skipped_pairs: int


# Pairs whose squared distance is at most this share of the largest squared
# norm of the centred cloud lose digits to cancellation in the Gram
# differences. Equal rows come out within rounding of zero, about 1e-16 of it.
_NEAR_PAIR = 1e-6


def _pair_distances(gram: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances ``g_ii + g_jj - 2 g_ij`` of the pairs ``(i, j)``."""
    sq_norms = np.diag(gram)
    return sq_norms[i] + sq_norms[j] - 2.0 * gram[i, j]


def jl_trial(config: JLConfig, stream: RandomStream, points: np.ndarray | None = None) -> JLTrialResult:
    """One projection of a point cloud; success iff every pairwise squared
    distance ratio lies in [1 - eps, 1 + eps]. Coincident pairs (exactly
    equal rows) carry no constraint and are skipped (counted in
    ``skipped_pairs``).

    The projected cloud is drawn from its law, not through the map of
    :func:`jl_project`. For a Gaussian map ``A`` every column of ``P_c A^T``
    is ``N(0, P_c P_c^T)``, ``P_c`` being the centred points, so for any
    factor ``F F^T = P_c P_c^T`` with ``k`` columns the cloud ``F Z / sqrt(m)``,
    ``Z`` a ``(k, m)`` block of standard normals drawn after the points, has
    the projection's law, and translation moves no distance. ``F`` is the
    ``(n, n)`` triangle of a QR of ``P_c^T`` when ``n <= d``, else ``P_c``."""
    n, m = config.n_points, config.m
    if points is None:
        points = stream.normals(n * config.ambient_dim).reshape(n, config.ambient_dim)
    else:
        points = _sample(points, what="points")
        if points.shape != (n, config.ambient_dim):
            raise DomainError(f"points must have shape ({n}, {config.ambient_dim}), "
                              f"got {points.shape}")
    # differences of nearby doubles are exact, so a common offset of the
    # points leaves the centred cloud as it is
    shifted = points - points[0]
    centred = shifted - shifted.mean(axis=0)
    factor = np.linalg.qr(centred.T, mode="r").T if n <= config.ambient_dim else centred
    z = stream.normals(factor.shape[1] * m).reshape(factor.shape[1], m)
    # (F Z)^T: in this orientation OpenBLAS gives the same bits for one
    # thread and for two at the default sizes, where F Z does not
    images = z.T @ factor.T
    i, j = np.triu_indices(n, k=1)
    gram = factor @ factor.T
    before = _pair_distances(gram, i, j)
    after = _pair_distances(images.T @ images, i, j) / m
    near = np.flatnonzero(before <= _NEAR_PAIR * np.max(np.diag(gram)))
    # near pairs from row differences; the ratio's law holds for any direction
    diff = factor[i[near]] - factor[j[near]]
    before[near] = (diff ** 2).sum(axis=1)
    after[near] = ((diff @ z) ** 2).sum(axis=1) / m
    # equal rows sit far inside the near band
    coincident = near[np.all(points[i[near]] == points[j[near]], axis=1)]
    skipped = int(coincident.size)
    if skipped == before.size:
        return JLTrialResult(max_distortion=0.0, success=True, skipped_pairs=skipped)
    ratio = np.delete(after, coincident) / np.delete(before, coincident)
    max_distortion = float(np.max(np.abs(ratio - 1.0)))
    return JLTrialResult(
        max_distortion=max_distortion,
        success=bool(max_distortion <= config.epsilon),
        skipped_pairs=skipped,
    )


# -- Erdos-Renyi graphs ---------------------------------------------------------


@dataclass(frozen=True)
class ErdosRenyiGraph:
    n_vertices: int
    p: float
    edges: np.ndarray  # (m, 2) int array, each row i < j

    def __post_init__(self):
        e = self.edges
        if e.size and not np.all((0 <= e[:, 0]) & (e[:, 0] < e[:, 1])
                                 & (e[:, 1] < self.n_vertices)):
            raise DomainError("edge list must hold ordered pairs of distinct vertices")


def _skip_positions(pairs: int, q: float, stream: RandomStream) -> np.ndarray:
    """Increasing positions in ``0 .. pairs - 1``, each present independently
    with probability ``0 < q < 1``, by the geometric skips of :func:`er_sample`.
    A round holds about six standard deviations more uniforms than the mean
    count, so one nearly always suffices, and its size depends on
    ``(pairs, q)`` only."""
    mean = q * pairs
    count = max(1024, math.ceil(mean + 6.0 * math.sqrt(mean)))
    log_miss = math.log1p(-q)
    rounds = []
    last = -1
    while last < pairs:
        gaps = np.floor(np.log(stream.uniforms_open(count)) / log_miss)
        # a gap past the last pair ends the graph; capping it keeps the sum in range
        np.minimum(gaps, pairs, out=gaps)
        positions = np.cumsum(gaps.astype(np.int64) + 1)
        positions += last
        rounds.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(rounds)
    return positions[:np.searchsorted(positions, pairs)]


def er_sample(n_vertices: int, p: float, stream: RandomStream) -> ErdosRenyiGraph:
    """Include each of the n(n-1)/2 potential edges independently with
    probability p; edges come in lexicographic order.

    The graph is drawn by geometric skips over the pairs in that order
    (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005), over the rarer of
    edges and non-edges: with ``q = min(p, 1 - p)``, rounds of
    ``max(1024, ceil(q P + 6 sqrt(q P)))`` uniforms, ``P`` the number of
    pairs, give gaps ``floor(log u / log1p(-q)) + 1`` until their running
    sum passes the last pair. For p > 1/2 the positions found are the
    non-edges. A graph thus draws about ``min(p, 1 - p) n(n-1)/2`` uniforms,
    and none at p = 0 or p = 1."""
    if n_vertices < 2:
        raise DomainError("need at least two vertices")
    if not 0.0 <= p <= 1.0:
        raise DomainError("edge probability must lie in [0, 1]")
    pairs = n_vertices * (n_vertices - 1) // 2
    q = min(p, 1.0 - p)
    picked = _skip_positions(pairs, q, stream) if q > 0.0 else np.empty(0, np.int64)
    if p > 0.5:
        keep = np.ones(pairs, dtype=bool)
        keep[picked] = False
        picked = np.flatnonzero(keep)
    # row i holds the pairs k from i(2n - i - 1)/2, its pair (i, i + 1), on
    i = np.arange(n_vertices - 1, dtype=np.int64)
    row_start = i * (2 * n_vertices - i - 1) // 2
    per_row = np.diff(np.searchsorted(picked, row_start), append=picked.size)
    edges = np.empty((picked.size, 2), dtype=np.int64)
    edges[:, 0] = np.repeat(i, per_row)
    np.subtract(picked, np.repeat(row_start - i - 1, per_row), out=edges[:, 1])
    return ErdosRenyiGraph(n_vertices=n_vertices, p=p, edges=edges)


@dataclass(frozen=True)
class ErMetrics:
    """Degree statistics of one graph; connectivity is worked out on first
    read of ``is_connected``."""

    edge_count: int
    degree_sequence: np.ndarray
    mean_degree: float
    graph: ErdosRenyiGraph = field(repr=False, compare=False)

    @cached_property
    def is_connected(self) -> bool:
        return _connected(self.graph.n_vertices, self.graph.edges)


def er_metrics(graph: ErdosRenyiGraph) -> ErMetrics:
    n = graph.n_vertices
    edges = graph.edges
    degrees = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
    return ErMetrics(
        edge_count=int(edges.shape[0]),
        degree_sequence=degrees,
        mean_degree=float(degrees.mean()),
        graph=graph,
    )


def _connected(n: int, edges: np.ndarray) -> bool:
    if n <= 1:
        return True
    if edges.shape[0] < n - 1:
        return False
    # imported on use: loading scipy.sparse would slow every start-up
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    adjacency = coo_array((np.ones(edges.shape[0], dtype=np.int8), (edges[:, 0], edges[:, 1])),
                          shape=(n, n))
    return connected_components(adjacency, directed=False, return_labels=False) == 1


def regular_degree_constant(epsilon: float, delta: float) -> float:
    """Degree threshold multiplier C so that mean degree >= C ln N makes
    all vertex degrees stay within a factor (1 +- epsilon) of the mean
    with probability at least 1 - delta."""
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise DomainError("epsilon and delta must lie in (0, 1)")
    return 3.0 * math.log(4.0 / delta) / (epsilon ** 2 * math.log(2.0))

