"""Shared result containers (confidence intervals, test reports), row 0 of
a stacked result, the row-by-row matrix product, interval multipliers and
the intake of observed samples."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, dist_quantile
from .errors import DegenerateSampleError, DomainError


def _sample(x, least: int = 1, what: str = "sample") -> np.ndarray:
    """``x`` as a float array of at least one axis, each row (the last axis)
    holding at least ``least`` values, or :class:`DegenerateSampleError`; a
    NaN or an infinity raises :class:`DomainError` ``"<what> must be finite"``."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.size == 0 or a.shape[-1] < least:
        raise DegenerateSampleError(f"{what} needs n >= {least}")
    if not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite")
    return a


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` row by row: the stacked product gives each row the bits of
    its own 2-d product, whatever the stack's height."""
    return (a @ v[..., None])[..., 0]


def _number(value):
    """A 0-d numpy value as a Python number, anything else as it is: the
    result of a single sample or fit, not of a stack of them."""
    return value.item() if getattr(value, "ndim", None) == 0 else value


def first_row(stack, shared=()):
    """Row 0 of a stacked result: each field not named in ``shared`` drops
    its leading row axis, a 0-d row becomes a Python number and ``None``
    stays ``None``."""
    rows = {}
    for f in dataclasses.fields(stack):
        value = getattr(stack, f.name)
        if f.name not in shared and value is not None:
            rows[f.name] = value[0].item() if np.ndim(value) == 1 else value[0]
    return dataclasses.replace(stack, **rows)


def interval_quantile(law: DistributionSpec, delta: float, sides: int = 2) -> float:
    """The ``1 - delta / sides`` quantile of ``law``: the multiplier of an
    interval at level ``1 - delta``, two-sided by default."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    level = 1.0 - delta / sides
    if level == 1.0:
        raise DomainError(f"delta {delta:g} is too small: 1 - delta / {sides} rounds to 1")
    return float(dist_quantile(law, level))


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval estimate ``[lo, hi]`` at confidence level ``1 - delta``;
    ``lo`` and ``hi`` may be arrays of one interval per replicate. A 0-d
    numpy bound becomes a Python number."""

    lo: float
    hi: float
    level: float
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "lo", _number(self.lo))
        object.__setattr__(self, "hi", _number(self.hi))
        if not np.all(self.lo <= self.hi):
            raise DomainError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"confidence level must be in (0,1), got {self.level}")

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def covers(self, value: float) -> bool:
        return (self.lo <= value) & (value <= self.hi)


@dataclass(frozen=True)
class TestReport:
    """Outcome of a hypothesis test.

    ``p_value`` is the null probability of a statistic at least as extreme
    as the observed one; two-sided conventions are baked in per test and
    recorded in ``kind``. ``statistic``, ``p_value`` and the ``extras``
    values are arrays when a test runs on a batch of samples; a 0-d numpy
    value becomes a Python number.
    """

    statistic: float
    p_value: float
    kind: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "statistic", _number(self.statistic))
        object.__setattr__(self, "p_value", _number(self.p_value))
        object.__setattr__(self, "extras", {k: _number(v) for k, v in self.extras.items()})
        if not np.all((0.0 <= self.p_value) & (self.p_value <= 1.0 + 1e-12)):
            raise DomainError(f"p-value outside [0,1]: {self.p_value}")

    def reject(self, alpha: float) -> bool:
        if not 0.0 < alpha < 1.0:
            raise DomainError("alpha must be in (0,1)")
        return self.p_value <= alpha
