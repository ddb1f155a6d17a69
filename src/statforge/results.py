"""Shared result containers: confidence intervals and test reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .distributions import DistributionSpec


def scalar_or_rows(value):
    """A float for a single sample or fit, the array for a batch of them."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval estimate ``[lo, hi]`` at confidence level ``1 - delta``;
    ``lo`` and ``hi`` may be arrays of one interval per replicate."""

    lo: float
    hi: float
    level: float
    kind: str

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "level": self.level, "kind": self.kind}


@dataclass(frozen=True)
class TestReport:
    """Outcome of a hypothesis test.

    ``p_value`` is the null probability of a statistic at least as extreme
    as the observed one; two-sided conventions are baked in per test and
    recorded in ``kind``. ``statistic`` and ``p_value`` are arrays when a
    test runs on a batch of samples.
    """

    statistic: float
    null_law: "DistributionSpec"
    p_value: float
    kind: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all((0.0 <= self.p_value) & (self.p_value <= 1.0 + 1e-12)):
            raise DomainError(f"p-value outside [0,1]: {self.p_value}")

    def reject(self, alpha: float) -> bool:
        if not 0.0 < alpha < 1.0:
            raise DomainError("alpha must be in (0,1)")
        return self.p_value <= alpha

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "null_law": repr(self.null_law),
            "p_value": self.p_value,
            "kind": self.kind,
            **{k: v for k, v in self.extras.items() if np.isscalar(v)},
        }
