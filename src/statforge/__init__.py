"""Seeded statistical inference and stochastic simulation engine."""

from . import (concentration, distributions, estimation, experiments, glm,
               hypothesis, regression, rng, stochastic)
from .rng import RandomStream

__version__ = "0.1.0"

__all__ = [
    "RandomStream", "concentration", "distributions",
    "estimation", "experiments", "glm", "hypothesis", "regression", "rng",
    "stochastic",
]
