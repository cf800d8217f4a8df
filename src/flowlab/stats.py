"""Streaming central-moment accumulator (Welford/Pebay single-pass update).

Keeps n, mean and the 2nd..4th central moment sums so that mean, population
variance, skewness and excess kurtosis of a sequence can be produced without
storing it. Min and max are tracked as well.

Conventions: variance is population-style (/n); skewness is
g1 = (M3/n) / (M2/n)^(3/2); kurtosis is excess, g2 = (M4/n) / (M2/n)^2 - 3.
Undefined values (n < 2 for variance, M2 == 0 for g1/g2) are reported as 0.0
and flagged by the corresponding *_defined predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class Moments:
    """One-pass count, central moment sums, minimum, maximum."""

    n: int = 0
    m1: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0
    min_value: float = math.inf
    max_value: float = -math.inf

    def push(self, x: float) -> None:
        self.update(x)
        if x < self.min_value:
            self.min_value = x
        if x > self.max_value:
            self.max_value = x

    def update(self, x) -> None:
        """push's update of n and the moments, without min and max. It also
        steps many accumulators at once when x and the fields are numpy
        arrays with one element per accumulator."""
        n1 = self.n
        self.n = n = n1 + 1
        delta = x - self.m1
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.m1 += delta_n
        self.m4 += (term1 * delta_n2 * (n * n - 3 * n + 3)
                    + 6 * delta_n2 * self.m2 - 4 * delta_n * self.m3)
        self.m3 += term1 * delta_n * (n - 2) - 3 * delta_n * self.m2
        self.m2 += term1

    @property
    def mean(self) -> float:
        return self.m1 if self.n >= 1 else 0.0

    @property
    def mean_defined(self) -> bool:
        return self.n >= 1

    @property
    def variance(self) -> float:
        if not self.variance_defined:
            return 0.0
        return self.m2 / self.n

    @property
    def variance_defined(self) -> bool:
        return self.n >= 2

    @property
    def shape_defined(self) -> bool:
        return self.n >= 2 and self.m2 > 0.0

    @property
    def skewness(self) -> float:
        if not self.shape_defined:
            return 0.0
        var = self.m2 / self.n
        return (self.m3 / self.n) / var ** 1.5

    @property
    def kurtosis(self) -> float:
        if not self.shape_defined:
            return 0.0
        var = self.m2 / self.n
        return (self.m4 / self.n) / (var * var) - 3.0

    @property
    def minimum(self) -> float:
        return self.min_value if self.n >= 1 else 0.0

    @property
    def maximum(self) -> float:
        return self.max_value if self.n >= 1 else 0.0

