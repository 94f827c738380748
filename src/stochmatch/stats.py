"""Small statistics helpers, and the epsilon rule, shared across the package."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_epsilon",
    "mean_se",
    "binomial_se",
    "ratio_se",
    "covariance_se",
]


def check_epsilon(epsilon: float) -> None:
    """Refuse an accuracy parameter outside the open interval (0, 1)."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if n == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(n))


def binomial_se(p_hat, n: int):
    """Standard error sqrt(p (1 - p) / n) of a proportion; elementwise on arrays."""
    return np.sqrt(np.maximum(p_hat * (1 - p_hat), 0) / n)


def ratio_se(num: float, num_se: float, den: float, den_se: float) -> tuple[float, float]:
    """Delta-method standard error of num / den."""
    if den <= 0:
        raise ValueError("denominator mean must be positive")
    ratio = num / den
    rel = (num_se / num) ** 2 if num > 0 else 0.0
    rel += (den_se / den) ** 2
    return ratio, abs(ratio) * math.sqrt(rel)


def covariance_se(x, y) -> tuple[float, float]:
    """Sample covariance and the standard error of its estimator."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two paired samples")
    cx = x - x.mean()
    cy = y - y.mean()
    products = cx * cy
    cov = float(products.sum() / (n - 1))
    se = float(products.std(ddof=1) / math.sqrt(n))
    return cov, se
