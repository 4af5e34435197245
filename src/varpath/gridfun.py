"""Scalar time series on a uniform grid, plus the Gagliardo double sum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid_paths import TimeGrid


@dataclass(frozen=True)
class GridFunction:
    """Scalar series of length N+1 on a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if len(vals) != self.grid.N + 1:
            raise ValueError(f"expected {self.grid.N + 1} values, got {len(vals)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.times), dtype=float))

    def lp_norm(self, p: float) -> float:
        """L^p(0,T) norm by left-endpoint quadrature; p = inf is the grid max."""
        v = np.abs(self.values)
        if np.isinf(p):
            return float(v.max())
        return float((np.sum(v[:-1] ** p) * self.grid.dt) ** (1.0 / p))


def gagliardo_pth_power(values: np.ndarray, dt: float, theta: float, p: float) -> float:
    """Double Riemann sum of |f(t)-f(u)|^p / |t-u|^(1+theta p) over the
    off-diagonal grid pairs (|t-u| >= dt).  Returns the p-th power of the
    Gagliardo seminorm."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    if p < 1:
        raise ValueError("p must be >= 1")
    v = np.asarray(values, dtype=float)
    n = len(v)
    total = 0.0
    for k in range(1, n):
        diffs = np.abs(v[k:] - v[:-k])
        lag = k * dt
        total += 2.0 * dt * dt * lag ** (-1.0 - theta * p) * np.sum(diffs ** p)
    return float(total)
