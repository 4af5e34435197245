"""Sampled paths on uniform time grids.

Synthesis of fractional Brownian motion by one sampler, circulant
embedding, exact in distribution at every N (its one guard refuses an
indefinite embedding, which no H and N have shown), deterministic example
paths, Holder exponent/seminorm estimation over dyadic lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*T/N, i = 0..N."""

    T: float
    N: int

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.N < 2:
            raise ValueError(f"need at least 2 steps, got {self.N}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class SampledPath:
    """A path sampled on a uniform grid, values in R^n.

    values has shape (N+1, dim) and must be finite; a 1-D array is read as
    one coordinate.
    """

    grid: TimeGrid
    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.N + 1, self.dim):
            raise ValueError(
                f"values shape {vals.shape} incompatible with N={self.grid.N}, dim={self.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", vals)

    def to_csv(self, path: str) -> None:
        n = self.dim
        header = "t," + ",".join(f"x{k + 1}" for k in range(n))
        data = np.column_stack([self.grid.times, self.values])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _fgn_circulant_sqrt_eigs(hurst: float, N: int) -> np.ndarray:
    """Eigenvalues^(1/2) of the circulant embedding of the fGn covariance.

    The embedding is nonnegative definite for every H in (0, 1) and every N
    (Davies and Harte, Biometrika 74, 1987; Craigmile, J. Time Ser. Anal.
    24, 2003); over H = 0.01, ..., 0.99 and N up to 16384 its least
    eigenvalue is at least 6.4e-7 of the largest.  Round-off below 0 is
    clipped to 0, and a least eigenvalue below -1e-10 of the largest is
    refused.
    """
    k = np.arange(N + 1, dtype=float)
    # autocovariance of unit-step fractional Gaussian noise
    g = 0.5 * ((k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    row = np.concatenate([g[: N], g[N:N + 1], g[N - 1:0:-1]])
    eigs = np.fft.fft(row).real
    if eigs.min() < -1e-10 * eigs.max():
        raise ValueError(f"circulant embedding of fGn at H={hurst}, N={N} is indefinite: "
                         f"least eigenvalue {eigs.min():.6g}, largest {eigs.max():.6g}")
    return np.sqrt(np.maximum(eigs, 0.0))


def _fgn_sample_circulant(sqrt_eigs: np.ndarray, N: int, rng: np.random.Generator) -> np.ndarray:
    m = len(sqrt_eigs)  # = 2N
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    # E|z_k|^2 = 2, and taking the real part halves the variance again, so
    # the correct normalizer is sqrt(m), not sqrt(2m)
    w = np.fft.fft(sqrt_eigs * z) / np.sqrt(m)
    return w.real[:N]


def make_fbm(hurst: float, dim: int, grid: TimeGrid, seed: int) -> SampledPath:
    """Fractional Brownian motion on the grid, exact in distribution at
    every N.

    Each coordinate is an independent cumulative sum of fractional Gaussian
    noise, scaled to step size dt; Y_0 = 0.  The one sampler is circulant
    embedding (Davies-Harte), guarded by _fgn_circulant_sqrt_eigs, which
    refuses an indefinite embedding.  Deterministic given (seed, hurst, N,
    dim).
    """
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0,1), got {hurst}")
    N = grid.N
    streams = np.random.SeedSequence(seed).spawn(dim)
    sqrt_eigs = _fgn_circulant_sqrt_eigs(hurst, N)
    scale = grid.dt ** hurst
    values = np.zeros((N + 1, dim))
    for d in range(dim):
        fgn = _fgn_sample_circulant(sqrt_eigs, N, np.random.default_rng(streams[d]))
        values[1:, d] = np.cumsum(scale * fgn)
    return SampledPath(grid, dim, values)


def make_power_path(d: float, grid: TimeGrid) -> SampledPath:
    """One-dimensional path t -> t^(1/d); its occupation measure scales like r^d."""
    if not (0.0 < d <= 1.0):
        raise ValueError(f"d must lie in (0,1], got {d}")
    with np.errstate(over="ignore"):  # SampledPath refuses values that overflow
        vals = grid.times ** (1.0 / d)
    return SampledPath(grid, 1, vals[:, None])


def make_linear_path(velocity: np.ndarray, start: np.ndarray, grid: TimeGrid) -> SampledPath:
    """Path start + t*velocity; handy deterministic test input."""
    velocity = np.atleast_1d(np.asarray(velocity, dtype=float))
    start = np.atleast_1d(np.asarray(start, dtype=float))
    with np.errstate(over="ignore"):  # SampledPath refuses values that overflow
        vals = start[None, :] + grid.times[:, None] * velocity[None, :]
    return SampledPath(grid, len(start), vals)


def make_constant_path(point: np.ndarray, grid: TimeGrid) -> SampledPath:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    vals = np.tile(point, (grid.N + 1, 1))
    return SampledPath(grid, len(point), vals)


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    seminorm: float
    degenerate: bool = False


def estimate_holder(path: SampledPath) -> HolderEstimate:
    """Holder exponent and seminorm over dyadic lags.

    Regresses log max-increment against log lag over lags 1, 2, 4, ...;
    the seminorm is the max of |dX| / lag^alpha at the fitted alpha.  A
    constant path is flagged degenerate with exponent 1 and seminorm 0.
    """
    if path.grid.N < 4:
        raise ValueError("need at least 4 steps to estimate regularity")
    vals = path.values
    dt = path.grid.dt
    lags, maxima = [], []
    k = 1
    while k <= path.grid.N // 2:
        diffs = np.linalg.norm(vals[k:] - vals[:-k], axis=1)
        m = diffs.max()
        if m > 0:
            lags.append(k * dt)
            maxima.append(m)
        k *= 2
    if len(lags) < 2:
        return HolderEstimate(exponent=1.0, seminorm=0.0, degenerate=True)
    lags = np.asarray(lags)
    maxima = np.asarray(maxima)
    # regress on the smallest two thirds of the lags (at least two): large
    # lags saturate at the path oscillation and flatten the slope
    half = max(2, len(lags) * 2 // 3)
    slope = np.polyfit(np.log(lags[:half]), np.log(maxima[:half]), 1)[0]
    alpha = float(min(1.0, max(slope, 1e-6)))
    seminorm = float((maxima / lags ** alpha).max())
    return HolderEstimate(exponent=alpha, seminorm=seminorm)

