"""Fractional integrals and derivatives on uniform grids by product integration.

All operators integrate the singular kernel exactly against the
piecewise-linear interpolant of the data, which reduces to discrete
convolutions with closed-form kernel moments.  Everything is real-valued;
the overall sign of the adjusted right derivative is fixed so that the
fractional duality pairing reproduces the classical integral on smooth
pairs (see gls_integral).  Both Weyl-Marchaud derivatives refuse
(NormOverflowError) a series that overflows.
"""

from __future__ import annotations

from math import gamma as Gamma

import numpy as np

from .gridfun import GridFunction, gagliardo_pth_power


class NormOverflowError(RuntimeError):
    """A fractional-derivative series overflowed at grid scale."""


def _conv(a: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Linear convolution truncated to len(a) leading entries: one real FFT
    product at the power-of-two length that holds the full convolution."""
    size = 1 << (len(a) + len(kern) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(kern, size), size)[: len(a)]


def _finite_series(grid, values: np.ndarray, name: str) -> GridFunction:
    """The derivative series as a GridFunction; refuses an overflowed one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NormOverflowError(f"{name} overflowed at t = {grid.times[bad[0]]:g}")
    return GridFunction(grid, values)


def rl_integral_left(f: GridFunction, theta: float) -> GridFunction:
    """Left fractional integral of order theta:
    (1/Gamma(theta)) * int_0^t f(s) (t-s)^(theta-1) ds,
    exact for the piecewise-linear interpolant of f.  Value 0 at t = 0."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    v = f.values
    N = f.grid.N
    dt = f.grid.dt
    k = np.arange(N, dtype=float)
    # cell moments of the kernel: P0 = int u^(th-1), P1 = int u^th over [k dt, (k+1) dt]
    P0 = dt ** theta * ((k + 1) ** theta - k ** theta) / theta
    P1 = dt ** (theta + 1) * ((k + 1) ** (theta + 1) - k ** (theta + 1)) / (theta + 1)
    A = (k + 1) * P0 - P1 / dt
    a = v[:-1]
    b = np.diff(v)
    out = np.zeros(N + 1)
    out[1:] = (_conv(a, P0) + _conv(b, A)) / Gamma(theta)
    return GridFunction(f.grid, out)


def _marchaud_kernels(N: int, dt: float, theta: float):
    """Cell moments (Q0, R, Q1c) of the kernel u^(-theta-1) over the cells
    [k dt, (k+1) dt], k < N, with the nearest cell k = 0 zeroed (the linear
    model cancels its singularity exactly)."""
    k = np.arange(N, dtype=float)
    with np.errstate(divide="ignore"):
        Q0 = dt ** (-theta) * (k ** (-theta) - (k + 1) ** (-theta)) / theta
    Q0[0] = 0.0
    Q1c = dt ** (1 - theta) * ((k + 1) ** (1 - theta) - k ** (1 - theta)) / (1 - theta)
    Q1c[0] = 0.0
    return Q0, (k + 1) * Q0, Q1c


def marchaud_difference_integral(values: np.ndarray, dt: float, theta: float) -> np.ndarray:
    """M(t_i) = int_0^{t_i} (f(t_i) - f(s)) (t_i - s)^(-theta-1) ds for the
    piecewise-linear interpolant.  The integrand's singular cell at s = t_i
    is finite because the local linear model cancels the singularity."""
    v = np.asarray(values, dtype=float)
    N = len(v) - 1
    Q0, R, Q1c = _marchaud_kernels(N, dt, theta)
    a = v[:-1]
    b = np.diff(v)
    out = np.zeros(N + 1)
    conv_part = -_conv(a, Q0) - _conv(b, R) + _conv(b, Q1c) / dt
    out[1:] = v[1:] * np.cumsum(Q0) + conv_part
    # nearest cell [t_{i-1}, t_i]: linear model gives slope * dt^(1-theta)/(1-theta)
    out[1:] += b / dt * dt ** (1 - theta) / (1 - theta)
    return out


def marchaud_difference_adjoint(u: np.ndarray, dt: float, theta: float) -> np.ndarray:
    """The transpose of marchaud_difference_integral: the gradient in the
    values v (length N+1) of sum_i u[i] * M(t_{i+1}), for u of length N.
    Each Toeplitz convolution becomes a correlation, a convolution of the
    reversed weights reversed back."""
    u = np.asarray(u, dtype=float)
    N = len(u)
    Q0, R, Q1c = _marchaud_kernels(N, dt, theta)
    ur = u[::-1]
    grad_a = -_conv(ur, Q0)[::-1]
    grad_b = ((-_conv(ur, R) + _conv(ur, Q1c) / dt)[::-1]
              + u / dt * dt ** (1 - theta) / (1 - theta))
    out = np.zeros(N + 1)
    out[1:] = u * np.cumsum(Q0) + grad_b
    out[:-1] += grad_a - grad_b
    return out


def wm_derivative_left(f: GridFunction, theta: float) -> GridFunction:
    """Left Weyl-Marchaud derivative of order theta:
    (1/Gamma(1-theta)) * ( f(t)/t^theta + theta * int_0^t (f(t)-f(s)) (t-s)^(-theta-1) ds ).

    The value at t = 0 is left at 0; it is the limit when f(0) = 0, and
    otherwise the derivative is infinite there."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    v = f.values
    t = f.grid.times
    out = np.zeros(f.grid.N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        M = marchaud_difference_integral(v, f.grid.dt, theta)
        out[1:] = (v[1:] / t[1:] ** theta + theta * M[1:]) / Gamma(1 - theta)
    return _finite_series(f.grid, out, f"left Weyl-Marchaud series of order {theta:g}")


def wm_derivative_right_adjusted(g: GridFunction, theta: float) -> GridFunction:
    """Right Weyl-Marchaud derivative of order 1-theta applied to
    g - g(T), with the overall real sign chosen so that

        integral f dg  =  int_0^T  D_left^theta f (t) * W(t) dt

    reproduces int f g' dt on smooth pairs.  Concretely

        W(t) = -(1/Gamma(theta)) [ (g(t)-g(T)) (T-t)^(theta-1)
                                   + (1-theta) * int_t^T (g(t)-g(s)) (s-t)^(theta-2) ds ].

    W(T) = 0 (the boundary term vanishes for continuous g)."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    v = g.values
    N = g.grid.N
    T = g.grid.T
    t = g.grid.times
    out = np.zeros(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        Mrev = marchaud_difference_integral(v[::-1], g.grid.dt, 1.0 - theta)
        M_right = Mrev[::-1]  # M_right[i] = int_{t_i}^T (g(t_i)-g(s)) (s-t_i)^(theta-2) ds
        out[:N] = -((v[:N] - v[N]) * (T - t[:N]) ** (theta - 1.0)
                    + (1.0 - theta) * M_right[:N]) / Gamma(theta)
    return _finite_series(g.grid, out, f"right Weyl-Marchaud series of order {1 - theta:g}")


def _weighted_power_integral(values: np.ndarray, times: np.ndarray, q: float, p: float) -> float:
    """int |f(t)|^p t^(-q) dt with the kernel integrated exactly per cell and
    |f|^p taken as the endpoint average on each cell; q < 1 required."""
    vp = np.abs(values) ** p
    cell = (times[1:] ** (1 - q) - times[:-1] ** (1 - q)) / (1 - q)
    avg = 0.5 * (vp[1:] + vp[:-1])
    # the first cell touches the t=0 singularity; use the right endpoint value
    avg[0] = vp[1]
    return float(np.dot(avg, cell))


def w0_parts(f: GridFunction, theta: float, p: float) -> tuple[float, float, float]:
    """(weighted term, Gagliardo p-th power, L^p p-th power) of the
    left-anchored fractional Sobolev norm."""
    if not (0.0 < theta < 1.0) or p < 1:
        raise ValueError("need theta in (0,1) and p >= 1")
    if theta * p >= 1:
        raise ValueError(f"theta*p must be < 1 for the weighted term, got {theta * p}")
    weighted = _weighted_power_integral(f.values, f.grid.times, theta * p, p)
    semi = gagliardo_pth_power(f.values, f.grid.dt, theta, p)
    lp = float(np.sum(np.abs(f.values[:-1]) ** p) * f.grid.dt)
    return weighted, semi, lp


def norm_W0(f: GridFunction, theta: float, p: float) -> float:
    """Left-anchored fractional Sobolev norm:
    int |f|^p t^(-theta p) dt + (Gagliardo seminorm)^p."""
    weighted, semi, _ = w0_parts(f, theta, p)
    return weighted + semi


def norm_WT(g: GridFunction, theta: float) -> float:
    """Right-anchored Holder-type norm:
    sup_t |g(T)-g(t)| / (T-t)^theta  +  sup_t int_t^T |g(t)-g(u)| |t-u|^(-1-theta) du,
    with the diagonal excluded at |t-u| >= dt."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0,1)")
    v = g.values
    N = g.grid.N
    dt = g.grid.dt
    T = g.grid.T
    t = g.grid.times
    term1 = float(np.max(np.abs(v[N] - v[:N]) / (T - t[:N]) ** theta))
    acc = np.zeros(N + 1)
    for k in range(1, N + 1):
        lag = k * dt
        acc[: N + 1 - k] += np.abs(v[:-k] - v[k:]) * lag ** (-1.0 - theta) * dt
    term2 = float(acc.max())
    return term1 + term2
