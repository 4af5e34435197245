"""The fractional-duality Stieltjes integral and its Riemann-sum rate study.

int_0^T f dg is evaluated as the time integral of
D_left^theta (1_{[0,t_end]} f) times the sign-adjusted right derivative of
order 1-theta of g - g(T); the value is theta-independent in the continuum
and approximately so on the grid.  Riemann-Stieltjes sums over coarser
partitions converge to the same value at a rate governed by the joint
regularity of the pair, which rate_study fits empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as Gamma
from typing import Optional, Sequence

import numpy as np

from .frac_calc import wm_derivative_left, wm_derivative_right_adjusted
from .gridfun import GridFunction


class NormOverflowError(RuntimeError):
    """A fractional-derivative series overflowed at grid scale."""


def _grid_index(grid, t: float, name: str) -> int:
    """Index of the time t, which must be a grid time (up to rounding of
    the grid times themselves); ``name`` names t in the refusal."""
    pos = t / grid.dt
    idx = int(round(pos))
    if not (0 <= idx <= grid.N):
        raise ValueError(f"{name}={t} outside the grid horizon")
    if abs(pos - idx) > 1e-9 * max(idx, 1):
        raise ValueError(f"{name}={t} is not a grid time; the nearest is {idx * grid.dt}")
    return idx


def _restrict(f: GridFunction, t_end: float) -> tuple[np.ndarray, int]:
    """Values of 1_[0,t_end] f on the grid and the index of the grid time t_end."""
    idx = _grid_index(f.grid, t_end, "t_end")
    vals = f.values.copy()
    vals[idx + 1:] = 0.0
    return vals, idx


def _duality_time_integral(D: np.ndarray, W: np.ndarray, grid, theta: float,
                           f0: float) -> float:
    """Time integral of D * W with the leading singularity handled exactly.

    The left derivative splits as D(t) = c t^(-theta) + R(t) with
    c = f(0)/Gamma(1-theta) and R regular at 0.  The singular part is
    integrated against the piecewise-linear W in closed form per cell
    (moments of t^(-theta) and t^(1-theta)); the regular part R * W gets
    the trapezoid rule plus the exact piecewise-quadratic correction, with
    R taken to vanish at t = 0."""
    dt = grid.dt
    times = grid.times
    c = f0 / Gamma(1.0 - theta)
    if c != 0.0:
        # per-cell exact integral of t^-theta * (piecewise-linear W)
        a = times ** (1.0 - theta) / (1.0 - theta)
        b = times ** (2.0 - theta) / (2.0 - theta)
        da, db = np.diff(a), np.diff(b)
        w0, w1 = W[:-1], W[1:]
        slope = (w1 - w0) / dt
        intercept = w0 - slope * times[:-1]
        sing = float(np.sum(intercept * da + slope * db)) * c
    else:
        sing = 0.0
    R = D - c * np.where(times > 0, times, 1.0) ** (-theta)
    R[0] = 0.0
    core = np.trapezoid(R * W, dx=dt)
    core -= np.sum(np.diff(R) * np.diff(W)) * dt / 6.0
    return float(core + sing)


def upsample_linear(f: GridFunction, m: int) -> GridFunction:
    """The same piecewise-linear function on an m-times finer grid.  Used
    to refine the time quadrature of the duality pairing: the continuum
    object is unchanged, only the integration nodes multiply."""
    if m == 1:
        return f
    from .grid_paths import TimeGrid
    fine = TimeGrid(f.grid.T, f.grid.N * m)
    return GridFunction(fine, np.interp(fine.times, f.grid.times, f.values))


def wm_right_series(g: GridFunction, theta: float) -> np.ndarray:
    """Cached-friendly access to the adjusted right-derivative series of g."""
    W = wm_derivative_right_adjusted(g, theta).values
    if not np.all(np.isfinite(W)):
        raise NormOverflowError("right-derivative series of the integrator overflowed")
    return W


def gls_integrate(f: GridFunction, g: GridFunction, theta: float,
                  t_end: Optional[float] = None,
                  _W: Optional[np.ndarray] = None) -> float:
    """int_0^t_end f dg by the fractional duality pairing (t_end defaults
    to the horizon).  _W allows reusing the right-derivative series of g
    across many t_end values."""
    if f.grid.N != g.grid.N or abs(f.grid.T - g.grid.T) > 1e-12:
        raise ValueError("f and g must share a grid")
    if t_end is None:
        t_end = f.grid.T
    vals, idx = _restrict(f, t_end)
    if idx == 0:
        return 0.0
    fr = GridFunction(f.grid, vals)
    D = wm_derivative_left(fr, theta).values
    if not np.all(np.isfinite(D)):
        raise NormOverflowError("left-derivative series of the integrand overflowed")
    W = _W if _W is not None else wm_right_series(g, theta)
    return _duality_time_integral(D, W, f.grid, theta, vals[0])


def gls_integrate_series(f: GridFunction, g: GridFunction, theta: float,
                         indices: Optional[Sequence[int]] = None,
                         refine: int = 1) -> GridFunction:
    """t -> int_0^t f dg at every grid time (value 0 at t = 0).

    With ``indices``, only those grid indices are evaluated and the series
    is linearly interpolated between them; the full series costs one
    restricted-derivative transform per grid point.  ``refine`` upsamples
    the pair to a refine-times finer grid before pairing (better time
    quadrature of the same piecewise-linear data).
    """
    N = f.grid.N
    if refine > 1:
        fr, gr = upsample_linear(f, refine), upsample_linear(g, refine)
        idx_r = None if indices is None else [int(i) * refine for i in indices]
        series = gls_integrate_series(fr, gr, theta, indices=idx_r)
        return GridFunction(f.grid, series.values[::refine].copy())
    W = wm_right_series(g, theta)
    if indices is None:
        indices = range(N + 1)
    indices = sorted(set(int(i) for i in indices) | {0, N})
    t = f.grid.times
    vals_at = np.array([gls_integrate(f, g, theta, t[i], _W=W) for i in indices])
    out = np.interp(t, t[list(indices)], vals_at)
    out[0] = 0.0
    return GridFunction(f.grid, out)


def riemann_sum(f: GridFunction, g: GridFunction, partition: Sequence[float],
                xi_rule: str = "left") -> float:
    """Riemann-Stieltjes sum over the partition with evaluation points by
    the given rule; every partition time must be a grid time."""
    if xi_rule not in ("left", "right", "midpoint"):
        raise ValueError(f"unknown xi rule {xi_rule!r}")
    idx = [_grid_index(f.grid, tt, "partition time") for tt in partition]
    if idx != sorted(idx):
        raise ValueError("partition must be nondecreasing")
    idx = sorted(set(idx))
    if len(idx) < 2:
        raise ValueError("partition needs at least two distinct times")
    total = 0.0
    fv, gv = f.values, g.values
    for i0, i1 in zip(idx, idx[1:]):
        if xi_rule == "left":
            xi = i0
        elif xi_rule == "right":
            xi = i1
        else:
            xi = int(round(0.5 * (i0 + i1)))
        total += fv[xi] * (gv[i1] - gv[i0])
    return float(total)


@dataclass(frozen=True)
class RateReport:
    meshes: tuple
    errors: tuple
    exponent: float
    residual: float
    reference: float
    by_rule: dict


def rate_study(f: GridFunction, g: GridFunction, theta: float,
               mesh_list: Sequence[int]) -> RateReport:
    """Convergence order of Riemann-Stieltjes sums on uniform subpartitions
    toward the duality-pairing value.  mesh_list gives the number of
    partition intervals per sub-mesh (each must divide N); the fitted
    exponent is the slope of log error against log mesh width.  All three
    evaluation rules are recorded; the exponent is fitted for the left
    rule, and is inf when fewer than two of its errors are nonzero."""
    meshes = sorted(set(int(m) for m in mesh_list))
    if len(meshes) < 4:
        raise ValueError("need at least 4 mesh sizes")
    N = f.grid.N
    for m in meshes:
        if m < 1 or N % m != 0:
            raise ValueError(f"mesh count {m} is not a positive divisor of N={N}")
    ref = gls_integrate(f, g, theta)
    t = f.grid.times
    by_rule = {}
    for rule in ("left", "right", "midpoint"):
        errs = []
        for m in meshes:
            part = t[:: N // m]
            errs.append(abs(riemann_sum(f, g, part, rule) - ref))
        by_rule[rule] = tuple(errs)
    errors = by_rule["left"]
    widths = np.array([f.grid.T / m for m in meshes])
    errs = np.asarray(errors)
    usable = errs > 0
    if usable.sum() < 2:
        return RateReport(tuple(widths), errors, np.inf, 0.0, ref, by_rule)
    lw, le = np.log(widths[usable]), np.log(errs[usable])
    slope, intercept = np.polyfit(lw, le, 1)
    resid = float(np.abs(le - (slope * lw + intercept)).max())
    return RateReport(tuple(widths), errors, float(slope), resid, ref, by_rule)
