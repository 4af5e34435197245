"""The fractional-duality Stieltjes integral and its Riemann-sum rate study.

int_0^t f dg is the time integral of D_left^theta (1_{[0,t]} f) times the
sign-adjusted right derivative of order 1-theta of g - g(T); the value is
theta-independent in the continuum and approximately so on the grid.  The
pairing is linear in f, so one adjoint vector a, built from g alone, gives
int_0^{t_m} f dg = sum_{i<=m} a_i f_i at every grid time t_m: the running
series is one cumulative sum, at the cost of one adjoint pass whatever the
number of times.  Riemann-Stieltjes sums over coarser partitions converge
to the same value at a rate governed by the joint regularity of the pair,
which rate_study fits empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as Gamma
from typing import Optional, Sequence

import numpy as np

from .frac_calc import (NormOverflowError, marchaud_difference_adjoint,
                        wm_derivative_left, wm_derivative_right_adjusted)
from .gridfun import GridFunction


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


def _pairing_weights(g: GridFunction, theta: float) -> np.ndarray:
    """The adjoint vector a of the duality pairing against g: for every
    grid index m, int_0^{t_m} f dg = sum_{i<=m} a_i f_i (m >= 1).

    The pairing of 1_[0,t_m] f is the time integral of D_left^theta of it
    times W, the sign-adjusted right derivative of g.  The left derivative
    splits as D(t) = c t^(-theta) + R(t) with c = f(0)/Gamma(1-theta) and R
    regular at 0.  The singular part is integrated against the
    piecewise-linear W in closed form per cell (moments of t^(-theta) and
    t^(1-theta)) and lands on a_0 alone; the regular part R * W gets the
    trapezoid rule plus the exact piecewise-quadratic correction, with R
    taken to vanish at t = 0, whose weights omega are carried back through
    the transposed Marchaud convolutions.  The split spans the whole
    horizon, so a does not depend on m.  Computed without overflow checks:
    the callers refuse a series that is not finite."""
    grid = g.grid
    dt, times = grid.dt, grid.times
    W = wm_derivative_right_adjusted(g, theta).values
    # closed-form integral of t^-theta against the piecewise-linear W
    ma = np.diff(times ** (1.0 - theta) / (1.0 - theta))
    mb = np.diff(times ** (2.0 - theta) / (2.0 - theta))
    dW = np.diff(W)
    slope = dW / dt
    singular = np.sum((W[:-1] - slope * times[:-1]) * ma + slope * mb)
    # weights of R_1..R_N in the trapezoid sum minus sum dR dW dt/6
    omega = W * dt
    omega[-1] *= 0.5
    omega[1:] -= dW * dt / 6.0
    omega[:-1] += dW * dt / 6.0
    omega = omega[1:]
    tau = times[1:] ** (-theta)
    # D_i = (f_i tau_i + theta M_i) / Gamma(1-theta) for i >= 1
    a = theta * marchaud_difference_adjoint(omega, dt, theta)
    a[1:] += omega * tau
    a[0] += singular - np.dot(omega, tau)
    return a / Gamma(1.0 - theta)


def _pairing_series(f: GridFunction, g: GridFunction, theta: float) -> np.ndarray:
    """int_0^t f dg at every grid time (0 at t = 0) by one adjoint pass;
    entries past an overflow are inf or nan, for the callers to refuse."""
    if f.grid.N != g.grid.N or abs(f.grid.T - g.grid.T) > 1e-12:
        raise ValueError("f and g must share a grid")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the callers
        series = np.cumsum(_pairing_weights(g, theta) * f.values)
    series[0] = 0.0
    return series


def upsample_linear(f: GridFunction, m: int) -> GridFunction:
    """The same piecewise-linear function on an m-times finer grid.  Used
    to refine the time quadrature of the duality pairing: the continuum
    object is unchanged, only the integration nodes multiply."""
    if m == 1:
        return f
    from .grid_paths import TimeGrid
    fine = TimeGrid(f.grid.T, f.grid.N * m)
    return GridFunction(fine, np.interp(fine.times, f.grid.times, f.values))


def gls_integrate(f: GridFunction, g: GridFunction, theta: float,
                  t_end: Optional[float] = None) -> float:
    """int_0^t_end f dg by the fractional duality pairing (t_end defaults
    to the horizon and must be a grid time): the entry at t_end of
    gls_integrate_series, bit for bit.  Raises NormOverflowError when the
    pairing's integrand D_left^theta (1_[0,t_end] f), the right-derivative
    series of g or the pairing itself is not finite; the one pass needs no
    left derivative, so the integrand is computed here only to be checked."""
    if t_end is None:
        t_end = f.grid.T
    idx = _grid_index(f.grid, t_end, "t_end")
    series = _pairing_series(f, g, theta)
    if idx == 0:
        return 0.0
    restricted = np.where(np.arange(f.grid.N + 1) <= idx, f.values, 0.0)
    wm_derivative_left(GridFunction(f.grid, restricted), theta)
    value = series[idx]
    if not np.isfinite(value):
        raise NormOverflowError(f"duality pairing up to t = {t_end:g} overflowed to {value}")
    return float(value)


def gls_integrate_series(f: GridFunction, g: GridFunction, theta: float,
                         refine: int = 1) -> GridFunction:
    """t -> int_0^t f dg at every grid time (value 0 at t = 0).

    The pairing is linear in f, so one adjoint vector a of the pairing
    against g serves every t: the series is the cumulative sum of a * f.
    Its cost is six convolutions (the right derivative of g and one
    transposed Marchaud pass), whatever the number of grid times.
    ``refine`` upsamples the pair to a refine-times finer grid before
    pairing (better time quadrature of the same piecewise-linear data) and
    reads the series back at the coarse grid times.  Raises
    NormOverflowError naming the first grid time at which the running
    pairing is not finite.
    """
    fr, gr = upsample_linear(f, refine), upsample_linear(g, refine)
    series = _pairing_series(fr, gr, theta)
    bad = np.flatnonzero(~np.isfinite(series))
    if len(bad):
        raise NormOverflowError(f"duality pairing overflowed at t = {fr.grid.times[bad[0]]:g}: "
                                f"{series[bad[0]]}")
    return GridFunction(f.grid, series[::refine].copy())


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
