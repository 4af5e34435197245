"""The capped-potential variability statistic and its classifier.

For a path X and a BV coefficient phi, the statistic at resolution level L
is V(t) = sum over atoms z of the level-L gradient measure of
max(|X_t - z|, h_L)^(1-s-n), the capped Riesz potential of order 1-s
evaluated along the path, with h_L the level's spatial scale.  The true
dichotomy is whether t -> int |X_t - z|^(1-s-n) dPhi(z) lies in L^p(0,T):
finite cases plateau across levels, infinite ones grow polynomially in
1/h_L.  The classifier fits the growth exponent of the L^p norms and
declares finite / diverging / inconclusive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .bv_library import MatrixBV, ScalarBV
from .grid_paths import SampledPath, estimate_holder
from .gridfun import GridFunction, gagliardo_pth_power
from .measures import (DiscreteMeasure, KernelPolicy, fractional_maximal, occupation_measure,
                       riesz_potential_many)

# growth exponent above which (with a good fit) the L^p norms are declared
# divergent; calibrated on the library's known-finite and known-infinite
# cases: finite energies plateau near slope 0, while e.g. the Cantor
# coefficient against a stationary point on its support grows with exponent
# s - log2/log3 (about 0.17 at s = 0.8)
DIVERGENCE_THRESHOLD = 0.10
R_SQUARED_FLOOR = 0.9
LOG_RESIDUAL_CAP = 0.5


class VariabilityRefusal(RuntimeError):
    """Raised when an operation requires a finite variability verdict but
    the classifier disagrees; carries the report."""

    def __init__(self, message: str, report: "VariabilityReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class VariabilityParams:
    s: float
    p: float = np.inf
    margin: float = 0.5
    levels: tuple = (6, 8, 10)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("s must lie in (0,1)")
        if not self.p >= 1:
            raise ValueError("p must be >= 1 (np.inf allowed)")
        if len(self.levels) < 2:
            raise ValueError("need at least 2 levels")


@dataclass(frozen=True)
class VariabilityReport:
    s: float
    p: float
    levels: tuple
    cap_radii: tuple
    lp_norms: tuple
    growth_exponent: float
    r_squared: float
    max_log_residual: float
    verdict: str  # finite | diverging | inconclusive
    neighborhood: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "p": None if np.isinf(self.p) else self.p,
            "levels": list(self.levels),
            "cap_radii": list(self.cap_radii),
            "lp_norms": list(self.lp_norms),
            "growth_exponent": self.growth_exponent,
            "r_squared": self.r_squared,
            "max_log_residual": self.max_log_residual,
            "verdict": self.verdict,
            "neighborhood": self.neighborhood,
        }


def inflated_box(path: SampledPath, margin: float) -> np.ndarray:
    """Axis-aligned bounding box of the path range, inflated by the margin:
    the relatively compact neighborhood on which gradient measures are
    restricted."""
    lo = path.values.min(axis=0) - margin
    hi = path.values.max(axis=0) + margin
    return np.column_stack([lo, hi])


def _scalar_entries(phi: Union[ScalarBV, MatrixBV]):
    if isinstance(phi, MatrixBV):
        return [phi.entries[j][k] for j in range(phi.dim) for k in range(phi.dim)]
    return [phi]


def _level_statistics(path: SampledPath, phi: Union[ScalarBV, MatrixBV], s_values,
                      box: np.ndarray, level: int) -> np.ndarray:
    """The statistic V(t) at one level for every s, shape (len(s_values), N+1).

    One riesz_potential_many call per coefficient entry evaluates all the
    orders 1 - s on the unique path points; for matrix coefficients the
    entrywise statistics are maximized pointwise."""
    unique, inverse = np.unique(path.values, axis=0, return_inverse=True)
    stats = np.zeros((len(s_values), len(unique)))
    for entry in _scalar_entries(phi):
        if entry.dim != path.dim:
            raise ValueError("path and coefficient dimensions differ")
        mu = entry.gradient_measure(box, level)
        policies = [KernelPolicy(gamma=1.0 - s, cap_radius=entry.scale(level))
                    for s in s_values]
        np.maximum(stats, riesz_potential_many(mu, policies, unique), out=stats)
    return stats[:, inverse.ravel()]


def variability_statistic(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                          params: VariabilityParams, level: int) -> GridFunction:
    """The capped-potential statistic V(t) at one resolution level; for
    matrix coefficients, the entrywise statistics are maximized pointwise."""
    box = inflated_box(path, params.margin)
    return GridFunction(path.grid, _level_statistics(path, phi, [params.s], box, level)[0])


def classify(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
             params: VariabilityParams) -> VariabilityReport:
    """Finite / diverging / inconclusive verdict from the growth of the
    L^p norms of the statistic across resolution levels.

    The growth exponent is the fitted slope of log norm against log(1/h);
    'diverging' additionally requires a clean fit (R^2 above the floor and
    log residuals below the cap)."""
    return classify_sweep(path, phi, [params.s], params)[0]


def _fit_verdict(params: VariabilityParams, levels: tuple, caps: tuple,
                 norms: tuple, neighborhood: dict) -> VariabilityReport:
    """Growth-exponent fit and verdict from the per-level L^p norms at one s."""
    if max(norms) <= 0.0:
        return VariabilityReport(params.s, params.p, levels, caps, norms,
                                 0.0, 1.0, 0.0, "finite", neighborhood)
    x = np.log(1.0 / np.asarray(caps))
    y = np.log(np.maximum(norms, 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    max_resid = float(np.abs(y - fit).max())
    if slope <= DIVERGENCE_THRESHOLD:
        verdict = "finite"
    elif r2 >= R_SQUARED_FLOOR and max_resid <= LOG_RESIDUAL_CAP:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return VariabilityReport(params.s, params.p, levels, caps, norms,
                             float(slope), float(r2), max_resid, verdict, neighborhood)


def classify_sweep(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                   s_values, params_base: VariabilityParams) -> list:
    """classify at every s in s_values, sharing one set of measures and
    distances.

    The gradient measures and the path-to-atom distances do not depend on
    s: each level builds its measures once, and riesz_potential_many
    evaluates the exact capped kernel exp((1 - s - n) log d) for every order
    1 - s on the same distance blocks.  classify is this function with one
    s, and an order's kernel values do not depend on the other orders of
    the call, so classify's report equals the s-entry of any sweep bit for
    bit.  Every field of params_base except s applies to all reports.
    Returns one VariabilityReport per s, in order.
    """
    params = [dataclasses.replace(params_base, s=float(s)) for s in s_values]
    s_values = [p.s for p in params]
    levels = tuple(params_base.levels)
    box = inflated_box(path, params_base.margin)
    neighborhood = {"box": box.tolist(), "margin": params_base.margin}
    caps = tuple(_scalar_entries(phi)[0].scale(L) for L in levels)
    norms = [[GridFunction(path.grid, stat).lp_norm(params_base.p)
              for stat in _level_statistics(path, phi, s_values, box, L)]
             for L in levels]
    return [_fit_verdict(p, levels, caps, tuple(by_level), neighborhood)
            for p, by_level in zip(params, zip(*norms))]


def require_finite(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                   params: VariabilityParams, context: str = "") -> VariabilityReport:
    report = classify(path, phi, params)
    if report.verdict == "diverging":
        raise VariabilityRefusal(
            f"variability classifier returned 'diverging'{' for ' + context if context else ''}: "
            f"growth exponent {report.growth_exponent:.4f} > {DIVERGENCE_THRESHOLD:.2f}, "
            f"R² {report.r_squared:.3f} ≥ {R_SQUARED_FLOOR:g}, "
            f"max log residual {report.max_log_residual:.3f} ≤ {LOG_RESIDUAL_CAP:g}",
            report)
    return report


def compose(phi: ScalarBV, path: SampledPath) -> GridFunction:
    """Pointwise composition phi(X_t) of the fixed Lebesgue representative
    with the samples."""
    if phi.dim != path.dim:
        raise ValueError("dimension mismatch")
    vals = np.asarray(phi.evaluate(path.values), dtype=float)
    if phi.sup_bound is not None and np.any(np.abs(vals) > phi.sup_bound + 1e-12):
        raise AssertionError("composition exceeded the declared sup bound")
    return GridFunction(path.grid, vals)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float


def composition_bound_check(phi: ScalarBV, path: SampledPath, s: float, p: float,
                            beta: float, params: VariabilityParams | None = None) -> BoundCheck:
    """Numerical form of the composition estimate: the Gagliardo p-th power
    of phi(X) at order beta against the Holder-seminorm and variability
    statistic of the data, for beta below alpha*s.  Refuses when the
    classifier declares divergence."""
    if params is None:
        params = VariabilityParams(s=s, p=p)
    hold = estimate_holder(path)
    if beta >= hold.exponent * s:
        raise ValueError(
            f"beta={beta} must be below alpha*s={hold.exponent * s:.4f}")
    require_finite(path, phi, params, context="composition bound")
    comp = compose(phi, path)
    lhs = gagliardo_pth_power(comp.values, path.grid.dt, beta, p)
    stat = variability_statistic(path, phi, params, max(params.levels))
    v_int = float(np.sum(stat.values[:-1] ** p) * path.grid.dt)
    rhs = hold.seminorm ** (s * p) * v_int
    return BoundCheck(lhs=lhs, rhs=rhs)


def meanvalue_check(phi: ScalarBV, x: np.ndarray, y: np.ndarray, s: float,
                    level: int, margin: float = 1.0) -> BoundCheck:
    """Pointwise oscillation of the coefficient against the fractional
    maximal functions of its gradient measure at both endpoints:
    |phi(x) - phi(y)|  vs  |x-y|^s (M_{1-s,4|x-y|}(x) + M_{1-s,4|x-y|}(y))."""
    x = np.asarray(x, dtype=float).reshape(phi.dim)
    y = np.asarray(y, dtype=float).reshape(phi.dim)
    r = float(np.linalg.norm(x - y))
    lhs = abs(phi(x) - phi(y))
    if r == 0.0:
        return BoundCheck(lhs=0.0, rhs=0.0)
    lo = np.minimum(x, y) - 4 * r - margin
    hi = np.maximum(x, y) + 4 * r + margin
    mu = phi.gradient_measure(np.column_stack([lo, hi]), level)
    m = (fractional_maximal(mu, 1.0 - s, 4 * r, x)
         + fractional_maximal(mu, 1.0 - s, 4 * r, y))
    return BoundCheck(lhs=lhs, rhs=r ** s * m)


@dataclass(frozen=True)
class EnergySweep:
    mean: float
    stderr: float
    t_min_values: tuple
    sweep_means: tuple
    growth_exponent: float
    diverging: bool


def fbm_energy_bound(hurst: float, n: int, s: float, x: np.ndarray, seeds,
                     grid) -> EnergySweep:
    """Monte Carlo mean of int_0^T |B_t - x|^(-(n-1+s)) dt for fBm B, with a
    divergence flag from a time-floor sweep: the integrand is restricted to
    t >= t_min, t_min swept down from 256 to 4 steps; a growth exponent of
    the mean above 0.05 signals a failed phase condition.  The kernel is
    capped at the typical one-step displacement dt^H."""
    from .grid_paths import make_fbm

    x = np.asarray(x, dtype=float).reshape(n)
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds")
    dt = grid.dt
    # the kernel of order 1 - s, capped at dt^H, from one unit atom at x
    atom = DiscreteMeasure(n, x, np.ones(1))
    policy = KernelPolicy(gamma=1.0 - s, cap_radius=dt ** hurst)
    factors = (256, 64, 16, 4)
    per_seed = np.zeros((len(seeds), len(factors)))
    for i, seed in enumerate(seeds):
        path = make_fbm(hurst, n, grid, seed)
        k = riesz_potential_many(atom, policy, path.values[:-1])
        t = grid.times[:-1]
        for j, fac in enumerate(factors):
            mask = t >= fac * dt
            per_seed[i, j] = float(np.sum(k[mask]) * dt)
    means = per_seed.mean(axis=0)
    full = per_seed[:, -1]
    t_mins = np.array([fac * dt for fac in factors])
    lx = np.log(1.0 / t_mins)
    slope = float(np.polyfit(lx, np.log(np.maximum(means, 1e-300)), 1)[0])
    return EnergySweep(
        mean=float(full.mean()),
        stderr=float(full.std(ddof=1) / np.sqrt(len(seeds))),
        t_min_values=tuple(t_mins),
        sweep_means=tuple(means),
        growth_exponent=slope,
        diverging=slope > 0.05,
    )


@dataclass(frozen=True)
class MomentCheck:
    value: float
    growth_exponent: float
    diverging: bool
    levels: tuple
    values: tuple


def moment_condition_check(phi: ScalarBV, x0: np.ndarray, exponent: float) -> MomentCheck:
    """Capped moment int |z - x0|^exponent dPhi(z) over the box of half-width
    2 around x0 at levels 6, 8 and 10, with a divergence flag from the
    growth regression (the shifted-driver admissibility condition)."""
    x0 = np.asarray(x0, dtype=float).reshape(phi.dim)
    if not (-phi.dim < exponent < 0):
        raise ValueError("exponent must lie in (-n, 0)")
    box = np.column_stack([x0 - 2.0, x0 + 2.0])
    levels = (6, 8, 10)
    vals, caps = [], []
    for L in levels:
        h = phi.scale(L)
        policy = KernelPolicy(gamma=phi.dim + exponent, cap_radius=h)
        vals.append(float(riesz_potential_many(phi.gradient_measure(box, L), policy, x0)[0]))
        caps.append(h)
    vals_arr = np.asarray(vals)
    if vals_arr.max() <= 0:
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(1.0 / np.asarray(caps)),
                                 np.log(np.maximum(vals_arr, 1e-300)), 1)[0])
    return MomentCheck(value=vals[-1], growth_exponent=slope,
                       diverging=slope > DIVERGENCE_THRESHOLD,
                       levels=levels, values=tuple(vals))


def classify_crosscheck_energy(path: SampledPath, phi: ScalarBV,
                               params: VariabilityParams, level: int) -> tuple[float, float]:
    """The L^1 classify norm at a level and the mutual energy of the
    gradient and occupation measures with the same capped kernel; the two
    are the same double sum organized differently."""
    from .measures import mutual_energy

    stat = variability_statistic(path, phi, params, level)
    l1 = stat.lp_norm(1.0)
    box = inflated_box(path, params.margin)
    mu = phi.gradient_measure(box, level)
    occ = occupation_measure(path)
    policy = KernelPolicy(gamma=1.0 - params.s, cap_radius=phi.scale(level))
    energy = mutual_energy(mu, occ, policy) if mu.n_atoms else 0.0
    return l1, energy
