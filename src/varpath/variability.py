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

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .bv_library import MatrixBV, ScalarBV
from .grid_paths import SampledPath, estimate_holder
from .gridfun import GridFunction, gagliardo_pth_power
from .measures import DiscreteMeasure, KernelPolicy, fractional_maximal, occupation_measure, \
    riesz_potential_many

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
    divergence_threshold: float = DIVERGENCE_THRESHOLD
    r_squared_floor: float = R_SQUARED_FLOOR
    residual_cap: float = LOG_RESIDUAL_CAP

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("s must lie in (0,1)")
        if self.p < 1:
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


def _potential_along_path(path: SampledPath, entry: ScalarBV, gamma: float,
                          box: np.ndarray, level: int) -> np.ndarray:
    mu = entry.gradient_measure(box, level)
    if mu.n_atoms == 0:
        return np.zeros(path.grid.N + 1)
    policy = KernelPolicy(gamma=gamma, cap_radius=entry.scale(level))
    unique, inverse = np.unique(path.values, axis=0, return_inverse=True)
    pots = riesz_potential_many(mu, policy, unique)
    return pots[inverse.ravel()]


def variability_statistic(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                          params: VariabilityParams, level: int) -> GridFunction:
    """The capped-potential statistic V(t) at one resolution level; for
    matrix coefficients, the entrywise statistics are maximized pointwise."""
    gamma = 1.0 - params.s
    box = inflated_box(path, params.margin)
    vals = np.zeros(path.grid.N + 1)
    for entry in _scalar_entries(phi):
        if entry.dim != path.dim:
            raise ValueError("path and coefficient dimensions differ")
        v = _potential_along_path(path, entry, gamma, box, level)
        vals = np.maximum(vals, v)
    return GridFunction(path.grid, vals)


def classify(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
             params: VariabilityParams) -> VariabilityReport:
    """Finite / diverging / inconclusive verdict from the growth of the
    L^p norms of the statistic across resolution levels.

    The growth exponent is the fitted slope of log norm against log(1/h);
    'diverging' additionally requires a clean fit (R^2 above the floor and
    log residuals below the cap)."""
    levels = tuple(params.levels)
    entries = _scalar_entries(phi)
    caps = tuple(entries[0].scale(L) for L in levels)
    norms = []
    for L in levels:
        stat = variability_statistic(path, phi, params, L)
        norms.append(stat.lp_norm(params.p))
    norms = tuple(norms)
    box = inflated_box(path, params.margin)
    neighborhood = {"box": box.tolist(), "margin": params.margin}
    return _fit_verdict(params, levels, caps, norms, neighborhood)


def _fit_verdict(params: VariabilityParams, levels: tuple, caps: tuple,
                 norms: tuple, neighborhood: dict) -> VariabilityReport:
    """Shared tail of classify and classify_sweep: growth-exponent fit and
    verdict from the per-level L^p norms."""
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
    if slope <= params.divergence_threshold:
        verdict = "finite"
    elif r2 >= params.r_squared_floor and max_resid <= params.residual_cap:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return VariabilityReport(params.s, params.p, levels, caps, norms,
                             float(slope), float(r2), max_resid, verdict, neighborhood)


def classify_sweep(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                   s_values, params_base: VariabilityParams,
                   n_bins: int = 512) -> list:
    """classify over a grid of s values, sharing the expensive work.

    The gradient-measure atoms and the path-to-atom distances do not depend
    on s, so they are computed once per level and reused; the kernel is
    applied through a log-spaced distance histogram (n_bins bins between
    the cap radius and the largest distance), which agrees with the exact
    capped kernel to within the bin width in log-distance.  Intended for
    phase-diagram sweeps where classify would be run hundreds of times on
    the same path.  Returns one VariabilityReport per s, in order.
    """
    from scipy.spatial.distance import cdist

    s_values = [float(s) for s in s_values]
    levels = tuple(params_base.levels)
    entries = _scalar_entries(phi)
    box = inflated_box(path, params_base.margin)
    neighborhood = {"box": box.tolist(), "margin": params_base.margin}
    caps = tuple(entries[0].scale(L) for L in levels)
    unique, inverse = np.unique(path.values, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    norms = {s: [] for s in s_values}
    for L in levels:
        stat_by_s = {s: np.zeros(path.grid.N + 1) for s in s_values}
        for entry in entries:
            if entry.dim != path.dim:
                raise ValueError("path and coefficient dimensions differ")
            mu = entry.gradient_measure(box, L)
            if mu.n_atoms == 0:
                continue
            cap = entry.scale(L)
            d = np.maximum(cdist(unique, mu.locations), max(cap, 1e-300))
            # weighted histogram of log distances, one row per path point
            logd = np.log(d)
            lo, hi = logd.min(), logd.max() + 1e-12
            edges = np.linspace(lo, hi, n_bins + 1)
            idx = np.minimum(((logd - lo) / (hi - lo) * n_bins).astype(np.int64),
                             n_bins - 1)
            flat = idx + n_bins * np.arange(len(unique))[:, None]
            binned = np.bincount(flat.ravel(),
                                 weights=np.broadcast_to(mu.weights, d.shape).ravel(),
                                 minlength=n_bins * len(unique)).reshape(len(unique), n_bins)
            centers = np.exp(0.5 * (edges[:-1] + edges[1:]))
            for s in s_values:
                gamma = 1.0 - s
                pots = binned @ centers ** (gamma - path.dim)
                stat_by_s[s] = np.maximum(stat_by_s[s], pots[inverse])
        for s in s_values:
            stat = GridFunction(path.grid, stat_by_s[s])
            norms[s].append(stat.lp_norm(params_base.p))
    reports = []
    for s in s_values:
        params = VariabilityParams(
            s=s, p=params_base.p, margin=params_base.margin, levels=levels,
            divergence_threshold=params_base.divergence_threshold,
            r_squared_floor=params_base.r_squared_floor,
            residual_cap=params_base.residual_cap)
        reports.append(_fit_verdict(params, levels, caps, tuple(norms[s]),
                                    neighborhood))
    return reports


def require_finite(path: SampledPath, phi: Union[ScalarBV, MatrixBV],
                   params: VariabilityParams, context: str = "") -> VariabilityReport:
    report = classify(path, phi, params)
    if report.verdict == "diverging":
        raise VariabilityRefusal(
            f"variability classifier returned 'diverging'{' for ' + context if context else ''}",
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


def gagliardo_seminorm(f: GridFunction, theta: float, p: float,
                       diagonal_floor: int = 1) -> float:
    """Gagliardo seminorm of order theta: the 1/p power of the off-diagonal
    double Riemann sum of |f(t)-f(u)|^p |t-u|^(-1-theta p)."""
    power = gagliardo_pth_power(f.values, f.grid.dt, theta, p, diagonal_floor)
    return float(power ** (1.0 / p))


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else np.inf


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
                     grid, t_min_factors=(4, 16, 64, 256),
                     threshold: float = 0.05) -> EnergySweep:
    """Monte Carlo mean of int_0^T |B_t - x|^(-(n-1+s)) dt for fBm B, with a
    divergence flag from a time-floor sweep: the integrand is restricted to
    t >= t_min and t_min swept down; growth of the mean as t_min -> 0
    signals a failed phase condition.  The kernel is capped at the typical
    one-step displacement dt^H."""
    from .grid_paths import make_fbm

    x = np.asarray(x, dtype=float).reshape(n)
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds")
    dt = grid.dt
    cap = dt ** hurst
    expo = -(n - 1 + s)
    factors = sorted(t_min_factors, reverse=True)
    per_seed = np.zeros((len(seeds), len(factors)))
    for i, seed in enumerate(seeds):
        path = make_fbm(hurst, n, grid, seed)
        d = np.linalg.norm(path.values[:-1] - x, axis=1)
        k = np.maximum(d, cap) ** expo
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
        diverging=slope > threshold,
    )


@dataclass(frozen=True)
class MomentCheck:
    value: float
    growth_exponent: float
    diverging: bool
    levels: tuple
    values: tuple


def moment_condition_check(phi: ScalarBV, x0: np.ndarray, exponent: float,
                           levels=(6, 8, 10), box_margin: float = 1.0,
                           threshold: float = DIVERGENCE_THRESHOLD) -> MomentCheck:
    """Capped moment int |z - x0|^exponent dPhi(z) across a level sweep,
    with a divergence flag from the growth regression (the shifted-driver
    admissibility condition)."""
    x0 = np.asarray(x0, dtype=float).reshape(phi.dim)
    if not (-phi.dim < exponent < 0):
        raise ValueError("exponent must lie in (-n, 0)")
    box = np.column_stack([x0 - box_margin - 1.0, x0 + box_margin + 1.0])
    vals, caps = [], []
    for L in levels:
        mu = phi.gradient_measure(box, L)
        h = phi.scale(L)
        if mu.n_atoms == 0:
            vals.append(0.0)
        else:
            d = np.linalg.norm(mu.locations - x0, axis=1)
            vals.append(float(np.dot(mu.weights, np.maximum(d, h) ** exponent)))
        caps.append(h)
    vals_arr = np.asarray(vals)
    if vals_arr.max() <= 0:
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(1.0 / np.asarray(caps)),
                                 np.log(np.maximum(vals_arr, 1e-300)), 1)[0])
    return MomentCheck(value=vals[-1], growth_exponent=slope,
                       diverging=slope > threshold,
                       levels=tuple(levels), values=tuple(vals))


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
