"""Coefficient-to-solution transform machinery.

Solves the a.e. Jacobian equation (Jf)(y) = sigma(f(y)) by constructing the
potential g with grad g = inverse(sigma) (tabulated quadrature in 1D,
axis-parallel line integration in nD) and inverting it; candidate solutions
of dX = sigma(X) dY are then X_t = f(Y_t + g(x0)).  Verification operators
check the integral-equation residual, the change-of-variable formula and the
inversion identity g(X_t) - g(x0) = Y_t - Y_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bv_library import (
    MatrixBV,
    ScalarBV,
    SingularMatrixError,
    batch_inverse,
    cantor_cumulative,
    cantor_cumulative_inverse,
    curl_check,
    distortion_check,
    inverse_matrix_field,
)
from .gls_integral import gls_integrate_series
from .grid_paths import SampledPath, TimeGrid, estimate_holder
from .gridfun import GridFunction
from .variability import VariabilityParams, require_finite


class SolveRefusal(RuntimeError):
    """A construction or verification precondition failed; carries a report."""

    def __init__(self, message: str, report: Optional[dict] = None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class SolveConfig:
    """Resolution and tolerance knobs for map construction.

    table_points: nodes of the 1D quadrature table.
    quad_step: target step of the nD line-integral quadrature.
    mollify_eps: half-width of the symmetric lateral jitter stencil used to
        mollify the inverse field along line integrals (0 disables).
    curl_eps / curl_spacing / curl_threshold: resolution and acceptance
        level of the cross-derivative symmetry precheck.
    path_agreement_tol: allowed discrepancy between the two polyline orders.
    """

    table_points: int = 8193
    quad_step: float = 5e-4
    inversion_tol: float = 2e-6
    mollify_eps: float = 2e-3
    det_floor: float = 1e-9
    curl_eps: float = 0.12
    curl_spacing: float = 0.03
    curl_threshold: float = 0.5
    path_agreement_tol: float = 1e-3
    newton_max_iter: int = 60
    n_check_probes: int = 128
    run_checks: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.table_points < 3 or self.quad_step <= 0 or self.inversion_tol <= 0:
            raise ValueError("resolution parameters must be positive")
        if self.det_floor <= 0 or self.curl_eps <= 0 or self.curl_spacing <= 0:
            raise ValueError("floors and radii must be positive")


@dataclass(frozen=True)
class DossMaps:
    """A forward potential g and its inverse f, with Lipschitz estimates.

    Both maps are vectorized: points of shape (m, dim) map to (m, dim); a
    single point of shape (dim,) maps to (dim,).
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    lip_f: float
    lip_g: float
    source: str


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x.reshape(1, dim), True
    return x.reshape(-1, dim), False


def _vectorize(core: Callable[[np.ndarray], np.ndarray], dim: int):
    def wrapped(x):
        pts, single = _as_points(x, dim)
        out = core(pts)
        return out[0] if single else out

    return wrapped


# ---------------------------------------------------------------------------
# 1D construction
# ---------------------------------------------------------------------------

def solve_scalar(sigma: ScalarBV, domain: tuple[float, float],
                 config: SolveConfig = SolveConfig()) -> DossMaps:
    """Tabulate g(x) = int_0^x dz / sigma(z) by midpoint quadrature on the
    domain and return (g, f = g^{-1}) as interpolating maps.

    sigma must be nonnegative with 1/sigma integrable; a nonpositive or
    non-finite reciprocal at grid scale triggers a refusal naming the cell.
    The tabulated g must be strictly increasing (hard error otherwise).
    """
    if sigma.dim != 1:
        raise ValueError("solve_scalar needs a one-dimensional coefficient")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")
    nodes = np.linspace(lo, hi, config.table_points)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    sv = np.asarray(sigma(mids[:, None]), dtype=float)
    bad = ~np.isfinite(sv) | (sv <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolveRefusal(
            f"1/sigma is not integrable at grid scale: sigma={sv[i]:g} in "
            f"cell [{nodes[i]:g}, {nodes[i + 1]:g}]",
            {"cell_index": i, "cell": (float(nodes[i]), float(nodes[i + 1]))})
    inv = 1.0 / sv
    if not np.all(np.isfinite(inv)):
        i = int(np.argmax(~np.isfinite(inv)))
        raise SolveRefusal(
            f"1/sigma overflowed in cell [{nodes[i]:g}, {nodes[i + 1]:g}]",
            {"cell_index": i})
    h = nodes[1] - nodes[0]
    gtab = np.concatenate([[0.0], np.cumsum(inv * h)])
    if lo <= 0.0 <= hi:
        gtab = gtab - np.interp(0.0, nodes, gtab)
    if not np.all(np.diff(gtab) > 0):
        raise RuntimeError("tabulated potential is not strictly increasing")

    pad = 1e-9 * (1.0 + abs(hi) + abs(lo))

    def g_core(pts):
        x = pts[:, 0]
        if np.any(x < lo - pad) or np.any(x > hi + pad):
            raise ValueError(f"point outside the solved domain [{lo:g}, {hi:g}]")
        return np.interp(x, nodes, gtab)[:, None]

    def f_core(pts):
        y = pts[:, 0]
        if np.any(y < gtab[0] - pad) or np.any(y > gtab[-1] + pad):
            raise ValueError(
                f"value outside the tabulated range [{gtab[0]:g}, {gtab[-1]:g}]")
        return np.interp(y, gtab, nodes)[:, None]

    return DossMaps(1, _vectorize(g_core, 1), _vectorize(f_core, 1),
                    lip_f=float(sv.max()), lip_g=float(inv.max()),
                    source="solved")


# ---------------------------------------------------------------------------
# nD construction
# ---------------------------------------------------------------------------

def _jitter_offsets(dim: int, axis: int, eps: float) -> np.ndarray:
    """Symmetric lateral stencil (first-order errors cancel across straight
    discontinuity loci): offsets applied to every coordinate except the
    integration axis."""
    if eps <= 0 or dim == 1:
        return np.zeros((1, dim))
    lateral = np.array([-0.75, -0.25, 0.25, 0.75]) * eps
    offs = np.zeros((len(lateral), dim))
    for k in range(dim):
        if k != axis:
            offs[:, k] = lateral
    return offs


def _line_integral(sigma: MatrixBV, base: np.ndarray, xs: np.ndarray,
                   order: Sequence[int], n_q: int,
                   config: SolveConfig) -> np.ndarray:
    """Integral of the inverse field along axis-parallel polylines from the
    base to each target, axes visited in the given order.  The node count
    n_q is fixed per construction so that the quadrature (and hence g) is a
    continuous deterministic function of the target point."""
    m, n = xs.shape
    cur = np.broadcast_to(base, xs.shape).copy()
    acc = np.zeros_like(xs)
    u = (np.arange(n_q) + 0.5) / n_q
    for axis in order:
        L = xs[:, axis] - cur[:, axis]
        offs = _jitter_offsets(n, axis, config.mollify_eps)
        chunk = max(1, 2_000_000 // (n_q * len(offs)))
        for a in range(0, m, chunk):
            b = min(m, a + chunk)
            pts = np.repeat(cur[a:b, None, :], n_q, axis=1)
            pts[:, :, axis] += u[None, :] * L[a:b, None]
            col = np.zeros((b - a, n_q, n))
            for off in offs:
                mats = sigma.evaluate((pts + off).reshape(-1, n))
                hats = batch_inverse(mats, config.det_floor)[0]
                col += hats.reshape(b - a, n_q, n, n)[:, :, :, axis]
            col /= len(offs)
            acc[a:b] += col.sum(axis=1) * (L[a:b, None] / n_q)
        cur[:, axis] = xs[:, axis]
    return acc


def _newton_invert(g: Callable, sigma: MatrixBV, base: np.ndarray,
                   region: np.ndarray, ys: np.ndarray,
                   config: SolveConfig) -> np.ndarray:
    """Damped Newton for g(x) = y using sigma(x) as the inverse-Jacobian
    model, with random multistart fallback inside the region."""
    m, n = ys.shape
    rng = np.random.default_rng(config.seed + 1)
    x = base + np.einsum("ij,mj->mi", sigma.evaluate(base), ys)
    r = g(x) - ys
    rn = np.linalg.norm(r, axis=1)
    tol = config.inversion_tol * (1.0 + np.linalg.norm(ys, axis=1))
    restarts = np.zeros(m, dtype=int)
    for _ in range(config.newton_max_iter):
        active = rn > tol
        if not active.any():
            break
        ia = np.flatnonzero(active)
        mats = sigma.evaluate(x[ia])
        d = -np.einsum("mij,mj->mi", mats, r[ia])
        lam = np.ones(len(ia))
        undone = np.ones(len(ia), dtype=bool)
        for _ in range(8):
            iu = ia[undone]
            xc = x[iu] + lam[undone, None] * d[undone]
            rc = g(xc) - ys[iu]
            rcn = np.linalg.norm(rc, axis=1)
            better = rcn <= (1.0 - 0.25 * lam[undone]) * rn[iu]
            accept = iu[better]
            x[accept] = xc[better]
            r[accept] = rc[better]
            rn[accept] = rcn[better]
            sub = np.flatnonzero(undone)
            undone[sub[better]] = False
            lam[undone] *= 0.5
            if not undone.any():
                break
        # stalled probes restart from a random point in the region
        stalled = ia[undone]
        fresh = stalled[restarts[stalled] < 3]
        if len(fresh):
            restarts[fresh] += 1
            x[fresh] = region[:, 0] + rng.random((len(fresh), n)) * (
                region[:, 1] - region[:, 0])
            r[fresh] = g(x[fresh]) - ys[fresh]
            rn[fresh] = np.linalg.norm(r[fresh], axis=1)
    bad = rn > tol
    if bad.any():
        j = np.flatnonzero(bad)[:8]
        raise SolveRefusal(
            f"Newton inversion failed at {int(bad.sum())} of {m} probes",
            {"probe_targets": ys[j].tolist(), "residual_norms": rn[j].tolist()})
    return x


def solve_nd(sigma: MatrixBV, base, region,
             config: SolveConfig = SolveConfig()) -> DossMaps:
    """Construct g with grad g = inverse(sigma) by line integration from the
    base point and f = g^{-1} by damped Newton.

    Preconditions (unless config.run_checks is off): the determinant floor
    and the angular bound hold at random probes; the mollified inverse field
    passes the cross-derivative symmetry check; the two polyline orders give
    the same g at the probes; f(g(x)) = x at the probes.  Any failure raises
    a refusal carrying the offending report — coefficients whose inverse
    field carries circulation across its jump locus admit no single-valued
    potential, and the refusal is the correct outcome.
    """
    n = sigma.dim
    base = np.asarray(base, dtype=float).reshape(n)
    region = np.asarray(region, dtype=float).reshape(n, 2)
    rng = np.random.default_rng(config.seed)
    probes = region[:, 0] + rng.random((config.n_check_probes, n)) * (
        region[:, 1] - region[:, 0])

    mats = sigma.evaluate(probes)
    try:
        hats, dets = batch_inverse(mats, config.det_floor)
    except SingularMatrixError as exc:
        raise SolveRefusal(str(exc), {"min_det": exc.det}) from exc
    if config.run_checks:
        if dets.min() <= config.det_floor:
            raise SolveRefusal(
                f"determinant {dets.min():g} at or below floor {config.det_floor:g}",
                {"min_det": float(dets.min())})
        dist = distortion_check(sigma, probes, det_floor=config.det_floor)
        if not dist["delta_admissible"]:
            raise SolveRefusal("angular bound violated (delta <= -1)", dist)
        curl = curl_check(inverse_matrix_field(sigma, config.det_floor),
                          region, eps=config.curl_eps, spacing=config.curl_spacing)
        if curl["max_residual"] > config.curl_threshold:
            raise SolveRefusal(
                f"inverse field fails the cross-derivative symmetry check "
                f"(residual {curl['max_residual']:.3g} > {config.curl_threshold:g}); "
                "no single-valued potential exists at this resolution", curl)

    order_fwd = tuple(range(n))
    order_rev = tuple(reversed(order_fwd))
    extent = float((region[:, 1] - region[:, 0]).max())
    n_q = int(min(16384, max(64, np.ceil(extent / config.quad_step))))

    def g_core(pts):
        return _line_integral(sigma, base, pts, order_fwd, n_q, config)

    if config.run_checks:
        fwd = g_core(probes)
        rev = _line_integral(sigma, base, probes, order_rev, n_q, config)
        dev = float(np.abs(fwd - rev).max())
        scale = 1.0 + float(np.abs(fwd).max())
        if dev > config.path_agreement_tol * scale:
            raise SolveRefusal(
                f"polyline orders disagree by {dev:.3g}: the line integral is "
                "path-dependent on this region", {"max_deviation": dev})

    def f_core(ys):
        return _newton_invert(g_core, sigma, base, region, ys, config)

    lip_f = float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())
    lip_g = float(np.linalg.svd(hats, compute_uv=False)[:, 0].max())

    maps = DossMaps(n, _vectorize(g_core, n), _vectorize(f_core, n),
                    lip_f=lip_f, lip_g=lip_g, source="solved")
    if config.run_checks:
        round_trip = maps.f(maps.g(probes))
        err = float(np.abs(round_trip - probes).max())
        if err > 100 * config.inversion_tol * (1.0 + float(np.abs(probes).max())):
            raise SolveRefusal(f"f(g(x)) deviates from x by {err:.3g} at probes",
                               {"max_roundtrip_error": err})
    return maps


# ---------------------------------------------------------------------------
# Closed-form map library
# ---------------------------------------------------------------------------

def closed_form_maps(name: str, **params) -> DossMaps:
    """Exact (f, g) pairs for the library coefficients.

    jump_line(c):   f(y) = (c y1 + y2, y1 1_{y1<0} + c y2); g inverts the
                    two linear branches split by the line c x1 = x2.
    cone(a, b):     f(y) = (b y1 + a y2 1_Q, a y1 1_Q + b y2), Q the open
                    first quadrant.  f is discontinuous across the positive
                    half-axes and its range omits the two wedges between the
                    cone and the axes; g is a right inverse on the range
                    only (g(f(y)) = y a.e. holds globally).
    cantor_shear:   f(y) = (y1, y1 1_{y1>0} + Phi(y2)) with Phi the
                    cumulative of 1 + the Cantor staircase.
    """
    if name == "jump_line":
        c = float(params["c"])
        if not c > 1:
            raise ValueError("need c > 1")

        def f_core(pts):
            y1, y2 = pts[:, 0], pts[:, 1]
            return np.column_stack([c * y1 + y2,
                                    np.where(y1 < 0, y1, 0.0) + c * y2])

        def g_core(pts):
            x1, x2 = pts[:, 0], pts[:, 1]
            above = c * x1 < x2
            y1 = np.where(above, (c * x1 - x2) / (c * c - 1.0),
                          x1 / c - x2 / (c * c))
            y2 = np.where(above, (c * x2 - x1) / (c * c - 1.0), x2 / c)
            return np.column_stack([y1, y2])

        branches = [np.array([[c, 1.0], [1.0, c]]), np.array([[c, 1.0], [0.0, c]])]
        lip_f = max(np.linalg.norm(B, 2) for B in branches)
        lip_g = max(np.linalg.norm(np.linalg.inv(B), 2) for B in branches)
        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2),
                        lip_f=float(lip_f), lip_g=float(lip_g),
                        source="closed_form(jump_line)")

    if name == "cone":
        a, b = float(params["a"]), float(params["b"])
        if not 0 < a < b:
            raise ValueError("need 0 < a < b")

        def f_core(pts):
            y1, y2 = pts[:, 0], pts[:, 1]
            q = (y1 > 0) & (y2 > 0)
            return np.column_stack([b * y1 + np.where(q, a * y2, 0.0),
                                    np.where(q, a * y1, 0.0) + b * y2])

        def g_core(pts):
            x1, x2 = pts[:, 0], pts[:, 1]
            inside = (b * x2 > a * x1) & (b * x1 > a * x2)
            d = b * b - a * a
            y1 = np.where(inside, (b * x1 - a * x2) / d, x1 / b)
            y2 = np.where(inside, (b * x2 - a * x1) / d, x2 / b)
            return np.column_stack([y1, y2])

        M = np.array([[b, a], [a, b]])
        lip_f = np.linalg.norm(M, 2)
        lip_g = max(np.linalg.norm(np.linalg.inv(M), 2), 1.0 / b)
        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2),
                        lip_f=float(lip_f), lip_g=float(lip_g),
                        source="closed_form(cone)")

    if name == "cantor_shear":

        def f_core(pts):
            y1, y2 = pts[:, 0], pts[:, 1]
            return np.column_stack([y1,
                                    np.where(y1 > 0, y1, 0.0) + cantor_cumulative(y2)])

        def g_core(pts):
            x1, x2 = pts[:, 0], pts[:, 1]
            w = x2 - np.maximum(x1, 0.0)
            return np.column_stack([x1, cantor_cumulative_inverse(w)])

        # Jacobian branches: [[1,0],[q, s]] with q in {0,1}, s in [1,2]
        lip_f = max(np.linalg.norm(np.array([[1.0, 0.0], [q, s]]), 2)
                    for q in (0.0, 1.0) for s in (1.0, 2.0))
        lip_g = max(np.linalg.norm(np.linalg.inv(np.array([[1.0, 0.0], [q, s]])), 2)
                    for q in (0.0, 1.0) for s in (1.0, 2.0))
        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2),
                        lip_f=float(lip_f), lip_g=float(lip_g),
                        source="closed_form(cantor_shear)")

    raise ValueError(f"unknown closed-form family {name!r}")


# ---------------------------------------------------------------------------
# Solution construction and verification
# ---------------------------------------------------------------------------

def build_solution(maps: DossMaps, Y: SampledPath, x0) -> SampledPath:
    """Candidate solution X_t = f(Y_t + g(x0)) for a driver started at 0."""
    x0 = np.asarray(x0, dtype=float).reshape(maps.dim)
    if Y.dim != maps.dim:
        raise ValueError("driver and maps dimensions differ")
    if np.abs(Y.values[0]).max() > 1e-9:
        raise ValueError("driver must start at 0")
    shift = maps.g(x0)
    try:
        X = maps.f(Y.values + shift)
    except ValueError as exc:
        raise SolveRefusal(f"driver leaves the solved range: {exc}") from exc
    start_err = float(np.abs(X[0] - x0).max())
    if start_err > 1e-5 * (1.0 + float(np.abs(x0).max())):
        raise SolveRefusal(
            f"starting point is not reproduced (error {start_err:.3g}); "
            "x0 may lie outside the map's range", {"start_error": start_err})
    meta = dict(Y.meta)
    meta.update({"construction": "doss", "maps": maps.source})
    return SampledPath(Y.grid, maps.dim, X, holder_hint=Y.holder_hint, meta=meta)


def _checkpoint_indices(N: int, n_checkpoints: Optional[int]) -> np.ndarray:
    if n_checkpoints is None or n_checkpoints >= N + 1:
        return np.arange(N + 1)
    return np.unique(np.linspace(0, N, n_checkpoints).round().astype(int))


def _subsampled(path: SampledPath, max_points: int = 512) -> SampledPath:
    """Coarse time-subsampling preserving the horizon, used only to keep the
    classifier precondition affordable on fine grids."""
    N = path.grid.N
    step = 1
    while N // step > max_points:
        step *= 2
    if step == 1:
        return path
    grid = TimeGrid(path.grid.T, N // step)
    return SampledPath(grid, path.dim, path.values[::step],
                       holder_hint=path.holder_hint, meta=dict(path.meta))


def _witness_exponent(alpha: float, gamma: float) -> float:
    """Midpoint of the admissible interval ((1 - gamma)/alpha, 1)."""
    if alpha <= 0:
        raise SolveRefusal("degenerate path: cannot pick a variability witness")
    lower = (1.0 - gamma) / alpha
    if lower >= 1.0:
        raise SolveRefusal(
            f"no admissible variability exponent: (1-gamma)/alpha = {lower:.3g} >= 1",
            {"alpha": alpha, "gamma": gamma})
    return float(np.clip(0.5 * (lower + 1.0), 0.05, 0.95))


@dataclass(frozen=True)
class ResidualReport:
    sup: float
    by_component: np.ndarray  # (dim, n_checkpoints)
    checkpoint_times: np.ndarray
    s_witness: float
    classifier_report: dict
    theta: float

    def to_dict(self) -> dict:
        return {
            "sup": self.sup,
            "by_component": self.by_component.tolist(),
            "checkpoint_times": self.checkpoint_times.tolist(),
            "s_witness": self.s_witness,
            "classifier_report": self.classifier_report,
            "theta": self.theta,
        }


def residual(X: SampledPath, sigma: MatrixBV, Y: SampledPath, x0,
             theta: float, *, s: Optional[float] = None,
             n_checkpoints: Optional[int] = 64,
             classifier_params: Optional[VariabilityParams] = None,
             refine: int = 4) -> ResidualReport:
    """Sup-norm residual of the integral equation
    X^j_t - x0_j - sum_k int_0^t sigma_jk(X) dY^k, evaluated at checkpoint
    times via the duality-pairing integral (time quadrature refined by
    ``refine`` on the piecewise-linear data).

    Precondition: the variability classifier must not return 'diverging' for
    (X, sigma) at the witness exponent s (by default the midpoint of the
    admissible interval derived from the estimated Hoelder exponents).
    """
    x0 = np.asarray(x0, dtype=float).reshape(sigma.dim)
    if X.dim != sigma.dim or Y.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    alpha = estimate_holder(X).exponent
    gamma = estimate_holder(Y).exponent
    s_w = s if s is not None else _witness_exponent(alpha, gamma)
    params = classifier_params or VariabilityParams(s=s_w, p=1.0, levels=(5, 7, 9))
    report = require_finite(_subsampled(X), sigma, params, context="solution residual")

    idx = _checkpoint_indices(X.grid.N, n_checkpoints)
    n = sigma.dim
    by_comp = np.empty((n, len(idx)))
    for j in range(n):
        total = np.zeros(X.grid.N + 1)
        for k in range(n):
            integrand = GridFunction(X.grid, sigma.entries[j][k](X.values))
            driver = GridFunction(Y.grid, Y.values[:, k])
            series = gls_integrate_series(integrand, driver, theta, indices=idx,
                                          refine=refine)
            total += series.values
        by_comp[j] = X.values[idx, j] - x0[j] - total[idx]
    return ResidualReport(float(np.abs(by_comp).max()), by_comp,
                          X.grid.times[idx], s_w, report.to_dict(), theta)


def uniqueness_check(X: SampledPath, maps: DossMaps, Y: SampledPath, x0) -> float:
    """sup_t |g(X_t) - g(x0) - (Y_t - Y_0)| — zero (up to inversion error)
    exactly for the transform-built solution."""
    if X.dim != maps.dim or Y.dim != maps.dim:
        raise ValueError("dimension mismatch")
    x0 = np.asarray(x0, dtype=float).reshape(maps.dim)
    gx = maps.g(X.values)
    dev = gx - maps.g(x0) - (Y.values - Y.values[0])
    return float(np.abs(dev).max())


@dataclass(frozen=True)
class BVGradientMap:
    """A scalar map together with BV coefficients for its partials."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    partials: tuple  # of ScalarBV, length dim
    name: str = ""


@dataclass(frozen=True)
class ChangeOfVariableReport:
    sup: float
    values: np.ndarray
    checkpoint_times: np.ndarray
    s_witness: float
    alpha: float
    theta: float


def change_of_variable_check(F: BVGradientMap, X: SampledPath, theta: float,
                             *, s: Optional[float] = None,
                             n_checkpoints: Optional[int] = 64,
                             classifier_params: Optional[VariabilityParams] = None,
                             refine: int = 4) -> ChangeOfVariableReport:
    """sup_t |F(X_t) - F(X_0) - sum_k int_0^t (partial_k F)(X) dX^k|.

    Requires an estimated Hoelder exponent above 1/2 for X and a
    non-diverging classifier verdict for every partial.  Adding a constant
    to F cancels exactly (only differences of F enter).
    """
    if F.dim != X.dim or len(F.partials) != X.dim:
        raise ValueError("dimension mismatch")
    alpha = estimate_holder(X).exponent
    if not alpha > 0.5:
        raise SolveRefusal(
            f"estimated Hoelder exponent {alpha:.3g} <= 1/2: the formula's "
            "hypothesis fails", {"alpha": alpha})
    s_w = s if s is not None else _witness_exponent(alpha, alpha)
    params = classifier_params or VariabilityParams(s=s_w, p=1.0, levels=(5, 7, 9))
    Xc = _subsampled(X)
    for k, phi in enumerate(F.partials):
        require_finite(Xc, phi, params, context=f"partial {k}")

    idx = _checkpoint_indices(X.grid.N, n_checkpoints)
    Fvals = np.asarray(F.evaluate(X.values), dtype=float).ravel()
    total = np.zeros(X.grid.N + 1)
    for k, phi in enumerate(F.partials):
        integrand = GridFunction(X.grid, np.asarray(phi(X.values), dtype=float))
        driver = GridFunction(X.grid, X.values[:, k])
        total += gls_integrate_series(integrand, driver, theta, indices=idx,
                                      refine=refine).values
    vals = Fvals[idx] - Fvals[0] - total[idx]
    return ChangeOfVariableReport(float(np.abs(vals).max()), vals,
                                  X.grid.times[idx], s_w, alpha, theta)
