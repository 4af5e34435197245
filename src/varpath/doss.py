"""Coefficient-to-solution transform machinery.

Solves the a.e. Jacobian equation (Jf)(y) = sigma(f(y)) by constructing the
potential g with grad g = inverse(sigma) (Doss' transform) and inverting it;
candidate solutions of dX = sigma(X) dY are then X_t = f(Y_t + g(x0)).  In
every dimension n >= 1, g is one table on a lattice anchored at the base
point, built once by cumulative axis quadrature along polylines and
interpolated multilinearly, and f is damped Newton on that interpolant; a
1D coefficient enters as the 1x1 MatrixBV.  Verification operators check
the integral-equation residual, the change-of-variable formula and the
inversion identity g(X_t) - g(x0) = Y_t - Y_0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bv_library import (
    MatrixBV,
    batch_inverse,
    cantor_cumulative,
    cantor_cumulative_inverse,
    curl_check,
    distortion_check,
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
class DossMaps:
    """A forward potential g and its inverse f.

    Both maps are vectorized: points of shape (m, dim) map to (m, dim); a
    single point of shape (dim,) maps to (dim,).
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]


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
# The tabulated potential
# ---------------------------------------------------------------------------

SUBSTEPS = 10               # midpoint sub-steps of quad_step per lattice cell
TABLE_NODE_BUDGET = 2 ** 23  # most lattice nodes a potential table may hold
EVAL_CHUNK = 2 ** 18         # most points per sigma evaluation while tabulating
DET_FLOOR = 1e-9             # least det sigma the construction accepts
INVERSION_TOL = 2e-6         # Newton residual tolerance, relative to 1 + |y|
NEWTON_MAX_ITER = 60
N_CHECK_PROBES = 128         # random probes of the preconditions (seed 0)
CLASSIFIER_POINTS = 512      # most path steps the classifier preconditions see
CURL_EPS = 0.12              # mollifier radius of the curl check
CURL_SPACING = 0.03          # grid spacing of the curl check
CURL_THRESHOLD = 0.5         # largest accepted curl residual
PATH_AGREEMENT_TOL = 1e-3    # allowed gap between the two polyline orders


def _inverse(mats: np.ndarray, pts: np.ndarray, stage: str) -> np.ndarray:
    """Inverses of the values mats of sigma at pts; refuses, naming the
    stage and the point, where det sigma <= DET_FLOOR (signed: where det
    sigma changes sign the potential folds and has no inverse)."""
    hats, dets = batch_inverse(mats)
    if not dets.min() > DET_FLOOR:
        j = int(np.argmin(dets))
        raise _singular(stage, pts[j].tolist(), float(dets[j]))
    return hats


def _singular(stage: str, point: list, det: float) -> SolveRefusal:
    return SolveRefusal(
        f"{stage}: det sigma = {det:g} at or below the floor {DET_FLOOR:g} "
        f"at {point}", {"stage": stage, "point": point, "min_det": det})


class _PotentialTable:
    """g with grad g = inverse(sigma) at the nodes base + h*i (i integer)
    of an index box lo <= i <= hi, multilinear in between.

    A node's value is the integral of the inverse field along the
    axis-parallel polyline from the base that visits the axes in ``order``:
    leg k runs along axis order[k] with the earlier axes at the node's
    coordinates and the later ones at the base's, so it is a cumulative sum
    along that axis, outward from the base, of cell integrals taken by the
    midpoint rule over SUBSTEPS sub-steps.  Node coordinates are computed
    from the base, so a node's value does not depend on the box; a query
    outside the box grows it (at most TABLE_NODE_BUDGET nodes, about 14.5
    units per side in 2-D and 1.0 in 3-D at the default spacing 5e-3).
    Every sub-step refuses where det sigma <= DET_FLOOR, naming the stage
    (the build, or the g or f query that grew the table).
    """

    def __init__(self, sigma: MatrixBV, base: np.ndarray, h: float,
                 order: Sequence[int], corners: np.ndarray, stage: str):
        self.sigma, self.base, self.h, self.order = sigma, base, h, tuple(order)
        self.lo = self.hi = np.zeros(sigma.dim, dtype=int)
        self.values = None
        self.cover(corners, stage)

    def _build(self, lo: np.ndarray, hi: np.ndarray, stage: str) -> None:
        n = self.sigma.dim
        shape = tuple(int(e) for e in hi - lo + 1)
        self.lo, self.hi = lo, hi
        self.values = np.zeros(shape + (n,))
        for k, axis in enumerate(self.order):
            self.values += self._leg(self.order[:k], axis, stage)
        self.strides = np.array([int(np.prod(shape[k + 1:])) for k in range(n)])

    def _leg(self, lateral: tuple, axis: int, stage: str) -> np.ndarray:
        """Leg along ``axis`` with the ``lateral`` axes at lattice values,
        shaped to broadcast against the table."""
        n, h, base = self.sigma.dim, self.h, self.base
        lo, hi = self.lo, self.hi
        lat_shape = [int(hi[a] - lo[a] + 1) for a in lateral]
        lat = (np.indices(lat_shape).reshape(len(lateral), int(np.prod(lat_shape))).T
               + lo[list(lateral)]).astype(float)
        cells = np.arange(lo[axis], hi[axis], dtype=float)
        z = int(-lo[axis])  # position of the base node along the axis
        vals = np.zeros((len(lat), len(cells) + 1, n))
        rows = max(1, EVAL_CHUNK // len(cells))
        for a in range(0, len(lat), rows):
            b = min(len(lat), a + rows)
            pts = np.empty((b - a, len(cells), n))
            pts[:] = base
            pts[:, :, list(lateral)] = base[list(lateral)] + lat[a:b, None, :] * h
            acc = np.zeros((b - a, len(cells), n))
            for sub in range(SUBSTEPS):
                pts[:, :, axis] = base[axis] + (cells + (sub + 0.5) / SUBSTEPS) * h
                q = pts.reshape(-1, n)
                hats = _inverse(self.sigma.evaluate(q), q, stage)
                acc += hats[:, :, axis].reshape(b - a, len(cells), n)
            acc *= h / SUBSTEPS
            # cumulative sums outward from the base node
            vals[a:b, z + 1:] = np.cumsum(acc[:, z:], axis=1)
            vals[a:b, :z] = -np.cumsum(acc[:, :z][:, ::-1], axis=1)[:, ::-1]
        present = list(lateral) + [axis]
        missing = [d for d in range(n) if d not in present]
        vals = vals.reshape(lat_shape + [len(cells) + 1] + [1] * len(missing) + [n])
        return vals.transpose(list(np.argsort(present + missing)) + [n])

    def _index(self, x: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(x)):
            raise ValueError("potential queried at a non-finite point")
        return (x - self.base) / self.h

    def holds(self, x: np.ndarray) -> np.ndarray:
        """Which points of x lie in the box."""
        t = self._index(x)
        return np.all((t >= self.lo) & (t <= self.hi), axis=1)

    def cover(self, x: np.ndarray, stage: str) -> None:
        """Build or grow the box until it holds every point of x."""
        if not len(x):
            return
        t = self._index(x)
        lo = np.minimum(self.lo, np.floor(t.min(axis=0)))
        hi = np.maximum(np.maximum(self.hi, np.ceil(t.max(axis=0))), lo + 1)
        if self.values is not None and np.array_equal(lo, self.lo) \
                and np.array_equal(hi, self.hi):
            return
        nodes = int(np.prod(hi - lo + 1))
        if nodes > TABLE_NODE_BUDGET:
            far = x[int(np.argmax(np.maximum(self.lo - t, t - self.hi).max(axis=1)))]
            raise SolveRefusal(
                f"{stage}: holding point {far.tolist()} needs {nodes} lattice "
                f"nodes at spacing {self.h:g}, beyond the potential table's "
                f"budget of {TABLE_NODE_BUDGET}",
                {"stage": stage, "point": far.tolist(), "nodes": nodes,
                 "node_budget": TABLE_NODE_BUDGET})
        self._build(lo.astype(int), hi.astype(int), stage)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.cover(x, "g query")
        t = self._index(x)
        i = np.clip(np.floor(t).astype(int), self.lo, self.hi - 1)
        u = t - i
        corner0 = (i - self.lo) @ self.strides
        flat = self.values.reshape(-1, self.sigma.dim)
        out = np.zeros_like(x)
        for corner in itertools.product((0, 1), repeat=self.sigma.dim):
            c = np.array(corner)
            w = np.prod(np.where(c == 1, u, 1.0 - u), axis=1)
            out += w[:, None] * flat[corner0 + c @ self.strides]
        return out


def _newton_invert(table: _PotentialTable, sigma: MatrixBV,
                   ys: np.ndarray) -> np.ndarray:
    """Damped Newton for g(x) = y on the table's interpolant, using sigma(x)
    as the inverse-Jacobian model, from x = base + sigma(base) y clipped to
    the table.  A trial step outside the table is rejected; the table grows
    only to hold the full steps of iterates that no damped step could move."""
    m = len(ys)
    x = np.clip(table.base + ys @ sigma.evaluate(table.base).T,
                table.base + table.lo * table.h, table.base + table.hi * table.h)
    r = table(x) - ys
    rn = np.linalg.norm(r, axis=1)
    tol = INVERSION_TOL * (1.0 + np.linalg.norm(ys, axis=1))
    for _ in range(NEWTON_MAX_ITER):
        active = rn > tol
        if not active.any():
            break
        ia = np.flatnonzero(active)
        d = -np.einsum("mij,mj->mi", sigma.evaluate(x[ia]), r[ia])
        lam = np.ones(len(ia))
        undone = np.ones(len(ia), dtype=bool)
        leaves = ~table.holds(x[ia] + d)
        for _ in range(8):
            iu = ia[undone]
            xc = x[iu] + lam[undone, None] * d[undone]
            inside = table.holds(xc)
            rc = np.full_like(xc, np.inf)
            if inside.any():
                rc[inside] = table(xc[inside]) - ys[iu[inside]]
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
        stuck = undone & leaves
        if stuck.any():
            table.cover(x[ia[stuck]] + d[stuck], "f query")
    bad = rn > tol
    if bad.any():
        j = np.flatnonzero(bad)[:8]
        raise SolveRefusal(
            f"Newton inversion failed at {int(bad.sum())} of {m} probes",
            {"probe_targets": ys[j].tolist(), "residual_norms": rn[j].tolist()})
    return x


def solve_nd(sigma: MatrixBV, base, region, *, quad_step: float = 5e-4) -> DossMaps:
    """Construct g with grad g = inverse(sigma), tabulated once on the
    lattice base + h Z^n (h = SUBSTEPS * quad_step) over the region, and
    f = g^{-1} by damped Newton on the table's interpolant.  This is the one
    construction for every n >= 1; a 1D coefficient sigma enters as
    MatrixBV(1, ((sigma,),)), and g is then the integral of 1/sigma from
    the base.

    Preconditions, always checked: det sigma > DET_FLOOR and the angular
    bound hold at N_CHECK_PROBES random probes (seed 0); det sigma >
    DET_FLOOR on the grid of the cross-derivative symmetry check, and the
    inverse field passes that check (trivial in 1D); det sigma > DET_FLOOR
    at every quadrature sub-step of the table; the tables built
    along the two polyline orders give the same g at the probes; f(g(x)) = x
    at the probes.  Any failure raises a refusal carrying the offending
    report — coefficients whose inverse field carries circulation across its
    jump locus admit no single-valued potential, and the refusal is the
    correct outcome.  A query outside the table grows it, up to
    TABLE_NODE_BUDGET nodes; beyond that the query refuses, naming the point
    and the budget.  At the default quad_step the budget holds a region of
    about 14.5 units per side in 2-D and 1.0 unit per side in 3-D (2896^2
    and 203^3 nodes); a larger region refuses while the table is built, or
    needs a coarser quad_step.
    """
    if not quad_step > 0:
        raise ValueError(f"quad_step must be positive, got {quad_step}")
    n = sigma.dim
    base = np.asarray(base, dtype=float).reshape(n)
    region = np.asarray(region, dtype=float).reshape(n, 2)
    probes = region[:, 0] + np.random.default_rng(0).random((N_CHECK_PROBES, n)) * (
        region[:, 1] - region[:, 0])

    _inverse(sigma.evaluate(probes), probes, "probes")
    dist = distortion_check(sigma, probes)
    if not dist["delta_admissible"]:
        raise SolveRefusal("angular bound violated (delta <= -1)", dist)
    curl = curl_check(sigma, region, CURL_EPS, CURL_SPACING)
    if not curl.get("min_det", np.inf) > DET_FLOOR:  # 1D has no curl grid
        raise _singular("curl check", curl["min_det_point"], curl["min_det"])
    if curl["max_residual"] > CURL_THRESHOLD:
        raise SolveRefusal(
            f"inverse field fails the cross-derivative symmetry check "
            f"(residual {curl['max_residual']:.3g} > {CURL_THRESHOLD:g}); "
            "no single-valued potential exists at this resolution", curl)

    h = SUBSTEPS * quad_step
    table = _PotentialTable(sigma, base, h, range(n), region.T, "table build")
    fwd = table(probes)
    rev = _PotentialTable(sigma, base, h, reversed(range(n)), region.T,
                          "reverse-order table build")(probes)
    dev = float(np.abs(fwd - rev).max())
    if dev > PATH_AGREEMENT_TOL * (1.0 + float(np.abs(fwd).max())):
        raise SolveRefusal(
            f"polyline orders disagree by {dev:.3g}: the potential is "
            "path-dependent on this region", {"max_deviation": dev})

    maps = DossMaps(n, _vectorize(table, n),
                    _vectorize(lambda ys: _newton_invert(table, sigma, ys), n))
    err = float(np.abs(maps.f(maps.g(probes)) - probes).max())
    if err > 100 * INVERSION_TOL * (1.0 + float(np.abs(probes).max())):
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

        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2))

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

        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2))

    if name == "cantor_shear":

        def f_core(pts):
            y1, y2 = pts[:, 0], pts[:, 1]
            return np.column_stack([y1,
                                    np.where(y1 > 0, y1, 0.0) + cantor_cumulative(y2)])

        def g_core(pts):
            x1, x2 = pts[:, 0], pts[:, 1]
            w = x2 - np.maximum(x1, 0.0)
            return np.column_stack([x1, cantor_cumulative_inverse(w)])

        return DossMaps(2, _vectorize(g_core, 2), _vectorize(f_core, 2))

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
    return SampledPath(Y.grid, maps.dim, X)


def _checkpoint_indices(N: int, n_checkpoints: Optional[int]) -> np.ndarray:
    if n_checkpoints is None or n_checkpoints >= N + 1:
        return np.arange(N + 1)
    return np.unique(np.linspace(0, N, n_checkpoints).round().astype(int))


def _subsampled(path: SampledPath) -> SampledPath:
    """Coarse time-subsampling to at most CLASSIFIER_POINTS steps,
    preserving the horizon, used only to keep the classifier precondition
    affordable on fine grids."""
    N = path.grid.N
    step = 1
    while N // step > CLASSIFIER_POINTS:
        step *= 2
    if step == 1:
        return path
    grid = TimeGrid(path.grid.T, N // step)
    return SampledPath(grid, path.dim, path.values[::step])


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


def _pairing_sum(coefficients, X: SampledPath, Z: SampledPath, theta: float,
                 idx: np.ndarray, refine: int) -> np.ndarray:
    """sum_k int_0^t phi_k(X) dZ^k at the checkpoint indices idx, for the
    coefficients phi_k in order, each a duality-pairing series."""
    total = np.zeros(X.grid.N + 1)
    for k, phi in enumerate(coefficients):
        integrand = GridFunction(X.grid, phi(X.values))
        driver = GridFunction(Z.grid, Z.values[:, k])
        total += gls_integrate_series(integrand, driver, theta, indices=idx,
                                      refine=refine).values
    return total[idx]


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
             refine: int = 4) -> ResidualReport:
    """Sup-norm residual of the integral equation
    X^j_t - x0_j - sum_k int_0^t sigma_jk(X) dY^k, evaluated at checkpoint
    times via the duality-pairing integral (time quadrature refined by
    ``refine`` on the piecewise-linear data).

    Precondition: the variability classifier (p = 1, levels 5, 7 and 9, on
    X subsampled to at most CLASSIFIER_POINTS steps) must not return
    'diverging' for (X, sigma) at the witness exponent s (by default the
    midpoint of the admissible interval derived from the estimated Hoelder
    exponents).
    """
    x0 = np.asarray(x0, dtype=float).reshape(sigma.dim)
    if X.dim != sigma.dim or Y.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    alpha = estimate_holder(X).exponent
    gamma = estimate_holder(Y).exponent
    s_w = s if s is not None else _witness_exponent(alpha, gamma)
    params = VariabilityParams(s=s_w, p=1.0, levels=(5, 7, 9))
    report = require_finite(_subsampled(X), sigma, params, context="solution residual")

    idx = _checkpoint_indices(X.grid.N, n_checkpoints)
    by_comp = np.array([X.values[idx, j] - x0[j]
                        - _pairing_sum(row, X, Y, theta, idx, refine)
                        for j, row in enumerate(sigma.entries)])
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
                             refine: int = 4) -> ChangeOfVariableReport:
    """sup_t |F(X_t) - F(X_0) - sum_k int_0^t (partial_k F)(X) dX^k|.

    Requires an estimated Hoelder exponent above 1/2 for X and a
    non-diverging classifier verdict for every partial, with the settings
    residual uses.  Adding a constant
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
    params = VariabilityParams(s=s_w, p=1.0, levels=(5, 7, 9))
    Xc = _subsampled(X)
    for k, phi in enumerate(F.partials):
        require_finite(Xc, phi, params, context=f"partial {k}")

    idx = _checkpoint_indices(X.grid.N, n_checkpoints)
    Fvals = np.asarray(F.evaluate(X.values), dtype=float).ravel()
    vals = Fvals[idx] - Fvals[0] - _pairing_sum(F.partials, X, X, theta, idx, refine)
    return ChangeOfVariableReport(float(np.abs(vals).max()), vals,
                                  X.grid.times[idx], s_w, alpha, theta)
