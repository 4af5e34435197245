"""A library of bounded-variation coefficients.

Each coefficient is a pointwise evaluator (a fixed Lebesgue representative,
valued at the average of one-sided limits on jump loci), a generator of
discrete approximations of its gradient total-variation measure, and an
optional sup bound: all that phi(X), its integral and the Doss transform
read.  At integer ``level`` the measure resolves spatial scale
``2**-level``, which is also the classifier's cap radius at that level.

Included: the Cantor staircase coefficient, indicator coefficients
(half-plane, cone), piecewise-constant matrix coefficients (jump line,
cone, Cantor shear), and structural checks (curl residual of the inverse
field, distortion/angular constants).

Every matrix inverse and determinant in the package comes from one batched
routine, ``batch_inverse``, which inverts a stack (m, n, n) in one pass (the
adjugate in closed form for n = 2, the Faddeev-LeVerrier recursion
otherwise) and applies no floor; ``cayley_inverse`` wraps it for one
matrix, and ``curl_check`` inverts its grid with it and reports the least
determinant.  The one determinant floor, ``doss.DET_FLOOR``, is doss's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measures import DiscreteMeasure

LOG2_OVER_LOG3 = np.log(2.0) / np.log(3.0)  # Cantor measure dimension
MAX_ATOMS = 2 ** 22  # most atoms one gradient measure may hold (see _check_atoms)
DISTORTION_DIRECTIONS = 720  # unit-sphere sample of distortion_check


def level_scale(level: int) -> float:
    """Spatial resolution (and classifier cap radius) at an integer level."""
    return 2.0 ** (-level)


# ---------------------------------------------------------------------------
# Cantor staircase machinery
# ---------------------------------------------------------------------------

def _branches(x, top, below, above, inside):
    """``below`` on x <= 0, ``above`` on x >= top, ``inside`` in between;
    a float for 0-d x, else an array of x's shape."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    lo, hi = flat <= 0.0, flat >= top
    mid = ~(lo | hi)
    out[lo] = below(flat[lo])
    out[hi] = above(flat[hi])
    out[mid] = inside(flat[mid])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _staircase_walk(z):
    """(C(z), I(z)) for z in (0, 1): the Cantor staircase and its integral,
    from one walk down the ternary digits of z.  On the left third
    C(z) = C(3z)/2 and I(z) = I(3z)/6; on the middle third C = 1/2 and
    I(z) = 1/12 + (z - 1/3)/2, where the walk stops; on the right third
    C(z) = 1/2 + C(3z - 2)/2 and I(z) = 1/4 + (z - 2/3)/2 + I(3z - 2)/6.
    Exact to double precision after 60 digits."""
    C, I = np.zeros_like(z), np.zeros_like(z)
    at = np.arange(z.size)  # points still walking
    c_unit, i_unit = 0.5, 1.0  # weights of the current digit in C and in I
    for _ in range(60):
        if not at.size:
            break
        z3 = 3.0 * z
        mid = (z3 >= 1.0) & (z3 <= 2.0)
        high = z3 > 2.0
        C[at[mid | high]] += c_unit
        I[at[mid]] += i_unit * (1.0 / 12.0 + (z[mid] - 1.0 / 3.0) / 2.0)
        I[at[high]] += i_unit * (0.25 + (z[high] - 2.0 / 3.0) / 2.0)
        on = ~mid
        at, z = at[on], np.where(high, z3 - 2.0, z3)[on]
        c_unit *= 0.5
        i_unit /= 6.0
    return C, I


def _cumulative_inverse_walk(y):
    """z in (0, 1) with Phi(z) = z + I(z) = y, for y in (0, 3/2), by one walk
    down the ternary digits of z.  It keeps the equation as r = a w + b I(w)
    with z = s w + o, from r = y, a = b = s = 1, o = 0.  The left third of w
    takes (a, b, s) to (a/3, b/6, s/3); the right third also subtracts
    2a/3 + b/4 from r, adds b/6 to a and 2s/3 to o; the middle third solves
    w = (r + b/12) / (a + b/2) and stops.  After 40 digits z = o."""
    z = np.empty_like(y)
    at = np.arange(y.size)  # points still walking
    r, a, o = y.copy(), np.ones_like(y), np.zeros_like(y)
    b = s = 1.0  # the same at every point still walking
    for _ in range(40):
        if not at.size:
            break
        cut = 2.0 * a / 3.0 + b / 4.0  # r at w = 2/3 (a/3 + b/12 at w = 1/3)
        right = r > cut
        mid = ~right & (r >= a / 3.0 + b / 12.0)
        z[at[mid]] = s * (r[mid] + b / 12.0) / (a[mid] + b / 2.0) + o[mid]
        on = ~mid
        at, r = at[on], np.where(right, r - cut, r)[on]
        o = np.where(right, o + 2.0 * s / 3.0, o)[on]
        a = (a / 3.0 + np.where(right, b / 6.0, 0.0))[on]
        b /= 6.0
        s /= 3.0
    z[at] = o
    return z


def cantor_function(x):
    """The Cantor staircase on [0,1], clamped to 0 below and 1 above."""
    return _branches(x, 1.0, lambda v: 0.0, lambda v: 1.0, lambda v: _staircase_walk(v)[0])


def cantor_integral(z):
    """I(z) = int_0^z cantor_function, for z in [0,1] (I(1) = 1/2), clamped
    to 0 below and 1/2 above."""
    return _branches(z, 1.0, lambda v: 0.0, lambda v: 0.5, lambda v: _staircase_walk(v)[1])


def cantor_cumulative(z):
    """Phi(z) = int_0^z (1 + cantor_function); Phi(z) = z for z <= 0 and
    Phi(z) = 2z - 1/2 for z >= 1; strictly increasing with slope in [1,2]."""
    return _branches(z, 1.0, lambda v: v, lambda v: 2.0 * v - 0.5,
                     lambda v: v + cantor_integral(v))


def cantor_cumulative_inverse(x):
    """The inverse of cantor_cumulative: x for x <= 0, (x + 1/2)/2 for
    x >= 3/2, and one ternary walk in between."""
    return _branches(x, 1.5, lambda v: v, lambda v: (v + 0.5) / 2.0, _cumulative_inverse_walk)


def cantor_level_atoms(depth: int) -> np.ndarray:
    """Left endpoints of the 2**depth level-``depth`` construction intervals
    of the middle-thirds Cantor set."""
    pts = np.array([0.0])
    for _ in range(depth):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    return np.sort(pts)


# ---------------------------------------------------------------------------
# Coefficient containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarBV:
    """A scalar BV coefficient.

    evaluate: vectorized map taking points of shape (m, dim) to values (m,).
    gradient_measure: (box (dim,2), level) -> DiscreteMeasure approximating
    the gradient total-variation measure restricted to the box; None for
    diagnostic-only coefficients.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient_measure: Optional[Callable[[np.ndarray, int], DiscreteMeasure]] = None
    sup_bound: Optional[float] = None
    name: str = ""

    def scale(self, level: int) -> float:
        return level_scale(level)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return float(np.asarray(self.evaluate(pts[None, :])).ravel()[0])
        return np.asarray(self.evaluate(pts), dtype=float)


@dataclass(frozen=True)
class MatrixBV:
    """A square-matrix BV coefficient with entrywise ScalarBV structure."""

    dim: int
    entries: tuple  # tuple of tuples of ScalarBV, shape (dim, dim)
    name: str = ""

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Matrix values at points (m, dim) -> (m, dim, dim)."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        m = len(pts)
        out = np.empty((m, self.dim, self.dim))
        for j in range(self.dim):
            for k in range(self.dim):
                out[:, j, k] = self.entries[j][k](pts)
        return out[0] if single else out


def constant_scalar(value: float, dim: int, name: str = "") -> ScalarBV:
    def ev(pts):
        return np.full(len(np.atleast_2d(pts)), float(value))

    def grad(box, level):
        return DiscreteMeasure(dim, np.zeros((0, dim)), np.zeros(0))

    return ScalarBV(dim, ev, grad, sup_bound=abs(value),
                    name=name or f"const({value})")


class AtomBudgetRefusal(RuntimeError):
    """A gradient measure would hold more than MAX_ATOMS atoms."""


def _check_atoms(name: str, level: int, count: float) -> None:
    """Refuse, before anything is allocated, a measure of up to ``count``
    atoms (a float, inf when the box or the level overflows) beyond
    MAX_ATOMS.  A path
    with a huge range inflates the box that the grids cover, and a high
    level refines them: 2**22 atoms already take 96 MiB in the plane."""
    if not count <= MAX_ATOMS:
        raise AtomBudgetRefusal(
            f"gradient measure of {name!r} at level {level} needs up to {count:.4g} atoms, "
            f"over the budget of {MAX_ATOMS} (MAX_ATOMS)")


def _cell_count(lo: float, hi: float, spacing: float) -> float:
    """Number of cells of _lateral_grid(lo, hi, spacing), as a float."""
    return max(1.0, np.ceil((hi - lo) / spacing))


def _cantor_atoms(depth: int, box: np.ndarray, axes, spacing: float) -> float:
    """Atoms of the depth-``depth`` Cantor measure times a lateral grid of
    the given spacing over the box's ``axes``, as a float: inf, with no
    warning, where the depth or the box overflows or the spacing underflows
    to 0 (from level 1075 on)."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.exp2(depth) * np.prod([_cell_count(box[d, 0], box[d, 1], spacing)
                                         for d in axes])


def _lateral_grid(lo: float, hi: float, spacing: float) -> tuple[np.ndarray, float]:
    """Midpoint grid on [lo, hi] with cells of width <= spacing; returns
    (centers, cell width)."""
    n = int(_cell_count(lo, hi, spacing))
    w = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * w, w


def cantor_coefficient(dim: int) -> ScalarBV:
    """The Cantor staircase in the first coordinate: 0 left of [0,1], 1 to
    the right; gradient measure = (discretized Cantor measure in x1) tensor
    (surface measure on the lateral box face)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def ev(pts):
        pts = np.atleast_2d(pts)
        return cantor_function(pts[:, 0])

    def grad(box, level):
        box = np.asarray(box, dtype=float).reshape(dim, 2)
        h = level_scale(level)
        depth = int(np.ceil(level * LOG2_OVER_LOG3)) + 1
        _check_atoms("cantor", level, _cantor_atoms(depth, box, range(1, dim), h))
        atoms = cantor_level_atoms(depth)
        weights = np.full(len(atoms), 2.0 ** (-depth))
        keep = (atoms >= box[0, 0] - 3.0 ** (-depth)) & (atoms <= box[0, 1])
        atoms, weights = atoms[keep], weights[keep]
        if dim == 1:
            return DiscreteMeasure(1, atoms[:, None], weights)
        lateral_axes, lateral_widths = [], []
        for d in range(1, dim):
            centers, cw = _lateral_grid(box[d, 0], box[d, 1], h)
            lateral_axes.append(centers)
            lateral_widths.append(cw)
        mesh = np.meshgrid(atoms, *lateral_axes, indexing="ij")
        loc = np.column_stack([m.ravel() for m in mesh])
        wmesh = np.meshgrid(weights, *lateral_axes, indexing="ij")[0]
        w = wmesh.ravel() * float(np.prod(lateral_widths))
        return DiscreteMeasure(dim, loc, w)

    return ScalarBV(dim, ev, grad, sup_bound=1.0, name="cantor")


def _segment_measure(p0: np.ndarray, p1: np.ndarray, box: np.ndarray, level: int,
                     density: float, dim: int, name: str) -> DiscreteMeasure:
    """Arclength measure with the given density on the segment [p0, p1]
    clipped to the box, discretized at arclength spacing 2**-level; ``name``
    is the coefficient's, for a refusal."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    box = np.asarray(box, dtype=float).reshape(dim, 2)
    # clip the parameter range to the box
    t_lo, t_hi = 0.0, 1.0
    d = p1 - p0
    for k in range(dim):
        if d[k] != 0:
            ta = (box[k, 0] - p0[k]) / d[k]
            tb = (box[k, 1] - p0[k]) / d[k]
            t_lo = max(t_lo, min(ta, tb))
            t_hi = min(t_hi, max(ta, tb))
        elif not (box[k, 0] <= p0[k] <= box[k, 1]):
            return DiscreteMeasure(dim, np.zeros((0, dim)), np.zeros(0))
    if t_hi <= t_lo:
        return DiscreteMeasure(dim, np.zeros((0, dim)), np.zeros(0))
    with np.errstate(over="ignore", divide="ignore"):  # inf: refused just below
        seg_len = np.linalg.norm(d) * (t_hi - t_lo)
        M = max(2.0, np.ceil(seg_len / level_scale(level)))
    _check_atoms(name, level, M)
    M = int(M)
    ts = t_lo + (t_hi - t_lo) * (np.arange(M) + 0.5) / M
    loc = p0[None, :] + ts[:, None] * d[None, :]
    w = np.full(M, density * seg_len / M)
    return DiscreteMeasure(dim, loc, w)


def halfplane_below_line(c: float) -> ScalarBV:
    """Indicator of {c*x1 < x2} in the plane; gradient measure = arclength
    on the line x2 = c*x1 inside the requested box."""
    name = f"halfplane(c={c})"

    def ev(pts):
        pts = np.atleast_2d(pts)
        s = pts[:, 1] - c * pts[:, 0]
        out = np.where(s > 0, 1.0, 0.0)
        return np.where(s == 0, 0.5, out)

    def grad(box, level):
        box = np.asarray(box, dtype=float).reshape(2, 2)
        span = max(abs(box).max(), 1.0) * 2.0
        p0 = np.array([-span, -c * span])
        p1 = np.array([span, c * span])
        return _segment_measure(p0, p1, box, level, density=1.0, dim=2, name=name)

    return ScalarBV(2, ev, grad, sup_bound=1.0, name=name)


def jump_line_matrix(c: float) -> MatrixBV:
    """2x2 coefficient [[c, 1], [indicator(c*x1 < x2), c]]; determinant is
    c^2 - 1 above the jump line x2 = c*x1, c^2 - 1/2 on it and c^2 below."""
    if not c > 1:
        raise ValueError("need c > 1")
    e = (
        (constant_scalar(c, 2), constant_scalar(1.0, 2)),
        (halfplane_below_line(c), constant_scalar(c, 2)),
    )
    return MatrixBV(2, e, name=f"jump_line(c={c})")


def cone_indicator(a: float, b: float) -> ScalarBV:
    """Indicator of the open cone {(a/b) x1 < x2 < (b/a) x1} (x1 > 0);
    gradient measure = arclength on the two boundary rays."""
    name = f"cone({a},{b})"

    def ev(pts):
        pts = np.atleast_2d(pts)
        x1, x2 = pts[:, 0], pts[:, 1]
        s1 = x2 - (a / b) * x1
        s2 = (b / a) * x1 - x2
        inside = (s1 > 0) & (s2 > 0)
        on_edge = ((s1 == 0) & (s2 >= 0)) | ((s2 == 0) & (s1 >= 0))
        out = np.where(inside, 1.0, 0.0)
        return np.where(on_edge & ~inside, 0.5, out)

    def grad(box, level):
        box = np.asarray(box, dtype=float).reshape(2, 2)
        span = max(abs(box).max(), 1.0) * 2.0
        parts = []
        for slope in (a / b, b / a):
            parts.append(_segment_measure(np.zeros(2), np.array([span, slope * span]),
                                          box, level, density=1.0, dim=2, name=name))
        loc = np.vstack([p.locations for p in parts])
        w = np.concatenate([p.weights for p in parts])
        return DiscreteMeasure(2, loc, w)

    return ScalarBV(2, ev, grad, sup_bound=1.0, name=name)


def cone_matrix(a: float, b: float) -> MatrixBV:
    """[[b, a*1_C], [a*1_C, b]] with C the open cone between the rays of
    slopes a/b and b/a; determinant b^2 outside, b^2 - a^2 inside."""
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    ind = cone_indicator(a, b)

    def scaled_ev(pts):
        return a * ind.evaluate(pts)

    def scaled_grad(box, level):
        mu = ind.gradient_measure(box, level)
        return DiscreteMeasure(2, mu.locations, a * mu.weights)

    off = ScalarBV(2, scaled_ev, scaled_grad, sup_bound=a, name=f"a*cone({a},{b})")
    e = (
        (constant_scalar(b, 2), off),
        (off, constant_scalar(b, 2)),
    )
    return MatrixBV(2, e, name=f"cone({a},{b})")


def halfplane_x1_positive() -> ScalarBV:
    """Indicator of {x1 > 0} in the plane; gradient measure = arclength on
    the vertical axis."""

    def ev(pts):
        pts = np.atleast_2d(pts)
        out = np.where(pts[:, 0] > 0, 1.0, 0.0)
        return np.where(pts[:, 0] == 0, 0.5, out)

    def grad(box, level):
        box = np.asarray(box, dtype=float).reshape(2, 2)
        span = max(abs(box).max(), 1.0) * 2.0
        return _segment_measure(np.array([0.0, -span]), np.array([0.0, span]),
                                box, level, density=1.0, dim=2, name="halfplane_x1")

    return ScalarBV(2, ev, grad, sup_bound=1.0, name="halfplane_x1")


def cantor_shear_entry22() -> ScalarBV:
    """sigma_22 of the Cantor-shear coefficient:
    1 + C(Phi^{-1}(x2 - x1 * 1_{x1>0})), where C is the Cantor staircase and
    Phi its cumulative 1 + C integral.  Continuous, bounded in [1,2]."""

    def ev(pts):
        pts = np.atleast_2d(pts)
        # x1 * 1_{x1 > 0} = max(x1, 0)
        w = pts[:, 1] - np.maximum(pts[:, 0], 0.0)
        return 1.0 + cantor_function(cantor_cumulative_inverse(w))

    def grad(box, level):
        box = np.asarray(box, dtype=float).reshape(2, 2)
        h = level_scale(level)
        depth = int(np.ceil(level * LOG2_OVER_LOG3)) + 1
        # each x1 cell scans every Cantor atom
        _check_atoms("cantor_shear_22", level, _cantor_atoms(depth, box, [0], h))
        base = cantor_cumulative(cantor_level_atoms(depth))  # atoms in w
        centers, cw = _lateral_grid(box[0, 0], box[0, 1], h)
        # the atoms of each x1 cell, shifted by x1 * 1_{x1>0}, inside the box
        x2 = base + np.maximum(centers, 0.0)[:, None]
        cell, atom = np.nonzero((x2 >= box[1, 0]) & (x2 <= box[1, 1]))
        dens = np.where(centers[cell] > 0, np.sqrt(2.0), 1.0)
        return DiscreteMeasure(2, np.column_stack([centers[cell], x2[cell, atom]]),
                               2.0 ** (-depth) * cw * dens)

    return ScalarBV(2, ev, grad, sup_bound=2.0, name="cantor_shear_22")


def cantor_matrix() -> MatrixBV:
    """The Cantor-shear 2x2 coefficient:
    [[1, 0], [1_{x1>0}, 1 + C(Phi^{-1}(x2 - x1 * 1_{x1>0}))]]."""
    e = (
        (constant_scalar(1.0, 2), constant_scalar(0.0, 2)),
        (halfplane_x1_positive(), cantor_shear_entry22()),
    )
    return MatrixBV(2, e, name="cantor_shear")


# ---------------------------------------------------------------------------
# Matrix inversion and structural checks
# ---------------------------------------------------------------------------

def _flat_profile(r: np.ndarray) -> np.ndarray:
    """Unnormalized flat bump profile of |x|: 1 on [0, 1/2], smooth cutoff
    to 0 at 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 0.5] = 1.0
    band = (r > 0.5) & (r < 1.0)
    u = 2.0 * r[band] - 1.0
    out[band] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def batch_inverse(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and determinants of a batch of matrices (m, n, n).

    For n = 2 the adjugate over the determinant, in closed form.  Otherwise
    the Faddeev-LeVerrier recursion, the matrix-polynomial (Cayley-Hamilton)
    route: M = A^{n-1} + c_1 A^{n-2} + ... + c_{n-1} I, the c_k being the
    trace coefficients of the characteristic polynomial, gives
    A^{-1} = -M / c_n and det A = (-1)^n c_n.

    Never raises and applies no floor: a singular matrix gets determinant 0
    and an inverse of inf/nan, without a warning.  The caller judges the
    determinants (doss.DET_FLOOR is the package's one floor).
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if n == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    else:
        eye = np.eye(n)
        M = np.broadcast_to(eye, mats.shape).copy()
        for k in range(1, n):
            AM = mats @ M
            c = -np.einsum("mii->m", AM) / k
            M = AM + c[:, None, None] * eye
        c_n = -np.einsum("mii->m", mats @ M) / n
        det = (-1.0) ** n * c_n
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 2:  # four strided divisions beat dividing a stacked adjugate
            inv = np.empty_like(mats)
            inv[:, 0, 0] = mats[:, 1, 1] / det
            inv[:, 0, 1] = -mats[:, 0, 1] / det
            inv[:, 1, 0] = -mats[:, 1, 0] / det
            inv[:, 1, 1] = mats[:, 0, 0] / det
            return inv, det
        return -M / c_n[:, None, None], det


def cayley_inverse(sigma: MatrixBV | np.ndarray,
                   x: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of sigma(x) by batch_inverse, for a MatrixBV plus a point or
    for a plain matrix."""
    if isinstance(sigma, MatrixBV):
        if x is None:
            raise ValueError("a point is required with a MatrixBV input")
        A = sigma.evaluate(np.asarray(x, dtype=float))
    else:
        A = np.asarray(sigma, dtype=float)
    return batch_inverse(A[None])[0][0]


def curl_check(sigma: MatrixBV, region: np.ndarray, eps: float,
               spacing: float) -> dict:
    """Max residual of the cross-derivative symmetry
    D_i sigma_hat[k][j] - D_j sigma_hat[k][i] of the inverse field
    sigma_hat = sigma^{-1} on a grid over the region, after mollifying each
    entry at radius eps (entries may jump; raw differences of a jump are
    meaningless).  Requires eps >= 2*spacing.  In 1D no cross derivative
    exists and the residual is 0 without evaluating sigma.

    Also reports the least det sigma on the grid (``min_det``) and the grid
    point where it occurs (``min_det_point``).  Where det sigma vanishes the
    inverse field, and so the residual, is not finite: a caller judges
    min_det before the residual.

    sigma is evaluated and inverted once over the whole grid, and the
    mollifier is one shifted sum of its taps through a single scratch
    buffer, equal bit for bit to ``ndimage.convolve`` on the cells the
    differences read."""
    region = np.asarray(region, dtype=float).reshape(sigma.dim, 2)
    if eps < 2 * spacing:
        raise ValueError("eps must be at least twice the grid spacing")
    n = sigma.dim
    if n == 1:
        return {"max_residual": 0.0, "per_component": {}}
    pad = eps + 2 * spacing
    axes = [np.arange(region[k, 0] - pad, region[k, 1] + pad + spacing / 2, spacing)
            for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    shape = mesh[0].shape

    # discrete flat-bump kernel at radius eps (in cells)
    rad = int(np.ceil(eps / spacing))
    offs = np.arange(-rad, rad + 1) * spacing
    kmesh = np.meshgrid(*([offs] * n), indexing="ij")
    kr = np.sqrt(sum(km ** 2 for km in kmesh)) / eps
    kernel = _flat_profile(kr)
    kernel /= kernel.sum()

    # one evaluation and one inversion of the whole grid
    hats, det = batch_inverse(sigma.evaluate(pts))
    hats = hats.reshape(shape + (n, n))
    least = int(np.argmin(det))
    # Mollify all n^2 entries in one shifted sum, on the cells at least rad
    # from the grid's edge: all that the interior differences below read.
    # The taps above machine epsilon are added in C order, as
    # ndimage.convolve adds them (the kernel is symmetric), so the fields
    # equal its output on these cells bit for bit; each weighted tap goes
    # through one scratch buffer.
    inner = tuple(m - 2 * rad for m in shape)
    fields = np.zeros(inner + (n, n))
    tap_buf = np.empty_like(fields)
    interior = (slice(1, -1),) * n
    residuals = {}
    with np.errstate(invalid="ignore"):  # inf - inf where det sigma = 0: nan
        for tap in zip(*np.nonzero(kernel > np.finfo(float).eps)):
            np.multiply(kernel[tap], hats[tuple(slice(t, t + m) for t, m in zip(tap, inner))],
                        out=tap_buf)
            fields += tap_buf
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    r = (np.gradient(fields[..., k, j], spacing, axis=i)
                         - np.gradient(fields[..., k, i], spacing, axis=j))
                    residuals[(i, j, k)] = float(np.abs(r[interior]).max())
    return {"max_residual": float(np.max(list(residuals.values()))),
            "per_component": residuals,
            "min_det": float(det[least]), "min_det_point": pts[least].tolist()}


def distortion_check(sigma: MatrixBV, probes: np.ndarray) -> dict:
    """Distortion constant kappa = max |sigma^{-1}|_op^n / det(sigma^{-1})
    over the probes, and the angular constant
    delta = min <xi, sigma xi> / (|sigma xi| |xi|) over probes and a
    unit-sphere sample of DISTORTION_DIRECTIONS directions.  Flags
    delta <= -1.  The probes must have invertible sigma: solve_nd checks
    them against its floor first.

    Both constants are a max or a min over probes of a function of sigma's
    value alone, so the SVD and the angular sample run once per distinct
    value (a piecewise-constant coefficient takes a few at 128 probes),
    deduplicated bit for bit through a void view of the rows, which loads
    no further numpy module."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    n = sigma.dim
    if n == 2:
        ang = np.linspace(0, 2 * np.pi, DISTORTION_DIRECTIONS, endpoint=False)
        xis = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = np.random.default_rng(0)
        xis = rng.standard_normal((DISTORTION_DIRECTIONS, n))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    A = sigma.evaluate(probes)
    rows = A.reshape(len(A), n * n).view(np.dtype((np.void, A.itemsize * n * n)))
    A = A[np.unique(rows.ravel(), return_index=True)[1]]
    Ainv, det = batch_inverse(A)
    op = np.linalg.svd(Ainv, compute_uv=False)[:, 0]
    # det(sigma^{-1}) = 1 / det(sigma)
    kappa = (op ** n * det).max(initial=-np.inf)
    Axi = xis @ np.swapaxes(A, 1, 2)
    num = np.einsum("di,pdi->pd", xis, Axi)
    den = np.linalg.norm(Axi, axis=2)
    ok = den > 0
    delta = (num[ok] / den[ok]).min(initial=np.inf)
    return {"kappa": float(kappa), "delta": float(delta), "delta_admissible": delta > -1.0}
