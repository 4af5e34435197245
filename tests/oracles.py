"""Reference implementations that the tests compare the library against."""

from math import gamma as Gamma

import numpy as np


def riesz_potential(mu, policy, x) -> float:
    """Capped Riesz potential sum_j w_j * max(|x - y_j|, h)^(gamma - n) of
    the DiscreteMeasure mu at one point x: the per-point reference for
    measures.riesz_potential_many.

    With h = 0 and x on an atom the result is +inf.
    """
    policy.validate(mu.dim)
    x = np.asarray(x, dtype=float).reshape(mu.dim)
    d = np.linalg.norm(mu.locations - x, axis=1)
    with np.errstate(divide="ignore"):  # h = 0 on an atom: +inf
        k = np.maximum(d, policy.cap_radius) ** (policy.gamma - mu.dim)
    return float(np.dot(mu.weights, k))


def cantor_digit_loop(z):
    """(C(z), I(z)) for an array z in [0, 1]: the Cantor staircase and its
    integral by masked loops over the ternary digits, each over the whole
    array (C's cuts at 3z = 1 and 2, I's at z = 1/3 and 2/3).  The
    reference for bv_library's one-walk cantor_function and cantor_integral.
    """
    z = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
    C, factor, w = np.zeros_like(z), np.full_like(z, 0.5), z.copy()
    active = np.ones(z.shape, dtype=bool)
    for _ in range(60):
        z3 = 3.0 * w
        low = active & (z3 < 1.0)
        mid = active & (z3 >= 1.0) & (z3 <= 2.0)
        high = active & (z3 > 2.0)
        w[low] = z3[low]
        C[mid | high] += factor[mid | high]
        w[high] = z3[high] - 2.0
        factor[low | high] *= 0.5
        active &= ~mid
    C[z >= 1.0] = 1.0
    I, mul, w = np.zeros_like(z), np.ones_like(z), z.copy()
    active = np.ones(z.shape, dtype=bool)
    for _ in range(60):
        low = active & (w <= 1.0 / 3.0)
        mid = active & (w > 1.0 / 3.0) & (w < 2.0 / 3.0)
        high = active & (w >= 2.0 / 3.0)
        I[mid] += mul[mid] * (1.0 / 12.0 + (w[mid] - 1.0 / 3.0) / 2.0)
        I[high] += mul[high] * (0.25 + (w[high] - 2.0 / 3.0) / 2.0)
        w[low] *= 3.0
        w[high] = 3.0 * w[high] - 2.0
        mul[low | high] /= 6.0
        active &= ~mid
    I[z >= 1.0] = 0.5
    return C, I


def cantor_cumulative_inverse_bisection(y):
    """z with z + I(z) = y for an array y in (0, 3/2), by 80 bisection steps
    on [0, 1] with I from cantor_digit_loop: the reference for bv_library's
    cantor_cumulative_inverse."""
    a = np.zeros_like(y)
    b = np.ones_like(y)
    for _ in range(80):
        m = 0.5 * (a + b)
        too_big = m + cantor_digit_loop(m)[1] > y
        b = np.where(too_big, m, b)
        a = np.where(too_big, a, m)
    return 0.5 * (a + b)


def capped_segment_potential(p0, p1, density, x, s, h):
    """Closed form of the capped Riesz potential of order 1 - s in the plane
    of weighted segments at the points x (m, 2): the sum over segments k of
    density[k] * int max(|x - y|, h)^(-1-s) dy along [p0[k], p1[k]], where
    p0, p1 are (K, 2) and density is (K,).  The reference for the atoms of
    a gradient measure that discretize such segments.

    With r the distance from x to a segment's line and u the arclength from
    the foot of the perpendicular, the kernel is h^(-1-s) where
    |u| < c = sqrt(h^2 - r^2), and beyond c, for 0 <= a <= b,

        int_a^b (r^2 + u^2)^(-(1+s)/2) du
            = B(1/2, s/2)/2 * r^-s * (I_y(a) - I_y(b)),   y(u) = r^2/(r^2 + u^2),

    with I_y the regularized incomplete beta I_y(s/2, 1/2).  Where both y
    exceed 1/2 the difference is taken as I_{1-y(b)}(1/2, s/2) -
    I_{1-y(a)}(1/2, s/2), so that it keeps its relative accuracy both as
    r -> 0 and far from the segment.  Where r <= 1e-8 h, so that r^2 may
    underflow, it is the limit at r = 0, (a^-s - b^-s)/s, which is off by
    O((r/h)^2), below round-off there.
    """
    from scipy.special import beta, betainc

    p0, p1 = np.atleast_2d(p0)[:, None, :], np.atleast_2d(p1)[:, None, :]
    x = np.atleast_2d(np.asarray(x, dtype=float))[None, :, :]
    length = np.linalg.norm(p1 - p0, axis=2)
    e = (p1 - p0) / length[..., None]
    rel = x - p0
    u0 = -np.sum(rel * e, axis=2)  # the ends' arclengths from the foot
    u1 = u0 + length
    r = np.abs(rel[..., 0] * e[..., 1] - rel[..., 1] * e[..., 0])
    c = np.sqrt(np.maximum(h * h - r * r, 0.0))
    on_line = r <= 1e-8 * h
    r_pos = np.where(on_line, 1.0, r)

    def uncapped(a, b):
        """int_a^b (r^2 + u^2)^(-(1+s)/2) du for 0 <= a <= b, with a >= c."""
        ya, yb = r_pos ** 2 / (r_pos ** 2 + a * a), r_pos ** 2 / (r_pos ** 2 + b * b)
        diff = np.where(yb > 0.5,
                        betainc(0.5, s / 2, b * b / (r_pos ** 2 + b * b))
                        - betainc(0.5, s / 2, a * a / (r_pos ** 2 + a * a)),
                        betainc(s / 2, 0.5, ya) - betainc(s / 2, 0.5, yb))
        a_pos = np.where(on_line, a, 1.0)
        b_pos = np.where(on_line, b, 1.0)
        return np.where(on_line, (a_pos ** -s - b_pos ** -s) / s,
                        0.5 * beta(0.5, s / 2) * r_pos ** -s * diff)

    def piece(a, b):
        """The capped kernel integrated over [a, b], 0 <= a <= b."""
        return (h ** (-1.0 - s) * (np.minimum(b, c) - np.minimum(a, c))
                + uncapped(np.maximum(a, c), np.maximum(b, c)))

    # the part of [u0, u1] beyond the foot, and the part before it reflected
    total = (piece(np.maximum(u0, 0.0), np.maximum(u1, 0.0))
             + piece(np.maximum(-u1, 0.0), np.maximum(-u0, 0.0)))
    return np.asarray(density, dtype=float) @ total


def duality_pairing_restricted(f, W, theta, t_end):
    """int_0^t_end f dg as the forward duality pairing of the restricted
    integrand, where W is the sign-adjusted right derivative series of g
    (frac_calc.wm_derivative_right_adjusted): the left Weyl-Marchaud
    derivative D of 1_[0,t_end] f (f zeroed after the grid time t_end)
    against W, integrated in time.  D = c t^(-theta) + R with
    c = f(0)/Gamma(1-theta); the singular part is integrated against the
    piecewise-linear W in closed form per cell, and R * W (R taken to
    vanish at t = 0) by the trapezoid rule plus the exact piecewise-
    quadratic correction.  The per-time reference for gls_integral's
    one-pass series."""
    from varpath.frac_calc import wm_derivative_left
    from varpath.gridfun import GridFunction

    grid = f.grid
    idx = int(round(t_end / grid.dt))
    if idx == 0:
        return 0.0
    vals = f.values.copy()
    vals[idx + 1:] = 0.0
    D = wm_derivative_left(GridFunction(grid, vals), theta).values
    dt, times = grid.dt, grid.times
    c = vals[0] / Gamma(1.0 - theta)
    a = times ** (1.0 - theta) / (1.0 - theta)
    b = times ** (2.0 - theta) / (2.0 - theta)
    slope = (W[1:] - W[:-1]) / dt
    intercept = W[:-1] - slope * times[:-1]
    sing = float(np.sum(intercept * np.diff(a) + slope * np.diff(b))) * c
    R = D - c * np.where(times > 0, times, 1.0) ** (-theta)
    R[0] = 0.0
    core = np.trapezoid(R * W, dx=dt) - np.sum(np.diff(R) * np.diff(W)) * dt / 6.0
    return float(core + sing)


def pairing_series_restricted(f, g, theta, refine=1):
    """int_0^t f dg at every grid time by one restricted forward pairing
    per time (duality_pairing_restricted), on the pair upsampled refine
    times and read back at the coarse grid times."""
    from varpath.frac_calc import wm_derivative_right_adjusted
    from varpath.gls_integral import upsample_linear

    fr, gr = upsample_linear(f, refine), upsample_linear(g, refine)
    W = wm_derivative_right_adjusted(gr, theta).values
    return np.array([duality_pairing_restricted(fr, W, theta, t)
                     for t in fr.grid.times[::refine]])
