"""Reference implementations that the tests compare the library against."""

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
