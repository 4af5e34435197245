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
