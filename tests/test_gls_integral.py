import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpath.gls_integral import (NormOverflowError, gls_integrate,
                                  gls_integrate_series, rate_study,
                                  riemann_sum, upsample_linear)
from varpath.gridfun import GridFunction
from varpath.grid_paths import TimeGrid, make_fbm


GRID = TimeGrid(1.0, 4096)


def gf(fn, grid=GRID):
    return GridFunction(grid, fn(grid.times))


def test_integral_of_t_dt():
    # frozen oracle: int_0^1 t dt = 0.5, computed value 0.4999969 at N = 2^12
    val = gls_integrate(gf(lambda t: t), gf(lambda t: t), theta=0.4)
    assert abs(val - 0.5) < 1e-4


def test_constant_integrand_telescopes():
    g = gf(lambda t: np.sin(3 * t) + 0.5 * t)
    val = gls_integrate(gf(lambda t: np.full_like(t, 2.0)), g, theta=0.35)
    assert val == pytest.approx(2.0 * (g.values[-1] - g.values[0]), abs=1e-3)


@given(st.floats(0.25, 0.6), st.floats(0.25, 0.6))
@settings(max_examples=8, deadline=None)
def test_theta_independence_smooth(theta1, theta2):
    f = gf(lambda t: np.cos(2 * np.pi * t) + 0.3 * t)
    g = gf(lambda t: np.sin(4 * t))
    v1 = gls_integrate(f, g, theta1)
    v2 = gls_integrate(f, g, theta2)
    assert abs(v1 - v2) < 2e-3


def test_bilinearity(rng):
    grid = TimeGrid(1.0, 1024)
    theta = 0.4
    f1 = gf(lambda t: np.sin(2 * t), grid)
    f2 = gf(lambda t: t ** 2, grid)
    g = gf(lambda t: np.cos(3 * t), grid)
    combo = GridFunction(grid, 2 * f1.values - 5 * f2.values)
    lhs = gls_integrate(combo, g, theta)
    rhs = 2 * gls_integrate(f1, g, theta) - 5 * gls_integrate(f2, g, theta)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_matches_riemann_on_smooth_pair():
    f = gf(lambda t: np.exp(-t) * np.sin(5 * t))
    g = gf(lambda t: t - t ** 2)
    dual = gls_integrate(f, g, theta=0.45)
    fine = riemann_sum(f, g, GRID.times, xi_rule="midpoint")
    assert abs(dual - fine) < 1e-3


def test_series_starts_at_zero_and_ends_at_full_value():
    grid = TimeGrid(1.0, 512)
    f = gf(lambda t: t, grid)
    g = gf(lambda t: np.sin(2 * t), grid)
    series = gls_integrate_series(f, g, theta=0.4, indices=range(0, 513, 32))
    assert series.values[0] == 0.0
    assert series.values[-1] == pytest.approx(gls_integrate(f, g, 0.4), abs=1e-12)
    # t_end must be a grid time: an off-grid value is refused, not snapped
    assert gls_integrate(f, g, 0.4, t_end=grid.times[256]) == series.values[256]
    with pytest.raises(ValueError, match="nearest is 0.5"):
        gls_integrate(f, g, 0.4, t_end=0.5 + 0.3 * grid.dt)


def test_refine_reduces_quadrature_error():
    grid = TimeGrid(1.0, 512)
    f = gf(lambda t: np.sin(2 * np.pi * t) + t, grid)
    g = gf(lambda t: np.cos(3 * t), grid)
    exact = np.trapezoid(f.values * np.gradient(g.values, grid.dt), grid.times)
    idx = range(0, 513, 64)
    e1 = abs(gls_integrate_series(f, g, 0.4, idx, refine=1).values[-1] - exact)
    e4 = abs(gls_integrate_series(f, g, 0.4, idx, refine=4).values[-1] - exact)
    assert e4 <= e1 + 1e-9


def test_upsample_linear_preserves_nodes():
    grid = TimeGrid(2.0, 64)
    f = gf(lambda t: np.sin(t), grid)
    up = upsample_linear(f, 4)
    assert up.grid.N == 256
    assert np.allclose(up.values[::4], f.values)


def test_riemann_sum_rules_and_validation():
    grid = TimeGrid(1.0, 64)
    f = gf(lambda t: t, grid)
    g = gf(lambda t: t, grid)
    # int t dt with left rule on a coarse partition underestimates 0.5
    left = riemann_sum(f, g, grid.times[::16], "left")
    right = riemann_sum(f, g, grid.times[::16], "right")
    assert left < 0.5 < right
    with pytest.raises(ValueError):
        riemann_sum(f, g, [0.0], "left")
    with pytest.raises(ValueError):
        riemann_sum(f, g, grid.times[::16], "simpson")
    # a partition time off the grid is refused, not snapped
    with pytest.raises(ValueError, match="partition time=.* not a grid time; the nearest is 0.5"):
        riemann_sum(f, g, [0.0, 0.5 + 0.3 * grid.dt, 1.0], "left")


def test_rate_study_rough_driver_positive_order():
    grid = TimeGrid(1.0, 4096)
    Y = make_fbm(0.8, 1, grid, seed=0)
    g = GridFunction(grid, Y.values[:, 0])
    f = GridFunction(grid, np.abs(Y.values[:, 0]))
    rep = rate_study(f, g, theta=0.4, mesh_list=[16, 32, 64, 128, 256])
    assert rep.exponent > 0.2
    assert len(rep.errors) == 5
    assert set(rep.by_rule) == {"left", "right", "midpoint"}
    # errors decrease overall from coarsest to finest
    assert rep.errors[-1] < rep.errors[0]


def test_rate_study_validates_meshes():
    grid = TimeGrid(1.0, 256)
    f = gf(lambda t: t, grid)
    with pytest.raises(ValueError):
        rate_study(f, f, 0.4, [16, 32, 64])  # too few meshes
    with pytest.raises(ValueError):
        rate_study(f, f, 0.4, [3, 16, 32, 64])  # 3 does not divide 256


def test_overflow_is_a_refusal():
    # both derivative series are finite, their pairing is not
    grid = TimeGrid(1.0, 64)
    f, g = gf(lambda t: np.full_like(t, 1e300), grid), gf(lambda t: 1e300 * t, grid)
    with pytest.raises(NormOverflowError, match="duality pairing up to t = 1 overflowed"):
        gls_integrate(f, g, 0.4)
    with pytest.raises(NormOverflowError, match="duality pairing"):
        gls_integrate_series(f, g, 0.4, indices=[0, 32, 64])
