import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as Gamma

from varpath.frac_calc import (NormOverflowError, _conv, norm_W0, norm_WT,
                               rl_integral_left, wm_derivative_left,
                               wm_derivative_right_adjusted)
from varpath.gridfun import GridFunction, gagliardo_pth_power
from varpath.grid_paths import TimeGrid


GRID = TimeGrid(1.0, 2048)


def gf(fn):
    return GridFunction(GRID, fn(GRID.times))


def test_rl_integral_of_one_closed_form():
    theta = 0.4
    out = rl_integral_left(gf(lambda t: np.ones_like(t)), theta)
    expect = GRID.times ** theta / Gamma(1 + theta)
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_rl_integral_of_power_closed_form():
    # I^theta t^a = Gamma(1+a)/Gamma(1+a+theta) t^(a+theta)
    theta, a = 0.3, 1.0
    out = rl_integral_left(gf(lambda t: t ** a), theta)
    expect = Gamma(1 + a) / Gamma(1 + a + theta) * GRID.times ** (a + theta)
    assert np.max(np.abs(out.values - expect)) < 1e-6


def test_derivative_inverts_integral_smooth():
    # measured at N = 2048, theta = 0.45: sup error 3.8e-4, dominated by a
    # boundary layer at t = 0; away from the first T/16 the error is 2.6e-5
    theta = 0.45
    f = gf(lambda t: np.sin(2 * np.pi * t))
    back = wm_derivative_left(rl_integral_left(f, theta), theta)
    err = np.abs(back.values - f.values)
    assert err.max() < 5e-4
    assert err[GRID.N // 16:].max() < 5e-5


@given(st.floats(0.15, 0.85))
@settings(max_examples=10, deadline=None)
def test_derivative_of_constant_vanishes_after_offset(theta):
    # the left derivative of a constant c is c t^-theta / Gamma(1-theta)
    f = gf(lambda t: np.full_like(t, 3.7))
    out = wm_derivative_left(f, theta)
    interior = out.values[1:]
    expect = 3.7 * GRID.times[1:] ** (-theta) / Gamma(1 - theta)
    assert np.max(np.abs(interior - expect)) < 1e-8


def test_right_adjusted_kills_terminal_value():
    theta = 0.4
    g = gf(lambda t: np.sin(5 * t) + 2.0)
    out = wm_derivative_right_adjusted(g, theta)
    shifted = wm_derivative_right_adjusted(gf(lambda t: np.sin(5 * t)), theta)
    # right-adjusted derivative only sees g - g(T): constants drop out
    assert np.allclose(out.values, shifted.values, atol=1e-10)


def test_linearity_of_operators(rng):
    theta = 0.3
    f = GridFunction(GRID, rng.standard_normal(GRID.N + 1))
    g = GridFunction(GRID, rng.standard_normal(GRID.N + 1))
    lhs = rl_integral_left(GridFunction(GRID, 2 * f.values - 3 * g.values), theta)
    rhs = 2 * rl_integral_left(f, theta).values - 3 * rl_integral_left(g, theta).values
    assert np.allclose(lhs.values, rhs, atol=1e-10)


def test_gagliardo_scaling_homogeneity():
    theta, p = 0.3, 2.0
    f = gf(lambda t: np.sin(2 * np.pi * t))
    base = gagliardo_pth_power(f.values, GRID.dt, theta, p)
    scaled = gagliardo_pth_power(4.0 * f.values, GRID.dt, theta, p)
    assert scaled == pytest.approx(4.0 ** p * base, rel=1e-12)


def test_norms_nonnegative_and_monotone_in_amplitude():
    theta, p = 0.4, 2.0
    small = gf(lambda t: 0.1 * np.sin(2 * np.pi * t))
    big = gf(lambda t: np.sin(2 * np.pi * t))
    assert 0 <= norm_W0(small, theta, p) < norm_W0(big, theta, p)
    assert 0 <= norm_WT(small, theta) < norm_WT(big, theta)


@pytest.mark.parametrize("n", [2 ** k for k in range(2, 17)])
def test_conv_matches_scipy_fftconvolve(n):
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(n)
    a, kern = rng.standard_normal(n), rng.standard_normal(n)
    if n == 8:
        # fftconvolve transforms 2n - 1 = 15 points at length 15 (its next
        # 5-smooth size); every other n here shares _conv's power of two
        assert np.allclose(_conv(a, kern), fftconvolve(a, kern)[:n], rtol=0, atol=1e-14 * n)
    else:
        assert np.array_equal(_conv(a, kern), fftconvolve(a, kern)[:n])


@pytest.mark.parametrize("n", [2, 3, 7, 1000])
def test_conv_matches_the_direct_sum(n):
    rng = np.random.default_rng(n)
    a, kern = rng.standard_normal(n), rng.standard_normal(n)
    direct = np.convolve(a, kern)[:n]
    scale = np.abs(a).sum() * np.abs(kern).max()
    assert np.abs(_conv(a, kern) - direct).max() <= 1e-14 * scale


def test_derivative_overflow_is_a_refusal():
    # finite data whose derivative series leaves the double range
    grid = TimeGrid(1.0, 64)
    huge = GridFunction(grid, np.full(65, 1e308))
    with pytest.raises(NormOverflowError, match="left Weyl-Marchaud series"):
        wm_derivative_left(huge, 0.4)
    with pytest.raises(NormOverflowError, match="right Weyl-Marchaud series"):
        wm_derivative_right_adjusted(GridFunction(grid, 1e308 * (grid.times - 0.5)), 0.4)
