import numpy as np
import pytest

from varpath.grid_paths import (TimeGrid, SampledPath, _fgn_circulant_sqrt_eigs, make_fbm,
                                make_power_path, make_linear_path, make_constant_path,
                                estimate_holder)


def test_time_grid_basics():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == pytest.approx(0.25)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == pytest.approx(2.0)
    assert len(grid.times) == 9


def test_fbm_deterministic_and_anchored():
    grid = TimeGrid(1.0, 512)
    a = make_fbm(0.7, 2, grid, seed=11)
    b = make_fbm(0.7, 2, grid, seed=11)
    c = make_fbm(0.7, 2, grid, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values[0] == 0.0)
    assert a.values.shape == (513, 2)


def test_fbm_increment_scale_brownian():
    # at hurst 1/2 the one-step increments are N(0, dt); check the sample
    # variance across a long path within a loose statistical band
    grid = TimeGrid(1.0, 8192)
    path = make_fbm(0.5, 1, grid, seed=5)
    incr = np.diff(path.values[:, 0])
    ratio = incr.var() / grid.dt
    assert 0.9 < ratio < 1.1


def test_circulant_embedding_is_positive_definite_for_every_hurst_and_N():
    # the fGn embedding is nonnegative definite (Davies-Harte 1987,
    # Craigmile 2003), so the guard never refuses; over this grid its least
    # eigenvalue is at least 6.4e-7 of the largest (at H = 0.99, N = 16384)
    least = min(
        (sqrt_eigs.min() / sqrt_eigs.max()) ** 2
        for N in [*range(1, 300), 512, 1000, 1024, 4096, 16384]
        for sqrt_eigs in (_fgn_circulant_sqrt_eigs(k / 100, N) for k in range(1, 100)))
    assert least >= 6.4e-7


def test_indefinite_embedding_is_refused_naming_it():
    # beyond H = 1 the fGn autocovariance is no covariance, and its
    # embedding is indefinite: the guard refuses rather than clip
    with pytest.raises(ValueError, match=r"H=1\.5, N=8 is indefinite: least eigenvalue -77\.8"):
        _fgn_circulant_sqrt_eigs(1.5, 8)


@pytest.mark.parametrize("hurst", [0.3, 0.8])
def test_fbm_increment_covariance_is_exact_at_small_N(hurst):
    # N = 16: the sample covariance of the increments, over 4000 seeds of
    # two independent coordinates each, against the fGn covariance
    # dt^2H * (|k+1|^2H + |k-1|^2H - 2|k|^2H)/2 at lag k = |i - j|.  With
    # the mean known to be 0, entry (i, j) has standard error
    # sqrt((C_ii C_jj + C_ij^2) / M); each of the 136 distinct entries must
    # lie within 5 of them
    N, seeds = 16, 4000
    grid = TimeGrid(1.0, N)
    incr = np.concatenate([np.diff(make_fbm(hurst, 2, grid, seed=seed).values, axis=0).T
                           for seed in range(seeds)])
    M = len(incr)
    k = np.abs(np.subtract.outer(np.arange(N), np.arange(N))).astype(float)
    cov = grid.dt ** (2 * hurst) * 0.5 * (
        (k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    sample = incr.T @ incr / M
    stderr = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / M)
    assert np.abs((sample - cov) / stderr).max() < 5.0


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_fbm_holder_estimate_tracks_hurst(hurst):
    grid = TimeGrid(1.0, 8192)
    est = estimate_holder(make_fbm(hurst, 1, grid, seed=2))
    assert abs(est.exponent - hurst) < 0.15


def test_power_path_values():
    grid = TimeGrid(1.0, 64)
    # parameter d is the regularity of the occupation measure; the path is t^(1/d)
    path = make_power_path(0.5, grid)
    assert np.allclose(path.values[:, 0], grid.times ** 2.0)


def test_linear_and_constant_paths():
    grid = TimeGrid(1.0, 64)
    lin = make_linear_path(np.array([2.0, -1.0]), np.array([0.5, 0.5]), grid)
    assert np.allclose(lin.values[-1], [2.5, -0.5])
    est = estimate_holder(lin)
    assert est.exponent > 0.95
    const = make_constant_path(np.array([1.0, 2.0]), grid)
    assert estimate_holder(const).degenerate


def test_csv_roundtrip(tmp_path):
    grid = TimeGrid(1.0, 64)
    path = make_fbm(0.7, 2, grid, seed=3)
    fn = tmp_path / "p.csv"
    path.to_csv(str(fn))
    back = np.loadtxt(fn, delimiter=",", skiprows=1)
    assert back.shape == (65, 3)
    assert np.array_equal(back[:, 0], grid.times)
    assert np.array_equal(back[:, 1:], path.values)
