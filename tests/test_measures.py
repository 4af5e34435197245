import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpath.bv_library import cantor_level_atoms
from varpath.grid_paths import TimeGrid, make_constant_path, make_fbm, make_linear_path
from varpath.measures import (DiscreteMeasure, KernelPolicy,
                              convolution_identity_check, fractional_maximal,
                              local_time_density, mutual_energy,
                              occupation_measure, riesz_potential,
                              riesz_potential_many, upper_regularity_exponent)


def unit_atoms(rng, m, dim=2):
    return DiscreteMeasure(dim, rng.uniform(-1, 1, (m, dim)), rng.uniform(0.1, 1.0, m))


def test_occupation_measure_mass_is_horizon():
    grid = TimeGrid(2.5, 128)
    mu = occupation_measure(make_fbm(0.7, 2, grid, seed=0))
    assert mu.total_mass == pytest.approx(2.5)
    assert mu.n_atoms == 128


def test_single_atom_potential_closed_form():
    mu = DiscreteMeasure(2, np.array([[0.0, 0.0]]), np.array([3.0]))
    pol = KernelPolicy(gamma=0.5, cap_radius=0.0)
    # one atom: potential is w * |x|^(gamma - n)
    x = np.array([2.0, 0.0])
    assert riesz_potential(mu, pol, x) == pytest.approx(3.0 * 2.0 ** (0.5 - 2))
    assert riesz_potential(mu, pol, np.zeros(2)) == np.inf


def test_capped_kernel_flattens_inside_cap():
    mu = DiscreteMeasure(2, np.array([[0.0, 0.0]]), np.array([1.0]))
    pol = KernelPolicy(gamma=0.5, cap_radius=0.5)
    inside = riesz_potential(mu, pol, np.array([0.1, 0.0]))
    at_cap = riesz_potential(mu, pol, np.array([0.5, 0.0]))
    assert inside == pytest.approx(at_cap)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_mutual_energy_symmetry(seed):
    rng = np.random.default_rng(seed)
    mu, nu = unit_atoms(rng, 12), unit_atoms(rng, 9)
    pol = KernelPolicy(gamma=0.8, cap_radius=0.05)
    assert mutual_energy(mu, nu, pol) == pytest.approx(mutual_energy(nu, mu, pol), rel=1e-12)


@given(st.floats(0.02, 0.2), st.floats(1.5, 4.0))
@settings(max_examples=15, deadline=None)
def test_potential_monotone_in_cap_radius(h, factor):
    rng = np.random.default_rng(7)
    mu = unit_atoms(rng, 20)
    x = np.array([0.3, -0.2])
    small = riesz_potential(mu, KernelPolicy(0.7, h), x)
    large = riesz_potential(mu, KernelPolicy(0.7, h * factor), x)
    assert small >= large - 1e-12


def test_potential_many_matches_scalar(rng):
    mu = unit_atoms(rng, 30)
    xs = rng.uniform(-1, 1, (17, 2))
    pol = KernelPolicy(gamma=0.6, cap_radius=0.02)
    many = riesz_potential_many(mu, pol, xs)
    assert many.shape == (17,)
    assert np.allclose(many, [riesz_potential(mu, pol, x) for x in xs], rtol=1e-12, atol=0)
    # several orders on one cap radius: one row per policy, each the
    # scalar loop; h = 0 with a query point on an atom gives the sentinel
    xs[3] = mu.locations[5]
    for h in (0.02, 0.0):
        pols = [KernelPolicy(gamma=g, cap_radius=h) for g in (0.2, 0.6, 1.3)]
        rows = riesz_potential_many(mu, pols, xs)
        assert rows.shape == (3, 17)
        for pol_j, row in zip(pols, rows):
            assert np.allclose(row, [riesz_potential(mu, pol_j, x) for x in xs],
                               rtol=1e-12, atol=0)
    assert np.isinf(rows[:, 3]).all() and np.isfinite(np.delete(rows, 3, axis=1)).all()
    empty = DiscreteMeasure(2, np.zeros((0, 2)), np.zeros(0))
    assert np.array_equal(riesz_potential_many(empty, pols, xs), np.zeros((3, 17)))
    assert np.array_equal(riesz_potential_many(empty, pol, xs), np.zeros(17))
    with pytest.raises(ValueError):
        riesz_potential_many(mu, [pol, KernelPolicy(gamma=0.6, cap_radius=0.05)], xs)


def test_fractional_maximal_single_atom():
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    # sup_r r^(gamma-1) mu(B(x,r)) at x = 0.5 is attained at r = 0.5
    val = fractional_maximal(mu, gamma=0.5, R=2.0, x=np.array([0.5]), n_radii=200)
    assert val == pytest.approx(0.5 ** (-0.5), rel=0.02)


def test_cantor_regularity_exponent():
    atoms = cantor_level_atoms(10)
    mu = DiscreteMeasure(1, atoms.reshape(-1, 1), np.full(len(atoms), 2.0 ** -10))
    est = upper_regularity_exponent(mu, np.geomspace(3 ** -6, 3 ** -1, 10))
    assert abs(est.exponent - np.log(2) / np.log(3)) < 0.05


def test_segment_occupation_regularity():
    seg = make_linear_path(np.array([1.0, 0.0]), np.zeros(2), TimeGrid(1.0, 4096))
    est = upper_regularity_exponent(occupation_measure(seg), np.geomspace(1e-3, 0.2, 8))
    assert abs(est.exponent - 1.0) < 0.1


def test_local_time_density_mass():
    grid = TimeGrid(1.0, 256)
    mu = occupation_measure(make_constant_path(np.array([0.25, 0.25]), grid))
    hist = local_time_density(mu, cell=0.1)
    assert hist.density.sum() * 0.1 ** 2 == pytest.approx(mu.total_mass)


def test_convolution_scaling_identity():
    # derived with half_width 2e4: residuals 0.0050 and 0.0074
    assert convolution_identity_check(0.3, 0.4, y=2.0, half_width=2e4) < 0.01
    assert convolution_identity_check(0.25, 0.5, y=2.0, half_width=2e4) < 0.01


def test_csv_roundtrip(tmp_path, rng):
    from varpath.measures import measure_from_csv
    mu = unit_atoms(rng, 25)
    fn = tmp_path / "mu.csv"
    mu.to_csv(str(fn))
    back = measure_from_csv(str(fn))
    assert np.allclose(back.locations, mu.locations)
    assert np.allclose(back.weights, mu.weights)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, np.array([[0.0]]), np.array([-1.0]))
