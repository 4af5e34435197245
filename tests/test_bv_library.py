import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from oracles import cantor_cumulative_inverse_bisection, cantor_digit_loop
from varpath.bv_library import (MatrixBV, ScalarBV, _flat_profile, batch_inverse,
                                cantor_coefficient, cantor_cumulative,
                                cantor_cumulative_inverse, cantor_function, cantor_integral,
                                cantor_level_atoms, cantor_matrix, cayley_inverse,
                                cone_indicator, cone_matrix, constant_scalar,
                                curl_check, distortion_check, halfplane_below_line,
                                jump_line_matrix)


def test_cantor_function_known_values():
    xs = np.array([-1.0, 0.0, 1.0 / 4, 1.0 / 3, 0.5, 2.0 / 3, 3.0 / 4, 1.0, 2.0])
    expect = np.array([0.0, 0.0, 1.0 / 3, 0.5, 0.5, 0.5, 2.0 / 3, 1.0, 1.0])
    assert np.allclose(cantor_function(xs), expect, atol=1e-12)


def test_cantor_function_monotone():
    xs = np.linspace(-0.5, 1.5, 4001)
    assert np.all(np.diff(cantor_function(xs)) >= -1e-15)


def test_cantor_integral_endpoints():
    # self-similarity gives integral over [0,1] equal to 1/2; the function
    # clips its argument to [0,1]
    assert cantor_integral(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-10)
    assert cantor_integral(np.array([0.0]))[0] == 0.0
    assert cantor_integral(np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-10)
    # crude Riemann cross-check on an interior point
    xs = np.linspace(0, 0.7, 20001)
    riemann = np.trapezoid(cantor_function(xs), xs)
    assert cantor_integral(np.array([0.7]))[0] == pytest.approx(riemann, abs=1e-4)


def _level_12_endpoints():
    # both ends of every level-12 construction interval: points of the
    # Cantor set with a finite ternary expansion
    left = cantor_level_atoms(12)
    return np.concatenate([left, left + 3.0 ** -12])


def test_cantor_walk_matches_the_digit_loops():
    # 10^5 uniform points in (0, 1), the level-12 endpoints, both outer
    # branches and the cuts: C bit for bit, I to a few units of its last digits
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0.0, 1.0, 100_000), _level_12_endpoints(),
                        rng.uniform(-0.5, 0.0, 1000), rng.uniform(1.0, 1.5, 1000),
                        [0.0, 1.0 / 9, 0.25, 1.0 / 3, 2.0 / 3, 0.75, 1.0]])
    C, I = cantor_digit_loop(x)
    assert np.array_equal(cantor_function(x), C)
    assert np.max(np.abs(cantor_integral(x) - I)) < 1e-17
    phi = cantor_cumulative(x)
    inside = (x > 0) & (x < 1)
    assert np.array_equal(phi[~inside], np.where(x[~inside] <= 0, x[~inside],
                                                 2 * x[~inside] - 0.5))
    assert np.all(np.abs(phi[inside] - (x[inside] + I[inside])) <= np.spacing(phi[inside]))


def test_cantor_cumulative_inverse_is_exact():
    # images of the level-12 endpoints (where Phi's slope jumps), 10^5
    # uniform values in (0, 3/2), both outer branches and the branch cuts
    rng = np.random.default_rng(6)
    y = np.concatenate([cantor_cumulative(_level_12_endpoints()),
                        rng.uniform(0.0, 1.5, 100_000), rng.uniform(-0.5, 0.0, 1000),
                        rng.uniform(1.5, 2.0, 1000), [0.0, 1.0 / 12 + 1.0 / 3, 1.5]])
    z = cantor_cumulative_inverse(y)
    tol = 1e-15 * (1.0 + np.abs(y))
    assert np.all(np.abs(cantor_cumulative(z) - y) <= tol)
    inside = (y > 0) & (y < 1.5)
    assert np.all(np.abs(z[inside] - cantor_cumulative_inverse_bisection(y[inside]))
                  <= tol[inside])
    assert np.array_equal(z[y <= 0], y[y <= 0])
    assert np.array_equal(z[y >= 1.5], (y[y >= 1.5] + 0.5) / 2)
    z = cantor_cumulative_inverse(0.75)
    assert isinstance(z, float) and abs(z - 5.0 / 9) < 1e-15
    assert cantor_cumulative_inverse(np.zeros((2, 0, 3))).shape == (2, 0, 3)


def test_cantor_level_atoms_count_and_support():
    atoms = cantor_level_atoms(6)
    assert len(atoms) == 2 ** 6
    assert atoms.min() >= 0 and atoms.max() <= 1
    # every atom avoids the removed middle third
    assert not np.any((atoms > 1.0 / 3 + 1e-12) & (atoms < 2.0 / 3 - 1e-12))


def test_cantor_coefficient_gradient_mass():
    phi = cantor_coefficient(2)
    box = np.array([[-0.5, 1.5], [-0.5, 1.5]])
    mu = phi.gradient_measure(box, 8)
    # total variation of the staircase over a full crossing is 1 per unit
    # of lateral length (here 2.0)
    assert mu.total_mass == pytest.approx(2.0, rel=0.01)


def test_halfplane_jump_mass_scales_with_box():
    phi = halfplane_below_line(2.0)
    box = np.array([[-1.0, 1.0], [-4.0, 4.0]])
    mu = phi.gradient_measure(box, 8)
    # locus x2 = 2 x1 crosses the box over x1 in [-1,1]: length 2*sqrt(5)
    assert mu.total_mass == pytest.approx(2 * np.sqrt(5), rel=0.02)
    assert np.allclose(mu.locations[:, 1], 2 * mu.locations[:, 0], atol=1e-8)


def test_cone_indicator_values():
    # indicator of the open cone between the rays of slopes 1/3 and 3
    phi = cone_indicator(1.0, 3.0)
    pts = np.array([[1.0, 1.0],    # between the rays
                    [1.0, 0.1],    # below the lower ray
                    [1.0, 4.0],    # above the upper ray
                    [-1.0, 0.0],   # opposite half-plane
                    [1.0, 3.0]])   # on the upper ray
    assert np.allclose(phi(pts), [1.0, 0.0, 0.0, 0.0, 0.5])


def test_constant_scalar_empty_gradient():
    phi = constant_scalar(4.2, 3)
    assert phi.gradient_measure(np.zeros((3, 2)), 6).n_atoms == 0
    assert phi(np.array([[1.0, 2.0, 3.0]])) == pytest.approx(4.2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_cayley_inverse_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    A = rng.standard_normal((n, n)) + 3 * np.eye(n)
    assert np.allclose(cayley_inverse(A), np.linalg.inv(A), atol=1e-10)
    assert batch_inverse(A[None])[1][0] == pytest.approx(np.linalg.det(A), rel=1e-9)


def _inverse_quietly(mats):
    """batch_inverse with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return batch_inverse(mats)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_inverse_reports_the_singular_matrix(n):
    # no floor and no refusal: a singular matrix gets determinant 0 and a
    # non-finite inverse, without a warning; the caller reads the smallest
    # determinant and its index
    rng = np.random.default_rng(n)
    mats = rng.standard_normal((50, n, n)) + 3 * np.eye(n)
    mats[17] = np.diag([1e-13] + [1.0] * (n - 1))
    mats[31] = np.diag([0.0] + [1.0] * (n - 1))
    inv, det = _inverse_quietly(mats)
    assert det[17] == batch_inverse(mats[17:18])[1][0]
    assert det[17] == pytest.approx(1e-13, rel=1e-9)
    assert det[31] == 0.0 and not np.isfinite(inv[31]).all()
    assert np.argsort(np.abs(det))[:2].tolist() == [31, 17]
    assert np.isfinite(np.delete(inv, 31, axis=0)).all()


def _leverrier(mats):
    """Faddeev-LeVerrier reference: inverses and determinants of (m, n, n)."""
    n = mats.shape[-1]
    M = np.broadcast_to(np.eye(n), mats.shape).copy()
    for k in range(1, n):
        AM = mats @ M
        M = AM - (np.einsum("mii->m", AM) / k)[:, None, None] * np.eye(n)
    c_n = -np.einsum("mii->m", mats @ M) / n
    return -M / c_n[:, None, None], (-1.0) ** n * c_n


def test_batch_inverse_2x2_matches_leverrier():
    rng = np.random.default_rng(21)
    mats = rng.standard_normal((4000, 2, 2)) + 2 * np.eye(2)
    mats = mats[np.abs(np.linalg.det(mats)) > 1e-3]
    inv, det = batch_inverse(mats)
    ref_inv, ref_det = _leverrier(mats)
    scale = np.abs(ref_inv).max(axis=(1, 2))
    assert np.all(np.abs(inv - ref_inv).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.allclose(det, ref_det, rtol=1e-12, atol=0)
    mats[123] = [[1.0, 2.0], [0.5, 1.0 + 1e-14]]
    inv, det = _inverse_quietly(mats)
    assert int(np.argmin(np.abs(det))) == 123
    assert det[123] == pytest.approx(_leverrier(mats[123:124])[1][0], abs=1e-15)


def test_curl_check_jump_line_symmetric():
    sigma = jump_line_matrix(2.0)
    rep = curl_check(sigma, np.array([[-1.0, 1.0], [-1.0, 1.0]]), eps=0.1, spacing=0.025)
    assert rep["max_residual"] < 0.5
    # det sigma is c^2 - 1 = 3 above the jump line x2 = c x1, and larger elsewhere
    x1, x2 = rep["min_det_point"]
    assert rep["min_det"] == 3.0 and 2.0 * x1 < x2


def test_curl_check_cone_asymmetric():
    sigma = cone_matrix(1.0, 3.0)
    rep = curl_check(sigma, np.array([[-1.0, 1.0], [-1.0, 1.0]]), eps=0.1, spacing=0.025)
    assert rep["max_residual"] > 0.5


def _curl_per_entry(sigma, region, eps, spacing):
    """The curl residual with sigma inverted by one cayley_inverse per grid
    point and every entry of the inverse mollified on its own, as a
    reference for the one-evaluation check."""
    n = sigma.dim
    pad = eps + 2 * spacing
    axes = [np.arange(region[k, 0] - pad, region[k, 1] + pad + spacing / 2, spacing)
            for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    rad = int(np.ceil(eps / spacing))
    offs = np.arange(-rad, rad + 1) * spacing
    kmesh = np.meshgrid(*([offs] * n), indexing="ij")
    kernel = _flat_profile(np.sqrt(sum(km ** 2 for km in kmesh)) / eps)
    kernel /= kernel.sum()
    inv = np.array([cayley_inverse(sigma, x) for x in pts])
    fields = {(k, j): ndimage.convolve(inv[:, k, j].reshape(mesh[0].shape), kernel,
                                       mode="nearest") for k in range(n) for j in range(n)}
    interior = tuple(slice(rad + 1, -(rad + 1)) for _ in range(n))
    per = {}
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                r = (np.gradient(fields[(k, j)], spacing, axis=i)
                     - np.gradient(fields[(k, i)], spacing, axis=j))
                per[(i, j, k)] = float(np.abs(r[interior]).max())
    return max(per.values()), per


def _sigma_3d():
    """A 3x3 coefficient of ScalarBV entries, two of which jump across planes."""
    def entry(ev):
        return ScalarBV(3, ev, None)

    zero, one = entry(lambda p: np.zeros(len(p))), entry(lambda p: np.ones(len(p)))
    a = entry(lambda p: 2.0 + (p[:, 0] > 0.3 * p[:, 1]))
    b = entry(lambda p: 0.5 * (p[:, 2] < 0.05))
    return MatrixBV(3, ((a, one, zero), (zero, constant_scalar(2.0, 3), b), (b, zero, a)))


SQUARE = np.array([[-2.0, 2.0], [-2.0, 2.0]])


@pytest.mark.parametrize("sigma, region", [
    (cone_matrix(1.0, 2.0), SQUARE), (jump_line_matrix(2.0), SQUARE),
    (jump_line_matrix(1.5), np.array([[-1.0, 1.5], [-0.5, 0.75]])),
    (_sigma_3d(), np.array([[-0.2, 0.3], [-0.1, 0.15], [-0.15, 0.2]]))],
    ids=["cone(1,2)", "jump_line(2)", "jump_line(1.5), non-square region", "3-D jumps"])
def test_curl_check_evaluates_once(sigma, region):
    calls = []

    def counted(entry):
        def ev(pts):
            calls.append(len(pts))
            return entry.evaluate(pts)
        return ScalarBV(entry.dim, ev, entry.gradient_measure, name=entry.name)

    n = sigma.dim
    watched = MatrixBV(n, tuple(tuple(counted(e) for e in row) for row in sigma.entries))
    rep = curl_check(watched, region, eps=0.12, spacing=0.03)
    assert len(calls) == n * n  # sigma evaluated once over the grid: one call per entry
    worst, per = _curl_per_entry(sigma, region, 0.12, 0.03)
    assert rep["max_residual"] == worst
    assert rep["per_component"] == per


def test_curl_check_is_trivial_in_1d():
    # no cross derivative exists in 1D: the residual is 0 and sigma is never
    # evaluated, even where it would be singular
    calls = []

    def ev(pts):
        calls.append(len(pts))
        return np.zeros(len(pts))

    sigma = MatrixBV(1, ((ScalarBV(1, ev, None),),))
    rep = curl_check(sigma, np.array([[0.01, 4.0]]), eps=0.12, spacing=0.03)
    assert rep == {"max_residual": 0.0, "per_component": {}}
    assert calls == []


def test_distortion_check_identity_like():
    sigma = cantor_matrix()
    rep = distortion_check(sigma, np.array([[0.5, 0.5], [-0.5, 0.2]]))
    assert rep["delta_admissible"]
    assert rep["kappa"] >= 1.0


def _distortion_loop(sigma, probes, n_directions=720):
    """Per-probe reference for distortion_check (dimension 2)."""
    ang = np.linspace(0, 2 * np.pi, n_directions, endpoint=False)
    xis = np.column_stack([np.cos(ang), np.sin(ang)])
    kappa, delta = -np.inf, np.inf
    for x in probes:
        A = sigma.evaluate(x)
        Ainv = cayley_inverse(A)
        op = np.linalg.svd(Ainv, compute_uv=False)[0]
        kappa = max(kappa, op ** 2 / np.linalg.det(Ainv))
        Axi = xis @ A.T
        num = np.einsum("ij,ij->i", xis, Axi)
        den = np.linalg.norm(Axi, axis=1)
        delta = min(delta, float((num[den > 0] / den[den > 0]).min()))
    return kappa, delta


def _distortion_all_probes(sigma, probes, n_directions=720):
    """distortion_check's formulas over every probe, duplicates included."""
    ang = np.linspace(0, 2 * np.pi, n_directions, endpoint=False)
    xis = np.column_stack([np.cos(ang), np.sin(ang)])
    A = sigma.evaluate(probes)
    Ainv, det = batch_inverse(A)
    op = np.linalg.svd(Ainv, compute_uv=False)[:, 0]
    Axi = xis @ np.swapaxes(A, 1, 2)
    num = np.einsum("di,pdi->pd", xis, Axi)
    den = np.linalg.norm(Axi, axis=2)
    return float((op ** 2 * det).max()), float((num[den > 0] / den[den > 0]).min())


@pytest.mark.parametrize("sigma", [cantor_matrix(), jump_line_matrix(2.0), cone_matrix(1.0, 2.0)],
                         ids=["cantor", "jump_line(2)", "cone(1,2)"])
def test_distortion_check_matches_per_probe_loop(sigma):
    probes = np.random.default_rng(3).uniform(-2, 2, (64, 2))
    rep = distortion_check(sigma, probes)
    kappa, delta = _distortion_loop(sigma, probes)
    assert rep["kappa"] == pytest.approx(kappa, rel=1e-12)
    assert rep["delta"] == pytest.approx(delta, rel=1e-12)
    # the check runs once per distinct value of sigma (two for the jump
    # and the cone): a max and a min over probes, so the bits do not move
    assert (rep["kappa"], rep["delta"]) == _distortion_all_probes(sigma, probes)
