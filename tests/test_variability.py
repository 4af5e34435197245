import numpy as np
import pytest

from varpath.bv_library import (ScalarBV, cantor_coefficient, cantor_matrix, constant_scalar,
                                halfplane_below_line, halfplane_x1_positive)
from varpath.doss import _subsampled, build_solution, closed_form_maps
from varpath.grid_paths import TimeGrid, make_constant_path, make_fbm, make_linear_path
from varpath.gridfun import GridFunction
from varpath.measures import DiscreteMeasure, KernelPolicy
from varpath.variability import (VariabilityParams, VariabilityRefusal,
                                 classify, classify_crosscheck_energy,
                                 classify_sweep, compose,
                                 composition_bound_check, fbm_energy_bound,
                                 inflated_box, meanvalue_check,
                                 moment_condition_check, require_finite,
                                 variability_statistic)

from oracles import riesz_potential


GRID = TimeGrid(1.0, 512)
PARAMS_LO = VariabilityParams(s=0.3, p=np.inf, levels=(6, 8, 10))
PARAMS_HI = VariabilityParams(s=0.8, p=np.inf, levels=(6, 8, 10))


def test_constant_coefficient_always_finite():
    path = make_fbm(0.7, 2, GRID, seed=0)
    rep = classify(path, constant_scalar(2.0, 2), PARAMS_HI)
    assert rep.verdict == "finite"
    assert rep.growth_exponent == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        VariabilityParams(s=1.5)
    with pytest.raises(ValueError):
        VariabilityParams(s=0.5, p=0.5)
    with pytest.raises(ValueError):
        VariabilityParams(s=0.5, p=np.nan)
    with pytest.raises(ValueError):
        VariabilityParams(s=0.5, levels=(8,))
    with pytest.raises(ValueError, match="distinct"):
        VariabilityParams(s=0.5, levels=(5, 5))


def test_frozen_verdict_triple():
    # frozen verdicts at N = 512, levels (6,8,10), s = 0.8: a constant path
    # in the flat part of the Cantor coefficient is finite; a path crossing
    # a jump locus or the Cantor set diverges
    cantor = cantor_coefficient(2)
    flat = make_constant_path(np.array([0.5, 0.0]), GRID)
    assert classify(flat, cantor, PARAMS_HI).verdict == "finite"
    path = make_fbm(0.7, 2, GRID, seed=1)
    assert classify(path, halfplane_x1_positive(), PARAMS_HI).verdict == "diverging"
    assert classify(path, cantor, PARAMS_HI).verdict == "diverging"


def test_path_missing_jump_locus_is_finite():
    # a path that stays away from the jump line x2 = 2 x1 sees no mass
    path = make_constant_path(np.array([5.0, 5.0]), GRID)
    rep = classify(path, halfplane_below_line(2.0), VariabilityParams(s=0.8, margin=0.25))
    assert rep.verdict == "finite"


def test_classify_sweep_matches_classify():
    path = make_fbm(0.7, 2, GRID, seed=2)
    phi = halfplane_x1_positive()
    s_values = (0.3, 0.5, 0.8)
    box = inflated_box(path, PARAMS_LO.margin)
    caps = np.array([phi.scale(L) for L in PARAMS_LO.levels])
    measures = [phi.gradient_measure(box, L) for L in PARAMS_LO.levels]
    reports = classify_sweep(path, phi, s_values, PARAMS_LO)
    for s, rep in zip(s_values, reports):
        exact = classify(path, phi, VariabilityParams(s=s, p=PARAMS_LO.p,
                                                      levels=PARAMS_LO.levels))
        # reference: the scalar potential at every path point, level by level
        ref = np.array([GridFunction(GRID, np.array([
            riesz_potential(mu, KernelPolicy(1.0 - s, h), x) for x in path.values]))
            .lp_norm(PARAMS_LO.p) for mu, h in zip(measures, caps)])
        slope = np.polyfit(np.log(1.0 / caps), np.log(ref), 1)[0]
        assert np.allclose(rep.lp_norms, ref, rtol=1e-12, atol=0)
        assert rep.growth_exponent == pytest.approx(slope, rel=1e-12)
        # classify is the sweep with one s, on the same kernel operations:
        # its report equals the sweep entry bit for bit
        for name in ("lp_norms", "growth_exponent", "r_squared", "max_log_residual",
                     "verdict", "s"):
            assert getattr(exact, name) == getattr(rep, name), name


def test_classify_sweep_does_not_depend_on_the_thread_count(kernel_workers):
    # a criterion 6 input: the level-8 Cantor measure has 68,224 atoms, so
    # the 513 path points split into blocks of 3 rows (level 4 is one block,
    # computed inline)
    path = make_fbm(0.7, 2, GRID, seed=4)
    phi = cantor_coefficient(2)
    base = VariabilityParams(s=0.5, p=1.0, levels=(4, 6, 8))
    s_values = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

    def sweep():
        return [r.to_dict() for r in classify_sweep(path, phi, s_values, base)]

    serial, _ = kernel_workers(1, sweep)
    pooled, threads = kernel_workers(3, sweep)
    assert any(t.startswith("varpath-kernel") for t in threads)
    assert pooled == serial


def test_require_finite_raises_with_report():
    path = make_fbm(0.7, 2, GRID, seed=1)
    with pytest.raises(VariabilityRefusal) as exc:
        require_finite(path, halfplane_x1_positive(), PARAMS_HI)
    rep = exc.value.report
    assert rep.verdict == "diverging"
    # the refusal names each number of the fit against its threshold
    assert (f"growth exponent {rep.growth_exponent:.4f} > 0.10, R² {rep.r_squared:.3f} ≥ 0.9, "
            f"max log residual {rep.max_log_residual:.3f} ≤ 0.5; "
            f"difference ratio ρ {rep.difference_ratio:.4f}, "
            f"rate {rep.difference_rate:.4f}") in str(exc.value)


def test_difference_ratio_of_criterion_5_inputs():
    # rho = (N3 - N2)/(N2 - N1) exceeds 1 where the norms keep growing (the
    # origin and the segment on the Cantor set) and falls below it where
    # they settle (the gap point); levels two apart give rate log_4 rho
    phi = cantor_coefficient(2)
    params = VariabilityParams(s=0.8, p=1.0, levels=(6, 8, 10))
    seg = make_linear_path(np.array([0.0, 1.0]), np.array([1.0 / 3.0, 0.0]), GRID)
    for path, rho in [(make_constant_path(np.zeros(2), GRID), 1.273),
                      (seg, 1.147), (make_constant_path(np.array([0.5, 0.0]), GRID), 0.028)]:
        rep = classify(path, phi, params)
        n1, n2, n3 = rep.lp_norms
        assert rep.difference_ratio == (n3 - n2) / (n2 - n1)
        assert rep.difference_ratio == pytest.approx(rho, abs=5e-4)
        assert rep.difference_rate == pytest.approx(np.log(rep.difference_ratio) / np.log(4.0))
        assert rep.to_dict()["difference_ratio"] == rep.difference_ratio
    # undefined without three levels, and no rate for unequal spacings
    rep = classify(seg, phi, VariabilityParams(s=0.8, p=1.0, levels=(6, 8)))
    assert (rep.difference_ratio, rep.difference_rate) == (None, None)
    rep = classify(seg, phi, VariabilityParams(s=0.8, p=1.0, levels=(5, 6, 8)))
    assert rep.difference_ratio > 1 and rep.difference_rate is None
    # the ratio reads the levels from coarse to fine, in whatever order given
    rep = classify(seg, phi, VariabilityParams(s=0.8, p=1.0, levels=(10, 6, 8)))
    assert rep.difference_ratio == pytest.approx(1.147, abs=5e-4)


@pytest.mark.parametrize("seed, N, rho", [(1412297367, 4096, 0.494), (1474806113, 16384, 0.593),
                                          (1244563293, 4096, 0.706), (1094767427, 4096, 0.664),
                                          (380877853, 4096, 0.583)])
def test_refused_cantor_shear_noises_have_contracting_differences(seed, N, rho):
    # H = 0.8 fBm noises Y whose cantor_shear solution the residual
    # precondition refuses as 'diverging' (the residual_decay benchmark draws
    # them at its seeds 3 and 12, 5, and 7 and 9): yet the norms' successive
    # differences shrink (rho < 1), so the growth is a transient, not a
    # divergence
    Y = make_fbm(0.8, 2, TimeGrid(1.0, N), seed=seed)
    X = build_solution(closed_form_maps("cantor_shear"), Y, (0.3, 0.4))
    rep = classify(_subsampled(X), cantor_matrix(),
                   VariabilityParams(s=0.45, p=1, levels=(5, 7, 9)))
    assert rep.verdict == "diverging"
    assert rep.difference_ratio < 1
    assert rep.difference_ratio == pytest.approx(rho, abs=5e-4)


def test_inflated_box_contains_range():
    path = make_fbm(0.6, 2, GRID, seed=3)
    box = inflated_box(path, 0.5)
    assert np.all(path.values >= box[:, 0] + 0.49)
    assert np.all(path.values <= box[:, 1] - 0.49)


def test_statistic_nonnegative_and_monotone_in_level():
    path = make_fbm(0.7, 2, GRID, seed=4)
    phi = halfplane_x1_positive()
    lo = variability_statistic(path, phi, PARAMS_HI, level=6)
    hi = variability_statistic(path, phi, PARAMS_HI, level=10)
    assert np.all(lo.values >= 0)
    # finer level means smaller cap, hence larger capped potential on average
    assert hi.values.mean() >= lo.values.mean() - 1e-12


def test_compose_respects_sup_bound():
    path = make_linear_path(np.array([1.0, 0.0]), np.array([-0.5, 0.3]), GRID)
    comp = compose(halfplane_x1_positive(), path)
    assert set(np.round(np.unique(comp.values), 6)) <= {0.0, 0.5, 1.0}


def test_crosscheck_energy_identity():
    path = make_fbm(0.7, 2, TimeGrid(1.0, 256), seed=5)
    phi = halfplane_x1_positive()
    norm_l1, energy = classify_crosscheck_energy(path, phi, VariabilityParams(s=0.5, p=1), 8)
    assert norm_l1 == pytest.approx(energy, rel=1e-10)


def _sin_cos() -> ScalarBV:
    """sin(x1) cos(x2); its gradient measure is |grad| times area on a cell
    grid over the box, cells of side 2^-level but at most 256 per side."""
    def ev(pts):
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1])

    def grad(box, level):
        axes = [np.linspace(lo, hi, min(256, int(np.ceil((hi - lo) * 2 ** level))) + 1)
                for lo, hi in box]
        x1, x2 = np.meshgrid(*[(a[:-1] + a[1:]) / 2 for a in axes], indexing="ij")
        area = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
        norm = np.hypot(np.cos(x1) * np.cos(x2), np.sin(x1) * np.sin(x2))
        return DiscreteMeasure(2, np.column_stack([x1.ravel(), x2.ravel()]),
                               area * norm.ravel())

    return ScalarBV(2, ev, grad, sup_bound=1.0)


def test_composition_bound_holds():
    path = make_fbm(0.8, 2, TimeGrid(1.0, 512), seed=6)
    phi = _sin_cos()
    chk = composition_bound_check(phi, path, s=0.5, p=2.0, beta=0.2)
    assert chk.lhs >= 0 and chk.rhs > 0


def test_meanvalue_check_jump_coefficient():
    phi = halfplane_x1_positive()
    chk = meanvalue_check(phi, np.array([-0.3, 0.0]), np.array([0.3, 0.0]),
                          s=0.5, level=10)
    assert chk.lhs == pytest.approx(1.0)
    assert chk.rhs >= chk.lhs  # maximal function controls the oscillation


def test_fbm_energy_bound_subcritical_vs_supercritical():
    grid = TimeGrid(1.0, 512)
    seeds = range(8)
    # n = 2, H = 0.75: the time integral converges for s < 1/H - 1 = 1/3
    sub = fbm_energy_bound(0.75, 2, 0.1, np.zeros(2), seeds, grid)
    sup = fbm_energy_bound(0.75, 2, 0.9, np.zeros(2), seeds, grid)
    assert sub.growth_exponent < sup.growth_exponent
    assert sub.mean < sup.mean


def test_fbm_energy_bound_matches_the_inline_capped_sum():
    # the capped kernel max(|B_t - x|, dt^H)^(-(n-1+s)) summed directly
    grid, seeds, x = TimeGrid(1.0, 256), range(3), np.array([0.1, -0.2])
    for hurst, s in ((0.75, 0.1), (0.75, 0.9), (0.6, 0.5)):
        rep = fbm_energy_bound(hurst, 2, s, x, seeds, grid)
        per_seed = []
        for seed in seeds:
            d = np.linalg.norm(make_fbm(hurst, 2, grid, seed).values[:-1] - x, axis=1)
            k = np.maximum(d, grid.dt ** hurst) ** -(1 + s)
            per_seed.append([np.sum(k[grid.times[:-1] >= fac * grid.dt]) * grid.dt
                             for fac in (256, 64, 16, 4)])
        assert np.allclose(rep.sweep_means, np.mean(per_seed, axis=0), rtol=1e-12, atol=0)
        assert rep.mean == pytest.approx(np.mean(per_seed, axis=0)[-1], rel=1e-12)


def test_moment_condition_check_matches_the_inline_capped_sum():
    # sum_j w_j max(|z_j - x0|, h_L)^exponent over the level-L gradient measure
    for phi, x0, exponent in ((cantor_coefficient(2), np.array([2.0, 0.0]), -0.5),
                              (cantor_coefficient(2), np.array([0.5, 0.3]), -1.7),
                              (halfplane_x1_positive(), np.array([0.1, 0.2]), -0.7)):
        chk = moment_condition_check(phi, x0, exponent)
        box = np.column_stack([x0 - 2.0, x0 + 2.0])
        ref = []
        for L in chk.levels:
            mu = phi.gradient_measure(box, L)
            d = np.linalg.norm(mu.locations - x0, axis=1)
            ref.append(np.dot(mu.weights, np.maximum(d, phi.scale(L)) ** exponent))
        assert np.allclose(chk.values, ref, rtol=1e-12, atol=0)


def test_moment_condition_check_cantor():
    phi = cantor_coefficient(2)
    # exponent just inside (-n, 0): finite for the Cantor-tensor-surface
    # gradient measure at a point off the support
    chk = moment_condition_check(phi, np.array([2.0, 0.0]), -0.5)
    assert not chk.diverging
    with pytest.raises(ValueError):
        moment_condition_check(phi, np.zeros(2), -3.0)
