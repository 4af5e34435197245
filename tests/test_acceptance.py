"""Acceptance suite: thirteen numbered criteria, one summary line each.

Every expected number below was computed by an independent derivation run
and frozen; tolerances are the acceptance tolerances, not post-hoc fits.
Criteria 6, 9 and 10 contain clauses that the implementation demonstrably
cannot meet; those clauses are kept as strict xfail tests with the measured
behavior asserted separately, and the summary line reports FAIL honestly.
"""

import numpy as np
import pytest
from math import gamma as G

from conftest import record_criterion

from varpath.bv_library import (ScalarBV, cantor_coefficient, cantor_function,
                                cantor_level_atoms, cantor_matrix,
                                cone_matrix, constant_scalar,
                                jump_line_matrix, level_scale, _lateral_grid,
                                cayley_inverse)
from varpath.doss import (BVGradientMap, SolveRefusal, build_solution,
                          change_of_variable_check, closed_form_maps,
                          residual, solve_nd, uniqueness_check)
from varpath.frac_calc import norm_W0, norm_WT, rl_integral_left, wm_derivative_left
from varpath.gridfun import GridFunction, gagliardo_pth_power
from varpath.grid_paths import (SampledPath, TimeGrid, estimate_holder,
                                make_constant_path, make_fbm, make_linear_path,
                                make_power_path)
from varpath.gls_integral import gls_integrate, rate_study
from varpath.measures import (DiscreteMeasure, convolution_identity_check,
                              mutual_energy, occupation_measure,
                              riesz_potential_many, KernelPolicy,
                              upper_regularity_exponent)
from varpath.variability import (VariabilityParams, VariabilityRefusal,
                                 classify, classify_sweep)


# ---------------------------------------------------------------------------
# criterion 1: smooth-case anchor
# ---------------------------------------------------------------------------

def test_criterion_01_smooth_anchor():
    grid = TimeGrid(1.0, 2 ** 12)
    t = grid.times
    tt = GridFunction(grid, t.copy())
    val = gls_integrate(tt, tt, 0.4)
    err_t = abs(val - 0.5)
    assert err_t < 1e-3  # frozen: 3.1e-6

    g13 = TimeGrid(1.0, 2 ** 13)
    t13 = g13.times
    one = GridFunction(g13, np.ones(g13.N + 1))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        c = rng.normal(size=4)
        d = rng.normal(size=4)
        gv = sum(c[k] * np.sin((k + 1) * np.pi * t13)
                 + d[k] * np.cos((k + 1) * np.pi * t13) / (k + 1) for k in range(4))
        g = GridFunction(g13, gv)
        worst = max(worst, abs(gls_integrate(one, g, 0.4) - (gv[-1] - gv[0])))
    assert worst < 1e-3  # frozen: 2.9e-5
    record_criterion(1, True,
                     f"int t dt err {err_t:.2e}; f=1 worst err {worst:.2e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# criterion 2: theta-independence
# ---------------------------------------------------------------------------

def test_criterion_02_theta_independence():
    grid = TimeGrid(1.0, 2 ** 12)
    t = grid.times
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        c = rng.normal(size=3)
        d = rng.normal(size=3)
        f = GridFunction(grid, sum(c[k] * np.cos((k + 1) * 2 * t) for k in range(3)))
        g = GridFunction(grid, sum(d[k] * np.sin((k + 1) * 1.7 * t) for k in range(3)))
        v1, v2 = gls_integrate(f, g, 0.3), gls_integrate(f, g, 0.6)
        worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2)))
    assert worst < 1e-2  # frozen: 2.2e-4

    g13 = TimeGrid(1.0, 2 ** 13)
    X = make_fbm(0.8, 1, g13, seed=0)
    f = GridFunction(g13, cantor_function(X.values[:, 0]))
    g = GridFunction(g13, X.values[:, 0].copy())
    v1, v2 = gls_integrate(f, g, 0.3), gls_integrate(f, g, 0.6)
    rough = abs(v1 - v2) / max(abs(v1), abs(v2))
    assert rough < 1e-2  # frozen: 1.1e-4
    record_criterion(2, True,
                     f"smooth rel diff {worst:.2e}, rough rel diff {rough:.2e} (tol 1e-2)")


# ---------------------------------------------------------------------------
# criterion 3: duality bound
# ---------------------------------------------------------------------------

def test_criterion_03_duality_bound():
    grid = TimeGrid(1.0, 2 ** 12)
    t = grid.times
    rng = np.random.default_rng(42)
    worst = 0.0
    for th in (0.3, 0.5):
        for _ in range(10):
            c = rng.normal(size=3)
            d = rng.normal(size=3)
            f = GridFunction(grid, sum(c[k] * np.sin((k + 1) * 2.3 * t) for k in range(3)))
            g = GridFunction(grid, sum(d[k] * np.sin((k + 1) * 1.1 * t) for k in range(3)))
            lhs = abs(gls_integrate(f, g, th))
            rhs = 1.1 * norm_W0(f, th, 1.0) * norm_WT(g, 1 - th) / (G(th) * G(1 - th))
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0  # frozen worst ratio: 0.123
    record_criterion(3, True, f"worst |integral| / bound ratio {worst:.3f} <= 1")


# ---------------------------------------------------------------------------
# criterion 4: Riemann-sum convergence rate
# ---------------------------------------------------------------------------

def test_criterion_04_riemann_rate():
    g13 = TimeGrid(1.0, 2 ** 13)
    t13 = g13.times
    f = GridFunction(g13, np.sin(2 * np.pi * t13))
    g = GridFunction(g13, t13 - t13 ** 2)
    smooth_order = rate_study(f, g, 0.4, [2 ** k for k in range(4, 10)]).exponent
    assert smooth_order >= 1.0  # frozen: 1.92

    # rough same-component pair: integrand |X|, integrator X; with the
    # configured (s, p) = (1, inf) the predicted order is
    # alpha*s - 1/p - 1 + gamma = 2*alpha - 1 from the estimated exponents
    orders, preds = [], []
    for seed in range(10):
        X = make_fbm(0.8, 1, g13, seed=seed)
        v = X.values[:, 0]
        rep = rate_study(GridFunction(g13, np.abs(v)), GridFunction(g13, v.copy()),
                         0.4, [2 ** k for k in range(4, 10)])
        orders.append(rep.exponent)
        preds.append(2 * estimate_holder(X).exponent - 1)
    med_order = float(np.median(orders))
    med_pred = float(np.median(preds))
    assert med_order > 0  # frozen: 0.557
    assert abs(med_order - med_pred) <= 0.2  # frozen: |0.557 - 0.407| = 0.15
    record_criterion(4, True,
                     f"smooth order {smooth_order:.2f} >= 1; rough median order "
                     f"{med_order:.3f} vs predicted {med_pred:.3f} (diff <= 0.2)")


# ---------------------------------------------------------------------------
# criterion 5: variability dichotomy on the three stated cases
# ---------------------------------------------------------------------------

def test_criterion_05_dichotomy():
    grid = TimeGrid(1.0, 512)
    phi = cantor_coefficient(2)
    params = VariabilityParams(s=0.8, p=1.0, levels=(6, 8, 10))
    v_gap = classify(make_constant_path(np.array([0.5, 0.0]), grid), phi, params).verdict
    v_origin = classify(make_constant_path(np.zeros(2), grid), phi, params).verdict
    seg = make_linear_path(np.array([0.0, 1.0]), np.array([1.0 / 3.0, 0.0]), grid)
    v_seg = classify(seg, phi, params).verdict
    assert (v_gap, v_origin, v_seg) == ("finite", "diverging", "diverging")
    record_criterion(5, True,
                     f"verdicts (gap point, origin, segment) = ({v_gap}, {v_origin}, {v_seg})")


# ---------------------------------------------------------------------------
# criterion 6: fBm phase diagram (honest FAIL; see the strict xfail below)
# ---------------------------------------------------------------------------

H_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9)
S_VALUES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

# frozen divergence-flag counts out of 50 seeds per cell (N = 512,
# levels (4, 6, 8), p = 1):
FROZEN_PHASE_TABLE = {
    0.5: (0, 0, 0, 0, 0, 28, 43),
    0.6: (0, 0, 0, 0, 5, 28, 41),
    0.7: (0, 0, 0, 0, 12, 29, 38),
    0.8: (0, 0, 0, 3, 17, 31, 39),
    0.9: (0, 0, 1, 4, 11, 22, 30),
}


@pytest.fixture(scope="module")
def phase_table():
    phi = cantor_coefficient(2)
    grid = TimeGrid(1.0, 512)
    base = VariabilityParams(s=0.5, p=1.0, levels=(4, 6, 8))
    table = {}
    for H in H_VALUES:
        counts = np.zeros(len(S_VALUES), dtype=int)
        for seed in range(50):
            reps = classify_sweep(make_fbm(H, 2, grid, seed=seed), phi, S_VALUES, base)
            counts += np.array([r.verdict == "diverging" for r in reps])
        table[H] = tuple(int(c) for c in counts)
    return table


def _majority_boundary(counts):
    for s, c in zip(S_VALUES, counts):
        if c >= 25:
            return s
    return None


def test_criterion_06_phase_table_reproduces_frozen(phase_table):
    # The sweep is deterministic (seeded paths, deterministic classifier):
    # the measured table must reproduce the frozen one exactly.  The
    # empirical majority boundary sits at s = 0.7-0.8 for every H — the
    # classifier statistic diverges once s exceeds the gradient-measure
    # dimension of the fixed coefficient (log2/log3 = 0.63 here), which
    # does not depend on H.  The claimed boundary curve s = 1/H - 1 is a
    # sufficient condition, not a sharp per-coefficient threshold: matching
    # it would need a coefficient whose gradient measure concentrates on a
    # set of dimension n - 1 - (1/H - 1), impossible for all H at once
    # with one fixed coefficient.
    assert phase_table == FROZEN_PHASE_TABLE
    boundaries = {H: _majority_boundary(phase_table[H]) for H in H_VALUES}
    curve = {H: 1.0 / H - 1.0 for H in H_VALUES}
    within = {H: abs(boundaries[H] - curve[H]) <= 0.1 + 1e-9 for H in H_VALUES}
    # only H = 0.6 (curve 0.67, boundary 0.7) lands within one cell
    assert sum(within.values()) == 1
    record_criterion(
        6, False,
        "boundary flat at s~0.7 for all H (coefficient gradient dimension 0.63), "
        f"matches curve s=1/H-1 in {sum(within.values())}/5 cells — criterion unattainable "
        "for a fixed BV coefficient")


@pytest.mark.xfail(strict=True,
                   reason="divergence boundary tracks the coefficient's gradient "
                          "dimension, not the curve s = 1/H - 1")
def test_criterion_06_strict_boundary_curve(phase_table):
    for H in H_VALUES:
        boundary = _majority_boundary(phase_table[H])
        assert boundary is not None
        assert abs(boundary - (1.0 / H - 1.0)) <= 0.1 + 1e-9


# ---------------------------------------------------------------------------
# criterion 7: upper-regularity exponents
# ---------------------------------------------------------------------------

def test_criterion_07_regularity_exponents():
    atoms = cantor_level_atoms(10)
    mu = DiscreteMeasure(1, atoms.reshape(-1, 1), np.full(len(atoms), 2.0 ** -10))
    e_cantor = upper_regularity_exponent(mu, np.geomspace(3 ** -6, 3 ** -1, 10)).exponent
    assert abs(e_cantor - np.log(2) / np.log(3)) < 0.05  # frozen: 0.620

    grid = TimeGrid(1.0, 4096)
    seg = make_linear_path(np.array([1.0, 0.0]), np.zeros(2), grid)
    e_seg = upper_regularity_exponent(occupation_measure(seg),
                                      np.geomspace(1e-3, 0.2, 8)).exponent
    assert abs(e_seg - 1.0) < 0.1  # frozen: 0.992

    pw = make_power_path(0.5, grid)
    e_pow = upper_regularity_exponent(occupation_measure(pw),
                                      np.geomspace(1e-3, 0.2, 8)).exponent
    assert abs(e_pow - 0.5) < 0.1  # frozen: 0.49984
    record_criterion(7, True,
                     f"Cantor {e_cantor:.3f} (0.631 +- 0.05), segment {e_seg:.3f} "
                     f"(1 +- 0.1), power path {e_pow:.4f} (0.5 +- 0.1)")


# ---------------------------------------------------------------------------
# criterion 8: fractional-calculus oracles
# ---------------------------------------------------------------------------

def test_criterion_08_frac_calc_oracles():
    grid = TimeGrid(1.0, 2 ** 12)
    t = grid.times
    out = rl_integral_left(GridFunction(grid, np.ones(grid.N + 1)), 0.4)
    expect = t ** 0.4 / G(1.4)
    rel = np.max(np.abs(out.values[1:] - expect[1:]) / expect[1:])
    assert rel < 1e-4  # product integration is exact here up to roundoff

    f = GridFunction(grid, np.sin(2 * np.pi * t))
    back = wm_derivative_left(rl_integral_left(f, 0.45), 0.45)
    roundtrip = float(np.max(np.abs(back.values - f.values)))
    assert roundtrip < 1e-2  # frozen: 1.9e-4

    conv1 = convolution_identity_check(0.3, 0.4, y=2.0)
    conv2 = convolution_identity_check(0.25, 0.5, y=2.0)
    assert conv1 < 0.01 and conv2 < 0.01  # frozen: 0.50%, 0.74%
    record_criterion(8, True,
                     f"I^t1 rel err {rel:.1e}; roundtrip {roundtrip:.1e}; "
                     f"convolution scaling {conv1 * 100:.2f}% / {conv2 * 100:.2f}%")


# ---------------------------------------------------------------------------
# criterion 9: closed-form equivalence of the constructed maps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def jump_line_solution():
    sigma = jump_line_matrix(2.0)
    return solve_nd(sigma, np.array([-3.0, -3.0]),
                    np.array([[-4.0, 4.0], [-4.0, 4.0]]))


def test_criterion_09_jump_line_matches(jump_line_solution):
    # frozen: g err 6.5e-14, f err 6.5e-14 on 1000 probes off the jump loci;
    # the constructed potential is anchored at the base point, so the
    # closed form is compared after removing the offset g(base)
    sol = jump_line_solution
    maps = closed_form_maps("jump_line", c=2.0)
    off = maps.g(np.array([-3.0, -3.0]))
    rng = np.random.default_rng(7)
    probes = rng.uniform(-3, 3, size=(1400, 2))
    probes = probes[np.abs(probes[:, 1] - 2 * probes[:, 0]) > 0.05][:1000]
    assert len(probes) == 1000
    g_err = float(np.abs(sol.g(probes) - (maps.g(probes) - off)).max())
    yp = rng.uniform(-1.5, 1.5, size=(1500, 2))
    yp = yp[np.abs(yp[:, 0] + off[0]) > 0.05][:1000]
    assert len(yp) == 1000
    f_err = float(np.abs(sol.f(yp) - maps.f(yp + off)).max())
    assert g_err < 1e-3 and f_err < 1e-3
    cone_detail = _cone_refusal_detail()
    record_criterion(
        9, False,
        f"jump_line matches (g err {g_err:.1e}, f err {f_err:.1e} < 1e-3); cone "
        f"construction refused: {cone_detail} — the cone coefficient's inverse "
        "field carries circulation across its jump rays, so no single-valued "
        "potential exists and the printed closed form cannot be a gradient-flow "
        "transform")


def _cone_refusal_detail():
    try:
        solve_nd(cone_matrix(1.0, 2.0), np.array([-3.0, -3.0]),
                 np.array([[-4.0, 4.0], [-4.0, 4.0]]))
    except SolveRefusal as exc:
        return f"cross-derivative residual {exc.report['max_residual']:.2f} > 0.5"
    return "unexpectedly succeeded"


@pytest.mark.xfail(strict=True, raises=SolveRefusal,
                   reason="no curl-free potential exists for the cone coefficient; "
                          "the construction refuses instead of matching the printed map")
def test_criterion_09_strict_cone_equivalence():
    sol = solve_nd(cone_matrix(1.0, 2.0), np.array([-3.0, -3.0]),
                   np.array([[-4.0, 4.0], [-4.0, 4.0]]))
    maps = closed_form_maps("cone", a=1.0, b=2.0)
    off = maps.g(np.array([-3.0, -3.0]))
    rng = np.random.default_rng(7)
    probes = rng.uniform(-3, 3, size=(1400, 2))
    probes = probes[(np.abs(probes[:, 0]) > 0.05) & (np.abs(probes[:, 1]) > 0.05)][:1000]
    assert np.abs(sol.g(probes) - (maps.g(probes) - off)).max() < 1e-3


# ---------------------------------------------------------------------------
# criterion 10: residual decay (monotone: PASS; 10x clause: honest FAIL)
# ---------------------------------------------------------------------------

RESIDUAL_CASES = [
    ("jump_line", 0.75, np.array([1.0, 1.0]), {"c": 2.0}),
    ("cantor_shear", 0.8, np.array([0.3, 0.4]), {}),
]

# frozen medians over 20 seeds (theta = 0.3, witness s = 0.45, 32 checkpoints)
FROZEN_MEDIANS = {
    "jump_line": {1024: 0.005656, 4096: 0.001983, 16384: 0.000781},
    "cantor_shear": {1024: 0.00265, 4096: 0.001023, 16384: 0.000298},
}


@pytest.fixture(scope="module")
def residual_medians():
    out = {}
    for fam, H, x0, mp_kwargs in RESIDUAL_CASES:
        sigma = jump_line_matrix(2.0) if fam == "jump_line" else cantor_matrix()
        maps = closed_form_maps(fam, **mp_kwargs)
        med = {}
        refusals = 0
        for N in (2 ** 10, 2 ** 12, 2 ** 14):
            sups = []
            for seed in range(20):
                Y = make_fbm(H, 2, TimeGrid(1.0, N), seed=seed)
                X = build_solution(maps, Y, x0)
                try:
                    sups.append(residual(X, sigma, Y, x0, 0.3, s=0.45,
                                         n_checkpoints=32).sup)
                except VariabilityRefusal:
                    refusals += 1
            med[N] = float(np.median(sups))
        out[fam] = (med, refusals)
    return out


def test_criterion_10_monotone_decay(residual_medians):
    details = []
    for fam, (med, refusals) in residual_medians.items():
        assert refusals == 0
        ns = sorted(med)
        assert med[ns[0]] > med[ns[1]] > med[ns[2]]
        for N, frozen in FROZEN_MEDIANS[fam].items():
            assert med[N] == pytest.approx(frozen, rel=1e-3)
        ratio = med[ns[0]] / med[ns[2]]
        details.append(f"{fam} medians {med[ns[0]]:.2e}>{med[ns[1]]:.2e}>"
                       f"{med[ns[2]]:.2e}, 16x-mesh ratio {ratio:.1f}")
    record_criterion(
        10, False,
        "monotone decay holds for both cases; the 'falls below initial/10' clause "
        "fails (ratios 7.2 and 8.9): the evaluator's time-quadrature error on "
        "Hoelder-H data decays no faster than the data allows, capping the ratio "
        "near 2^(4H) < 10 between N=2^10 and 2^14 — " + "; ".join(details))


@pytest.mark.xfail(strict=True,
                   reason="residual decay between 2^10 and 2^14 is rate-limited by "
                          "the driver's Hoelder exponent; a factor of 10 is not attainable")
def test_criterion_10_strict_tenfold_drop(residual_medians):
    for fam, (med, _) in residual_medians.items():
        ns = sorted(med)
        assert med[ns[2]] < 0.1 * med[ns[0]]


# ---------------------------------------------------------------------------
# criterion 11: uniqueness identity and impostor suite
# ---------------------------------------------------------------------------

def test_criterion_11_uniqueness():
    maps = closed_form_maps("jump_line", c=2.0)
    Y = make_fbm(0.75, 2, TimeGrid(1.0, 4096), seed=0)
    x0 = np.array([1.0, 1.0])
    X = build_solution(maps, Y, x0)
    built = uniqueness_check(X, maps, Y, x0)
    assert built <= 10 * 2e-6  # frozen: 1.4e-16 vs 10x inversion tolerance

    impostors = {}
    vals = X.values.copy()
    vals[X.grid.N // 2:, 0] += 0.1  # late shift, frozen deviation 0.0500
    impostors["late_shift"] = uniqueness_check(
        SampledPath(X.grid, 2, vals), maps, Y, x0)
    impostors["constant"] = uniqueness_check(
        SampledPath(X.grid, 2, np.tile(x0, (X.grid.N + 1, 1))), maps, Y, x0)
    impostors["scaled"] = uniqueness_check(
        SampledPath(X.grid, 2, x0 + 1.1 * (X.values - x0)), maps, Y, x0)
    assert all(v > 1e-2 for v in impostors.values())
    record_criterion(11, True,
                     f"built solution deviation {built:.1e} <= 2e-5; impostor "
                     f"deviations all > 1e-2 ({', '.join(f'{k} {v:.3f}' for k, v in impostors.items())})")


# ---------------------------------------------------------------------------
# criterion 12: change-of-variable residual
# ---------------------------------------------------------------------------

def _volume_gradient_partial(k, dim):
    """The coordinate map x -> x_k with |gradient| = 1 times volume."""
    def ev(pts):
        return np.atleast_2d(pts)[:, k]

    def grad(box, level):
        box = np.asarray(box, float).reshape(dim, 2)
        h = max(level_scale(level), (box[:, 1] - box[:, 0]).max() / 128)
        grids = [_lateral_grid(box[i, 0], box[i, 1], h) for i in range(dim)]
        mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
        locs = np.column_stack([m.ravel() for m in mesh])
        w = np.prod([g[1] for g in grids])
        return DiscreteMeasure(dim, locs, np.full(len(locs), w))

    return ScalarBV(dim, ev, grad, name=f"coord_{k}")


def test_criterion_12_change_of_variable():
    # quadratic F = |x|^2 / 2; frozen sups 3.59e-3, 1.82e-3, 7.63e-4
    quad = BVGradientMap(
        2, lambda pts: 0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=1),
        tuple(_volume_gradient_partial(k, 2) for k in range(2)), "half_square")
    sups = []
    for N in (2 ** 10, 2 ** 12, 2 ** 14):
        X = make_fbm(0.75, 2, TimeGrid(1.0, N), seed=3)
        sups.append(change_of_variable_check(quad, X, 0.35, n_checkpoints=32).sup)
    assert sups[0] > sups[1] > sups[2]

    # linear F = x1 + x2; frozen sup 8.47e-4 at N = 2^12
    lin = BVGradientMap(
        2, lambda pts: np.atleast_2d(pts).sum(axis=1),
        tuple(constant_scalar(1.0, 2) for _ in range(2)), "sum")
    X12 = make_fbm(0.75, 2, TimeGrid(1.0, 2 ** 12), seed=3)
    lin_sup = change_of_variable_check(lin, X12, 0.35, n_checkpoints=32).sup
    assert lin_sup < 1e-3
    record_criterion(12, True,
                     f"quadratic F sups {sups[0]:.2e} > {sups[1]:.2e} > {sups[2]:.2e} "
                     f"(monotone); linear F sup {lin_sup:.2e} < 1e-3")


# ---------------------------------------------------------------------------
# criterion 13: property suites
# ---------------------------------------------------------------------------

def test_criterion_13_properties():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(2, rng.uniform(-1, 1, (15, 2)), rng.uniform(0.1, 1, 15))
    nu = DiscreteMeasure(2, rng.uniform(-1, 1, (11, 2)), rng.uniform(0.1, 1, 11))
    pol = KernelPolicy(0.7, 0.05)
    sym = abs(mutual_energy(mu, nu, pol) - mutual_energy(nu, mu, pol))
    assert sym < 1e-12

    grid = TimeGrid(2.5, 512)
    occ = occupation_measure(make_fbm(0.7, 2, grid, seed=1))
    mass = abs(occ.total_mass - 2.5)
    assert mass < 1e-12

    f = np.sin(2 * np.pi * grid.times)
    base = gagliardo_pth_power(f, grid.dt, 0.3, 2.0)
    hom = abs(gagliardo_pth_power(3 * f, grid.dt, 0.3, 2.0) - 9 * base) / (9 * base)
    assert hom < 1e-12

    worst_inv = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 3 * np.eye(n)
        worst_inv = max(worst_inv, float(np.abs(cayley_inverse(A) - np.linalg.inv(A)).max()))
    assert worst_inv <= 1e-12

    a = make_fbm(0.6, 2, grid, seed=77).values
    b = make_fbm(0.6, 2, grid, seed=77).values
    assert np.array_equal(a, b)
    record_criterion(13, True,
                     f"energy symmetry {sym:.1e}; mass err {mass:.1e}; Gagliardo "
                     f"homogeneity {hom:.1e}; inversion vs direct {worst_inv:.1e}; "
                     "seeded runs byte-identical")
