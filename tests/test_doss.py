import numpy as np
import pytest

from varpath.bv_library import (MatrixBV, ScalarBV, cantor_matrix, cone_matrix,
                                constant_scalar, jump_line_matrix)
from varpath.doss import (SUBSTEPS, BVGradientMap, DossMaps, SolveRefusal, _PotentialTable,
                          build_solution, change_of_variable_check, closed_form_maps,
                          residual, solve_nd, uniqueness_check)
from varpath.grid_paths import SampledPath, TimeGrid, make_fbm
from varpath.measures import DiscreteMeasure

from test_bv_library import _sigma_3d


def scalar_coeff(fn, dim=1):
    def grad(box, level):
        return DiscreteMeasure(dim, np.zeros((0, dim)), np.zeros(0))
    return ScalarBV(dim, lambda p: fn(np.atleast_2d(p)), grad)


def smooth_driver(grid, dim=2):
    t = grid.times
    cols = [0.5 * np.sin(2 * np.pi * t), t - t ** 2][:dim]
    return SampledPath(grid, dim, np.column_stack(cols))


def scalar_matrix(fn):
    """A 1D coefficient as the 1x1 matrix coefficient solve_nd takes."""
    return MatrixBV(1, ((scalar_coeff(fn),),))


# ---------------------------------------------------------------------------
# scalar construction: solve_nd on the 1x1 coefficient, based at 0 where 0
# lies in the domain and at the lower end otherwise
# ---------------------------------------------------------------------------

def test_solve_scalar_constant_coefficient():
    sigma = scalar_matrix(lambda p: np.full(len(p), 2.0))
    maps = solve_nd(sigma, [0.0], [(-1.0, 1.0)])
    # g(x) = x/2, f(y) = 2y
    xs = np.linspace(-1, 1, 11)[:, None]
    assert np.allclose(maps.g(xs)[:, 0], xs[:, 0] / 2, atol=1e-10)
    assert np.allclose(maps.f(maps.g(xs))[:, 0], xs[:, 0], atol=1e-10)


def test_solve_scalar_sqrt_coefficient_monotone():
    # sigma(x) = sqrt(x) on (0, 4): g(x) = 2 sqrt(x) - 2 sqrt(lo), strictly
    # increasing; frozen oracle: max error vs closed form 5.2e-6 on [0.01, 4]
    sigma = scalar_matrix(lambda p: np.sqrt(np.maximum(p[:, 0], 0.0)))
    maps = solve_nd(sigma, [0.01], [(0.01, 4.0)])
    xs = np.linspace(0.02, 4.0, 200)
    g = maps.g(xs[:, None])[:, 0]
    assert np.all(np.diff(g) > 0)
    expect = 2 * np.sqrt(xs) - 2 * np.sqrt(0.01)
    assert np.max(np.abs(g - (expect + g[0] - expect[0]))) < 0.02


def test_solve_scalar_refuses_vanishing_coefficient():
    sigma = scalar_matrix(lambda p: p[:, 0])  # vanishes at 0
    with pytest.raises(SolveRefusal):
        solve_nd(sigma, [0.0], [(-1.0, 1.0)])


def _strip(dim, inside, outside, lo, hi):
    """A coefficient entry equal to ``inside`` for lo < x1 < hi and to
    ``outside`` elsewhere."""
    return scalar_coeff(lambda p: np.where((p[:, 0] > lo) & (p[:, 0] < hi),
                                           inside, outside), dim=dim)


def test_solve_scalar_refuses_a_sign_change_between_probes():
    # sigma = -1 on an interval of width 2e-3 that no probe hits (the
    # nearest is 0.022 away; one lies inside |x - 0.3001| < 1e-3): the
    # table's per-sub-step check refuses where the sign change would fold g
    sigma = MatrixBV(1, ((_strip(1, -1.0, 1.0, 0.3991, 0.4011),),))
    with pytest.raises(SolveRefusal) as exc:
        solve_nd(sigma, [0.0], [(-1.0, 1.0)])
    rep = exc.value.report
    assert rep["stage"] == "table build"
    assert abs(rep["point"][0] - 0.4001) < 1e-3 and rep["min_det"] == -1.0


# ---------------------------------------------------------------------------
# closed forms and nD construction
# ---------------------------------------------------------------------------

def test_closed_form_jump_line_inverse_pair():
    maps = closed_form_maps("jump_line", c=2.0)
    rng = np.random.default_rng(0)
    ys = rng.uniform(-2, 2, (500, 2))
    ys = ys[np.abs(ys[:, 0]) > 0.05]  # stay off the jump locus of f
    back = maps.g(maps.f(ys))
    assert np.max(np.abs(back - ys)) < 1e-10


def test_closed_form_cantor_shear_inverse_pair():
    maps = closed_form_maps("cantor_shear")
    rng = np.random.default_rng(1)
    ys = rng.uniform(-1.5, 1.5, (300, 2))
    back = maps.g(maps.f(ys))
    assert np.max(np.abs(back - ys)) < 1e-6


def test_closed_form_cone_right_inverse_on_range():
    maps = closed_form_maps("cone", a=1.0, b=3.0)
    rng = np.random.default_rng(2)
    ys = rng.uniform(-2, 2, (400, 2))
    ys = ys[(np.abs(ys[:, 0]) > 0.05) & (np.abs(ys[:, 1]) > 0.05)]
    back = maps.g(maps.f(ys))
    assert np.max(np.abs(back - ys)) < 1e-10


def test_solve_nd_matches_closed_form_jump_line():
    # frozen oracle: g error 6.5e-14 and f error 6.5e-14 at probes off the
    # loci, after removing the anchoring offset g(base)
    sigma = jump_line_matrix(2.0)
    base = np.array([-3.0, -3.0])
    region = np.array([[-4.0, 4.0], [-4.0, 4.0]])
    sol = solve_nd(sigma, base, region)
    maps = closed_form_maps("jump_line", c=2.0)
    off = maps.g(base)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3.5, 3.5, (300, 2))
    xs = xs[np.abs(xs[:, 1] - 2 * xs[:, 0]) > 0.05]
    g_err = np.max(np.abs(sol.g(xs) - (maps.g(xs) - off)))
    assert g_err < 1e-3
    ys = maps.g(xs) - off
    ys = ys[np.abs(ys[:, 0] + off[0]) > 0.05]
    f_err = np.max(np.abs(sol.f(ys) - maps.f(ys + off)))
    assert f_err < 1e-3


def test_solve_nd_refuses_cone():
    # the inverse field of the cone coefficient carries circulation across
    # its jump rays: no single-valued potential exists
    sigma = cone_matrix(1.0, 3.0)
    with pytest.raises(SolveRefusal) as exc:
        solve_nd(sigma, np.array([-2.0, -2.0]), np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    assert "cross-derivative symmetry" in str(exc.value)
    assert exc.value.report["max_residual"] > 0.5


def test_solve_config_validation():
    sigma = jump_line_matrix(2.0)
    for step in (0.0, -5e-4, float("nan")):
        with pytest.raises(ValueError, match="quad_step"):
            solve_nd(sigma, [0.0, 0.0], [(-1.0, 1.0)] * 2, quad_step=step)


def test_solve_nd_refuses_a_singular_strip():
    # sigma_11 = 0 on a strip of width 2e-3: the probes and the curl grid
    # miss it, and the table's sub-steps refuse instead of raising a
    # singular-matrix error
    one, zero = (constant_scalar(v, 2) for v in (1.0, 0.0))
    sigma = MatrixBV(2, ((_strip(2, 0.0, 1.0, 0.2991, 0.3011), zero), (zero, one)))
    with pytest.raises(SolveRefusal, match="det sigma") as exc:
        solve_nd(sigma, [-1.0, -1.0], [(-1.0, 1.0)] * 2)
    rep = exc.value.report
    assert rep["stage"] == "table build"
    assert abs(rep["point"][0] - 0.3001) < 1e-3 and rep["min_det"] == 0.0


def test_solve_nd_refuses_singular_sigma_beyond_the_region():
    # sigma_11 = 0 for x1 > edge: on the curl check's padded grid (which
    # reaches 0.18 past the region), and on a table grown by a g query
    one, zero = (constant_scalar(v, 2) for v in (1.0, 0.0))

    def sigma(edge):
        return MatrixBV(2, ((_strip(2, 0.0, 1.0, edge, np.inf), zero), (zero, one)))

    with pytest.raises(SolveRefusal) as exc:
        solve_nd(sigma(1.1), [-1.0, -1.0], [(-1.0, 1.0)] * 2)
    assert exc.value.report["stage"] == "curl check"
    assert exc.value.report["point"][0] > 1.1
    sol = solve_nd(sigma(1.5), [-1.0, -1.0], [(-1.0, 1.0)] * 2)
    with pytest.raises(SolveRefusal) as exc:
        sol.g(np.array([[1.8, 0.0]]))
    assert exc.value.report["stage"] == "g query"
    assert exc.value.report["point"][0] > 1.5


# ---------------------------------------------------------------------------
# solution construction and verification
# ---------------------------------------------------------------------------

def test_build_solution_constant_sigma_exact():
    # constant diagonal sigma = 1.7 I: X = x0 + 1.7 Y exactly
    grid = TimeGrid(1.0, 1024)
    Y = smooth_driver(grid)
    c = 1.7

    maps = DossMaps(
        2,
        g=lambda x: np.asarray(x, dtype=float) / c,
        f=lambda y: np.asarray(y, dtype=float) * c)
    x0 = np.array([0.3, -0.2])
    X = build_solution(maps, Y, x0)
    assert np.max(np.abs(X.values - (x0 + c * Y.values))) < 1e-12
    assert uniqueness_check(X, maps, Y, x0) < 1e-12


def test_build_solution_requires_zero_start():
    grid = TimeGrid(1.0, 64)
    Y = SampledPath(grid, 2, np.ones((65, 2)))
    maps = closed_form_maps("jump_line", c=2.0)
    with pytest.raises(ValueError):
        build_solution(maps, Y, np.zeros(2))


def test_uniqueness_check_flags_impostors():
    # frozen oracles: shifted impostor deviation 0.0500 (the shift size times
    # 1/lip bound scale); constant impostor deviation sup|Y - Y_0|
    grid = TimeGrid(1.0, 1024)
    Y = make_fbm(0.8, 2, grid, seed=0)
    maps = closed_form_maps("jump_line", c=2.0)
    x0 = np.array([1.0, 1.0])
    X = build_solution(maps, Y, x0)
    assert uniqueness_check(X, maps, Y, x0) < 1e-10
    shifted = SampledPath(grid, 2, X.values + 0.05)
    assert uniqueness_check(shifted, maps, Y, x0) > 1e-2
    frozen = SampledPath(grid, 2, np.tile(X.values[0], (grid.N + 1, 1)))
    dev = uniqueness_check(frozen, maps, Y, x0)
    assert dev == pytest.approx(np.abs(Y.values - Y.values[0]).max(), abs=1e-10)


def test_residual_constant_sigma_small():
    # frozen oracle: residual 1.7e-4 for constant sigma on a smooth driver
    grid = TimeGrid(1.0, 1024)
    Y = smooth_driver(grid)
    c = 1.7
    maps = DossMaps(
        2,
        g=lambda x: np.asarray(x, dtype=float) / c,
        f=lambda y: np.asarray(y, dtype=float) * c)
    x0 = np.array([0.3, -0.2])
    X = build_solution(maps, Y, x0)

    def entry(val):
        return scalar_coeff(lambda p: np.full(len(p), val), dim=2)

    from varpath.bv_library import MatrixBV
    sigma = MatrixBV(2, ((entry(c), entry(0.0)), (entry(0.0), entry(c))))
    rep = residual(X, sigma, Y, x0, theta=0.35, s=0.45, n_checkpoints=32)
    assert rep.sup < 1e-3


def test_change_of_variable_constant_offset_invariance():
    grid = TimeGrid(1.0, 1024)
    X = make_fbm(0.8, 2, grid, seed=3)

    def make_F(c):
        return BVGradientMap(
            2,
            evaluate=lambda p: p[:, 0] + p[:, 1] + c,
            partials=(scalar_coeff(lambda q: np.ones(len(q)), dim=2),
                      scalar_coeff(lambda q: np.ones(len(q)), dim=2)))

    r0 = change_of_variable_check(make_F(0.0), X, theta=0.35, s=0.45,
                                  n_checkpoints=16)
    r7 = change_of_variable_check(make_F(7.0), X, theta=0.35, s=0.45,
                                  n_checkpoints=16)
    assert r0.sup == pytest.approx(r7.sup, abs=1e-12)
    assert r0.sup < 1e-2


def test_change_of_variable_refuses_rough_path():
    grid = TimeGrid(1.0, 1024)
    X = make_fbm(0.3, 2, grid, seed=0)
    F = BVGradientMap(
        2,
        evaluate=lambda p: p[:, 0],
        partials=(scalar_coeff(lambda q: np.ones(len(q)), dim=2),
                  scalar_coeff(lambda q: np.zeros(len(q)), dim=2)))
    with pytest.raises(SolveRefusal):
        change_of_variable_check(F, X, theta=0.35)


# ---------------------------------------------------------------------------
# the tabulated nD potential
# ---------------------------------------------------------------------------

def _off_locus(rng, c, w, count=32, gap=0.05):
    """Points uniform in [-0.75w, 0.75w]^2 at least gap from x2 = c x1, drawn
    as the benchmark's solve_map workload draws its probes."""
    pts = rng.uniform(-0.75 * w, 0.75 * w, size=(8 * count, 2))
    pts = pts[np.abs(pts[:, 1] - c * pts[:, 0]) > gap]
    return pts[:count]


def test_solve_nd_inverts_the_benchmark_targets():
    # solve_map's first jump op (input seed 0, round 0: c = 1.5, w = 0.5);
    # the line-integral potential was a staircase at the 1e-5 scale there and
    # Newton refused these in-range targets
    c, w = 1.5, 0.5
    base = np.array([-0.75 * w, -0.75 * w])
    sol = solve_nd(jump_line_matrix(c), base, np.array([[-w, w], [-w, w]]))
    maps = closed_form_maps("jump_line", c=c)
    rng = np.random.default_rng(0)
    _off_locus(rng, c, w)  # the round's g probes come first
    src = _off_locus(rng, c, w)
    ys = maps.g(src) - maps.g(base)
    assert np.max(np.abs(sol.f(ys) - src)) < 1e-3


@pytest.mark.parametrize("c, shift", [(1.0 + np.sqrt(2.0), (0.0, 0.0)),
                                      (1.5, (1.23e-4, 3.71e-4))],
                         ids=["c=1+sqrt2", "offset base"])
def test_solve_nd_unaligned_locus(c, shift):
    # the jump line crosses the lattice's sub-cells at irrational positions,
    # so g carries a quadrature error in every column that crosses it
    sigma = jump_line_matrix(c)
    base = np.array([-0.75, -0.75]) + np.array(shift)
    sol = solve_nd(sigma, base, np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    maps = closed_form_maps("jump_line", c=c)
    off = maps.g(base)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.9, 0.9, (400, 2))
    xs = xs[np.abs(xs[:, 1] - c * xs[:, 0]) > 0.05]
    assert np.max(np.abs(sol.g(xs) - (maps.g(xs) - off))) < 1e-3
    ys = maps.g(xs) - off
    assert np.max(np.abs(sol.f(ys) - xs)) < 1e-3


def test_solve_nd_growth_keeps_node_values():
    # g at fixed points is the same, bit for bit, before and after the table
    # grows to answer a query outside it
    sigma = jump_line_matrix(2.0)
    base = np.array([-0.3, -0.3])
    region = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.5, 0.5, (200, 2))
    fresh = solve_nd(sigma, base, region).g(xs)
    grown = solve_nd(sigma, base, region)
    far = grown.g(np.array([[0.9, -0.8]]))
    assert np.all(np.isfinite(far))
    assert np.array_equal(grown.g(xs), fresh)
    # growth stops at a fixed node budget: the query beyond it refuses and
    # names its point, and the table keeps answering inside
    with pytest.raises(SolveRefusal, match="budget") as exc:
        grown.g(np.array([[1e4, 0.0]]))
    assert exc.value.report["point"] == [1e4, 0.0]
    # in a batch, the refusal names the point beyond the table, not one
    # inside it on a face of the box the batch would need
    with pytest.raises(SolveRefusal, match="budget") as exc:
        grown.g(np.array([[0.0, -0.8], [1e4, 0.0], [0.9, 0.1]]))
    assert exc.value.report["point"] == [1e4, 0.0]
    assert np.array_equal(grown.g(xs), fresh)


def test_refused_growth_leaves_the_table_unchanged():
    # det sigma changes sign at x1 = 1: a g query beyond it refuses while the
    # table grows, and the table keeps answering as before, and can grow
    flip = ScalarBV(2, lambda p: np.where(p[:, 0] < 1.0, 2.0, -2.0), None)
    zero = constant_scalar(0.0, 2)
    sigma = MatrixBV(2, ((flip, zero), (zero, constant_scalar(1.0, 2))))
    maps = solve_nd(sigma, np.array([-0.3, -0.3]), np.array([[-0.5, 0.5], [-0.5, 0.5]]))
    xs = np.random.default_rng(5).uniform(-0.5, 0.5, (200, 2))
    before = maps.g(xs)
    with pytest.raises(SolveRefusal, match="g query: det sigma"):
        maps.g(np.array([[1.5, 0.0]]))
    assert np.array_equal(maps.g(xs), before)
    assert np.allclose(maps.g(np.array([[0.9, -0.9]])), [[0.6, -0.6]], rtol=0, atol=1e-12)


def _counted(sigma, calls):
    """sigma with its (0, 0) entry recording how many points it evaluates."""
    e = sigma.entries[0][0]

    def ev(pts):
        calls.append(len(pts))
        return e.evaluate(pts)

    first = (ScalarBV(e.dim, ev, e.gradient_measure, name=e.name),) + sigma.entries[0][1:]
    return MatrixBV(sigma.dim, (first,) + sigma.entries[1:])


@pytest.mark.parametrize("sigma, h, order, corners, beyond", [
    (jump_line_matrix(2.0), 5e-3, (0, 1), [[-0.5, -0.5], [0.5, 0.5]],
     [[0.9, -0.8], [-1.1, 0.7]]),
    (jump_line_matrix(1.5), 5e-3, (1, 0), [[-0.2, -0.4], [0.3, 0.1]],
     [[-0.7, 0.6], [0.8, -0.9]]),
    (_sigma_3d(), 0.02, (0, 1, 2), [[-0.2, -0.1, -0.15], [0.3, 0.15, 0.2]],
     [[-0.5, 0.4, -0.3], [0.45, -0.35, 0.5]]),
    (_sigma_3d(), 0.02, (2, 0, 1), [[-0.2, -0.1, -0.15], [0.3, 0.15, 0.2]],
     [[-0.5, 0.4, -0.3], [0.45, -0.35, 0.5]])],
    ids=["2-D", "2-D reverse order", "3-D", "3-D order (2, 0, 1)"])
def test_grown_table_equals_a_table_built_on_the_grown_box(sigma, h, order, corners, beyond):
    # growth past both ends of every axis keeps the old nodes and integrates
    # only the cells it adds: the table then equals, bit for bit, one built
    # on the grown box, and sigma was evaluated at exactly the sub-steps
    # that building the grown box costs beyond building the old one
    base = np.full(sigma.dim, -0.05)
    corners, beyond = np.array(corners), np.array(beyond)
    old_calls, grow_calls, fresh_calls = [], [], []
    table = _PotentialTable(_counted(sigma, old_calls), base, h, order, corners, "build")
    lo, hi = table.lo, table.hi
    assert np.all(table.lo < 0) and np.all(table.hi > 0)
    table.sigma = _counted(sigma, grow_calls)
    table.cover(beyond, "g query")
    assert np.all(table.lo < lo) and np.all(table.hi > hi)
    fresh = _PotentialTable(_counted(sigma, fresh_calls), base, h, order,
                            np.vstack([corners, beyond]), "build")
    assert np.array_equal(fresh.lo, table.lo) and np.array_equal(fresh.hi, table.hi)
    assert fresh.values.tobytes() == table.values.tobytes()

    def cells(lo, hi):  # cells of every leg's domain: its lateral rows times its axis cells
        size = hi - lo + 1
        return sum(int(np.prod(size[list(order[:k])])) * int(size[a] - 1)
                   for k, a in enumerate(order))

    assert sum(grow_calls) == SUBSTEPS * (cells(table.lo, table.hi) - cells(lo, hi))
    assert sum(grow_calls) == sum(fresh_calls) - sum(old_calls)


def test_solve_nd_constant_coefficient_3d():
    # constant sigma = A: g(x) = A^{-1}(x - base) and f(y) = base + A y, which
    # the table reproduces to rounding (multilinear interpolation is exact
    # on affine data)
    A = np.array([[2.0, 0.3, -0.2], [0.1, 1.5, 0.4], [-0.3, 0.2, 1.8]])
    sigma = MatrixBV(3, tuple(tuple(constant_scalar(A[j, k], 3) for k in range(3))
                              for j in range(3)))
    base = np.array([-0.2, 0.1, 0.0])
    region = np.array([[-0.5, 0.5]] * 3)
    sol = solve_nd(sigma, base, region, quad_step=5e-3)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.5, 0.5, (300, 3))
    expect = (xs - base) @ np.linalg.inv(A).T
    assert np.max(np.abs(sol.g(xs) - expect)) < 1e-12
    ys = rng.uniform(-0.2, 0.2, (300, 3))
    assert np.max(np.abs(sol.f(ys) - (base + ys @ A.T))) < 1e-9
    # an empty batch maps to an empty batch
    assert sol.g(np.zeros((0, 3))).shape == (0, 3)
    assert sol.f(np.zeros((0, 3))).shape == (0, 3)


def test_solve_nd_refuses_a_region_beyond_the_node_budget():
    # at the default spacing the table holds about 1.0 unit per side in 3-D,
    # so [-1, 1]^3 refuses while the table is built
    sigma = MatrixBV(3, tuple(tuple(constant_scalar(float(j == k), 3)
                                    for k in range(3)) for j in range(3)))
    with pytest.raises(SolveRefusal, match="budget of 8388608") as exc:
        solve_nd(sigma, np.zeros(3), np.array([[-1.0, 1.0]] * 3))
    assert exc.value.report["nodes"] > exc.value.report["node_budget"]
