import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import varpath
from varpath import measures
from varpath.bv_library import cantor_level_atoms
from varpath.grid_paths import TimeGrid, make_fbm, make_linear_path
from varpath.measures import (DiscreteMeasure, KernelPolicy,
                              convolution_identity_check, fractional_maximal,
                              mutual_energy, occupation_measure,
                              riesz_potential_many, upper_regularity_exponent)

from oracles import riesz_potential


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
    at, on = riesz_potential_many(mu, pol, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert at == pytest.approx(3.0 * 2.0 ** (0.5 - 2))
    assert on == np.inf


def test_capped_kernel_flattens_inside_cap():
    mu = DiscreteMeasure(2, np.array([[0.0, 0.0]]), np.array([1.0]))
    pol = KernelPolicy(gamma=0.5, cap_radius=0.5)
    inside, at_cap = riesz_potential_many(mu, pol, np.array([[0.1, 0.0], [0.5, 0.0]]))
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
    x = np.array([[0.3, -0.2]])
    small = riesz_potential_many(mu, KernelPolicy(0.7, h), x)[0]
    large = riesz_potential_many(mu, KernelPolicy(0.7, h * factor), x)[0]
    assert small >= large - 1e-12


def test_potential_many_matches_scalar(rng):
    mu = unit_atoms(rng, 30)
    xs = rng.uniform(-1, 1, (17, 2))
    pol = KernelPolicy(gamma=0.6, cap_radius=0.02)
    many = riesz_potential_many(mu, pol, xs)
    assert many.shape == (17,)
    assert np.allclose(many, [riesz_potential(mu, pol, x) for x in xs], rtol=1e-12, atol=0)
    # several orders on one cap radius: one row per policy, each the
    # scalar loop; h = 0 with a query point on an atom gives +inf
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


def _kernel_cases(rng):
    """A measure, queries and policies whose calls split into several
    distance blocks (3000 atoms: 87 query rows per block, 5 blocks), with
    one order and several, h > 0 and h = 0 with a query on an atom."""
    mu = unit_atoms(rng, 3000)
    xs = rng.uniform(-1, 1, (400, 2))
    xs[250] = mu.locations[17]
    pols = [KernelPolicy(0.6, 0.02), KernelPolicy(0.6, 0.0)]
    pols += [[KernelPolicy(g, h) for g in (0.2, 0.6, 1.3)] for h in (0.02, 0.0)]
    return mu, xs, pols


def test_potential_many_does_not_depend_on_the_thread_count(rng, kernel_workers):
    mu, xs, pols = _kernel_cases(rng)

    def calls():
        return [riesz_potential_many(mu, pol, xs) for pol in pols]

    def concurrent_calls():
        # two callers share the pool while it is created and used
        results = [None, None]

        def call(i):
            results[i] = calls()

        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        return results

    serial, serial_threads = kernel_workers(1, calls)
    pooled, pooled_threads = kernel_workers(3, concurrent_calls)
    assert serial_threads == {threading.current_thread().name}
    assert pooled_threads and all(t.startswith("varpath-kernel") for t in pooled_threads)
    for result in pooled:
        for a, b in zip(serial, result):
            assert np.array_equal(a, b)
    assert np.isinf(serial[1][250]) and np.isinf(serial[3][:, 250]).all()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_potential_many_in_a_forked_child(rng):
    # the child inherits the parent's pool object but not its threads; it
    # must start its own pool instead of waiting on the inherited one
    mu, xs, pols = _kernel_cases(rng)
    expect = riesz_potential_many(mu, pols[0], xs)
    assert measures.KERNEL_WORKERS == 1 or measures._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(riesz_potential_many(mu, pols[0], xs)))
    child.start()
    answered = recv.poll(60)
    if not answered:
        child.kill()
    child.join(timeout=60)
    assert answered and child.exitcode == 0
    assert np.array_equal(recv.recv(), expect)


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


def test_convolution_scaling_identity():
    # residuals 0.0050 and 0.0074 (quadrature half-width 2e4)
    assert convolution_identity_check(0.3, 0.4, y=2.0) < 0.01
    assert convolution_identity_check(0.25, 0.5, y=2.0) < 0.01


def _fresh_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this varpath."""
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(measures.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_parent] + [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_leaves_heavy_scipy_modules_unloaded():
    # import varpath costs numpy only: each scipy module loads at the first
    # call that uses it
    assert _fresh_process("import sys, varpath; " + SCIPY_LOADED).strip() == "[]"
    # a Doss solve, its queries and a solution load none of scipy, and
    # neither does a solve that the curl check refuses; nor do they load
    # numpy.ma (which np.unique(..., axis=0) would)
    solve = textwrap.dedent("""\
        import sys
        import numpy as np
        from varpath import (SolveRefusal, TimeGrid, build_solution, cone_matrix,
                             jump_line_matrix, make_fbm, solve_nd)
        region = np.array([[-1.5, 1.5], [-1.5, 1.5]])
        maps = solve_nd(jump_line_matrix(2.0), np.array([-1.0, -1.0]), region)
        xs = np.array([[0.3, -0.2], [-0.5, 0.9]])
        assert np.abs(maps.f(maps.g(xs)) - xs).max() < 1e-6
        Y = make_fbm(0.7, 2, TimeGrid(1.0, 64), seed=0)
        assert np.isfinite(build_solution(maps, Y, np.array([0.2, 0.1])).values).all()
        try:
            solve_nd(cone_matrix(1.0, 2.0), np.array([-1.0, -1.0]), region)
            raise AssertionError("the cone solve was not refused")
        except SolveRefusal as exc:
            assert "cross-derivative symmetry" in str(exc)
        """) + SCIPY_LOADED + "\nprint('numpy.ma' in sys.modules)"
    assert _fresh_process(solve).split() == ["[]", "False"]


def test_pairing_residual_and_validate_leave_scipy_signal_unloaded():
    # the fractional convolutions run on numpy's FFT: a pairing, a Doss
    # residual (classifier precondition included) and the validate suite
    # load no scipy.signal
    code = textwrap.dedent("""\
        import sys, tempfile
        import numpy as np
        from varpath import (GridFunction, TimeGrid, build_solution, closed_form_maps,
                             gls_integrate, jump_line_matrix, make_fbm, residual)
        from varpath.harness import run_validate
        grid = TimeGrid(1.0, 4096)
        t = GridFunction(grid, grid.times.copy())
        assert abs(gls_integrate(t, t, 0.4) - 0.5) < 1e-4
        Y = make_fbm(0.75, 2, TimeGrid(1.0, 1024), seed=0)
        x0 = np.array([1.0, 1.0])
        X = build_solution(closed_form_maps("jump_line", c=2.0), Y, x0)
        assert residual(X, jump_line_matrix(2.0), Y, x0, 0.3, s=0.45, n_checkpoints=8).sup < 0.1
        assert run_validate({}, 0, tempfile.mkdtemp()) == 0
        print("scipy.signal" in sys.modules)
        """)
    assert _fresh_process(code).strip() == "False"


def test_classifier_leaves_scipy_spatial_unloaded():
    # the capped kernel forms its distances in numpy: a criterion 6 sweep, a
    # cantor_shear residual (its classifier precondition included) and the
    # README variability command load no scipy.spatial
    code = textwrap.dedent("""\
        import sys, tempfile
        import numpy as np
        from varpath import (TimeGrid, VariabilityParams, build_solution, cantor_coefficient,
                             cantor_matrix, closed_form_maps, make_fbm, residual)
        from varpath.harness import run_variability
        from varpath.variability import classify_sweep
        reps = classify_sweep(make_fbm(0.7, 2, TimeGrid(1.0, 512), seed=4), cantor_coefficient(2),
                              (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
                              VariabilityParams(s=0.5, p=1.0, levels=(4, 6, 8)))
        assert len(reps) == 7
        Y = make_fbm(0.8, 2, TimeGrid(1.0, 1024), seed=0)
        x0 = np.array([0.3, 0.4])
        X = build_solution(closed_form_maps("cantor_shear"), Y, x0)
        assert residual(X, cantor_matrix(), Y, x0, 0.3, s=0.45, n_checkpoints=32).sup < 0.1
        assert run_variability({"path": "fbm", "hurst": 0.7, "N": 512, "dim": 2,
                                "coefficient": "cantor", "s": 0.8}, 0, tempfile.mkdtemp()) == 0
        print("scipy.spatial" in sys.modules)
        """)
    assert _fresh_process(code).strip() == "False"


def test_first_classify_in_a_fresh_process_matches_in_process():
    # the first kernel call of a new process starts the pool: the level-7
    # call sends four distance blocks (7,008 atoms, 37 of the 129 path
    # points per block) to it
    call = ("classify(make_fbm(0.7, 2, TimeGrid(1.0, 128), seed=4), cantor_coefficient(2), "
            "VariabilityParams(s=0.5, p=1.0, levels=(5, 6, 7))).to_dict()")
    fresh, workers, pooled = json.loads(_fresh_process(
        "import json\nfrom varpath import *\nfrom varpath import measures\n"
        f"print(json.dumps([{call}, measures.KERNEL_WORKERS, measures._pool is not None]))"))
    assert pooled or workers == 1
    assert fresh == json.loads(json.dumps(eval(call, vars(varpath))))


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, np.array([[0.0]]), np.array([-1.0]))
