import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varpath
from varpath.cli import main as cli_main
from varpath.harness import (EXIT_FAILURE, EXIT_OK, EXIT_REFUSAL, ConfigError,
                             coefficient_from_config, config_digest,
                             path_from_config, run_integrate, run_path,
                             run_solve, run_sweep, run_validate,
                             run_variability)


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def test_config_digest_order_invariant():
    a = config_digest({"x": 1, "y": [2, 3]})
    b = config_digest({"y": [2, 3], "x": 1})
    assert a == b
    assert a != config_digest({"x": 1, "y": [2, 4]})


def test_coefficient_and_path_builders_validate():
    with pytest.raises(ConfigError):
        coefficient_from_config({"coefficient": "nope"})
    with pytest.raises(ConfigError):
        path_from_config({"path": "fbm", "N": 64}, seed=0)  # missing hurst
    with pytest.raises(ConfigError):
        path_from_config({"path": "warp", "N": 64}, seed=0)
    with pytest.raises(ConfigError):
        path_from_config({"path": "fbm", "N": 64, "hurst": float("nan")}, seed=0)
    fbm = {"path": "fbm", "N": 64, "hurst": 0.7}
    for bad in ({"horizon": float("nan")}, {"horizon": 0.0}, {"dim": 0}, {"dim": "two"}):
        with pytest.raises(ConfigError):
            path_from_config({**fbm, **bad}, seed=0)
    for bad in ({"coefficient": "constant", "value": float("nan")},
                {"coefficient": "cantor", "dim": float("inf")},
                {"coefficient": "jump_line", "c": float("nan")},
                {"coefficient": "jump_line", "c": 0.5},
                {"coefficient": "cone", "a": 3.0, "b": float("inf")},
                {"coefficient": "cone", "a": 3.0, "b": 2.0}):
        with pytest.raises(ConfigError):
            coefficient_from_config(bad)


def test_run_path_outputs_and_manifest(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.7, "N": 256, "dim": 2}
    assert run_path(cfg, seed=5, out_dir=str(tmp_path)) == EXIT_OK
    rep = read_json(tmp_path, "path_report.json")
    assert rep["N"] == 256 and rep["dim"] == 2
    man = read_json(tmp_path, "manifest.json")
    assert man["config_sha256"] == config_digest(cfg)
    assert set(man["outputs"]) >= {"path.csv", "path_report.json"}


def test_run_path_deterministic(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.7, "N": 256, "dim": 2}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    run_path(cfg, seed=5, out_dir=str(d1))
    run_path(cfg, seed=5, out_dir=str(d2))
    assert (d1 / "path.csv").read_bytes() == (d2 / "path.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_run_variability_report(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.7, "N": 256, "dim": 2,
           "coefficient": "cantor", "s": 0.8, "levels": [6, 8, 10]}
    assert run_variability(cfg, seed=1, out_dir=str(tmp_path)) == EXIT_OK
    rep = read_json(tmp_path, "variability_report.json")
    assert rep["verdict"] in ("finite", "diverging", "inconclusive")
    assert len(rep["lp_norms"]) == 3
    for bad in ({"p": float("nan")}, {"p": 0.5}, {"s": 1.5}, {"levels": [6]},
                {"levels": [6, float("nan")]}):
        with pytest.raises(ConfigError):
            run_variability({**cfg, **bad}, seed=1, out_dir=str(tmp_path))


def test_run_integrate_with_rate(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.8, "N": 1024, "dim": 2,
           "coefficient": "constant", "value": 2.0, "theta": 0.4,
           "rate": True, "meshes": [16, 32, 64, 128]}
    assert run_integrate(cfg, seed=2, out_dir=str(tmp_path)) == EXIT_OK
    rep = read_json(tmp_path, "integrate_report.json")
    assert "value" in rep and "rate" in rep
    assert len(rep["rate"]["errors"]) == 4


def test_run_integrate_rejects_matrix_coefficient(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.8, "N": 256, "dim": 2,
           "coefficient": "jump_line"}
    with pytest.raises(ConfigError):
        run_integrate(cfg, seed=0, out_dir=str(tmp_path))


def test_run_solve_report(tmp_path):
    cfg = {"path": "fbm", "hurst": 0.75, "N": 1024, "dim": 2,
           "coefficient": "jump_line", "c": 2.0, "x0": [1.0, 1.0],
           "theta": 0.35, "s": 0.45, "n_checkpoints": 16}
    assert run_solve(cfg, seed=3, out_dir=str(tmp_path)) == EXIT_OK
    rep = read_json(tmp_path, "solve_report.json")
    assert rep["uniqueness_sup"] < 1e-8
    assert rep["residual"]["sup"] < 0.1
    assert os.path.exists(tmp_path / "solution.csv")
    for bad in ({"x0": [float("nan"), 1.0]}, {"x0": [1.0]}, {"n_checkpoints": 1},
                {"n_checkpoints": float("nan")}, {"s": 1.5}):
        with pytest.raises(ConfigError):
            run_solve({**cfg, **bad}, seed=3, out_dir=str(tmp_path))


def test_run_validate_trivial(tmp_path):
    assert run_validate({"suite": "trivial"}, seed=0, out_dir=str(tmp_path)) == EXIT_OK
    rep = read_json(tmp_path, "validate_report.json")
    assert rep["passed"] and rep["failures"] == []


def test_run_sweep_captures_failures(tmp_path):
    cfg = {"study": "variability", "path": "fbm", "N": 256, "dim": 2,
           "coefficient": "cantor", "s": 0.5,
           "grid": {"hurst": [0.7, 0.8, 5.0]}}  # last cell is invalid
    assert run_sweep(cfg, seed=0, out_dir=str(tmp_path)) == EXIT_OK
    table = read_json(tmp_path, "sweep_table.json")
    exits = [row["exit"] for row in table["rows"]]
    assert exits[:2] == [EXIT_OK, EXIT_OK]
    assert exits[2] != EXIT_OK
    assert "error" in table["rows"][2]


def test_run_sweep_threaded_matches_serial(tmp_path):
    cfg = {"study": "path", "path": "fbm", "N": 256, "dim": 1,
           "grid": {"hurst": [0.6, 0.7, 0.8, 0.9]}}
    d1, d2 = tmp_path / "serial", tmp_path / "threaded"
    d1.mkdir(), d2.mkdir()
    run_sweep(cfg, seed=9, out_dir=str(d1), threads=1)
    run_sweep(cfg, seed=9, out_dir=str(d2), threads=4)
    t1 = read_json(d1, "sweep_table.json")
    t2 = read_json(d2, "sweep_table.json")
    assert t1 == t2


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(args, cwd):
    # Run the same varpath that this process imported.  A relative
    # PYTHONPATH entry (e.g. "src") does not resolve from the child's cwd,
    # so the package's parent directory goes first, made absolute.
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(varpath.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e])
    return subprocess.run([sys.executable, "-m", "varpath.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_path_and_exit_codes(tmp_path):
    r = run_cli(["path", "--path", "fbm", "--hurst", "0.7", "--N", "128",
                 "--dim", "2", "--seed", "4", "--out-dir", str(tmp_path)],
                cwd=str(tmp_path))
    assert r.returncode == EXIT_OK, r.stderr
    assert (tmp_path / "path.csv").exists()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    r = run_cli(["path", "--path", "warp", "--N", "128",
                 "--out-dir", str(tmp_path)], cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "warp" in r.stderr  # the refusal names the rejected value
    # a NaN norm exponent is a config error, not a report of NaN norms
    r = run_cli(["variability", "--coefficient", "cantor", "--s", "0.8", "--p", "nan",
                 "--hurst", "0.7", "--N", "64", "--out-dir", str(tmp_path)],
                cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "'p'" in r.stderr and not (tmp_path / "variability_report.json").exists()
    # a coefficient whose dimension differs from the path's
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps({"path": "fbm", "N": 64, "hurst": 0.7, "dim": 1,
                               "coefficient": "jump_line", "s": 0.5}))
    r = run_cli(["variability", "--config", str(cfg), "--out-dir", str(tmp_path)],
                cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "dimension 2" in r.stderr and "dimension 1" in r.stderr
    # path values that overflow, drivers too short to estimate regularity,
    # and unreadable options; these run in-process, as python -m varpath.cli
    # exits with main's return value
    for i, (args, config, field) in enumerate([
            (["path"], {"path": "linear", "velocity": [1e308, 1e308], "horizon": 10, "N": 8},
             "'velocity'"),
            (["path"], {"path": "power", "d": 0.5, "horizon": 1e308, "N": 8}, "'horizon'"),
            (["path"], {"path": "fbm", "hurst": 0.5, "N": 2}, "'N'"),
            (["solve", "--example", "jump_line", "--hurst", "0.7", "--N", "3"], None, "'N'"),
            # rate studies with too few meshes, a mesh not dividing N, or unreadable meshes
            (["integrate", "--coefficient", "constant", "--hurst", "0.7", "--N", "256",
              "--rate", "--mesh", "2^3..2^5"], None, "'meshes'"),
            (["integrate", "--coefficient", "constant", "--hurst", "0.7", "--N", "256",
              "--rate", "--mesh", "3,5,7,9"], None, "'meshes'"),
            (["integrate", "--coefficient", "constant", "--hurst", "0.7", "--N", "256",
              "--rate", "--mesh", "x..y"], None, "'meshes'"),
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256, "rate": True,
                             "meshes": "abc"}, "'meshes'"),
            # an integer field refuses a fraction or a boolean instead of reading a number
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256, "rate": True,
                             "meshes": [16.9, 32, 64, 128]}, "'meshes'"),
            (["path"], {"path": "fbm", "hurst": 0.5, "N": 64.5}, "'N'"),
            (["path"], {"path": "fbm", "hurst": 0.7, "N": 64, "dim": True}, "'dim'"),
            (["solve", "--example", "jump_line", "--hurst", "0.7", "--N", "64",
              "--x0", "a,b"], None, "'x0'"),
            (["sweep"], {"study": "variability", "path": "fbm", "N": 64, "hurst": 0.7,
                         "coefficient": "cantor", "grid": {"s": 0.3}}, "'s'")]):
        out = tmp_path / f"case_{i}"
        if config is not None:
            (tmp_path / f"case_{i}.json").write_text(json.dumps(config))
            args = args + ["--config", str(tmp_path / f"case_{i}.json")]
        assert cli_main(args + ["--out-dir", str(out)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err, (args, err)


def test_cli_overflow_is_a_refusal(tmp_path, capsys):
    # finite inputs whose fractional derivative (1e308) or whose pairing
    # (1e300 against 1e300 t) leaves the double range: exit 3, no report
    for i, config in enumerate([
            {"path": "linear", "N": 64, "dim": 1, "coefficient": "constant",
             "value": 1e308, "theta": 0.4},
            {"path": "linear", "N": 64, "dim": 1, "coefficient": "constant",
             "value": 1e300, "velocity": [1e300], "theta": 0.4}]):
        cfg = tmp_path / f"case_{i}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"case_{i}"
        assert cli_main(["integrate", "--config", str(cfg), "--out-dir", str(out)]) \
            == EXIT_REFUSAL, config
        err = capsys.readouterr().err
        assert err.startswith("refusal: NormOverflowError: "), err
        assert not (out / "integrate_report.json").exists()


def test_cli_threads_only_on_sweep(capsys):
    # only sweep runs configurations at once; elsewhere --threads is unknown
    with pytest.raises(SystemExit) as exc:
        cli_main(["path", "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_integer_fields_accept_integral_floats(tmp_path):
    # 64.0 is the integer 64: the same path and the same rate study
    outputs = []
    for N, meshes in ((64, [16, 32, 64, 128]), (64.0, [16.0, 32, 64, 128.0])):
        out = tmp_path / str(N)
        for sub, config in (("path", {"path": "fbm", "hurst": 0.7, "N": N}),
                            ("integrate", {"path": "fbm", "hurst": 0.7, "N": 256,
                                           "coefficient": "constant", "rate": True,
                                           "meshes": meshes})):
            cfg = tmp_path / f"{sub}_{N}.json"
            cfg.write_text(json.dumps(config))
            assert cli_main([sub, "--config", str(cfg), "--out-dir", str(out / sub)]) == EXIT_OK
        outputs.append([(out / "path" / "path.csv").read_text(),
                        read_json(out / "integrate", "integrate_report.json")])
    assert outputs[0] == outputs[1]


def test_cli_validate(tmp_path):
    r = run_cli(["validate", "--out-dir", str(tmp_path)], cwd=str(tmp_path))
    assert r.returncode == EXIT_OK, r.stderr


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(script):
    # a library name a script imports but the package no longer has fails
    # here; the scripts' main() runs only under their __main__ guard
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a top-level function or
    class method that its body never reads.  A method's receiver (self or
    cls) is not a parameter; nested functions are not checked, but a read
    inside one counts for the function that encloses it."""
    tree = ast.parse(source)
    functions = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{item.name}", item,
                           not any(getattr(d, "id", None) == "staticmethod"
                                   for d in item.decorator_list))
                          for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for name, fn, bound in functions:
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args][int(bound):]
        params += [a.arg for a in args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        reads = {n.id for stmt in fn.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(name, p) for p in params if p not in reads]
    return unread


def test_unread_parameters_detected():
    source = ("def f(a, b, *, c=1):\n    def grad(box, level):\n        return a\n"
              "    return grad\n"
              "class K:\n    def m(self, x):\n        return 0\n")
    assert _unread_parameters(source) == [("f", "b"), ("f", "c"), ("K.m", "x")]


def test_no_parameter_is_ignored():
    # a parameter the library accepts and never reads is a setting that does
    # nothing; delete it, or make the code read it
    src = Path(varpath.__file__).resolve().parent
    unread = [(path.name, name, param) for path in sorted(src.glob("*.py"))
              for name, param in _unread_parameters(path.read_text())]
    assert unread == []


def _import_time_scipy_imports(source: str) -> list:
    """Line numbers of the imports that run when the module is imported
    (outside any function body) and load a scipy submodule:
    ``from scipy... import`` and ``import scipy.x``.  A bare ``import scipy``
    loads no submodule and is not listed."""
    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("scipy.") for a in node.names):
            lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_import_time_scipy_imports_detected():
    source = ("import scipy\nimport numpy, scipy.linalg\nfrom scipy import ndimage\n"
              "def f():\n    from scipy.spatial import cKDTree\n"
              "try:\n    from scipy.special import gamma\nexcept ImportError:\n    pass\n")
    assert _import_time_scipy_imports(source) == [2, 3, 7]


def test_no_module_level_scipy_submodule_import():
    # import varpath loads numpy only; a scipy module loads inside the
    # function that first needs it
    src = Path(varpath.__file__).resolve().parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _import_time_scipy_imports(path.read_text())]
    assert found == []


#: the scipy modules varpath may load: cdist and cKDTree for the capped
#: potentials and regularity exponents, quad for convolution_identity_check
SCIPY_ALLOWED = {"scipy", "scipy.spatial", "scipy.spatial.distance", "scipy.integrate"}


def _scipy_imports(source: str) -> list:
    """(line, module) for every scipy import at any depth, function bodies
    included.  ``from scipy import x`` imports the submodule scipy.x; a
    deeper ``from scipy.a import x`` is listed as scipy.a."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "scipy":
            if node.module == "scipy":
                found += [(node.lineno, f"scipy.{a.name}") for a in node.names]
            else:
                found.append((node.lineno, node.module))
    return sorted(found)


def test_scipy_imports_detected():
    source = ("import scipy\nimport numpy, scipy.linalg\nfrom scipy import integrate, ndimage\n"
              "def f():\n    from scipy.spatial.distance import cdist\n"
              "    if cdist:\n        from scipy.signal import convolve\n"
              "class K:\n    def m(self):\n        import scipy.fft as F\n")
    found = _scipy_imports(source)
    assert found == [(1, "scipy"), (2, "scipy.linalg"), (3, "scipy.integrate"),
                     (3, "scipy.ndimage"), (5, "scipy.spatial.distance"),
                     (7, "scipy.signal"), (10, "scipy.fft")]
    assert [m for _, m in found if m not in SCIPY_ALLOWED] == [
        "scipy.linalg", "scipy.ndimage", "scipy.signal", "scipy.fft"]


def test_scipy_imports_stay_in_the_allowlist():
    # scipy.signal alone costs over a second of import and pulls in stats,
    # optimize, interpolate, fft and ndimage; numpy does the convolutions
    src = Path(varpath.__file__).resolve().parent
    found = [f"{path.name}:{line} {module}" for path in sorted(src.glob("*.py"))
             for line, module in _scipy_imports(path.read_text())
             if module not in SCIPY_ALLOWED]
    assert found == []
