import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varpath
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


def test_cli_bad_config_exits_2(tmp_path):
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
