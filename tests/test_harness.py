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
from varpath.bv_library import MatrixBV
from varpath.cli import _parse_mesh, main as cli_main
from varpath.doss import closed_form_maps
from varpath.harness import (EXIT_FAILURE, EXIT_OK, EXIT_REFUSAL, FAMILIES, MAX_STEPS,
                             RUNNERS, ConfigError, coefficient_from_config, config_digest,
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


def test_family_table_builds_and_its_maps_invert():
    # every family builds from the table's defaults; a matrix family's
    # closed-form maps read exactly the table's parameters, and g inverts f
    rng = np.random.default_rng(0)
    for name, (build, fields) in FAMILIES.items():
        params = {key: default for key, (_, default, _) in fields.items()}
        coef = coefficient_from_config({"coefficient": name})
        assert type(coef) is type(build(**params)) and coef.name == build(**params).name
        if not isinstance(coef, MatrixBV):
            continue
        maps = closed_form_maps(name, **params)
        for key in params:
            with pytest.raises(KeyError):
                closed_form_maps(name, **{k: v for k, v in params.items() if k != key})
        probes = rng.uniform(-3, 3, size=(500, coef.dim))
        err = np.abs(maps.g(maps.f(probes)) - probes).max()
        assert maps.dim == coef.dim and err <= 1e-9, (name, err)


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


def test_every_runner_refuses_a_bad_seed_naming_it(tmp_path):
    # a Python caller's negative seed used to end in SeedSequence's bare
    # ValueError from a sweep, and to be blamed on the fbm fields by a path
    path_cfg = {"path": "fbm", "hurst": 0.7, "N": 64, "dim": 2}
    configs = {"path": path_cfg, "validate": {"suite": "trivial"},
               "variability": {**path_cfg, "coefficient": "cantor", "s": 0.5},
               "integrate": {**path_cfg, "dim": 1, "coefficient": "constant"},
               "solve": {**path_cfg, "coefficient": "jump_line"}}
    assert set(configs) == set(RUNNERS)
    for seed in (-1, 1.5, True):
        for name, runner in RUNNERS.items():
            with pytest.raises(ConfigError, match=r"^seed \(--seed, the master RNG seed\) "
                                                  r"must be a non-negative integer"):
                runner(configs[name], seed, str(tmp_path))
        with pytest.raises(ConfigError, match=r"^seed \(--seed"):
            run_sweep({"study": "path", **path_cfg, "grid": {"hurst": [0.7]}}, seed,
                      str(tmp_path))
        with pytest.raises(ConfigError, match=r"^seed \(--seed"):
            path_from_config(path_cfg, seed)
    assert not list(tmp_path.iterdir())


def test_fbm_sampler_refusal_is_not_blamed_on_the_fields(monkeypatch):
    # the sampler's embedding guard names H and N itself; the fields
    # 'hurst', 'horizon', 'dim' did not cause it
    from varpath import grid_paths, harness

    def indefinite(hurst, dim, grid, seed):
        return grid_paths._fgn_circulant_sqrt_eigs(1.5, grid.N)

    monkeypatch.setattr(harness, "make_fbm", indefinite)
    with pytest.raises(ConfigError) as info:
        path_from_config({"path": "fbm", "hurst": 0.7, "N": 8}, seed=0)
    msg = str(info.value)
    assert msg.startswith("path 'fbm' cannot be sampled: circulant embedding of fGn at H=1.5, N=8")
    assert "config fields" not in msg


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
            # a range bound that is not a power of two is refused, not rounded down
            (["integrate", "--coefficient", "constant", "--hurst", "0.7", "--N", "1024",
              "--rate", "--mesh", "300..1000"], None, "--mesh"),
            (["integrate", "--coefficient", "constant", "--hurst", "0.7", "--N", "1024",
              "--rate", "--mesh", "2^8..300"], None, "--mesh"),
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256, "rate": True,
                             "meshes": "abc"}, "'meshes'"),
            # a string is not an array of meshes, nor "no" a false rate
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256, "rate": True,
                             "meshes": "1632"}, "'meshes'"),
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256,
                             "rate": "no"}, "'rate'"),
            # an integer field refuses a fraction or a boolean instead of reading a number
            (["integrate"], {"coefficient": "constant", "hurst": 0.7, "N": 256, "rate": True,
                             "meshes": [16.9, 32, 64, 128]}, "'meshes'"),
            (["path"], {"path": "fbm", "hurst": 0.5, "N": 64.5}, "'N'"),
            (["path"], {"path": "fbm", "hurst": 0.7, "N": 64, "dim": True}, "'dim'"),
            # a number field refuses a JSON string instead of parsing it
            (["path"], {"path": "fbm", "hurst": "0.55", "N": "64"}, "'N'"),
            (["path"], {"path": "fbm", "hurst": "0.55", "N": 64}, "'hurst'"),
            (["solve"], {"coefficient": "jump_line", "hurst": 0.7, "N": 64, "x0": ["1", "1"]},
             "'x0'"),
            # a config file's suite stands: no flag default overrides it
            (["validate"], {"suite": "nightly"}, "unknown validation suite 'nightly'"),
            (["solve", "--example", "jump_line", "--hurst", "0.7", "--N", "64",
              "--x0", "a,b"], None, "'x0'"),
            (["sweep"], {"study": "variability", "path": "fbm", "N": 64, "hurst": 0.7,
                         "coefficient": "cantor", "grid": {"s": 0.3}}, "'s'"),
            # a string axis is not a list of its characters, an empty axis
            # makes no cell, and a study is one runner's name
            (["sweep"], {"study": "path", "path": "fbm", "N": 64, "grid": {"hurst": "0.55"}},
             "'hurst'"),
            (["sweep"], {"study": "path", "path": "fbm", "N": 64, "grid": {"dim": []}}, "'grid'"),
            (["sweep"], {"study": ["path"], "path": "fbm", "N": 64, "grid": {"hurst": [0.7]}},
             "'study'"),
            (["sweep"], {"study": "validate", "grid": {"suite": ["trivial"]}}, "'study'"),
            # integrate and solve refuse a path and a coefficient of other dimensions
            (["integrate"], {"path": "linear", "velocity": [1, 1, 1], "start": [0, 0, 0],
                             "N": 64, "coefficient": "constant"},
             "coefficient 'constant' has dimension 2, the path has dimension 3"),
            (["solve"], {"path": "linear", "velocity": [1, 1, 1], "start": [0, 0, 0],
                         "N": 64, "coefficient": "jump_line"},
             "coefficient 'jump_line' has dimension 2, the path has dimension 3"),
            # a sweep on fewer than one thread used to run serially
            (["sweep", "--threads", "0"], {"study": "path", "path": "fbm", "N": 64,
                                           "grid": {"hurst": [0.7]}}, "'threads'"),
            (["sweep", "--threads", "-2"], {"study": "path", "path": "fbm", "N": 64,
                                            "grid": {"hurst": [0.7]}}, "'threads'"),
            # a repeated level would fit the growth exponent through one point
            (["variability"], {"path": "fbm", "N": 64, "hurst": 0.7, "coefficient": "cantor",
                               "s": 0.5, "levels": [5, 5]}, "'levels'"),
            # a negative master seed, on every subcommand: numpy's SeedSequence
            # refuses it, in a traceback from a sweep and misnamed from a path
            (["path", "--path", "fbm", "--hurst", "0.7", "--N", "8", "--dim", "2",
              "--seed", "-1"], None, "--seed"),
            *[([sub, "--seed", "-1"], None, "--seed")
              for sub in ("variability", "integrate", "solve", "validate")],
            (["sweep", "--seed", "-1"], {"study": "path", "path": "fbm", "N": 64,
                                         "grid": {"hurst": [0.7]}}, "--seed"),
            # a path beyond MAX_STEPS steps, which ended in numpy's memory error
            (["path", "--path", "fbm", "--hurst", "0.7", "--N", "100000000000", "--dim", "2"],
             None, f"'N' must be <= {MAX_STEPS}")]):
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


def test_cli_huge_gradient_measure_is_a_refusal(tmp_path, capsys):
    # a path with a huge range inflates the box that the Cantor measure's
    # lateral grid covers, and a huge level refines it: refused before the
    # grid is allocated (velocity 1e5 and level 2000 used to exhaust memory,
    # 1e300 to end in numpy's "Maximum allowed size exceeded"); the jump
    # line's segment through a box of side 1e300 is longer than a double
    # holds; no count overflows with a warning on the way to the refusal
    for i, (config, name, level) in enumerate([
            ({"path": "linear", "N": 64, "velocity": [1e5, 1e5]}, "cantor", 5),
            ({"path": "linear", "N": 64, "velocity": [1e300, 1e300]}, "cantor", 5),
            ({"path": "fbm", "hurst": 0.7, "N": 64, "levels": [5, 2000]}, "cantor", 2000),
            ({"path": "linear", "N": 64, "velocity": [1e300, 1e300],
              "coefficient": "jump_line"}, "halfplane(c=2.0)", 5)]):
        cfg = tmp_path / f"case_{i}.json"
        cfg.write_text(json.dumps({"coefficient": "cantor", "s": 0.5, **config}))
        out = tmp_path / f"case_{i}"
        assert cli_main(["variability", "--config", str(cfg), "--out-dir", str(out)]) \
            == EXIT_REFUSAL, config
        err = capsys.readouterr().err
        assert err.startswith(f"refusal: AtomBudgetRefusal: gradient measure of {name!r} "
                              f"at level {level} needs up to "), err
        assert "over the budget of 4194304 (MAX_ATOMS)" in err, err
        assert not (out / "variability_report.json").exists()


def test_parse_mesh_reads_power_of_two_ranges_and_lists():
    for spec in ("256..8192", "2^8..2^13"):
        assert _parse_mesh(spec) == [256, 512, 1024, 2048, 4096, 8192]
    assert _parse_mesh("3,5,7,9") == [3, 5, 7, 9]


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


def test_cli_flags_set_their_config_fields(tmp_path):
    # each flag sets the config field named by its dest: a command line and
    # a direct runner call on the equivalent config write the same files
    for args, config in [
            (["path", "--path", "fbm", "--hurst", "0.7", "--N", "64", "--dim", "2"],
             {"path": "fbm", "hurst": 0.7, "N": 64, "dim": 2}),
            (["variability", "--path", "fbm", "--hurst", "0.7", "--N", "64", "--dim", "2",
              "--coefficient", "cantor", "--s", "0.5", "--p", "2"],
             {"path": "fbm", "hurst": 0.7, "N": 64, "dim": 2, "coefficient": "cantor",
              "s": 0.5, "p": 2.0}),
            (["integrate", "--path", "fbm", "--hurst", "0.8", "--N", "256", "--dim", "1",
              "--coefficient", "constant", "--theta", "0.4", "--rate", "--mesh", "2^4..2^7"],
             {"path": "fbm", "hurst": 0.8, "N": 256, "dim": 1, "coefficient": "constant",
              "theta": 0.4, "rate": True, "meshes": [16, 32, 64, 128]}),
            (["solve", "--example", "jump_line", "--hurst", "0.75", "--N", "256",
              "--theta", "0.35", "--x0", "1,1"],
             {"path": "fbm", "coefficient": "jump_line", "hurst": 0.75, "N": 256,
              "theta": 0.35, "x0": [1.0, 1.0]}),
            (["validate"], {"suite": "trivial"})]:
        cli_out, direct_out = tmp_path / args[0] / "cli", tmp_path / args[0] / "direct"
        assert cli_main(args + ["--seed", "3", "--out-dir", str(cli_out)]) == EXIT_OK, args
        direct_out.mkdir()
        assert RUNNERS[args[0]](config, 3, str(direct_out)) == EXIT_OK, args
        names = sorted(path.name for path in cli_out.iterdir())
        assert names == sorted(path.name for path in direct_out.iterdir())
        assert "manifest.json" in names and len(names) >= 2
        for name in names:
            assert (cli_out / name).read_bytes() == (direct_out / name).read_bytes(), name


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


def _reads(tree, strings=False) -> set:
    """The names that ``tree`` reads: names and attribute names in load
    context and, with ``strings``, string constants that are identifiers
    (an attribute looked up or patched by name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def _unreached_definitions(modules: dict, roots: set) -> list:
    """The top-level definitions of ``modules`` (module name -> source) that
    no root reaches, as "module.name" or "module.Class.method".

    A definition is a module-level function, class or assigned name, or a
    method of a module-level class.  Reaching goes by name: a definition is
    reached when a root or a reached definition reads its name.  The roots
    are the names in ``roots`` and what each module's import-time code
    reads outside its definitions and imports (so a re-export in
    ``__init__`` reaches nothing).  A method is reached when its class is
    reached and its name is read; a dunder method comes with its class."""
    defs, reads = {}, set(roots)
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = (node.name, [node], None)
            elif isinstance(node, ast.ClassDef):
                key = f"{module}.{node.name}"
                methods = [item for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (item.name.startswith("__") and item.name.endswith("__"))]
                defs[key] = (node.name, node.bases + node.decorator_list
                             + [item for item in node.body if item not in methods], None)
                defs.update({f"{key}.{m.name}": (m.name, [m], key) for m in methods})
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update({f"{module}.{t.id}": (t.id, [node], None)
                             for t in targets if isinstance(t, ast.Name)})
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reads |= _reads(node)
    reached, grew = set(), True
    while grew:
        grew = False
        for key, (name, nodes, owner) in defs.items():
            if key not in reached and name in reads and (owner is None or owner in reached):
                reached.add(key)
                reads.update(*(_reads(n) for n in nodes))
                grew = True
    return sorted(set(defs) - reached)


def test_unreached_definitions_detected():
    modules = {
        "a": ("import os\nfrom .b import g\nX = 1\nY = f2()\n"
              "def f():\n    return X\ndef f2():\n    return 0\n"
              "class K:\n    z: int = 0\n    def __init__(self):\n        self.w = 1\n"
              "    def used(self):\n        return 1\n    def unused(self):\n        return 2\n"
              "if os.environ:\n    K().used()\n"),
        "b": "def g():\n    return h()\ndef h():\n    return 1\n"}
    assert _unreached_definitions(modules, {"f"}) == ["a.K.unused", "a.Y", "a.f2", "b.g", "b.h"]
    assert _unreached_definitions(modules, {"f", "g", "Y"}) == ["a.K.unused"]
    assert _reads(ast.parse('patch(bv, "cayley_inverse", "a b")'), strings=True) == {
        "patch", "bv", "cayley_inverse"}


#: definitions that no runner reaches and that a test checks against an
#: acceptance criterion ("criterion n: ...", read by tests/test_acceptance.py)
#: or against a statement of the paper ("paper: ...", read by some test)
CRITERION_ONLY = {
    "frac_calc.norm_W0": "criterion 3: the duality bound |int f dg| <= C ||f||_W0 ||g||_WT",
    "frac_calc.norm_WT": "criterion 3: the duality bound |int f dg| <= C ||f||_W0 ||g||_WT",
    "measures.upper_regularity_exponent":
        "criterion 7: upper-regularity exponents of the Cantor, segment and power measures",
    "frac_calc.rl_integral_left": "criterion 8: Riemann-Liouville closed forms and inversion",
    "measures.convolution_identity_check":
        "criterion 8: scaling law of the composition of two Riesz kernels",
    "doss.BVGradientMap": "criterion 12: the change-of-variable formula for F(X)",
    "doss.change_of_variable_check": "criterion 12: the change-of-variable formula for F(X)",
    "measures.mutual_energy": "criterion 13: symmetry of the mutual Riesz energy",
    "bv_library.cone_indicator":
        "paper: the cone example's jump set, the indicator of an open cone whose gradient "
        "measure is arclength on its two boundary rays",
    "variability.composition_bound_check":
        "paper: the composition estimate, a Gagliardo seminorm of phi(X) of order "
        "beta < alpha s bounded by the Hoelder seminorm and the variability statistic",
    "variability.meanvalue_check":
        "paper: the mean-value inequality |phi(x) - phi(y)| <= |x - y|^s (M phi(x) + "
        "M phi(y)), M the fractional maximal function of the gradient measure",
    "variability.fbm_energy_bound":
        "paper: the fBm examples, int |B_t - x|^-(n-1+s) dt finite below the phase condition",
    "variability.moment_condition_check":
        "paper: the moment condition int |z - x0|^gamma d|D phi|(z) < inf on shifted drivers",
    "variability.classify_crosscheck_energy":
        "paper: the relative condition as a mutual energy of |D phi| and the occupation measure",
}


def test_every_definition_serves_a_runner_or_a_criterion():
    # the package holds what the command line, the scripts and the
    # benchmark run (tracing.py patches attributes by name), and the paper
    # oracles that the acceptance criteria and lemma tests check; a
    # definition that only tests reach goes, or moves into tests/
    repo = Path(__file__).resolve().parents[1]
    src = Path(varpath.__file__).resolve().parent
    modules = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    roots = set().union(*(_reads(ast.parse(path.read_text()))
                          for path in sorted((repo / "scripts").glob("*.py"))))
    roots |= set().union(*(_reads(ast.parse(path.read_text()), strings=True)
                           for path in sorted((repo / "perfbench").glob("*.py"))))
    unreached = _unreached_definitions(modules, roots)
    # an entry that a runner reaches, or that no longer exists, is stale
    assert sorted(set(CRITERION_ONLY) - set(unreached)) == []
    names = {key.rsplit(".", 1)[1] for key in CRITERION_ONLY}
    assert _unreached_definitions(modules, roots | names) == []
    acceptance = _reads(ast.parse((repo / "tests" / "test_acceptance.py").read_text()))
    tested = set().union(*(_reads(ast.parse(path.read_text()))
                           for path in sorted((repo / "tests").glob("test_*.py"))))
    for key, reason in CRITERION_ONLY.items():
        assert reason.startswith(("criterion ", "paper: ")), key
        assert key.rsplit(".", 1)[1] in (
            acceptance if reason.startswith("criterion ") else tested), key


def test_trace_mode_patches_and_restores_the_library():
    # perfbench/tracing.py, behind run.py --trace 1, wraps library
    # attributes that it names as strings: each must exist, take the
    # wrapper, carry a traced call, and come back after uninstall
    from varpath import bv_library, doss, gls_integral, variability
    from varpath.variability import VariabilityParams

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = [node.args[1].value for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"]
    owners = [bv_library, bv_library.MatrixBV, doss, gls_integral, variability]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        during = [dict(vars(owner)) for owner in owners]
        variability.classify(varpath.make_fbm(0.7, 2, varpath.TimeGrid(1.0, 64), seed=0),
                             varpath.cantor_coefficient(2),
                             VariabilityParams(s=0.5, p=1.0, levels=(3, 4)))
        doss.solve_nd(varpath.jump_line_matrix(2.0), [-0.5, -0.5], [(-0.5, 0.5)] * 2)
    finally:
        uninstall()
    assert patched and sorted(name for b, d in zip(before, during) for name in b
                              if d[name] is not b[name]) == sorted(patched)
    for owner, b in zip(owners, before):
        assert vars(owner).keys() == b.keys()
        assert all(vars(owner)[name] is value for name, value in b.items())
    _, _, counts = tracer.totals([None])
    assert counts["measures.kernel_pairs"] > 0 and counts["bv_library.matrices"] > 0
    assert {span[0] for span in tracer.spans} >= {
        "measures.riesz_potential_many", "bv_library.curl_check",
        "bv_library.distortion_check", "bv_library.matrix_evaluate"}


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


#: the scipy modules varpath may load: cKDTree for the regularity exponents,
#: quad for convolution_identity_check
SCIPY_ALLOWED = {"scipy", "scipy.spatial", "scipy.integrate"}


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
        "scipy.linalg", "scipy.ndimage", "scipy.spatial.distance", "scipy.signal", "scipy.fft"]


def test_scipy_imports_stay_in_the_allowlist():
    # scipy.signal alone costs over a second of import and pulls in stats,
    # optimize, interpolate, fft and ndimage; numpy does the convolutions
    src = Path(varpath.__file__).resolve().parent
    found = [f"{path.name}:{line} {module}" for path in sorted(src.glob("*.py"))
             for line, module in _scipy_imports(path.read_text())
             if module not in SCIPY_ALLOWED]
    assert found == []
